"""Exception types shared across the package."""

from __future__ import annotations


class OtisoError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(OtisoError):
    """Operands have incompatible shapes."""


class ScalarKindMismatch(OtisoError):
    """Real and complex operands were mixed where a single kind is required."""


class NonFiniteEntries(OtisoError):
    """A tensor or matrix contains NaN or infinite entries."""


class NotUnitary(OtisoError):
    """A transform factor fails the unitarity tolerance."""


class NonHermitianInput(OtisoError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian within tolerance."""


class ConvergenceFailure(OtisoError):
    """An iterative solver did not converge: the eigensolver, or the phase synchronization short of every target."""


class ConfigInvalid(OtisoError):
    """An experiment or decision configuration violates its invariants."""


class EpsOutOfRange(OtisoError):
    """The requested tolerance is outside the range the gap certifies."""


class FormatError(OtisoError):
    """A serialized tensor, witness, or hypergraph file is malformed."""


class Infeasible(OtisoError):
    """A sign or phase constraint system admits no solution.

    Attributes
    ----------
    certificate : list
        Constraint keys witnessing the contradiction.  For sign systems this
        is a set of constraints whose parity product is inconsistent; for
        phase systems it is the four keys of a 4-cycle whose angle exceeds
        their slacks, or the targets of zero slack.
    solver_path : str or None
        The solver path that rejected the system (``"gf2"``, ``"cycle"`` or
        ``"zero_slack"``), when a solver raised it.
    """

    def __init__(self, certificate, message: str | None = None, solver_path: str | None = None):
        self.certificate = list(certificate)
        self.solver_path = solver_path
        super().__init__(message or f"constraint system infeasible ({len(self.certificate)} constraints in certificate)")
