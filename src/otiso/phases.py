"""Sign and phase recovery from core-entry constraints, and witness assembly.

Given per-entry targets relating two cores, the solvers look for per-mode
diagonal corrections: signs ``s1(i) s2(j) s3(k) = t_ijk`` in the real case,
angles ``alpha_i + beta_j + gamma_k = phi_ijk (mod 2pi)`` within per-entry
slack in the complex case.  Both systems have a two-parameter gauge freedom
(shift all alpha by theta and all beta by -theta, and likewise alpha/gamma),
so solutions are pinned by gauging free directions to zero.

Both solvers take the :class:`PhaseTargets` that ``compare_cores`` builds:
``phi``, ``slack`` and ``weight`` on the core grid, the targets being the
entries of positive weight.  Both systems are angular synchronization
(Singer 2011, ACHA 30(1)), signs being phases in {0, pi}, and both first
try one closed form on that grid, checked against every target.  With
``z`` the targets' values on the grid (``weight * exp(i*phi)`` for phases,
``+-1`` for signs; zero off the targets), the slice sum ``sum_jk
z[i,j,k] * conj(z[i0,j,k])`` carries ``alpha_i - alpha_i0`` relative to
the heaviest target ``(i0, j0, k0)``: its argument for phases, its sign
for signs.  Three contractions give every variable relative to that
anchor, and one shift puts the anchor on its own target.

For signs, the closed form's answer is kept only when every slice sum is
nonzero and every target is met.  Then every slice shares a target with
the anchor's slice, so each variable is pinned relative to the anchor and
the rank is ``n1 + n2 + n3 - 2``.  A target's row has one variable per
mode, so the row space of any sign system lies in the annihilator of the
two gauge directions; at that rank it is the annihilator, and the reduced
echelon form, with free columns the last beta and the last gamma, is
fixed.  The anchored signs gauged to +1 there are the elimination's answer
bit for bit.  Otherwise the system is eliminated over GF(2), one row at a
time in sorted-key order on Python-int bit rows; only the elimination
yields parity certificates.  All sign answers are on solver path ``"gf2"``.

For phases, the closed form answers dense consistent systems.  When it
misses a target (sparse systems, whose slices share no target with the
anchor's slice, and every inconsistent system), a 4-cycle through the
anchor whose angle exceeds its four slacks certifies a NO; otherwise
alternating synchronization on the grid looks for angles meeting every
target, and a miss there certifies nothing either way.

Both return one :class:`Assignment`: the three per-mode unit diagonals
(``+-1.0`` signs, or ``exp(i*angle)`` phases) that ``assemble_witness``
places between the two eigenbases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, ConvergenceFailure, DimensionMismatch, Infeasible
from .hosvd import CoreTensor, PhaseTargets
from .tensor import TransformTriple

TWO_PI = 2.0 * math.pi

# Alternating synchronization: sweeps from one start, the number of starts
# (the first and up to 4 restarts), each at the closed form anchored at one
# of the heaviest targets, and the factor on a missed target's entry per
# sweep (at most 16^50 = 2^200 in all).
SYNC_SWEEPS = 50
SYNC_STARTS = 5
SYNC_BOOST = 16.0

# Per plane (p, q) of the cycle check: the modes set to the anchor's index at each corner, in M's factor order.
_CYCLES = tuple(((), (q,), (p,), (p, q)) for p, q in ((0, 1), (0, 2), (1, 2)))


@dataclass(frozen=True)
class Assignment:
    """Per-mode unit diagonals: real +-1.0 signs or complex unit phases."""

    diagonals: tuple[np.ndarray, np.ndarray, np.ndarray]
    solver_path: str  # "gf2" | "anchored" | "synchronization" | "identity" when no target pinned the gauge


def wrap_angle(x):
    """Wrap to (-pi, pi] elementwise."""
    r = np.remainder(np.asarray(x, dtype=np.float64) + math.pi, TWO_PI) - math.pi
    return np.where(r == -math.pi, math.pi, r)


def _by_mode(x: np.ndarray, shape) -> tuple:
    """The alpha, beta and gamma parts of a vector in variable order, as views."""
    return x[:shape[0]], x[shape[0]:shape[0] + shape[1]], x[shape[0] + shape[1]:]


def _rows(targets: PhaseTargets) -> tuple[np.ndarray, np.ndarray]:
    """Per target in sorted-key order, its key and variable columns ``(i, n1 + j, n1 + n2 + k)``; for GF(2) and ranks only."""
    idx = np.argwhere(targets.on)
    n1, n2, _ = targets.weight.shape
    return idx, idx + np.array([0, n1, n1 + n2])


def _normal_matrix(var: np.ndarray, nvar: int) -> np.ndarray:
    """``M^T M`` for the 0/1 target-variable incidence ``M``."""
    pairs = (var[:, :, None] * nvar + var[:, None, :]).ravel()
    return np.bincount(pairs, minlength=nvar * nvar).reshape(nvar, nvar)


def incidence_rank(targets: PhaseTargets) -> int:
    """Rank of the targets' 0/1 incidence: ``n1 + n2 + n3 - 2`` when they pin every angle up to the gauge."""
    _, var = _rows(targets)
    return int(np.linalg.matrix_rank(_normal_matrix(var, sum(targets.weight.shape))))


def _reject_dead(targets: PhaseTargets, solver_path: str) -> None:
    dead = targets.on & (targets.slack <= 0.0)
    if dead.any():
        raise Infeasible(targets.keys(dead), "targets with zero slack admit no strict solution", solver_path)


def _on_grid(targets: PhaseTargets, values: np.ndarray) -> tuple[np.ndarray, tuple]:
    """``values`` at the targets and +0 elsewhere (a -0.0 would turn a zero sum's angle into pi), and the anchor.

    The anchor is the heaviest target, the first maximum of ``weight`` in C order.
    """
    z = np.where(targets.on, values, 0)
    return z, np.unravel_index(targets.weight.argmax(), z.shape)


def _slice_sums(z: np.ndarray, anchor: tuple) -> np.ndarray:
    """Per variable, the grid contracted with the anchor's slice in that mode, in variable order.

    With the anchor at ``(i0, j0, k0)``, the mode-1 sum at ``i`` is
    ``sum_jk z[i,j,k] * conj(z[i0,j,k])``, and likewise for j and k.
    """
    i0, j0, k0 = anchor
    return np.concatenate([
        z.reshape(z.shape[0], -1) @ z[i0].conj().ravel(),
        np.einsum("ijk,ik->j", z, z[:, j0].conj()),
        z[:, :, k0].conj().ravel() @ z.reshape(-1, z.shape[2]),
    ])


def _anchored_signs(targets: PhaseTargets, rhs: np.ndarray) -> np.ndarray | None:
    """The gauged signs from the heaviest target's three slices, or None where elimination must decide.

    A slice sum's sign is that variable's sign relative to the anchor's.
    Alpha is flipped so the anchor meets its own target, and the last beta
    and the last gamma are gauged to +1.  A zero sum or a missed target gives None.
    """
    n1, n2, _ = rhs.shape
    z, anchor = _on_grid(targets, np.where(rhs, -1.0, 1.0))
    sums = _slice_sums(z, anchor)
    if not sums.all():
        return None
    val = sums < 0
    if rhs[anchor]:
        val[:n1] ^= True
    # every target has one variable per mode, so flipping two whole modes keeps every target's parity
    if val[n1 + n2 - 1]:
        val[: n1 + n2] ^= True
    if val[-1]:
        val[:n1] ^= True
        val[n1 + n2:] ^= True
    a, b, c = _by_mode(val, rhs.shape)
    if ((a[:, None, None] ^ b[:, None]) ^ c ^ rhs).any(where=targets.on):
        return None
    return np.where(val, -1.0, 1.0)


def _eliminate_signs(targets: PhaseTargets, rhs: np.ndarray) -> np.ndarray:
    """GF(2) elimination in sorted-row order: the signs, or :class:`Infeasible` with a parity certificate."""
    idx, var = _rows(targets)
    rhs = rhs[targets.on]
    # Pivots in reduced echelon form at their pivot column, as [bits, rhs,
    # provenance]: a pivot has no bit at any other pivot column, so a row is
    # reduced by the pivots at its own three columns.  Provenance is a bit set
    # over the pivots found so far (in order) whose rows XOR to that pivot.
    piv = {}
    piv_rows = []
    for row, (cols, bit) in enumerate(zip(var.tolist(), rhs.tolist())):
        coef, prov = (1 << cols[0]) | (1 << cols[1]) | (1 << cols[2]), 0
        for c in cols:
            p = piv.get(c)
            if p:
                coef, bit, prov = coef ^ p[0], bit ^ p[1], prov ^ p[2]
        if not coef:
            if bit:
                rows = [r for k, r in enumerate(piv_rows) if prov >> k & 1] + [row]
                raise Infeasible(
                    [tuple(k) for k in idx[rows].tolist()], "sign constraints contain an odd inconsistency cycle", "gf2"
                )
            continue
        col = (coef & -coef).bit_length() - 1
        prov ^= 1 << len(piv_rows)
        piv_rows.append(row)
        for p in piv.values():
            if p[0] >> col & 1:
                p[0], p[1], p[2] = p[0] ^ coef, p[1] ^ bit, p[2] ^ prov
        piv[col] = [coef, bit, prov]
    # free variables are +1, so each pivot variable equals its reduced rhs
    signs = np.ones(sum(targets.weight.shape))
    signs[[c for c, p in piv.items() if p[1]]] = -1.0
    # elimination is exact, but verify anyway: a silent solver bug here would
    # poison every YES verdict downstream
    wrong = np.flatnonzero((signs[var].prod(axis=1) < 0) != rhs)
    if wrong.size:
        raise Infeasible([tuple(idx[wrong[0]].tolist())], "internal: eliminated system fails verification", "gf2")
    return signs


def solve_signs(targets: PhaseTargets) -> Assignment:
    """Solve ``s1(i) s2(j) s3(k) = t`` over {-1, +1} for all targets.

    ``targets`` is the :class:`PhaseTargets` of two real cores: the sign
    ``t`` is -1 where ``|phi| > pi/2``, and zero-slack targets are
    infeasible.  The closed form anchored at the heaviest target answers
    first: when it meets every target and every slice sum is nonzero, the
    rank is ``n1 + n2 + n3 - 2`` and its signs, gauged to +1 at the last
    beta and the last gamma, are the elimination's answer.  Otherwise the
    system is eliminated over GF(2) (sign -1 encodes bit 1): rows are taken
    in sorted-key order and each one independent of the rows before it
    becomes a pivot at its lowest free column.  When a row reduces to
    ``0 = 1``, the pivot rows that span it together with that row form a
    parity certificate (their targets multiply to -1 while every variable
    they touch appears an even number of times), raised as
    :class:`Infeasible`.  Free variables, one per gauge direction and
    connected component, are fixed to +1.  The diagonals are the ``+-1.0``
    sign vectors, on solver path ``"gf2"``.
    """
    _reject_dead(targets, "gf2")
    rhs = np.abs(targets.phi) > math.pi / 2
    signs = _anchored_signs(targets, rhs)
    if signs is None:
        signs = _eliminate_signs(targets, rhs)
    return Assignment(_by_mode(signs, rhs.shape), "gf2")


def _phase_assignment(x: np.ndarray, shape, solver_path: str) -> Assignment:
    angles = np.remainder(x, TWO_PI)
    angles[angles >= TWO_PI] = 0.0  # guard the closed-boundary rounding case
    return Assignment(_by_mode(np.exp(1j * angles), shape), solver_path)


def _arg(z: np.ndarray) -> np.ndarray:
    """``np.angle(z)`` of a complex array, bit for bit, without its Python-level wrapper."""
    return np.arctan2(z.imag, z.real)


def _closed_form(z: np.ndarray, phi: np.ndarray, anchor: tuple) -> np.ndarray:
    """Angles relative to ``anchor`` from its three slice sums, alpha shifted so the anchor meets its own ``phi``.

    With ``z = weight * exp(i*phi)``, a consistent system has ``z[i,j,k] *
    conj(z[i0,j,k]) = |.| * exp(i*(alpha_i - alpha_i0))``.  A slice sharing
    no target with the anchor's gets angle 0, so sparse systems miss.
    """
    sums = _slice_sums(z, anchor)
    x = _arg(sums)
    n1, n2, _ = z.shape
    i0, j0, k0 = anchor
    x[:n1] += phi[anchor] - (x[i0] + x[n1 + j0] + x[n1 + n2 + k0])
    return x


def _reject_cycle(targets: PhaseTargets, anchor: tuple) -> None:
    """Raise :class:`Infeasible` with the four keys of the anchor's most violated 4-cycle, if any.

    The cycles are the anchor's 2x2 minors in the three planes; in the
    (i, j) plane, ``M = z_ijk conj(z_ij0k) conj(z_i0jk) z_i0j0k``.  Every
    variable cancels in ``arg M``, so angles meeting all four targets keep
    ``|arg M|`` below their four slacks' sum, whatever the wraps (the cycle
    constraint of Zach, Klopschitz & Pollefeys, CVPR 2010).  Only cycles
    whose four entries are all targets count, so their keys are found first
    and the angles gathered there.  The cycle of largest excess, first in
    plane and then C order, is reported with its keys in the order of M's
    factors.
    """
    on = targets.on
    found = np.nonzero(on)  # every target, in C order

    def at(keys, moved):  # keys with the modes in moved set to the anchor's index
        return tuple(anchor[m] if m in moved else keys[m] for m in range(3))

    worst, cycle = 0.0, None
    for moves in _CYCLES:
        closed = on[at(found, moves[1])] & on[at(found, moves[2])] & on[at(found, moves[3])]
        keys = tuple(k[closed] for k in found)
        (f, fq, fp, fpq), (s, sq, sp, spq) = ([grid[at(keys, moved)] for moved in moves]
                                              for grid in (targets.phi, targets.slack))
        excess = np.abs(wrap_angle((f - fq) - (fp - fpq))) - (s + sq + sp + spq)
        if excess.size and excess.max() > worst:
            first = excess.argmax()
            worst = excess[first]
            cycle = [tuple(int(x) for x in at([k[first] for k in keys], moved)) for moved in moves]
    if cycle is not None:
        raise Infeasible(cycle, f"a 4-cycle's angle exceeds its four slacks by {worst:.3g} rad", "cycle")


def _synchronize(targets: PhaseTargets, z: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """Alternating synchronization from the angles ``x``: angles meeting every target, or None after the sweep cap.

    A sweep sets ``alpha_i = arg sum_jk z_ijk conj(beta_j gamma_k)``, then
    beta and gamma likewise (block-coordinate ascent for angular
    synchronization; Boumal 2016, SIAM J. Optim. 26(4)).  Before each sweep
    the targets still missed have their ``z`` multiplied by ``SYNC_BOOST``,
    which pulls the ascent out of local maxima that give up light targets.
    """
    # the check reads the targets alone, far cheaper than the grid when they are sparse
    i, j, k = np.nonzero(targets.on)
    phi, slack, z = targets.phi[i, j, k], targets.slack[i, j, k], z.copy()
    a, b, c = _by_mode(x, z.shape)
    for sweep in range(SYNC_SWEEPS + 1):
        missed = ~(np.abs(wrap_angle(phi - ((a[i] + b[j]) + c[k]))) < slack)
        if not missed.any():
            return np.concatenate([a, b, c])
        if sweep == SYNC_SWEEPS:
            return None
        z[i[missed], j[missed], k[missed]] *= SYNC_BOOST
        a = _arg(np.einsum("ijk,j,k->i", z, np.exp(-1j * b), np.exp(-1j * c)))
        b = _arg(np.einsum("ijk,i,k->j", z, np.exp(-1j * a), np.exp(-1j * c)))
        c = _arg(np.einsum("ijk,i,j->k", z, np.exp(-1j * a), np.exp(-1j * b)))


def solve_phases(targets: PhaseTargets) -> Assignment:
    """Recover per-mode angles satisfying every target's strict slack bound.

    ``targets`` is the :class:`PhaseTargets` of two complex cores; a target
    is met when its circular residual is strictly below its slack, so
    zero-slack targets are infeasible (solver path ``"zero_slack"``).  The
    closed form anchored at the heaviest target answers on solver path
    ``"anchored"``.  When it misses, a violated 4-cycle through the anchor
    raises :class:`Infeasible` on solver path ``"cycle"``; otherwise
    alternating synchronization from the closed forms anchored at the
    ``SYNC_STARTS`` heaviest targets answers on solver path
    ``"synchronization"``, and a miss from every start raises
    :class:`ConvergenceFailure`.  The diagonals are ``exp(i*angle)``.
    """
    if not len(targets):
        raise ConfigInvalid("at least one phase target is required")
    _reject_dead(targets, "zero_slack")
    z, anchor = _on_grid(targets, targets.weight * np.exp(1j * targets.phi))
    x = _closed_form(z, targets.phi, anchor)
    a, b, c = _by_mode(x, z.shape)
    resid = np.abs(wrap_angle(targets.phi - ((a[:, None, None] + b[:, None]) + c)))
    if (resid < targets.slack).all(where=targets.on):
        return _phase_assignment(x, z.shape, "anchored")
    _reject_cycle(targets, anchor)
    starts = np.flatnonzero(targets.on)[np.argsort(-targets.weight[targets.on], kind="stable")[:SYNC_STARTS]]
    for start in starts:
        x = _synchronize(targets, z, _closed_form(z, targets.phi, np.unravel_index(start, z.shape)))
        if x is not None:
            return _phase_assignment(x, z.shape, "synchronization")
    raise ConvergenceFailure(f"synchronization missed a target from {len(starts)} starts; no 4-cycle is violated")


def assemble_witness(sa: CoreTensor, sb: CoreTensor, assignment: Assignment) -> TransformTriple:
    """Build the transform triple ``(V1 D1 U1*, V2 D2 U2*, V3 D3 U3*)``.

    ``U_d`` come from ``sa``, ``V_d`` from ``sb`` and ``D_d`` is the
    assignment's mode-``d`` diagonal; the triple is complex when any factor
    is.  Applying the result to ``sa``'s source tensor lands on ``sb``'s
    source whenever the assignment satisfied its constraints.  Unitarity is
    not audited here: ``verify_witness`` checks it before any YES, so a
    non-unitary candidate ends as ``cannot_decide``.
    """
    if sa.dims != sb.dims:
        raise DimensionMismatch(f"core dims differ: {sa.dims} vs {sb.dims}")
    factors = []
    for mode, (U, V, d) in enumerate(zip(sa.bases, sb.bases, assignment.diagonals), 1):
        if d.shape[0] != U.shape[0]:
            raise DimensionMismatch(f"assignment length {d.shape[0]} does not match mode-{mode} size {U.shape[0]}")
        factors.append((V * d) @ U.conj().T)
    return TransformTriple._adopt(factors)
