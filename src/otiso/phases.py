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

For phases, the closed form answers dense consistent systems on solver
path ``"anchored"``.  When it misses a target (sparse systems, whose
slices share no target with the anchor's slice, and every inconsistent
system), a second stage runs on the targets as rows: batched frontier
propagation spreads weighted circular means out from the heaviest target,
the estimates fix every target's integer wrap, and a weighted
least-squares solve of the ``(n1+n2+n3)``-square normal equations refines
the angles.  The normal matrix is factored once, by ``eigh``, into its
minimum-norm pseudo-inverse; the solve and its refinement pass both reuse
it.  A target the least-squares point misses makes the system infeasible,
on solver path ``"lstsq"``.

Both return one :class:`Assignment`: the three per-mode unit diagonals
(``+-1.0`` signs, or ``exp(i*angle)`` phases) that ``assemble_witness``
places between the two eigenbases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, Infeasible
from .hosvd import CoreTensor, PhaseTargets
from .tensor import TransformTriple

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Assignment:
    """Per-mode unit diagonals: real +-1.0 signs or complex unit phases."""

    diagonals: tuple[np.ndarray, np.ndarray, np.ndarray]
    solver_path: str  # "gf2" | "anchored" | "lstsq" | "identity" when no target pinned the gauge


def wrap_angle(x):
    """Wrap to (-pi, pi] elementwise."""
    r = np.remainder(np.asarray(x, dtype=np.float64) + math.pi, TWO_PI) - math.pi
    return np.where(r == -math.pi, math.pi, r)


def _canonical_angles(x: np.ndarray) -> np.ndarray:
    out = np.remainder(x, TWO_PI)
    out[out >= TWO_PI] = 0.0  # guard the closed-boundary rounding case
    return out


def _rows(targets: PhaseTargets) -> tuple[np.ndarray, np.ndarray]:
    """Per target in sorted-key order, its key and variable columns ``(i, n1 + j, n1 + n2 + k)``; fallbacks only."""
    idx = np.argwhere(targets.weight > 0)
    n1, n2, _ = targets.weight.shape
    return idx, idx + np.array([0, n1, n1 + n2])


def _normal_matrix(var: np.ndarray, w: np.ndarray, nvar: int) -> np.ndarray:
    """``M^T diag(w) M`` for the 0/1 target-variable incidence ``M``."""
    pairs = (var[:, :, None] * nvar + var[:, None, :]).ravel()
    return np.bincount(pairs, np.repeat(w, 9), nvar * nvar).reshape(nvar, nvar)


def incidence_rank(targets: PhaseTargets) -> int:
    """Rank of the targets' 0/1 incidence: ``n1 + n2 + n3 - 2`` when they pin every angle up to the gauge."""
    _, var = _rows(targets)
    return int(np.linalg.matrix_rank(_normal_matrix(var, np.ones(len(var)), sum(targets.weight.shape))))


def _reject_dead(targets: PhaseTargets, solver_path: str) -> None:
    dead = (targets.weight > 0) & (targets.slack <= 0.0)
    if dead.any():
        raise Infeasible(targets.keys(dead), "targets with zero slack admit no strict solution", solver_path)


def _anchor_sums(targets: PhaseTargets, values: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The heaviest target, and per variable the grid contracted with the anchor's slice in that mode.

    The grid ``z`` holds ``values`` at the targets and +0 elsewhere (a -0.0
    would turn a zero sum's angle into pi).  The anchor ``(i0, j0, k0)`` is
    the first maximum of ``weight`` in C order; the mode-1 sum at ``i`` is
    ``sum_jk z[i,j,k] * conj(z[i0,j,k])``, and likewise for j and k.  The
    three sums are concatenated in variable order.
    """
    z = np.where(targets.weight > 0, values, 0)
    anchor = np.unravel_index(np.argmax(targets.weight), z.shape)
    i0, j0, k0 = anchor
    return anchor, np.concatenate([
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
    anchor, sums = _anchor_sums(targets, np.where(rhs, -1.0, 1.0))
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
    a, b, c = np.split(val, (n1, n1 + n2))
    if np.any((a[:, None, None] ^ b[:, None]) ^ c ^ rhs, where=targets.weight > 0):
        return None
    return np.where(val, -1.0, 1.0)


def _eliminate_signs(targets: PhaseTargets, rhs: np.ndarray) -> np.ndarray:
    """GF(2) elimination in sorted-row order: the signs, or :class:`Infeasible` with a parity certificate."""
    idx, var = _rows(targets)
    rhs = rhs[targets.weight > 0]
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
    return Assignment(tuple(np.split(signs, np.cumsum(rhs.shape[:2]))), "gf2")


def _propagate_estimates(var: np.ndarray, phi: np.ndarray, weight: np.ndarray, nvar: int) -> np.ndarray:
    """Stage 2, first step: batched frontier propagation with weighted circular means.

    Takes the targets as rows (variable columns, ``phi`` and ``weight``)
    and returns an initial angle estimate per variable.  Propagation is
    seeded at the heaviest target (its first two variables gauged to zero).
    In each round, every unassigned variable that has a target with its
    other two variables assigned gets the weighted circular mean over all
    such targets.  When propagation stalls, it is reseeded at the heaviest
    target that touches an unassigned variable, found by one masked
    ``argmax`` (the lowest row among equal weights, as a stable sort would
    order them).  Untouched variables stay at zero.
    """
    est = np.zeros(nvar)
    assigned = np.zeros(nvar, dtype=bool)
    touched = np.bincount(var.ravel(), minlength=nvar) > 0
    while True:
        missing = ~assigned[var]
        n_missing = missing.sum(axis=1)
        front = np.flatnonzero(n_missing == 1)
        if front.size:
            # unassigned estimates are zero, so the row sum is the other two
            v = var[front][missing[front]]
            ang = phi[front] - est[var[front]].sum(axis=1)
            w = weight[front]
            acc = np.bincount(v, w * np.cos(ang), nvar) + 1j * np.bincount(v, w * np.sin(ang), nvar)
            v = np.unique(v)
            est[v] = np.angle(acc[v])
            assigned[v] = True
        elif (touched & ~assigned).any():
            # heaviest target with two unassigned variables; argmax keeps the lowest row on ties
            seed = int(np.argmax(np.where(n_missing >= 2, weight, -np.inf)))
            vs = var[seed][missing[seed]]
            est[vs[-1]] = wrap_angle(phi[seed] - est[var[seed]].sum())
            assigned[vs] = True
        else:
            return est


def _phase_assignment(x: np.ndarray, shape, solver_path: str) -> Assignment:
    parts = np.split(x, np.cumsum(shape[:2]))
    return Assignment(tuple(np.exp(1j * _canonical_angles(part)) for part in parts), solver_path)


def _anchored_phases(targets: PhaseTargets) -> Assignment | None:
    """Stage 1: closed-form angles from the heaviest target's three slices, or None when they miss a target.

    With ``z = weight * exp(i*phi)`` on the core grid (zero off the targets)
    and the heaviest target at ``(i0, j0, k0)``, a consistent system has
    ``z[i,j,k] * conj(z[i0,j,k]) = |.| * exp(i*(alpha_i - alpha_i0))``, so
    ``alpha_i - alpha_i0`` is the argument of that product summed over
    ``(j, k)``: one contraction per mode gives every angle relative to the
    anchor, and shifting alpha puts the anchor's sum on its own ``phi``.
    A slice with no target in common with the anchor's slice gets angle 0,
    so sparse systems miss and fall through; the answer is returned only
    when every target's residual is strictly below its slack.
    """
    anchor, sums = _anchor_sums(targets, targets.weight * np.exp(1j * targets.phi))
    x = np.angle(sums)
    n1, n2, _ = targets.phi.shape
    i0, j0, k0 = anchor
    x[:n1] += targets.phi[anchor] - (x[i0] + x[n1 + j0] + x[n1 + n2 + k0])
    a, b, c = np.split(x, (n1, n1 + n2))
    resid = np.abs(wrap_angle(targets.phi - ((a[:, None, None] + b[:, None]) + c)))
    if not np.all(resid < targets.slack, where=targets.weight > 0):
        return None
    return _phase_assignment(x, targets.phi.shape, "anchored")


def _least_squares_phases(targets: PhaseTargets) -> Assignment:
    """Stage 2: propagation pins each target's wrap, then weighted least squares; :class:`Infeasible` on a miss."""
    on = targets.weight > 0
    idx, var = _rows(targets)
    phi, weight = targets.phi[on], targets.weight[on]
    nvar = sum(on.shape)
    est = _propagate_estimates(var, phi, weight, nvar)
    # Fix integer wraps at the estimates; the constraint becomes linear in R.
    s0 = est[var[:, 0]] + est[var[:, 1]] + est[var[:, 2]]
    t_lin = s0 + wrap_angle(phi - s0)
    w = np.maximum(weight, 1e-300)
    # normal equations M^T W M x = M^T W t, M the 0/1 target-variable incidence
    gram = _normal_matrix(var, w, nvar)
    # the minimum-norm pseudo-inverse, factored once for both passes
    lam, Q = np.linalg.eigh(gram)
    keep = np.abs(lam) > np.finfo(np.float64).eps * nvar * np.max(np.abs(lam))
    inv = np.divide(1.0, lam, out=np.zeros(nvar), where=keep)
    x = np.zeros(nvar)
    for _ in range(2):  # the second pass refines x on its own residual
        r = t_lin - (x[var[:, 0]] + x[var[:, 1]] + x[var[:, 2]])
        x = x + Q @ (inv * (Q.T @ np.bincount(var.ravel(), np.repeat(w * r, 3), nvar)))
    ok = np.abs(wrap_angle(phi - (x[var[:, 0]] + x[var[:, 1]] + x[var[:, 2]]))) < targets.slack[on]
    if not bool(np.all(ok)):
        violated = [tuple(k) for k in idx[~ok].tolist()]
        raise Infeasible(violated, f"{len(violated)} phase constraints unsatisfied at the least-squares point", "lstsq")
    return _phase_assignment(x, on.shape, "lstsq")


def solve_phases(targets: PhaseTargets) -> Assignment:
    """Recover per-mode angles satisfying every target's strict slack bound.

    ``targets`` is the :class:`PhaseTargets` of two complex cores; a target
    is met when its circular residual is strictly below its slack, so a
    zero-slack target is infeasible.  Two stages, each checked against
    every target.  The closed form anchored at the heaviest target answers
    dense consistent systems on solver path ``"anchored"``.  Otherwise
    propagation produces estimates good enough to pin each constraint's
    integer wrap; with wraps fixed the system is linear, solved by weighted
    least squares on the normal equations.  The normal matrix is factored
    once with ``eigh``; its eigenvalues at or below ``lstsq``'s default
    cutoff (machine epsilon times ``n1+n2+n3`` times the largest) count as
    zero, which gives the minimum-norm solution ``lstsq(..., rcond=None)``
    gives, on both passes (the second refines the first on its own
    residual).  That answer is on solver path ``"lstsq"``; a miss there
    raises :class:`Infeasible` with the violated keys at the least-squares
    point.  The diagonals are ``exp(i*angle)`` of the angles taken to
    [0, 2pi).
    """
    if not len(targets):
        raise ConfigInvalid("at least one phase target is required")
    _reject_dead(targets, "lstsq")
    return _anchored_phases(targets) or _least_squares_phases(targets)


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
    return TransformTriple(factors, check=False)
