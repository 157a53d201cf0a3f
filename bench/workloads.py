"""Seeded workload generation.

Every input is drawn with numpy alone from a key derived from ``(seed,
workload name)`` and written to disk before timing starts, so the program
under test receives only files and argv and a change to its own samplers
cannot change what is measured.

Sizes and scales sit on fixed stratified grids: one op at the centre of
each stratum of the log-uniform n range, and in the orbit slices the k
strata paired with the n strata by a rank-1 lattice, which spreads the
(n, k) pairs evenly over the square.  The seed draws everything else:
tensors, Haar factors, perturbations, hypergraphs, permutations and gap-lab
seeds.  With sizes redrawn per seed, op cost (about n^4 near the median)
moved the median op time by 20% between seeds; on the grid two seeds
measure the same mix.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("orbit-complex", "orbit-real", "gaplab", "hyper")

# Ops per pass and slice: 5/8 orbit pairs and 1/8 each of wide-scale,
# non-orbit and dist pairs.  A first pass of orbit-complex then takes 20-40 s
# on one core of a 2-core Xeon host; doubling the real workload's ops did not
# narrow its seed-to-seed spread.
ORBIT_SLICES = {"orbit": 20, "wide": 4, "non-orbit": 4, "dist": 4}
GAPLAB_OPS = 16
HYPER_OPS = 24

GAPLAB_MATRIX = {"n": 3200, "zeta": 0.5, "trials": 12}
GAPLAB_TENSOR = {"n": 60, "trials": 4}


@dataclass
class Op:
    """One CLI call: its argv, the answer it must give, and what the checks need."""

    argv: list
    expect: str | None  # "yes" / "no" for decisions, None for gap-lab runs
    label: str
    size: int  # the warm-up call uses the smallest op
    check: dict = field(default_factory=dict)


def workload_rng(seed: int, name: str) -> np.random.Generator:
    """Generator keyed by (seed, name); stable across processes, unlike hash()."""
    words = struct.unpack("<4I", hashlib.sha256(name.encode()).digest()[:16])
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, seed >> 32 & 0xFFFFFFFF, *words]))


def lattice(count: int) -> tuple:
    """Centred rank-1 lattice on [0, 1)^2 with a golden-ratio generator.

    Each coordinate puts one point at the centre of each of ``count``
    strata (the first coordinate in increasing order), and the generator
    spreads the pairs over the square like a Fibonacci lattice.
    """
    step = round(count / 1.618033988749895)
    while math.gcd(step, count) != 1:
        step += 1
    i = np.arange(count)
    return (i + 0.5) / count, ((i * step) % count + 0.5) / count


def log_uniform_ints(u, lo, hi) -> np.ndarray:
    return np.clip(np.rint(np.exp(math.log(lo) + u * math.log(hi / lo))), lo, hi).astype(int)


def uniform_ints(u, lo, hi) -> np.ndarray:
    return np.minimum(lo + np.floor(u * (hi - lo + 1)), hi).astype(int)


def gaussian(rng, shape, kind) -> np.ndarray:
    x = rng.standard_normal(shape)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(shape)
    return x


def haar(rng, n, kind) -> np.ndarray:
    z = gaussian(rng, (n, n), kind)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def act(factors, a) -> np.ndarray:
    L, R, T = factors
    return np.einsum("ip,jq,kr,pqr->ijk", L, R, T, a, optimize=True)


def write_t3b(path: Path, a: np.ndarray) -> None:
    """T3B v1: magic, kind byte, three u32 dims, little-endian f64 (or c16) entries."""
    complex_kind = np.iscomplexobj(a)
    head = b"T3B1" + struct.pack("<BIII", int(complex_kind), *a.shape)
    body = np.ascontiguousarray(a, dtype="<c16" if complex_kind else "<f8").tobytes()
    path.write_bytes(head + body)


def min_gram_gap(a: np.ndarray) -> float:
    """Smallest adjacent eigenvalue gap over the three mode Grams."""
    gaps = []
    for ax in range(3):
        m = np.moveaxis(a, ax, 0).reshape(a.shape[ax], -1)
        lam = np.linalg.eigvalsh(m @ m.conj().T)
        gaps.append(float(np.min(np.diff(lam))))
    return min(gaps)


def _orbit_ops(rng, work: Path, kind: str) -> list:
    plan = []
    for slice_name, count in ORBIT_SLICES.items():
        u, v = lattice(count)
        if slice_name == "wide":
            ns, ks = log_uniform_ints(u, 8, 32), uniform_ints(v, -40, 40)
        elif slice_name == "dist":
            ns, ks = log_uniform_ints(u, 8, 32), np.zeros(count, dtype=int)
        else:
            ns, ks = log_uniform_ints(u, 8, 64), uniform_ints(v, -8, 8)
        plan += [(slice_name, int(n), int(k), i) for i, (n, k) in enumerate(zip(ns, ks))]

    ops = []
    for idx, (slice_name, n, k, i) in enumerate(plan):
        a = gaussian(rng, (n, n, n), kind)
        if slice_name == "non-orbit":
            b = gaussian(rng, (n, n, n), kind)
        else:
            b = act([haar(rng, n, kind) for _ in range(3)], a)
        pa, pb, pw = work / f"op{idx}-a.t3b", work / f"op{idx}-b.t3b", work / f"op{idx}-w.json"
        if slice_name == "dist":
            delta = min_gram_gap(a)
            norm_a = float(np.linalg.norm(a))
            eps = delta / (8.0 * (norm_a + float(np.linalg.norm(b))))
            e = gaussian(rng, (n, n, n), kind)
            e /= np.linalg.norm(e)
            near = i % 2 == 0
            # criterion-3 construction: eps/2 away (YES) or twice the certified bound away (NO)
            size = 0.5 * eps if near else 2.0 * 8.0 * n ** 3.5 * norm_a ** 2 * eps / delta
            b = b + size * e
            argv = ["dist", "--eps", repr(eps)]
            expect = "yes" if near else "no"
        else:
            scale = math.ldexp(1.0, k)
            a, b = a * scale, b * scale
            argv = ["iso"]
            expect = "no" if slice_name == "non-orbit" else "yes"
        write_t3b(pa, a)
        write_t3b(pb, b)
        argv += ["--a", str(pa), "--b", str(pb), "--witness-out", str(pw), "--json"]
        ops.append(Op(argv, expect, f"{slice_name} n={n} k={k}", n, {"a": a, "b": b, "witness": pw}))
    return ops


def _gaplab_ops(rng, work: Path) -> list:
    ops = []
    for i in range(GAPLAB_OPS):
        seed = int(rng.integers(0, 2**63))
        if i % 2 == 0:
            p = GAPLAB_MATRIX
            csv = work / f"op{i}.csv"
            argv = ["gaps", "--n", str(p["n"]), "--zeta", str(p["zeta"]), "--trials", str(p["trials"]),
                    "--seed", str(seed), "--csv", str(csv), "--json"]
            check = {"experiment": "matrix", "csv": csv, "seed": seed, **p}
        else:
            p = GAPLAB_TENSOR
            argv = ["gaps", "--tensor", "--n", str(p["n"]), "--trials", str(p["trials"]), "--seed", str(seed), "--json"]
            check = {"experiment": "tensor", "seed": seed, **p}
        ops.append(Op(argv, None, f"{check['experiment']} seed={seed}", p["n"], check))
    return ops


def write_hyper(path: Path, sizes, edges) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("{} {} {}\n".format(*sizes))
        np.savetxt(fh, edges + 1, fmt="%d")


def _hyper_ops(rng, work: Path) -> list:
    # relabelled pairs (YES) and one-edge toggles (NO) each cover the size grid
    sizes = log_uniform_ints(lattice(HYPER_OPS // 2)[0], 10, 60)
    ops = []
    for i in range(HYPER_OPS):
        s, relabelled = int(sizes[i // 2]), i % 2 == 0
        g = rng.random((s, s, s)) < 0.5
        h = g.copy()
        if not relabelled:
            h[tuple(rng.integers(0, s, 3))] ^= True
        perms = [rng.permutation(s) for _ in range(3)]
        h = h[np.ix_(*[np.argsort(p) for p in perms])]  # h[p0[i], p1[j], p2[k]] = old h[i, j, k]
        g_edges, h_edges = np.argwhere(g), np.argwhere(h)
        pg, ph = work / f"op{i}-g.txt", work / f"op{i}-h.txt"
        write_hyper(pg, (s, s, s), g_edges)
        write_hyper(ph, (s, s, s), rng.permutation(h_edges))
        ops.append(Op(["hyper", "--g", str(pg), "--h", str(ph), "--json"], "yes" if relabelled else "no",
                      f"{'relabel' if relabelled else 'toggle'} s={s}", s, {"g": g_edges, "h": h_edges}))
    return ops


def generate(name: str, seed: int, work: Path) -> list:
    """Write the inputs of ``name`` for ``seed`` under ``work`` and return its ops in run order."""
    rng = workload_rng(seed, name)
    if name == "orbit-complex":
        return _orbit_ops(rng, work, "complex")
    if name == "orbit-real":
        return _orbit_ops(rng, work, "real")
    if name == "gaplab":
        return _gaplab_ops(rng, work)
    if name == "hyper":
        return _hyper_ops(rng, work)
    raise ValueError(f"unknown workload {name!r}")


def gaplab_trials(ops: list) -> list:
    """Monte Carlo trials of each gap-lab op."""
    return [op.check["trials"] for op in ops]


def digest(ops: list, work: Path) -> str:
    """sha256 over every op's argv and every generated file, with the work directory's name left out."""
    h = hashlib.sha256()
    for op in ops:
        h.update("\0".join(op.argv).replace(str(work), "$WORK").encode() + b"\n")
    for path in sorted(work.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
