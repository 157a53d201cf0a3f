"""Serialization: T3B v1 tensor binaries, a JSON mirror, and witness files.

T3B v1 layout: magic ``T3B1``, one u8 scalar kind (0 = real, 1 = complex),
three little-endian u32 dims, then the entries as little-endian f64 in
C order (lexicographic (i, j, k)); complex entries are (re, im) pairs.
Witness files use the same matrix-block conventions under magic ``T3W1``:
kind byte, three u32 sizes, then the three square factors back to back.
:func:`read_tensor` and :func:`read_witness` read either form, told apart
by the leading magic bytes.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError, NonFiniteEntries
from .tensor import Tensor3, TransformTriple

TENSOR_MAGIC = b"T3B1"
WITNESS_MAGIC = b"T3W1"

_KIND_TO_BYTE = {"real": 0, "complex": 1}
_BYTE_TO_KIND = {0: "real", 1: "complex"}


def _entries_to_bytes(arr: np.ndarray, kind: str) -> bytes:
    if kind == "real":
        return np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return np.ascontiguousarray(arr, dtype="<c16").tobytes()


def _entries_from_bytes(buf: bytes, kind: str, count: int, offset: int) -> np.ndarray:
    """Read-only view of ``count`` entries at byte ``offset``; the object built from it makes the only copy."""
    return np.frombuffer(buf, dtype="<f8" if kind == "real" else "<c16", count=count, offset=offset)


def tensor_to_bytes(a: Tensor3) -> bytes:
    head = TENSOR_MAGIC + struct.pack("<BIII", _KIND_TO_BYTE[a.scalar_kind], *a.dims)
    return head + _entries_to_bytes(a.data, a.scalar_kind)


def _binary_header(buf: bytes, magic: bytes, what: str) -> tuple[str, tuple[int, int, int]]:
    """Check the 17-byte header T3B and T3W share (length, magic, kind byte, dims); returns (kind, dims)."""
    if len(buf) < 17:
        raise FormatError(f"{what} blob too short ({len(buf)} bytes)")
    if buf[:4] != magic:
        raise FormatError(f"bad magic {buf[:4]!r}, expected {magic!r}")
    kind_byte, dims = buf[4], struct.unpack("<III", buf[5:17])
    if kind_byte not in _BYTE_TO_KIND:
        raise FormatError(f"unknown scalar-kind byte {kind_byte}")
    if min(dims) < 1:
        raise FormatError(f"non-positive dimension in header: {dims}")
    return _BYTE_TO_KIND[kind_byte], dims


def tensor_from_bytes(buf: bytes) -> Tensor3:
    kind, dims = _binary_header(buf, TENSOR_MAGIC, "tensor")
    count = dims[0] * dims[1] * dims[2]
    width = 8 if kind == "real" else 16
    expected = 17 + width * count
    if len(buf) != expected:
        raise FormatError(f"payload length {len(buf) - 17} does not match dims {dims} ({expected - 17} expected)")
    entries = _entries_from_bytes(buf, kind, count, 17)
    try:
        return Tensor3(entries.reshape(dims), kind)
    except NonFiniteEntries as exc:
        raise FormatError(f"tensor payload contains non-finite entries: {exc}") from exc


def write_tensor(a: Tensor3, path) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(a))


def _entries_to_json(arr: np.ndarray, kind: str) -> list:
    """Nested lists of floats, complex entries as ``[re, im]`` pairs."""
    if kind == "real":
        return arr.tolist()
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _is_json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number_from_json(v) -> float:
    """A JSON number (int or float) as a float; a bool, string or anything else is malformed."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FormatError(f"entry must be a JSON number, got {v!r}")
    try:
        return float(v)
    except OverflowError as exc:
        raise FormatError(f"entry {v} is beyond double range") from exc


def _scalar_from_json(v, kind: str):
    if kind == "real":
        return _number_from_json(v)
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise FormatError(f"complex entry must be a [re, im] pair, got {v!r}")
    return complex(_number_from_json(v[0]), _number_from_json(v[1]))


def _json_header(obj, fmt: str) -> tuple[str, tuple[int, int, int]]:
    """Check the format/version/scalar_kind/dims block both JSON documents share; returns (kind, dims)."""
    if not isinstance(obj, dict) or obj.get("format") != fmt:
        raise FormatError(f"not a {fmt} document")
    version = obj.get("version")
    if not (_is_json_int(version) and version == 1):
        raise FormatError(f"unsupported {fmt} version {version!r}")
    kind = obj.get("scalar_kind")
    if kind not in _KIND_TO_BYTE:
        raise FormatError(f"unknown scalar_kind {kind!r}")
    dims = obj.get("dims")
    if not (isinstance(dims, list) and len(dims) == 3 and all(_is_json_int(d) and d >= 1 for d in dims)):
        raise FormatError(f"dims must be three positive integers, got {dims!r}")
    return kind, tuple(dims)


def tensor_to_json_obj(a: Tensor3) -> dict:
    return {
        "format": "t3b-json",
        "version": 1,
        "scalar_kind": a.scalar_kind,
        "dims": list(a.dims),
        "entries": _entries_to_json(a.data.reshape(-1), a.scalar_kind),
    }


def tensor_from_json_obj(obj) -> Tensor3:
    kind, dims = _json_header(obj, "t3b-json")
    entries = obj.get("entries")
    count = dims[0] * dims[1] * dims[2]
    if not isinstance(entries, list) or len(entries) != count:
        raise FormatError(f"entries length {len(entries) if isinstance(entries, list) else '?'} != {count}")
    values = [_scalar_from_json(v, kind) for v in entries]
    dtype = np.float64 if kind == "real" else np.complex128
    try:
        return Tensor3(np.asarray(values, dtype=dtype).reshape(dims), kind)
    except NonFiniteEntries as exc:
        raise FormatError(f"tensor payload contains non-finite entries: {exc}") from exc


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline.

    A non-finite float raises ``ValueError`` rather than writing the
    ``NaN``/``Infinity`` tokens that strict JSON parsers reject.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_tensor_json(a: Tensor3, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(tensor_to_json_obj(a)))


def _load_json(buf: bytes, path):
    """Parse an ASCII JSON document; bad syntax, a non-ASCII byte, an over-long integer or too deep nesting is a format error."""
    try:
        return json.loads(buf.decode("ascii"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def read_tensor(path) -> Tensor3:
    """A T3B binary or ``t3b-json`` tensor file, told apart by the magic bytes."""
    with open(path, "rb") as fh:
        buf = fh.read()
    return tensor_from_bytes(buf) if buf.startswith(TENSOR_MAGIC) else tensor_from_json_obj(_load_json(buf, path))


def witness_to_bytes(g: TransformTriple) -> bytes:
    head = WITNESS_MAGIC + struct.pack("<BIII", _KIND_TO_BYTE[g.scalar_kind], *g.dims)
    blocks = b"".join(_entries_to_bytes(g[d], g.scalar_kind) for d in range(3))
    return head + blocks


def witness_from_bytes(buf: bytes) -> TransformTriple:
    """Parse a witness file; factors are not required to be unitary here.

    Verification (residual and unitarity audit) is a separate concern, so a
    witness read back from disk never raises on imperfect factors.
    """
    kind, dims = _binary_header(buf, WITNESS_MAGIC, "witness")
    width = 8 if kind == "real" else 16
    expected = 17 + width * sum(n * n for n in dims)
    if len(buf) != expected:
        raise FormatError(f"witness payload length {len(buf) - 17} does not match dims {dims}")
    factors = []
    off = 17
    for n in dims:
        factors.append(_entries_from_bytes(buf, kind, n * n, off).reshape(n, n))
        off += width * n * n
    if any(not np.all(np.isfinite(f)) for f in factors):
        raise FormatError("witness payload contains non-finite entries")
    return TransformTriple(factors, kind, check=False)


def write_witness(g: TransformTriple, path) -> None:
    with open(path, "wb") as fh:
        fh.write(witness_to_bytes(g))


def witness_to_json_obj(g: TransformTriple) -> dict:
    return {
        "format": "witness-json",
        "version": 1,
        "scalar_kind": g.scalar_kind,
        "dims": list(g.dims),
        "factors": [_entries_to_json(g[d], g.scalar_kind) for d in range(3)],
    }


def witness_from_json_obj(obj) -> TransformTriple:
    kind, dims = _json_header(obj, "witness-json")
    raw = obj.get("factors")
    if not (isinstance(raw, list) and len(raw) == 3):
        raise FormatError("factors must be a list of three matrices")
    dtype = np.float64 if kind == "real" else np.complex128
    factors = []
    for d, rows in enumerate(raw):
        n = dims[d]
        if not (isinstance(rows, list) and len(rows) == n and all(isinstance(r, list) and len(r) == n for r in rows)):
            raise FormatError(f"factor {d + 1} is not a {n}x{n} matrix")
        mat = np.asarray([[_scalar_from_json(v, kind) for v in r] for r in rows], dtype=dtype)
        if not np.all(np.isfinite(mat)):
            raise FormatError(f"factor {d + 1} contains non-finite entries")
        factors.append(mat)
    return TransformTriple(factors, kind, check=False)


def write_witness_json(g: TransformTriple, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(witness_to_json_obj(g)))


def read_witness(path) -> TransformTriple:
    """A T3W binary or ``witness-json`` witness file, told apart by the magic bytes."""
    with open(path, "rb") as fh:
        buf = fh.read()
    return witness_from_bytes(buf) if buf.startswith(WITNESS_MAGIC) else witness_from_json_obj(_load_json(buf, path))
