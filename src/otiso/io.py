"""Serialization: T3B v1 tensor binaries, a JSON mirror, and witness files.

T3B v1 layout: magic ``T3B1``, one u8 scalar kind (0 = real, 1 = complex),
three little-endian u32 dims, then the entries as little-endian f64 in
C order (lexicographic (i, j, k)); complex entries are (re, im) pairs.
Witness files use the same matrix-block conventions under magic ``T3W1``:
kind byte, three u32 sizes, then the three square factors back to back.
:func:`read_tensor` and :func:`read_witness` read either form, told apart
by the leading magic bytes.  The JSON writers emit each float as
``format(v, ".16e")``, whose 17 significant digits read back bit for bit;
the readers take any JSON number.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import FormatError, NonFiniteEntries
from .tensor import Tensor3, TransformTriple

TENSOR_MAGIC = b"T3B1"
WITNESS_MAGIC = b"T3W1"

# the header's kind byte indexes this tuple
_KINDS = ("real", "complex")
# the file formats' entry types, little-endian whatever the host's byte order
_LE = {"real": np.dtype("<f8"), "complex": np.dtype("<c16")}


def _words(*columns) -> np.ndarray:
    """Four columns of ASCII codes as one uint32 per row, so that one lookup moves four bytes."""
    return np.stack(np.broadcast_arrays(*columns), axis=1).astype(np.uint8).view(np.uint32).ravel()


def _split(x):
    """Dekker's split of float64 ``x`` into two halves of at most 26 significant bits each."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


# Tables of the ``.16e`` encoder.  For |v| in [1e-7, 1e17], j = floor(log10|v|) + 7
# indexes the decimal exponent k clipped to -6..16, the exact scale 10**(16 - k)
# and its Dekker halves, and the exponent field "e-06" .. "e+16".  The other
# words are "ddd" for 0..999, "d.d" for the first two digits (indexed by
# 0..999 as well, so that every index is in range) and the sign, each padded
# with spaces to four bytes.
_K = np.clip(np.arange(25) - 7, -6, 16)
_SCALE = np.array([float(10 ** (16 - k)) for k in _K.tolist()])  # Python ints: 10**22 overflows int64
_SCALE_HI, _SCALE_LO = _split(_SCALE)
_D, _ZERO, _SP = np.arange(1000), ord("0"), ord(" ")
_EXPONENT_WORDS = _words(ord("e"), np.where(_K < 0, ord("-"), ord("+")), _ZERO + abs(_K) // 10, _ZERO + abs(_K) % 10)
_DIGIT_WORDS = _words(_ZERO + _D // 100, _ZERO + _D // 10 % 10, _ZERO + _D % 10, _SP)
_LEAD_WORDS = _words(_ZERO + _D // 10 % 10, ord("."), _ZERO + _D % 10, _SP)
_SIGN_WORDS = _words([_SP, ord("-")], _SP, _SP, _SP)
_TAIL_DIVISORS = np.array([1e12, 1e9, 1e6, 1e3, 1.0])[:, None]


def tensor_to_bytes(a: Tensor3) -> bytes:
    head = TENSOR_MAGIC + struct.pack("<BIII", _KINDS.index(a.scalar_kind), *a.dims)
    return head + np.ascontiguousarray(a.data, _LE[a.scalar_kind]).tobytes()


def _binary_header(buf: bytes, magic: bytes, what: str) -> tuple[str, tuple[int, int, int]]:
    """Check the 17-byte header T3B and T3W share (length, magic, kind byte, dims); returns (kind, dims)."""
    if len(buf) < 17:
        raise FormatError(f"{what} blob too short ({len(buf)} bytes)")
    if buf[:4] != magic:
        raise FormatError(f"bad magic {buf[:4]!r}, expected {magic!r}")
    kind_byte, dims = buf[4], struct.unpack("<III", buf[5:17])
    if kind_byte >= len(_KINDS):
        raise FormatError(f"unknown scalar-kind byte {kind_byte}")
    if min(dims) < 1:
        raise FormatError(f"non-positive dimension in header: {dims}")
    return _KINDS[kind_byte], dims


def _read_t3b(head: bytes, fh) -> Tensor3:
    """The T3B tensor whose first 17 bytes are ``head``; its payload, the rest of ``fh``, is read straight into the tensor's own array."""
    kind, dims = _binary_header(head, TENSOR_MAGIC, "tensor")
    dtype = _LE[kind]
    expected = math.prod(dims) * dtype.itemsize
    try:
        arr = np.empty(dims, dtype)
    except (ValueError, MemoryError):  # dims too large to allocate: the length check below then fails, as for a short payload
        arr = np.empty(0, dtype)
    # readinto fills the array unless the stream ends first; read() then takes whatever follows
    size = fh.readinto(arr) + len(fh.read())
    if size != expected:
        raise FormatError(f"payload length {size} does not match dims {dims} ({expected} expected)")
    try:
        return Tensor3._adopt(arr)
    except NonFiniteEntries as exc:
        raise FormatError(f"tensor payload contains non-finite entries: {exc}") from exc


def write_tensor(a: Tensor3, path) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(a))


def _e16_words(values: np.ndarray) -> np.ndarray:
    """``format(v, ".16e")`` of each finite float64 with spaces mixed in, 32 bytes viewed as 8 uint32 each.

    With ``k = floor(log10|v|)`` in -6..16 the scale ``10**(16 - k)`` is exact,
    and Dekker's error-free product (Numer. Math. 18, 1971) splits
    ``|v| * 10**(16 - k)`` into ``p + lo`` with no rounding.  When
    ``1e16 < p < 1e17`` the exponent is ``k``, and ``p``, being above 2**53,
    is an even integer, so ``p + rint(lo)`` is the 17-digit significand
    rounded half to even, as ``format`` rounds.  Every other value (zero,
    below 1e-6, from 1e17 up, or next to a power of ten where ``log10``
    rounds) goes through one ``%`` formatting of them all.  That ``%`` alone
    would serve every value, but at about 0.9 us per float it is 4-8 times
    slower than this path (timings in ``BENCH_18.json``).
    """
    a = np.minimum(np.maximum(np.abs(values), 1e-7), 1e17)
    j = (np.log10(a) + 7.0).astype(np.intp)  # truncation is floor here, the sum being >= 0
    p = a * _SCALE[j]
    ah, al = _split(a)
    sh, sl = _SCALE_HI[j], _SCALE_LO[j]
    lo = ((ah * sh - p) + ah * sl + al * sh) + al * sl
    lead, rest = np.divmod(p.astype(np.int64) + np.rint(lo).astype(np.int64), 10 ** 15)
    # the last 15 digits in five groups of three; below 2**53 float division floors exactly
    tail = np.floor(rest / _TAIL_DIVISORS)
    tail[1:] -= 1000.0 * tail[:-1]
    words = np.empty((8, values.size), np.uint32)
    words[0] = _SIGN_WORDS[np.signbit(values).view(np.int8)]
    words[1] = _LEAD_WORDS[lead]
    words[2:7] = _DIGIT_WORDS[tail.astype(np.intp)]
    words[7] = _EXPONENT_WORDS[j]
    words = words.T
    slow = ((p <= 1e16) | (p >= 1e17)).nonzero()[0]
    if slow.size:
        text = ("%32.16e" * slow.size) % tuple(values[slow].tolist())
        words[slow] = np.frombuffer(text.encode("ascii"), np.uint32).reshape(-1, 8)
    return words


def _json_lists(arrays: list[np.ndarray], kind: str) -> bytes:
    """Compact JSON nested lists of the arrays, comma-separated; complex entries are ``[re, im]`` pairs.

    Each number fills a fixed-width slot of a byte template that also holds
    its brackets and comma, and one ``translate`` deletes the spaces.  A
    non-finite float raises ``ValueError``, as :func:`dumps_canonical` does.
    """
    shapes = [x.shape + (2,) if kind == "complex" else x.shape for x in arrays]
    values = np.concatenate([x.reshape(-1) for x in arrays], dtype=_LE[kind]).view(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("a non-finite float has no JSON form")
    # per number: up to 3 "[" (bytes 0-3), the number (4-35), up to 3 "]" (36-38), "," (39)
    rows = np.empty((values.size, 40), np.uint8)
    rows.fill(ord(" "))
    rows.view(np.uint32)[:, 1:9] = _e16_words(values)
    start = 0
    for shape in shapes:
        size = math.prod(shape)
        block = rows[start:start + size].reshape(*shape, 40)
        for t in range(1, len(shape) + 1):  # first and last element of each list t levels deep
            block[(..., *(0,) * t, t - 1)] = ord("[")
            block[(..., *(-1,) * t, 35 + t)] = ord("]")
        start += size
    rows[:-1, 39] = ord(",")
    return rows.tobytes().translate(None, b" ")


def _json_document(fmt: str, kind: str, dims, key: bytes, payload: bytes) -> bytes:
    """The bytes :func:`dumps_canonical` writes for this document: sorted keys, no spaces, a newline."""
    return b'{"dims":[%d,%d,%d],"%s":%s,"format":"%s","scalar_kind":"%s","version":1}\n' % (
        *dims, key, payload, fmt.encode("ascii"), kind.encode("ascii"))


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
    if kind not in _KINDS:
        raise FormatError(f"unknown scalar_kind {kind!r}")
    dims = obj.get("dims")
    if not (isinstance(dims, list) and len(dims) == 3 and all(_is_json_int(d) and d >= 1 for d in dims)):
        raise FormatError(f"dims must be three positive integers, got {dims!r}")
    return kind, tuple(dims)


def tensor_from_json_obj(obj) -> Tensor3:
    kind, dims = _json_header(obj, "t3b-json")
    entries = obj.get("entries")
    count = dims[0] * dims[1] * dims[2]
    if not isinstance(entries, list) or len(entries) != count:
        raise FormatError(f"entries length {len(entries) if isinstance(entries, list) else '?'} != {count}")
    values = [_scalar_from_json(v, kind) for v in entries]
    try:
        return Tensor3._adopt(np.asarray(values, dtype=_LE[kind]).reshape(dims))
    except NonFiniteEntries as exc:
        raise FormatError(f"tensor payload contains non-finite entries: {exc}") from exc


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline.

    A non-finite float raises ``ValueError`` rather than writing the
    ``NaN``/``Infinity`` tokens that strict JSON parsers reject.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_tensor_json(a: Tensor3, path) -> None:
    entries = _json_lists([a.data.reshape(-1)], a.scalar_kind)
    with open(path, "wb") as fh:
        fh.write(_json_document("t3b-json", a.scalar_kind, a.dims, b"entries", entries))


def _load_json(buf: bytes, path):
    """Parse an ASCII JSON document; bad syntax, a non-ASCII byte, an over-long integer or too deep nesting is a format error."""
    try:
        return json.loads(buf.decode("ascii"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def read_tensor(path) -> Tensor3:
    """A T3B binary or ``t3b-json`` tensor file, told apart by the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(17)
        if head.startswith(TENSOR_MAGIC):
            return _read_t3b(head, fh)
        buf = head + fh.read()
    return tensor_from_json_obj(_load_json(buf, path))


def witness_to_bytes(g: TransformTriple) -> bytes:
    head = WITNESS_MAGIC + struct.pack("<BIII", _KINDS.index(g.scalar_kind), *g.dims)
    blocks = b"".join(np.ascontiguousarray(g[d], _LE[g.scalar_kind]).tobytes() for d in range(3))
    return head + blocks


def witness_from_bytes(buf: bytes) -> TransformTriple:
    """Parse a witness file; factors are not required to be unitary here.

    Verification (residual and unitarity audit) is a separate concern, so a
    witness read back from disk never raises on imperfect factors.
    """
    kind, dims = _binary_header(buf, WITNESS_MAGIC, "witness")
    dtype = _LE[kind]
    expected = 17 + dtype.itemsize * sum(n * n for n in dims)
    if len(buf) != expected:
        raise FormatError(f"witness payload length {len(buf) - 17} does not match dims {dims}")
    # read-only views of the payload; the triple built from them makes the only copy
    factors = []
    off = 17
    for n in dims:
        factors.append(np.frombuffer(buf, dtype, n * n, off).reshape(n, n))
        off += dtype.itemsize * n * n
    if any(not np.all(np.isfinite(f)) for f in factors):
        raise FormatError("witness payload contains non-finite entries")
    return TransformTriple(factors, check=False)


def write_witness(g: TransformTriple, path) -> None:
    with open(path, "wb") as fh:
        fh.write(witness_to_bytes(g))


def witness_from_json_obj(obj) -> TransformTriple:
    kind, dims = _json_header(obj, "witness-json")
    raw = obj.get("factors")
    if not (isinstance(raw, list) and len(raw) == 3):
        raise FormatError("factors must be a list of three matrices")
    factors = []
    for d, rows in enumerate(raw):
        n = dims[d]
        if not (isinstance(rows, list) and len(rows) == n and all(isinstance(r, list) and len(r) == n for r in rows)):
            raise FormatError(f"factor {d + 1} is not a {n}x{n} matrix")
        mat = np.asarray([[_scalar_from_json(v, kind) for v in r] for r in rows], dtype=_LE[kind])
        if not np.all(np.isfinite(mat)):
            raise FormatError(f"factor {d + 1} contains non-finite entries")
        factors.append(mat)
    return TransformTriple(factors, check=False)


def write_witness_json(g: TransformTriple, path) -> None:
    factors = b"[" + _json_lists([g[d] for d in range(3)], g.scalar_kind) + b"]"
    with open(path, "wb") as fh:
        fh.write(_json_document("witness-json", g.scalar_kind, g.dims, b"factors", factors))


def read_witness(path) -> TransformTriple:
    """A T3W binary or ``witness-json`` witness file, told apart by the magic bytes."""
    with open(path, "rb") as fh:
        buf = fh.read()
    return witness_from_bytes(buf) if buf.startswith(WITNESS_MAGIC) else witness_from_json_obj(_load_json(buf, path))
