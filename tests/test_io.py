"""Serialization: binary tensor blocks, JSON documents, witness files."""

import json
import struct

import numpy as np
import pytest

from otiso import (
    FormatError,
    RandomModel,
    Tensor3,
    TransformTriple,
    dumps_canonical,
    read_tensor,
    read_tensor_any,
    read_tensor_json,
    read_witness,
    read_witness_any,
    read_witness_json,
    sample_haar_triple,
    sample_tensor,
    tensor_from_bytes,
    tensor_from_json_obj,
    tensor_to_bytes,
    tensor_to_json_obj,
    witness_from_bytes,
    witness_from_json_obj,
    witness_to_bytes,
    witness_to_json_obj,
    write_tensor,
    write_tensor_json,
    write_witness,
    write_witness_json,
)


def test_binary_layout_frozen_real():
    a = Tensor3(np.array([[[1.0, -2.0]]]))
    want = b"T3B1" + bytes([0]) + struct.pack("<III", 1, 1, 2) + struct.pack("<dd", 1.0, -2.0)
    assert tensor_to_bytes(a) == want


def test_binary_layout_frozen_complex():
    a = Tensor3(np.array([[[1.0 + 2.0j, -3.0 - 4.0j]]]), "complex")
    want = (b"T3B1" + bytes([1]) + struct.pack("<III", 1, 1, 2)
            + struct.pack("<dddd", 1.0, 2.0, -3.0, -4.0))
    assert tensor_to_bytes(a) == want


def test_binary_round_trip(tmp_path):
    for seed, kind in [(90, "real"), (91, "complex")]:
        a = sample_tensor((3, 4, 2), RandomModel("gaussian", kind, seed))
        b = tensor_from_bytes(tensor_to_bytes(a))
        assert b.scalar_kind == kind
        assert np.array_equal(b.data, a.data)
        path = tmp_path / f"{kind}.t3b"
        write_tensor(a, path)
        assert np.array_equal(read_tensor(path).data, a.data)
        assert np.array_equal(read_tensor_any(path).data, a.data)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_read_tensor_owns_a_read_only_c_array(tmp_path, kind):
    a = sample_tensor((3, 4, 2), RandomModel("gaussian", kind, 9))
    path = tmp_path / "a.t3b"
    write_tensor(a, path)
    data = read_tensor(path).data
    assert data.dtype == (np.float64 if kind == "real" else np.complex128)
    assert data.flags["OWNDATA"] and data.base is None
    assert data.flags["C_CONTIGUOUS"] and not data.flags["WRITEABLE"]
    assert np.array_equal(data, a.data)


def test_binary_format_errors():
    good = tensor_to_bytes(Tensor3(np.zeros((2, 2, 2))))
    with pytest.raises(FormatError):
        tensor_from_bytes(good[:10])  # truncated header
    with pytest.raises(FormatError):
        tensor_from_bytes(b"XXXX" + good[4:])  # bad magic
    with pytest.raises(FormatError):
        tensor_from_bytes(good[:4] + bytes([2]) + good[5:])  # unknown kind
    zero_dim = b"T3B1" + bytes([0]) + struct.pack("<III", 0, 2, 2)
    with pytest.raises(FormatError):
        tensor_from_bytes(zero_dim)
    with pytest.raises(FormatError):
        tensor_from_bytes(good + b"\x00")  # trailing bytes
    with pytest.raises(FormatError):
        tensor_from_bytes(good[:-1])  # short payload
    nan_payload = (b"T3B1" + bytes([0]) + struct.pack("<III", 1, 1, 1)
                   + struct.pack("<d", float("nan")))
    with pytest.raises(FormatError):
        tensor_from_bytes(nan_payload)


def test_json_document_shape():
    a = Tensor3(np.array([[[1.0 + 2.0j, -3.0 + 0.5j]]]), "complex")
    obj = tensor_to_json_obj(a)
    assert obj["format"] == "t3b-json"
    assert obj["version"] == 1
    assert obj["scalar_kind"] == "complex"
    assert obj["dims"] == [1, 1, 2]
    # entries are flat in C order, complex values as [re, im] pairs
    assert obj["entries"] == [[1.0, 2.0], [-3.0, 0.5]]
    assert tensor_from_json_obj(obj) == a

    r = Tensor3(np.arange(1.0, 9.0).reshape(2, 2, 2))
    assert tensor_to_json_obj(r)["entries"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]


def test_json_round_trip(tmp_path):
    for seed, kind in [(92, "real"), (93, "complex")]:
        a = sample_tensor((2, 3, 2), RandomModel("uniform_pm", kind, seed))
        path = tmp_path / f"{kind}.json"
        write_tensor_json(a, path)
        b = read_tensor_json(path)
        assert np.array_equal(b.data, a.data)
        assert np.array_equal(read_tensor_any(path).data, a.data)
        doc = json.loads(path.read_text())
        assert doc["scalar_kind"] == kind


def _scalar_json_reference(x, kind):
    return float(x) if kind == "real" else [float(x.real), float(x.imag)]


def test_json_bytes_match_per_entry_form():
    # the array-based writers must emit exactly what a per-entry float() loop emits
    rng = np.random.default_rng(97)
    special = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1e-300, 1.0 / 3.0, -1e300, 123456789.0])
    for kind in ("real", "complex"):
        vals = rng.standard_normal(60)
        vals[: special.size] = special
        if kind == "complex":
            vals = vals + 1j * np.concatenate([special[::-1], rng.standard_normal(60 - special.size)])
        a = Tensor3(vals[:60].reshape(3, 4, 5), kind)
        want = {"format": "t3b-json", "version": 1, "scalar_kind": kind, "dims": [3, 4, 5],
                "entries": [_scalar_json_reference(x, kind) for x in a.data.reshape(-1)]}
        assert dumps_canonical(tensor_to_json_obj(a)) == dumps_canonical(want)

        factors = [vals[:9].reshape(3, 3), vals[9:25].reshape(4, 4), vals[25:50].reshape(5, 5)]
        g = TransformTriple(factors, kind, check=False)
        want = {"format": "witness-json", "version": 1, "scalar_kind": kind, "dims": [3, 4, 5],
                "factors": [[[_scalar_json_reference(x, kind) for x in row] for row in g[d]] for d in range(3)]}
        assert dumps_canonical(witness_to_json_obj(g)) == dumps_canonical(want)


def test_json_format_errors():
    with pytest.raises(FormatError):
        tensor_from_json_obj({"format": "other"})
    with pytest.raises(FormatError):
        tensor_from_json_obj({"format": "t3b-json", "version": 2, "scalar_kind": "real",
                              "dims": [1, 1, 1], "entries": [[[0.0]]]})
    with pytest.raises(FormatError):
        tensor_from_json_obj({"format": "t3b-json", "version": 1, "scalar_kind": "real",
                              "dims": [1, 1, 2], "entries": [[[0.0]]]})  # dims mismatch
    good = {"format": "t3b-json", "version": 1, "scalar_kind": "real", "dims": [1, 1, 1], "entries": [1.5]}
    assert tensor_from_json_obj(good).data[0, 0, 0] == 1.5
    cplx = {**good, "scalar_kind": "complex", "entries": [[1, 2]]}
    assert tensor_from_json_obj(cplx).data[0, 0, 0] == 1 + 2j
    for bad in ({"dims": [True, True, True]}, {"dims": [1, 1, 1.0]}, {"dims": [1, 1, 0]},
                {"version": True}, {"entries": ["1.5"]}, {"entries": [True]}, {"entries": [None]},
                {"entries": [[[1.5]]]}, {"entries": [10 ** 400]},
                {"scalar_kind": "complex", "entries": [[1.0, "2"]]},
                {"scalar_kind": "complex", "entries": [[False, 2.0]]}):
        with pytest.raises(FormatError):
            tensor_from_json_obj({**good, **bad})


@pytest.mark.parametrize("entry", ["1" * 5000, "[" * 100000 + "]" * 100000])
def test_unparseable_json_is_a_format_error(tmp_path, entry):
    # an integer past the interpreter's digit limit, and nesting too deep to parse
    path = tmp_path / "t.json"
    path.write_text('{"format":"t3b-json","version":1,"scalar_kind":"real","dims":[1,1,1],"entries":[%s]}' % entry)
    with pytest.raises(FormatError):
        read_tensor_json(path)


def test_dumps_canonical_stable():
    s = dumps_canonical({"b": 1, "a": [1.5, "x"]})
    assert s == '{"a":[1.5,"x"],"b":1}\n'
    assert dumps_canonical({"a": [1.5, "x"], "b": 1}) == s
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            dumps_canonical({"a": bad})


def test_witness_round_trips(tmp_path):
    for seed, kind in [(94, "real"), (95, "complex")]:
        g = sample_haar_triple((3, 4, 2), seed, kind)
        back = witness_from_bytes(witness_to_bytes(g))
        assert back.scalar_kind == kind
        for d in range(3):
            assert np.array_equal(back[d], g[d])

        bpath = tmp_path / f"{kind}.t3w"
        write_witness(g, bpath)
        got = read_witness(bpath)
        assert all(np.array_equal(got[d], g[d]) for d in range(3))

        jpath = tmp_path / f"{kind}.wjson"
        write_witness_json(g, jpath)
        got_j = read_witness_json(jpath)
        assert all(np.array_equal(got_j[d], g[d]) for d in range(3))

        # sniffing picks the right parser for either file
        assert all(np.array_equal(read_witness_any(bpath)[d], g[d]) for d in range(3))
        assert all(np.array_equal(read_witness_any(jpath)[d], g[d]) for d in range(3))


def test_witness_format_errors():
    g = sample_haar_triple((2, 2, 2), 96, "real")
    buf = witness_to_bytes(g)
    with pytest.raises(FormatError):
        witness_from_bytes(buf[:8])
    with pytest.raises(FormatError):
        witness_from_bytes(b"XXXX" + buf[4:])
    with pytest.raises(FormatError):
        witness_from_bytes(buf + b"\x00")
    good = {"format": "witness-json", "version": 1, "scalar_kind": "real", "dims": [1, 1, 1],
            "factors": [[[1.0]], [[1.0]], [[1]]]}
    assert [witness_from_json_obj(good)[d][0, 0] for d in range(3)] == [1.0, 1.0, 1.0]
    for bad in ({"dims": [True, True, True]}, {"dims": [1, 1, -1]}, {"version": True},
                {"factors": [[[1.0]], [[1.0]], [["1.5"]]]}, {"factors": [[[1.0]], [[True]], [[1.0]]]}):
        with pytest.raises(FormatError):
            witness_from_json_obj({**good, **bad})
