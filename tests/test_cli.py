"""Command-line interface: exit codes, deterministic reruns, file plumbing."""

import json

import numpy as np
import pytest

from otiso import (
    RandomModel,
    Tensor3,
    apply_action,
    format_hypergraph,
    random_hypergraph,
    random_perm_triple,
    read_witness_json,
    relabel,
    sample_haar_triple,
    sample_tensor,
    verify_witness,
    write_hypergraph,
    write_tensor,
    write_tensor_json,
    write_witness_json,
)
from otiso.cli import _jsonable, main
from otiso.decision import Decision


def gen(tmp_path, name, seed, dims=(4, 4, 4), kind="real"):
    path = tmp_path / name
    code = main(["gen", "--dims", *map(str, dims), "--kind", kind,
                 "--seed", str(seed), "--out", str(path), "--quiet"])
    assert code == 0
    return path


def orbit_files(tmp_path, seed, dims=(4, 4, 4), kind="real"):
    a = sample_tensor(dims, RandomModel("gaussian", kind, seed))
    b = apply_action(sample_haar_triple(dims, seed + 1, kind), a)
    pa, pb = tmp_path / "a.t3b", tmp_path / "b.t3b"
    write_tensor(a, pa)
    write_tensor(b, pb)
    return a, b, pa, pb


def test_gen_deterministic_bytes(tmp_path):
    p1 = gen(tmp_path, "x1.t3b", seed=7)
    p2 = gen(tmp_path, "x2.t3b", seed=7)
    assert p1.read_bytes() == p2.read_bytes()
    p3 = gen(tmp_path, "x3.t3b", seed=8)
    assert p1.read_bytes() != p3.read_bytes()


def test_gen_json_format(tmp_path):
    out = tmp_path / "t.json"
    assert main(["gen", "--dims", "2", "3", "2", "--out", str(out),
                 "--format", "json", "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "t3b-json"
    assert doc["dims"] == [2, 3, 2]


def test_iso_yes_with_witness_out(tmp_path, capsys):
    a, b, pa, pb = orbit_files(tmp_path, 900)
    wpath = tmp_path / "w.json"
    code = main(["iso", "--a", str(pa), "--b", str(pb),
                 "--witness-out", str(wpath), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "yes"
    assert report["residual"] <= report["diagnostics"]["residual_gate"]
    w = read_witness_json(wpath)
    assert verify_witness(a, b, w).residual == report["residual"]


def test_witness_out_not_written_without_yes(tmp_path, monkeypatch):
    # a cannot_decide may carry the candidate that failed re-verification;
    # only a YES writes its witness
    import otiso.cli as cli

    a, b, pa, pb = orbit_files(tmp_path, 903, dims=(6, 6, 6))
    real = cli.decide_isomorphism(a, b)
    assert real.verdict == "yes"
    refused = Decision("cannot_decide", real.witness, real.residual, real.gamma_bound,
                       {**real.diagnostics, "step": "witness_verification"})
    monkeypatch.setattr(cli, "decide_isomorphism", lambda x, y: refused)
    wpath = tmp_path / "w.json"
    code = main(["iso", "--a", str(pa), "--b", str(pb), "--witness-out", str(wpath), "--quiet"])
    assert code == 2
    assert not wpath.exists()


def test_iso_no_and_cannot_decide(tmp_path):
    pa = gen(tmp_path, "a.t3b", seed=10)
    pb = gen(tmp_path, "b.t3b", seed=11)
    assert main(["iso", "--a", str(pa), "--b", str(pb), "--quiet"]) == 1

    ones = tmp_path / "ones.t3b"
    write_tensor(Tensor3(np.ones((3, 3, 3))), ones)
    assert main(["iso", "--a", str(ones), "--b", str(ones), "--quiet"]) == 2


def test_iso_json_reruns_byte_identical(tmp_path, capsys):
    _, _, pa, pb = orbit_files(tmp_path, 901)
    argv = ["iso", "--a", str(pa), "--b", str(pb), "--json"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert out1.endswith("\n")
    json.loads(out1)  # a single canonical JSON document


def test_dist_yes_and_norm_reject(tmp_path, capsys):
    a, b, pa, pb = orbit_files(tmp_path, 902, dims=(5, 5, 5))
    probe = main(["iso", "--a", str(pa), "--b", str(pb), "--json"])
    assert probe == 0
    delta = json.loads(capsys.readouterr().out)["diagnostics"]["delta"]
    eps = delta / (8.0 * (a.frobenius_norm + b.frobenius_norm))
    assert main(["dist", "--a", str(pa), "--b", str(pb),
                 "--eps", repr(eps), "--quiet"]) == 0
    far = tmp_path / "far.t3b"
    write_tensor(Tensor3(3.0 * b.data), far)
    assert main(["dist", "--a", str(pa), "--b", str(far),
                 "--eps", repr(eps), "--quiet"]) == 1


def test_gaps_summary_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    argv = ["gaps", "--n", "50", "--zeta", "0.5", "--trials", "20",
            "--seed", "3", "--csv", str(csv_path), "--json"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    doc = json.loads(out1)
    assert doc["trials"] == 20
    assert "median_min_gap" in doc
    csv1 = csv_path.read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out == out1
    assert csv_path.read_bytes() == csv1
    assert csv1.splitlines()[0] == b"trial,seed,min_gap,simple,smin,smax"


def test_gaps_tensor_mode(capsys):
    assert main(["gaps", "--n", "6", "--trials", "5", "--tensor",
                 "--eta", "1.0", "--seed", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["kind"] == "tensor"


def strict_json(text):
    """Parse with the NaN/Infinity tokens that strict JSON forbids turned into errors."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def test_json_reports_are_strict_json(tmp_path, capsys):
    # a size-1 mode has min_gap = inf, and p = 1 gives median_min_gap = inf
    a, b, pa, pb = orbit_files(tmp_path, 21, dims=(4, 3, 1))
    main(["iso", "--a", str(pa), "--b", str(pb), "--json"])
    report = strict_json(capsys.readouterr().out)
    assert report["diagnostics"]["spectra_a"][2]["min_gap"] is None
    assert report["diagnostics"]["spectra_b"][2]["min_gap"] is None
    assert main(["gaps", "--n", "4", "--p", "1", "--trials", "3", "--json"]) == 0
    assert strict_json(capsys.readouterr().out)["median_min_gap"] is None


def test_jsonable_maps_non_finite_floats_to_null():
    values = [float("inf"), -float("inf"), float("nan"), np.float64("nan"), np.float32("inf"), 1.5, np.float64(2.5)]
    assert _jsonable({"x": values}) == {"x": [None, None, None, None, None, 1.5, 2.5]}


def test_hyper_yes_and_no(tmp_path, capsys):
    g = random_hypergraph((5, 4, 6), seed=210)
    h = relabel(g, random_perm_triple((5, 4, 6), seed=211))
    pg, ph = tmp_path / "g.txt", tmp_path / "h.txt"
    write_hypergraph(g, pg)
    write_hypergraph(h, ph)
    code = main(["hyper", "--g", str(pg), "--h", str(ph), "--json"])
    out = capsys.readouterr().out
    if code == 0:
        report = json.loads(out)
        perms = report["perms"]
        # emitted 1-based; check they really map g onto h
        from otiso import PermTriple
        pt = PermTriple(tuple(tuple(v - 1 for v in p) for p in perms))
        assert relabel(g, pt).edges == h.edges
    else:
        assert code == 2

    edges = set(g.edges)
    edges.symmetric_difference_update({(0, 0, 0)})
    bad = tmp_path / "bad.txt"
    bad.write_text(format_hypergraph(type(g)((5, 4, 6), edges)))
    assert main(["hyper", "--g", str(pg), "--h", str(bad), "--quiet"]) in (1, 2)


def test_verify_pass_and_fail(tmp_path):
    _, _, pa, pb = orbit_files(tmp_path, 903)
    right = tmp_path / "right.json"
    code = main(["iso", "--a", str(pa), "--b", str(pb),
                 "--witness-out", str(right), "--quiet"])
    assert code == 0
    assert main(["verify", "--a", str(pa), "--b", str(pb),
                 "--witness", str(right), "--quiet"]) == 0
    wrong = tmp_path / "wrong.json"
    write_witness_json(sample_haar_triple((4, 4, 4), 999, "real"), wrong)
    assert main(["verify", "--a", str(pa), "--b", str(pb),
                 "--witness", str(wrong), "--quiet"]) == 1


def test_usage_errors():
    assert main([]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["iso", "--a", "x.t3b"]) == 3  # --b missing
    # there is no precision knob: both modes pick their own working precision
    assert main(["iso", "--a", "x.t3b", "--b", "y.t3b", "--bits", "40"]) == 3
    assert main(["dist", "--a", "x.t3b", "--b", "y.t3b", "--eps", "1e-6", "--bits", "60"]) == 3
    # nor a tolerance or gap knob: exact mode takes none, gapped mode only --eps
    assert main(["iso", "--a", "x.t3b", "--b", "y.t3b", "--eps", "1e-6"]) == 3
    assert main(["iso", "--a", "x.t3b", "--b", "y.t3b", "--delta", "1"]) == 3
    assert main(["dist", "--a", "x.t3b", "--b", "y.t3b", "--eps", "1e-6", "--delta", "1"]) == 3
    assert main(["gen", "--dims", "2", "2", "2", "--out", "/tmp/x.t3b",
                 "--model", "cauchy"]) == 3


def test_runtime_errors(tmp_path):
    missing = tmp_path / "nope.t3b"
    assert main(["iso", "--a", str(missing), "--b", str(missing), "--quiet"]) == 4
    garbage = tmp_path / "garbage.t3b"
    garbage.write_bytes(b"not a tensor")
    assert main(["iso", "--a", str(garbage), "--b", str(garbage), "--quiet"]) == 4
    # JSON true is not the integer 1: boolean dims are a malformed file, not a traceback
    bools = tmp_path / "bools.json"
    bools.write_text(json.dumps({"format": "t3b-json", "version": 1, "scalar_kind": "real",
                                 "dims": [True, True, True], "entries": [1.0]}))
    assert main(["iso", "--a", str(bools), "--b", str(bools), "--quiet"]) == 4


def test_pair_mismatch_exits_3(tmp_path, capsys):
    # well-formed files that the requested mode cannot take are usage errors
    _, _, pa, pb = orbit_files(tmp_path, 906, dims=(5, 3, 4))
    assert main(["dist", "--a", str(pa), "--b", str(pb), "--eps", "1e-6", "--quiet"]) == 3
    real = gen(tmp_path, "r.t3b", seed=907)
    cplx = gen(tmp_path, "c.t3b", seed=908, kind="complex")
    for cmd in (["iso"], ["dist", "--eps", "1e-6"]):
        assert main([*cmd, "--a", str(real), "--b", str(cplx), "--quiet"]) == 3
    assert main(["iso", "--a", str(real), "--b", str(pa), "--quiet"]) == 3
    assert "error: tensor kinds differ" in capsys.readouterr().err
    # verify: a witness, or a tensor pair, whose dims do not fit together
    w = tmp_path / "w.json"
    write_witness_json(sample_haar_triple((4, 4, 4), 909, "real"), w)
    assert main(["verify", "--a", str(pa), "--b", str(pb), "--witness", str(w), "--quiet"]) == 3
    assert "error: witness dims" in capsys.readouterr().err
    assert main(["verify", "--a", str(real), "--b", str(pa), "--witness", str(w), "--quiet"]) == 3
    assert "error: tensor dims differ" in capsys.readouterr().err


def test_hyper_part_size_mismatch_exits_3(tmp_path, capsys):
    # two readable hypergraphs on different part sizes are a usage error; a malformed file stays a runtime error
    pg, ph, bad = tmp_path / "g.txt", tmp_path / "h.txt", tmp_path / "bad.txt"
    write_hypergraph(random_hypergraph((3, 3, 3), seed=212), pg)
    write_hypergraph(random_hypergraph((3, 3, 4), seed=213), ph)
    bad.write_text("3 3 3\n1 1 1\n1 1 1\n")  # duplicate edge
    assert main(["hyper", "--g", str(pg), "--h", str(ph), "--quiet"]) == 3
    assert "error: part sizes differ" in capsys.readouterr().err
    assert main(["hyper", "--g", str(pg), "--h", str(bad), "--quiet"]) == 4


def _latin1_into(path, old: bytes):
    """Replace the first ``old`` in the file with the latin-1 byte for 'e-acute'."""
    raw = path.read_bytes()
    assert old in raw
    path.write_bytes(raw.replace(old, b"\xe9", 1))


@pytest.mark.parametrize("command", ["iso", "verify", "hyper"])
def test_non_ascii_byte_exits_4(tmp_path, capsys, command):
    # a file that is not ASCII is malformed input (exit 4), never a traceback with exit 1
    a, _, pa, pb = orbit_files(tmp_path, 910)
    if command == "iso":
        pj = tmp_path / "a.json"
        write_tensor_json(a, pj)
        _latin1_into(pj, b"t3b-json")
        argv = ["iso", "--a", str(pj), "--b", str(pb)]
    elif command == "verify":
        wj = tmp_path / "w.json"
        write_witness_json(sample_haar_triple((4, 4, 4), 911, "real"), wj)
        _latin1_into(wj, b"witness-json")
        argv = ["verify", "--a", str(pa), "--b", str(pb), "--witness", str(wj)]
    else:
        pg = tmp_path / "g.txt"
        write_hypergraph(random_hypergraph((3, 3, 3), seed=214), pg)
        pg.write_bytes(pg.read_bytes() + b"# caf\xe9\n")
        argv = ["hyper", "--g", str(pg), "--h", str(pg)]
    assert main([*argv, "--quiet"]) == 4
    assert capsys.readouterr().err.startswith("error: ")


def test_config_errors_exit_3(tmp_path):
    _, _, pa, pb = orbit_files(tmp_path, 905)
    assert main(["dist", "--a", str(pa), "--b", str(pb),
                 "--eps", "-1.0", "--quiet"]) == 3
    assert main(["dist", "--a", str(pa), "--b", str(pb),
                 "--eps", "100.0", "--quiet"]) == 3  # out of certified range
    out = tmp_path / "zero.t3b"
    assert main(["gen", "--dims", "0", "3", "3", "--out", str(out), "--quiet"]) == 3
    assert not out.exists()


def test_successive_calls_do_not_share_flags(capsys):
    # the parser is built once per process; each call still parses afresh
    argv = ["gaps", "--n", "20", "--zeta", "0.5", "--trials", "2", "--seed", "3"]
    assert main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 2
    assert main([*argv, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("trials 2: ")


@pytest.mark.parametrize("argv", [
    ["dist", "--eps", "inf"],
    ["dist", "--eps", "nan"],
    ["dist", "--eps=-inf"],
])
def test_non_finite_eps_or_delta_exits_3(tmp_path, capsys, argv):
    # an infinite eps makes the thresholds derived from it infinite or zero;
    # it is a usage error
    _, _, pa, _ = orbit_files(tmp_path, 912)
    assert main([argv[0], "--a", str(pa), "--b", str(pa), *argv[1:], "--json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "positive and finite" in err


@pytest.mark.parametrize("tol", ["inf", "-1", "nan"])
def test_verify_tol_must_be_finite_and_non_negative(tmp_path, capsys, tol):
    _, _, pa, pb = orbit_files(tmp_path, 914)
    w = tmp_path / "w.json"
    assert main(["iso", "--a", str(pa), "--b", str(pb), "--witness-out", str(w), "--quiet"]) == 0
    assert main(["verify", "--a", str(pa), "--b", str(pb), "--witness", str(w), "--tol", tol, "--json"]) == 3
    assert capsys.readouterr().err.startswith("error: --tol")
    assert main(["verify", "--a", str(pa), "--b", str(pb), "--witness", str(w), "--tol", "0.5", "--quiet"]) == 0
