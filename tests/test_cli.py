"""Command-line interface: exit codes, deterministic reruns, file plumbing."""

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import otiso
from otiso import (
    RandomModel,
    Tensor3,
    TransformTriple,
    apply_action,
    read_tensor,
    read_witness,
    relabel,
    sample_haar_triple,
    sample_tensor,
    verify_witness,
    write_hypergraph,
    write_tensor,
    write_tensor_json,
    write_witness_json,
)
from otiso.hypergraph import format_hypergraph
import otiso.cli
from otiso.cli import _COMMANDS, _COMMON, _jsonable, _read_plain, build_parser, main, parse_args
from otiso.decision import Decision
from otiso.tensor import DISTRIBUTIONS, SCALAR_KINDS

from helpers import random_hypergraph, random_perm_triple, toggle_edge


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
    # a rerun writes the same bytes, and they read back as the binary form's bits
    again, binary = tmp_path / "again.json", tmp_path / "t.t3b"
    assert main(["gen", "--dims", "2", "3", "2", "--out", str(again),
                 "--format", "json", "--quiet"]) == 0
    assert main(["gen", "--dims", "2", "3", "2", "--out", str(binary), "--quiet"]) == 0
    assert again.read_bytes() == out.read_bytes()
    assert read_tensor(out).data.tobytes() == read_tensor(binary).data.tobytes()


def test_iso_yes_with_witness_out(tmp_path, capsys):
    a, b, pa, pb = orbit_files(tmp_path, 900)
    wpath = tmp_path / "w.json"
    code = main(["iso", "--a", str(pa), "--b", str(pb),
                 "--witness-out", str(wpath), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "yes"
    assert report["residual"] <= report["diagnostics"]["residual_gate"]
    w = read_witness(wpath)
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


def test_conjugate_pair_is_a_cycle_certified_no_without_scipy(tmp_path):
    # a complex tensor and its conjugate share spectra and core moduli, so a violated 4-cycle rejects them
    a = sample_tensor((4, 4, 4), RandomModel("gaussian", "complex", 12))
    pa, pb = tmp_path / "a.t3b", tmp_path / "b.t3b"
    write_tensor(a, pa)
    write_tensor(Tensor3(a.data.conj()), pb)
    script = ("import sys\nfrom otiso.cli import main\n"
              "code = main(sys.argv[1:])\nprint('scipy' in sys.modules)\nsys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(otiso.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, "iso", "--a", str(pa), "--b", str(pb), "--json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    report, scipy_loaded = proc.stdout.splitlines()
    diagnostics = json.loads(report)["diagnostics"]
    assert diagnostics["step"] == "phase_system" and diagnostics["solver_path"] == "cycle"
    assert len(diagnostics["certificate"]) == 4
    assert scipy_loaded == "False"


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


@pytest.mark.parametrize("options, meta", [
    (["--n", "30", "--zeta", "0.5"],
     {"kind": "matrix", "n": 30, "p": 5, "zeta": 0.5, "beta": 0.6,
      "distribution": "uniform_pm", "scalar_kind": "complex", "seed": 8}),
    (["--tensor", "--n", "4", "--eta", "0.25"],
     {"kind": "tensor", "n": 4, "beta": 0.6, "eta": 0.25,
      "distribution": "uniform_pm", "scalar_kind": "complex", "seed": 8}),
], ids=["zeta", "tensor-eta"])
def test_gaps_json_summary_keys_and_meta(capsys, options, meta):
    argv = ["gaps", *options, "--trials", "3", "--model", "uniform_pm", "--kind", "complex", "--seed", "8", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["bound_prob", "command", "degenerate", "median_min_gap", "meta", "prob_ge_target",
                           "simple_freq", "target", "trials"]
    assert doc["meta"] == meta


def test_gaps_refuses_non_finite_eta_and_beta():
    # a non-finite eta or beta is a usage error, not a tensor the sampler rejects or a null target
    tensor = ["gaps", "--tensor", "--n", "4", "--trials", "2", "--quiet"]
    matrix = ["gaps", "--n", "4", "--p", "3", "--trials", "2", "--quiet"]
    for value in ("nan", "inf"):
        assert main([*tensor, "--eta", value]) == 3
        assert main([*tensor, "--beta", value]) == 3
        assert main([*matrix, "--beta", value]) == 3


@pytest.mark.parametrize("argv", [
    ["gaps", "--n", "100", "--zeta", "0.5", "--trials", "2", "--eta", "-1"],
    ["gaps", "--n", "100", "--zeta", "0.5", "--trials", "2", "--eta", "0.5"],
    ["gaps", "--tensor", "--n", "4", "--trials", "2", "--zeta", "0.5", "--p", "3"],
    ["gaps", "--tensor", "--n", "4", "--trials", "2", "--zeta", "0.5"],
    ["gaps", "--tensor", "--n", "4", "--trials", "2", "--p", "3"],
])
def test_gaps_refuses_an_option_its_experiment_does_not_read(capsys, argv):
    # the matrix experiment reads no --eta and the tensor experiment no --zeta or --p
    assert main([*argv, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --")


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


@pytest.mark.parametrize("k", [-540, 520])
def test_verify_rejects_a_wrong_witness_where_the_squares_underflow_or_overflow(tmp_path, capsys, k):
    # entries near 2^-540 square to 0 and near 2^520 to inf; the residual and
    # the gate are still taken at the tensors' scale, so a factor turned by
    # 1e-3 rad fails and the exact witness passes
    a, b, _, _ = orbit_files(tmp_path, 915, dims=(5, 5, 5))
    pa, pb = tmp_path / "a_scaled.t3b", tmp_path / "b_scaled.t3b"
    write_tensor(Tensor3(np.ldexp(a.data, k)), pa)
    write_tensor(Tensor3(np.ldexp(b.data, k)), pb)
    g = sample_haar_triple((5, 5, 5), 916, "real")
    turn = np.eye(5)
    turn[:2, :2] = [[np.cos(1e-3), -np.sin(1e-3)], [np.sin(1e-3), np.cos(1e-3)]]
    for factors, want in (([turn @ g[0], g[1], g[2]], 1), (list(g.factors), 0)):
        w = tmp_path / f"w{want}.json"
        write_witness_json(TransformTriple(factors), w)
        assert main(["verify", "--a", str(pa), "--b", str(pb), "--witness", str(w), "--tol", "1e-8", "--json"]) == want
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert 0.0 < out["gate"] < math.inf and math.isfinite(out["residual"]) and captured.err == ""


def test_verify_exits_4_when_the_moved_tensor_overflows(tmp_path, capsys):
    # a finite witness whose product with A leaves the double range
    _, _, pa, pb = orbit_files(tmp_path, 917)
    w = tmp_path / "w.json"
    write_witness_json(TransformTriple([1e300 * np.eye(4)] * 3, check=False), w)
    assert main(["verify", "--a", str(pa), "--b", str(pb), "--witness", str(w), "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: tensor entries must be finite\n"


def test_verify_fails_when_the_norms_leave_the_double_range(tmp_path, capsys):
    # ||A|| and ||W.A - B|| overflow to inf, and inf <= inf must not pass the identity between A and -A
    a = Tensor3(np.where(np.arange(8).reshape(2, 2, 2) % 3, 1.7e308, -1.7e308))
    pa, pb, w = tmp_path / "a.t3b", tmp_path / "b.t3b", tmp_path / "w.json"
    write_tensor(a, pa)
    write_tensor(Tensor3(-a.data), pb)
    write_witness_json(TransformTriple([np.eye(2)] * 3), w)
    assert main(["verify", "--a", str(pa), "--b", str(pb), "--witness", str(w), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False and report["residual"] is None and report["gate"] is None


def parse_outcome(parse, argv):
    """What ``parse`` makes of ``argv``: the Namespace's repr (NaN-safe) or the exit code, then stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
            result = (type(result), repr(result))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# argv and the exit code argparse gives it (None: it parses)
PARSED_ARGV = [
    (["gen", "--dims", "2", "3", "4", "--out", "x.t3b", "--kind", "complex", "--json"], None),
    (["iso", "--a", "a.t3b", "--b", "b.t3b", "--witness-out", "w.json", "--json"], None),
    (["dist", "--a", "a.t3b", "--b", "b.t3b", "--eps", "1e-3", "--quiet"], None),
    (["gaps", "--n", "4", "--trials", "2", "--tensor", "--eta", "0.1", "--csv", "g.csv"], None),
    (["hyper", "--g", "g.txt", "--h", "h.txt"], None),
    (["verify", "--a", "a.t3b", "--b", "b.t3b", "--witness", "w.json", "--tol", "1e-3"], None),
    (["-h"], 0),
    (["iso", "-h"], 0),
    ([], 2),
    (["frob", "--a", "a.t3b"], 2),
    (["iso", "--a", "a.t3b"], 2),
    (["iso", "--a", "a.t3b", "--b", "b.t3b", "--frob"], 2),
    (["hyper", "--g", "g.txt", "--h", "h.txt", "extra"], 2),
    (["gen", "--dims", "1", "1", "1", "--out", "x.t3b", "--model", "cauchy"], 2),
]


@pytest.mark.parametrize("argv, code", PARSED_ARGV)
def test_one_pass_parse_matches_the_full_parser(argv, code):
    # the same Namespace, or the same exit code and text, as the full parser
    got = parse_outcome(parse_args, argv)
    assert got == parse_outcome(build_parser().parse_args, argv)
    if code is None:
        assert got[0][1].startswith(f"Namespace(subcommand='{argv[0]}', ") and got[1:] == ("", "")
    else:
        assert got[0] == code
        assert main(list(argv)) == (0 if code == 0 else 3)


def option_values(keywords):
    """Value tokens for one option: well-formed ones, and ones argparse refuses or reads as an option."""
    if keywords.get("nargs"):
        return st.lists(st.integers(0, 9).map(str), min_size=2, max_size=4)
    kind = keywords.get("type")
    if "choices" in keywords:
        good = st.sampled_from(keywords["choices"])
    elif kind is int:
        good = st.integers(-3, 10**6).map(str)
    elif kind is float:
        good = st.floats().map(repr) | st.sampled_from(["1e-3", "0.5", "inf", "nan", "1_0.5"])
    else:
        good = st.sampled_from(["a.t3b", "w.json", "x y", "", "iso"])
    bad = st.sampled_from(["-1", "-1e-3", "-x", "x", "1.5", "cauchy", "--json"])
    return st.sampled_from([good] * 6 + [bad]).flatmap(lambda values: st.lists(values, min_size=1, max_size=1))


@st.composite
def cli_argvs(draw):
    """An argv from the declaration: every subcommand, its options in any order, each spelled well or badly."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    options = {**_COMMON, **_COMMANDS[name][2]}
    groups = []
    for flag in draw(st.permutations(sorted(options))):
        keywords = options[flag]
        if not draw(st.sampled_from([True] * 5 + [False] if keywords.get("required") else [True, False])):
            continue  # an optional option left out, now and then a required one
        values = [] if keywords.get("action") else draw(option_values(keywords))
        spelling = draw(st.sampled_from(["exact"] * 8 + ["abbreviated", "joined"]))
        if spelling == "abbreviated" and len(flag) > 4:
            flag = flag[:draw(st.integers(3, len(flag) - 1))]  # --wit, --t, ...
        if spelling == "joined":
            groups.append([f"{flag}={values[0] if values else ''}"] + values[1:])
        else:
            groups.append([flag] + values)
    if groups and draw(st.sampled_from([False] * 9 + [True])):
        groups.insert(draw(st.integers(0, len(groups))), draw(st.sampled_from(groups)))  # a repeated option
    argv = [name] + [token for group in groups for token in group]
    for extra in ("-h", "extra"):  # help, or a positional no subcommand takes, at any position
        if draw(st.sampled_from([False] * 9 + [True])):
            argv.insert(draw(st.integers(0, len(argv))), extra)
    return argv


def plain(argv) -> bool:
    """Only exact, distinct long options of a subcommand whose options each take one value or none."""
    if argv[0] not in _COMMANDS or argv[0] == "gen":  # gen's --dims takes three
        return False
    options = {**_COMMON, **_COMMANDS[argv[0]][2]}
    flags = [token for token in argv[1:] if token.startswith("-")]
    return len(flags) == len(set(flags)) and all(flag in options for flag in flags)


@settings(max_examples=500)
@given(cli_argvs())
def test_plain_parse_matches_argparse(argv):
    # the same Namespace, or the same exit code, stdout and stderr; a plain argv that parses is read without argparse
    want = parse_outcome(build_parser().parse_args, argv)
    assert parse_outcome(parse_args, argv) == want
    if isinstance(want[0], tuple):
        assert _read_plain(argv) is not None or not plain(argv)
    else:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(list(argv)) == (0 if want[0] == 0 else 3)


def argparse_calls(argv):
    """``main(argv)``'s exit code, and the Python-level calls it makes into argparse, from a process state with no tree built."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == "argparse":
            calls.append(frame.f_code.co_name)

    build_parser.cache_clear()
    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(None)
    return code, calls


@pytest.mark.parametrize("shape", ["iso", "dist", "gaps", "gaps --tensor", "hyper"])
def test_a_plain_argv_never_calls_into_argparse(tmp_path, capsys, shape):
    # the benchmark's argv shapes: the tree is not built and no argparse function runs
    _, _, pa, pb = orbit_files(tmp_path, 915)
    if shape == "hyper":
        g = random_hypergraph((4, 4, 4), seed=916)
        pg, ph = tmp_path / "g.txt", tmp_path / "h.txt"
        write_hypergraph(g, pg)
        write_hypergraph(relabel(g, random_perm_triple((4, 4, 4), seed=917)), ph)
        argv = ["hyper", "--g", str(pg), "--h", str(ph), "--json"]
    elif shape == "gaps":
        argv = ["gaps", "--n", "20", "--zeta", "0.5", "--trials", "2", "--seed", "3", "--csv", str(tmp_path / "g.csv"),
                "--json"]
    elif shape == "gaps --tensor":
        argv = ["gaps", "--tensor", "--n", "4", "--trials", "2", "--seed", "3", "--json"]
    else:
        argv = [shape, "--a", str(pa), "--b", str(pb)]
        argv += ["--eps", "1e-6"] if shape == "dist" else ["--witness-out", str(tmp_path / "w.json"), "--json"]
    code, calls = argparse_calls(argv)
    assert code == 0 and capsys.readouterr().err == ""
    assert calls == [] and build_parser.cache_info().currsize == 0


@pytest.mark.parametrize("argv, code", [(["iso", "-h"], 0), (["iso", "--a"], 3)])
def test_help_and_usage_errors_build_the_argparse_tree(capsys, argv, code):
    assert argparse_calls(argv)[0] == code
    assert build_parser.cache_info().currsize == 1
    assert capsys.readouterr() == parse_outcome(build_parser().parse_args, argv)[1:]


def test_verify_is_symmetric_in_the_kinds(tmp_path, capsys):
    # O(n) sits inside U(n): a real witness acts on a complex tensor, and
    # numpy's promotion mixes the kinds, whichever of A and B is complex
    g = sample_haar_triple((3, 4, 2), 911, "real")
    a = sample_tensor((3, 4, 2), RandomModel("gaussian", "real", 910))
    b = Tensor3(apply_action(g, a).data + 1e-9 * sample_tensor((3, 4, 2), RandomModel("gaussian", "real", 912)).data)
    paths = {}
    for name, t in (("a", a), ("b", b)):
        for kind in ("real", "complex"):
            paths[name, kind] = tmp_path / f"{name}_{kind}.t3b"
            write_tensor(Tensor3(t.data.astype(complex) if kind == "complex" else t.data), paths[name, kind])
    w = tmp_path / "w.json"
    write_witness_json(g, w)
    residuals = []
    for ka, kb in (("real", "complex"), ("complex", "real")):
        argv = ["verify", "--a", str(paths["a", ka]), "--b", str(paths["b", kb]), "--witness", str(w), "--json"]
        assert main(argv) == 0
        residuals.append(json.loads(capsys.readouterr().out)["residual"])
    assert residuals[0] > 0.0 and residuals[0] == pytest.approx(residuals[1], rel=1e-12)


def test_kind_and_model_choices_are_the_tensor_modules_names():
    # one owner for the names: the CLI offers exactly what RandomModel and the file formats take
    for name in ("gen", "gaps"):
        options = _COMMANDS[name][2]
        assert options["--kind"]["choices"] is SCALAR_KINDS and options["--model"]["choices"] is DISTRIBUTIONS


def test_usage_errors():
    assert main([]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["iso", "--a", "x.t3b"]) == 3  # --b missing
    # only gen and gaps sample anything, so only they take a seed
    assert main(["iso", "--a", "x.t3b", "--b", "y.t3b", "--seed", "1"]) == 3
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
    # a header whose dims no array can hold is a malformed file too
    huge = tmp_path / "huge.t3b"
    huge.write_bytes(b"T3B1" + bytes([1]) + struct.pack("<III", *[0xFFFFFFFF] * 3))
    assert main(["iso", "--a", str(huge), "--b", str(huge), "--quiet"]) == 4
    # JSON true is not the integer 1: boolean dims are a malformed file, not a traceback
    bools = tmp_path / "bools.json"
    bools.write_text(json.dumps({"format": "t3b-json", "version": 1, "scalar_kind": "real",
                                 "dims": [True, True, True], "entries": [1.0]}))
    assert main(["iso", "--a", str(bools), "--b", str(bools), "--quiet"]) == 4
    # an unhashable scalar_kind is a malformed file too, not a TypeError that exits 1 like a NO
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps({"format": "t3b-json", "version": 1, "scalar_kind": [],
                                  "dims": [1, 1, 1], "entries": [1.0]}))
    assert main(["iso", "--a", str(listed), "--b", str(listed), "--quiet"]) == 4


def test_pair_mismatch_exits_3(tmp_path, capsys):
    # well-formed files that the requested mode cannot take are usage errors
    _, _, pa, pb = orbit_files(tmp_path, 906, dims=(5, 3, 4))
    real = gen(tmp_path, "r.t3b", seed=907)
    cplx = gen(tmp_path, "c.t3b", seed=908, kind="complex")
    for cmd in (["iso"], ["dist", "--eps", "1e-6"]):
        assert main([*cmd, "--a", str(real), "--b", str(cplx), "--quiet"]) == 3
        assert main([*cmd, "--a", str(real), "--b", str(pa), "--quiet"]) == 3
    # both modes take any common dims: the (5, 3, 4) orbit pair is a YES
    assert main(["dist", "--a", str(pa), "--b", str(pb), "--eps", "1e-6", "--quiet"]) == 0
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


def test_non_ascii_byte_on_a_hypergraph_edge_line_exits_4(tmp_path, capsys):
    pg = tmp_path / "g.txt"
    write_hypergraph(random_hypergraph((3, 3, 3), seed=214), pg)
    ph = tmp_path / "h.txt"
    ph.write_bytes(b"3 3 3\n1 1 1\n1 2 \xe9\n")
    assert main(["hyper", "--g", str(pg), "--h", str(ph), "--quiet"]) == 4
    assert capsys.readouterr().err == (f"error: non-ASCII byte in hypergraph file {ph}: 'ascii' codec can't decode "
                                       "byte 0xe9 in position 16: ordinal not in range(128)\n")


def test_an_unreadable_hypergraph_path_exits_4_naming_it(tmp_path, capsys):
    # a directory opens for reading and fails only at its first read
    ph = tmp_path / "h.txt"
    write_hypergraph(random_hypergraph((3, 3, 3), seed=214), ph)
    for path, reason in ((tmp_path, "[Errno 21] Is a directory"),
                         (tmp_path / "none.txt", "[Errno 2] No such file or directory")):
        assert main(["hyper", "--g", str(path), "--h", str(ph), "--quiet"]) == 4
        assert capsys.readouterr().err == f"error: {reason}: '{path}'\n"


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


# Calls into numpy's Python-level functions per op, measured with numpy
# 2.4.6; a numpy upgrade that moves its wrappers re-baselines them.
WRAPPER_BUDGET = {"real": 55, "complex": 55, "norm": 6, "hyper": 69, "toggle": 2}


@pytest.mark.parametrize("op", sorted(WRAPPER_BUDGET))
def test_numpy_wrapper_calls_per_op_stay_within_budget(tmp_path, capsys, op):
    # the benchmark runs each op cold, where every Python-level numpy
    # wrapper costs about as much as a small op's arithmetic
    kind = "complex" if op == "complex" else "real"
    want = 1 if op in ("norm", "toggle") else 0
    if op in ("hyper", "toggle"):
        g = random_hypergraph((10, 10, 10), seed=911)
        pg, ph = tmp_path / "g.txt", tmp_path / "h.txt"
        write_hypergraph(g, pg)
        # a toggle adds one edge: a NO at degrees from the edge counts alone
        h = relabel(g, random_perm_triple((10, 10, 10), seed=912)) if op == "hyper" else toggle_edge(g, 0)
        write_hypergraph(h, ph)
        argv = ["hyper", "--g", str(pg), "--h", str(ph), "--json"]
    else:
        _, b, pa, pb = orbit_files(tmp_path, 911, dims=(9, 9, 9), kind=kind)
        if op == "norm":
            write_tensor(Tensor3(2.0 * b.data), pb)
        argv = ["iso", "--a", str(pa), "--b", str(pb), "--witness-out", str(tmp_path / "w.json"), "--json"]
    root = os.path.dirname(np.__file__) + os.sep
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls.append(frame.f_code.co_name)

    assert main(argv) == want  # the first call pays numpy's one-time setup
    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(None)
    assert code == want
    capsys.readouterr()  # drop the two reports: under -s, output left unread reaches the terminal
    assert len(calls) <= WRAPPER_BUDGET[op], sorted(calls)
