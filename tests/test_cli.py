import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import solstab
from solstab import algebra, catalog, cli, curvature, flow, soliton, stability
from solstab.errors import AlgebraFormatError, EinsteinVerificationFailed
from solstab.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_SOLITON,
    EXIT_STABLE,
    EXIT_UNSTABLE,
    analyze_file,
    main,
)

from conftest import conjugate_framed, framed, random_orthogonal, random_solvable


def cat(name):
    return str(catalog.catalog_path(name))


def not_expanding_su2(stage):
    return f"error: {cat('su2')}: {stage} stage: not expanding: lambda=0.5\n"  # the path once


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_json(out):
    """A --format json output; NaN and Infinity are not JSON (RFC 8259)."""
    def reject(constant):
        raise ValueError(f"{constant} in JSON output")
    return json.loads(out, parse_constant=reject)


def write_alg(tmp_path, name, doc):
    p = tmp_path / f"{name}.alg"
    p.write_text(json.dumps(doc))
    return str(p)


def test_analyze_h3_stable(capsys):
    code, out, err = run(capsys, "analyze", cat("heisenberg3"), "--extend")
    assert code == EXIT_STABLE
    assert "verdict: stable" in out
    assert "0.569" in out  # max q rounded to 3 decimals
    assert "1.000" in out  # max Ro of the extension
    assert "✓" in out


def test_analyze_json_format(capsys):
    code, out, _ = run(
        capsys, "analyze", cat("heisenberg3"), "--extend", "--format", "json"
    )
    assert code == EXIT_STABLE
    doc = load_json(out)
    assert doc["verdict"] == "stable"
    assert doc["lambda"] == pytest.approx(-1.5)
    assert doc["trace_D"] == pytest.approx(4.0)
    assert doc["step"] == 2
    assert doc["stability"]["max_q"] == pytest.approx(0.5687293044, abs=1e-9)
    assert doc["stability"]["max_Ro"] == pytest.approx(1.0, abs=1e-9)
    assert doc["soliton_residual"] <= 1e-12


def test_analyze_csv_format(capsys):
    code, out, _ = run(
        capsys, "analyze", cat("heisenberg3"), "--extend", "--format", "csv"
    )
    assert code == EXIT_STABLE
    lines = out.strip().splitlines()
    assert lines[0].startswith("#,step,")
    fields = lines[1].split(",")
    assert fields[1] == "2"
    assert fields[2] == "-1.5"
    assert fields[3] == "4"
    assert fields[4] == "0.569"


def test_analyze_su2_not_expanding_still_soliton(capsys):
    # su(2) certifies as an Einstein (hence soliton) metric with lambda > 0;
    # the q criterion fails, so the verdict is unstable
    code, out, _ = run(capsys, "analyze", cat("su2"))
    assert code == EXIT_UNSTABLE
    assert "verdict:" in out


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/x.alg")
    assert code == EXIT_INPUT_ERROR
    assert err == "error: /nonexistent/x.alg: parse stage: No such file or directory\n"


def test_analyze_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.alg"
    p.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == EXIT_INPUT_ERROR
    assert err.startswith(f"error: {p}: parse stage: malformed document")
    assert err.count(str(p)) == 1 and err.count("\n") == 1


def test_analyze_binary_file(tmp_path, capsys):
    p = tmp_path / "bin.alg"
    p.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "analyze", str(p))
    assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {p}: parse stage: not UTF-8 text\n")


# [e1, e3] = e1 and [e2, e3] = e1 next to [e1, e2] = e3 break Jacobi at (e1, e2, e3)
NOT_LIE3 = {"name": "not_lie3", "dim": 3,
            "brackets": [[1, 2, 3, 1.0], [1, 3, 1, 1.0], [2, 3, 1, 1.0]]}


def test_analyze_broken_jacobi_names_triple(monkeypatch, tmp_path, capsys):
    jacobi = _count_calls(monkeypatch, (algebra, "worst_jacobi_triple"))
    path = write_alg(tmp_path, "broken", NOT_LIE3)
    code, _, err = run(capsys, "analyze", path)
    assert code == EXIT_INPUT_ERROR
    assert err.startswith(f"error: {path}: parse stage: Jacobi identity violated")
    assert err.count(path) == 1 and err.count("\n") == 1
    assert "(e1, e2, e3)" in err
    assert jacobi["calls"] == 1  # the failed check names its triple without a second pass


def test_analyze_gaussian_flag(capsys):
    code, out, _ = run(
        capsys, "analyze", cat("heisenberg3"), "--gaussian", "--ignore-stability"
    )
    assert code == EXIT_STABLE
    assert "k=7" in out
    # max|Ric - lambda I - D| is 0 by construction, so no residual is printed
    assert out.endswith("k=7 bracket=-1.25\n")


def without_timings(out):
    """The output with the JSON timings removed: they differ from run to run."""
    if not out.startswith("{"):
        return out
    doc = load_json(out)
    del doc["timings"]
    return doc


def test_successive_main_calls_print_what_separate_processes_print(capsys):
    src = str(Path(solstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    calls = [
        ["analyze", cat("heisenberg5"), "--format", "json"],
        ["table", str(catalog.catalog_dir())],
        ["analyze", cat("heisenberg3")],  # defaults: human, no extension
        ["analyze", cat("su2"), "--extend", "--gaussian"],
    ]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "solstab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (code, without_timings(out), err) == (
            proc.returncode, without_timings(proc.stdout), proc.stderr), argv


def test_main_runs_the_command_bound_to_its_name_at_call_time(capsys, monkeypatch):
    # the parser is built once, so a command wrapped after that must still run
    assert run(capsys, "analyze", cat("heisenberg3"))[0] == EXIT_STABLE
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.path) or 7)
    assert main(["analyze", cat("heisenberg3")]) == 7
    assert seen == [cat("heisenberg3")]


def test_table_catalog(capsys):
    code, out, _ = run(capsys, "table", str(catalog.catalog_dir()))
    assert code == EXIT_STABLE
    lines = out.strip().splitlines()
    assert lines[0].split()[:2] == ["#", "step"]
    rows = {line.split()[0]: line for line in lines[1:]}
    assert set(rows) == {
        "abelian2", "abelian3", "abelian4",
        "heisenberg3", "heisenberg5", "su2", "solv4",
    }
    h3 = rows["heisenberg3"].split()
    assert h3[1:6] == ["2", "-1.5", "4", "0.569", "✓"]
    h5 = rows["heisenberg5"].split()
    assert h5[1:6] == ["2", "-2", "9", "1.106", "✓"]
    s4 = rows["solv4"].split()
    assert s4[2] == "-1.5"
    assert s4[3] == "0"


def test_table_csv(tmp_path, capsys):
    write_alg(tmp_path, "h3", {"dim": 3, "brackets": [[1, 2, 3, 1.0]]})
    code, out, _ = run(capsys, "table", str(tmp_path), "--format", "csv")
    assert code == EXIT_STABLE
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[4] == "0.569"


def test_table_csv_quotes_error_rows(tmp_path, capsys):
    write_alg(tmp_path, "h3", H3)
    write_alg(tmp_path, "bad", {"dim": 3, "brackets": [[1, 2, 9, 1.0]]})
    code, out, _ = run(capsys, "table", str(tmp_path), "--format", "csv")
    assert code == EXIT_STABLE
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    assert all(len(row) == 8 for row in rows)
    assert rows[1][0] == "bad" and "[1, 2, 9, 1.0]" in rows[1][5]
    assert rows[2][4] == "0.569"


def test_table_not_a_directory(capsys):
    code, out, err = run(capsys, "table", "/nonexistent/dir")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == "error: /nonexistent/dir: parse stage: not a directory\n"


def test_table_survives_bad_file(tmp_path, capsys):
    write_alg(tmp_path, "good", {"dim": 3, "brackets": [[1, 2, 3, 1.0]]})
    (tmp_path / "bad.alg").write_text("{broken")
    code, out, _ = run(capsys, "table", str(tmp_path))
    assert code == EXIT_STABLE
    assert "error:" in out  # the bad row carries the message
    assert "0.569" in out  # the good row is still produced


def test_flow_h3_decays(capsys):
    code, out, _ = run(
        capsys, "flow", cat("heisenberg3"),
        "--eps", "1e-3", "--trials", "2", "--t-max", "2.0", "--dt", "1e-2",
    )
    assert code == EXIT_STABLE
    assert out.count("decayed") == 2
    assert "NOT decayed" not in out


def test_flow_su2_not_expanding(capsys):
    code, _, err = run(capsys, "flow", cat("su2"), "--trials", "1")
    assert code == EXIT_NOT_SOLITON
    assert "not expanding" in err
    assert err == not_expanding_su2("flow")


def test_flow_zero_eps(capsys):
    code, out, _ = run(
        capsys, "flow", cat("heisenberg3"),
        "--eps", "0", "--trials", "1", "--t-max", "0.5", "--dt", "1e-2",
    )
    assert code == EXIT_STABLE


def test_gaussian_stable_input_k_zero(capsys):
    code, out, _ = run(capsys, "gaussian", cat("heisenberg3"))
    assert code == EXIT_STABLE
    assert "k = 0" in out


def test_gaussian_ignore_stability(capsys):
    code, out, _ = run(
        capsys, "gaussian", cat("heisenberg3"), "--ignore-stability"
    )
    assert code == EXIT_STABLE
    assert "k = 7" in out
    assert "C1 = 1.5" in out
    assert "C2 = 2.5" in out
    assert "-1.25" in out


def test_gaussian_abelian2(capsys):
    code, out, _ = run(
        capsys, "gaussian", cat("abelian2"), "--ignore-stability"
    )
    assert code == EXIT_STABLE
    assert "k = 5" in out
    assert "-1.5" in out


def test_gaussian_not_expanding(capsys):
    code, _, err = run(capsys, "gaussian", cat("su2"))
    assert code == EXIT_NOT_SOLITON
    assert err == not_expanding_su2("gaussian")


def test_analyze_gaussian_not_expanding(capsys):
    # the same outcome as the gaussian and flow commands, not an input error
    code, out, err = run(capsys, "analyze", cat("su2"), "--gaussian")
    assert (code, out) == (EXIT_NOT_SOLITON, "")
    assert err == not_expanding_su2("gaussian")


def test_analyze_file_api_returns_record():
    rec = analyze_file(cat("heisenberg3"), extend=True)
    assert rec.verdict == "stable"
    assert rec.report is not None
    assert rec.report.q_verdict is True
    assert set(rec.timings) >= {"parse", "curvature", "soliton", "profile", "stability"}


def test_degenerate_abelian_uses_hint(capsys):
    code, out, _ = run(capsys, "analyze", cat("abelian3"), "--format", "json")
    assert code == EXIT_STABLE
    doc = load_json(out)
    assert doc["lambda"] == pytest.approx(-1.0)
    assert doc["degenerate"] is True
    assert doc["verdict"] == "stable"


H3 = {"dim": 3, "brackets": [[1, 2, 3, 1.0]]}


# ad e3 is a Jordan block, so no lambda makes Ric - lambda I a derivation
JORDAN3 = {"name": "jordan3", "dim": 3, "brackets": [[1, 3, 1, -1], [2, 3, 1, -1], [2, 3, 2, -1]]}


def test_non_soliton_through_every_output(tmp_path, capsys):
    path = write_alg(tmp_path, "jordan3", JORDAN3)
    code, out, _ = run(capsys, "analyze", path)
    assert code == EXIT_NOT_SOLITON
    assert "not a soliton (residual 1.333e+00)" in out
    assert "verdict: not-a-soliton" in out

    code, out, _ = run(capsys, "analyze", path, "--format", "json")
    assert code == EXIT_NOT_SOLITON
    doc = load_json(out)
    assert doc["accepted"] is False and doc["verdict"] == "not-a-soliton"
    assert doc["lambda"] == pytest.approx(-17 / 6, rel=1e-12)
    assert "stability" not in doc

    write_alg(tmp_path, "h3", H3)
    code, out, _ = run(capsys, "table", str(tmp_path))
    assert code == EXIT_STABLE
    rows = out.splitlines()[1:]
    assert rows[0].split()[1:] == ["2", "-1.5", "4", "0.569", "✓", "1.000", "✓"]
    assert rows[1].split()[0] == "jordan3"
    assert "not a soliton (residual 1.333e+00)" in rows[1]


SCALES = (1e-100, 1e-6, 1e-3, 1.0, 1e2, 1e4, 1e6, 1e100)
# e(2), [e3, e1] = e2 and [e3, e2] = -e1: flat, so a steady soliton with no verdict
E2 = {"name": "e2", "dim": 3, "brackets": [[1, 3, 2, 1.0], [2, 3, 1, -1.0]]}
DOCS = {"e2": E2, "not_lie3": NOT_LIE3}


@pytest.mark.parametrize("command", ["flow", "gaussian"])
def test_not_a_soliton_names_the_file(tmp_path, capsys, command):
    path = write_alg(tmp_path, "jordan3", JORDAN3)
    code, out, err = run(capsys, command, path)
    assert (code, out) == (EXIT_NOT_SOLITON, "")
    assert err == f"{path}: not a soliton: residual 1.333e+00\n"


def _rotated_copy(tmp_path, name, Q, s):
    """The catalog algebra ``name``, or one of DOCS, in the orthonormal basis
    rotated by Q, with its brackets times s."""
    F = algebra.parse_algebra(json.dumps(DOCS[name])) if name in DOCS else framed(name)
    F = conjugate_framed(F, Q)
    n = F.dim
    entries = [[i + 1, j + 1, k + 1, s * float(F.c[i, j, k])]
               for i in range(n) for j in range(i + 1, n) for k in range(n)]
    return write_alg(tmp_path, f"{name}_{s:g}", {"dim": n, "brackets": entries})


@pytest.mark.parametrize("name", ["heisenberg3", "heisenberg5", "solv4"])
def test_verdict_does_not_depend_on_bracket_scale(tmp_path, capsys, rng, name):
    Q = random_orthogonal(rng, catalog.load(name).dim)
    lams = []
    for s in SCALES:
        code, out, err = run(capsys, "analyze", _rotated_copy(tmp_path, name, Q, s),
                             "--extend", "--format", "json")
        doc = load_json(out)
        assert (code, doc["verdict"], err) == (EXIT_STABLE, "stable", ""), s
        lams.append(doc["lambda"] / s**2)
    assert max(lams) - min(lams) <= 1e-12 * abs(lams[SCALES.index(1.0)])


def test_flat_e2_is_inconclusive_at_every_scale(tmp_path, capsys, rng):
    # its lambda, D and q margin are round-off of order 1e-16 s^2, which the
    # dead zone, TIE_TOL s^2, must swallow at every s
    for _ in range(3):
        Q = random_orthogonal(rng, 3)
        for s in SCALES:
            code, out, _ = run(capsys, "analyze", _rotated_copy(tmp_path, "e2", Q, s), "--extend")
            assert (code, out.splitlines()[-1]) == (EXIT_UNSTABLE, "verdict: inconclusive"), s


def test_small_scale_prints_lambda_and_trace(tmp_path, capsys, rng):
    # h3 at 1e-6: lambda = -1.5e-12 and tr D = 4e-12 are not rounding noise
    path = _rotated_copy(tmp_path, "heisenberg3", random_orthogonal(rng, 3), 1e-6)
    code, out, _ = run(capsys, "analyze", path, "--extend")
    assert code == EXIT_STABLE
    assert out.splitlines()[1].split()[1:4] == ["2", "-1.5e-12", "4e-12"]


def test_large_metric_with_one_ulp_asymmetry_is_accepted(tmp_path, capsys):
    # the symmetry check is relative to max|G|: an ulp of 5e7 is 7.5e-9
    G = 1e8 * np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    G[1, 0] = np.nextafter(G[0, 1], np.inf)
    path = write_alg(tmp_path, "h3_big_metric", {**H3, "metric": G.tolist()})
    code, out, err = run(capsys, "analyze", path, "--extend")
    assert (code, err) == (EXIT_STABLE, "")
    assert "verdict: stable" in out


@pytest.mark.parametrize("s", [1.0, 1e2, 1e3, 1e4])
def test_soliton_at_rest_decays_at_every_scale(tmp_path, capsys, rng, s):
    # eps = 0 leaves only round-off of order 1e-16 s^2, which the decay floor,
    # DECAY_TOL s^2, must count as decayed; time runs as 1/s^2
    path = _rotated_copy(tmp_path, "heisenberg3", random_orthogonal(rng, 3), s)
    code, out, _ = run(capsys, "flow", path, "--eps", "0", "--trials", "3",
                       "--dt", str(1e-3 / s**2), "--t-max", str(0.1 / s**2))
    assert code == EXIT_STABLE
    assert out.count("decayed") == 3 and "NOT decayed" not in out


@pytest.mark.parametrize("s", [1e-3, 1e-6])
def test_gaussian_k_at_small_scale(tmp_path, capsys, rng, s):
    # |lambda| = 1.5 s^2 against the absolute -1 of the bracket makes k about
    # 1/s^2; it is computed, not counted up to
    path = _rotated_copy(tmp_path, "heisenberg3", random_orthogonal(rng, 3), s)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "gaussian", path, "--ignore-stability")
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (EXIT_STABLE, "")
    rec = analyze_file(path, gaussian_mode="paper-bound", ignore_stability=True)
    p, lam = rec.gaussian_plan, rec.certificate.lam
    assert f"k = {p.k}\n" in out and p.k > 1 / s**2
    assert p.C1 + p.C2 + 0.5 * lam * p.k < -1.0
    assert p.C1 + p.C2 + 0.5 * lam * (p.k - 1) >= -1.0


def _same_answer_in_basis(tmp_path, name, P, tol):
    """Analyze the catalog algebra ``name`` (metric I) written in the basis
    f_a = sum_i P[i,a] e_i, so c <- PPPc and G = P^T P, each exactly
    (anti)symmetrized: the catalog file's verdict, lambda, max q and max Ro."""
    L, n = catalog.load(name), len(P)
    c = np.einsum("ia,jb,kc,ijk->abc", P, P, P, L.c)
    G = P.T @ P
    doc = {"dim": n, "metric": (0.5 * (G + G.T)).tolist(),
           "brackets": [[i + 1, j + 1, k + 1, 0.5 * (c[i, j, k] - c[j, i, k])]
                        for i in range(n) for j in range(i + 1, n) for k in range(n)]}
    got = analyze_file(write_alg(tmp_path, name, doc), extend=True)
    want = analyze_file(cat(name), extend=True)
    assert got.verdict == want.verdict == "stable"
    assert (got.report.max_Ro is None) == (want.report.max_Ro is None)
    for x, y in ((got.certificate.lam, want.certificate.lam),
                 (got.report.max_q, want.report.max_q),
                 (got.report.max_Ro or 0.0, want.report.max_Ro or 0.0)):
        assert abs(x - y) <= tol * abs(y)


@pytest.mark.parametrize("a, b", [(1e-4, 1e-2), (1e3, 1e2)])
def test_metric_related_by_an_automorphism_gives_the_same_answer(tmp_path, a, b):
    # f1 = a e1, f2 = b e2, f3 = ab e3 is an automorphism-related basis of
    # h3: [f1, f2] = f3, with metric diag(a^2, b^2, (ab)^2), so <[f1,f2],f3> = (ab)^2
    _same_answer_in_basis(tmp_path, "heisenberg3", np.diag([a, b, a * b]), 1e-12)


@pytest.mark.parametrize("name", ["heisenberg3", "heisenberg5", "solv4"])
@pytest.mark.parametrize("kappa", [1e2, 1e4])
def test_metric_in_an_ill_conditioned_basis_gives_the_same_answer(tmp_path, name, kappa):
    # P = Q1 diag(logspace(0, log10(kappa)/2)) Q2 makes cond(G) = kappa
    n = catalog.load(name).dim
    for seed in range(3):
        rng = np.random.default_rng(seed)
        P = random_orthogonal(rng, n) * np.logspace(0, np.log10(kappa) / 2, n)
        _same_answer_in_basis(tmp_path, name, P @ random_orthogonal(rng, n), 1e-10)


@pytest.mark.parametrize(
    "change, named",
    [
        ({"hints": {"lambda": "abc"}}, "hints.lambda"),
        ({"hints": {"lambda": float("nan")}}, "hints.lambda"),
        ({"hints": {"lambda": float("inf")}}, "hints.lambda"),
        ({"brackets": [[1, 2, 3, float("nan")]]}, "bracket entry [1, 2, 3, nan]"),
        ({"brackets": [[1, 2, 3, float("-inf")]]}, "bracket entry [1, 2, 3, -inf]"),
        ({"metric": [[1, 0, 0], [0, float("nan"), 0], [0, 0, 1]]}, "'metric'"),
        ({"dim": 3.7}, "'dim'"),
        ({"dim": True}, "'dim'"),
        ({"brackets": [[True, 2, 3, 1.0]]}, "bracket entry [True, 2, 3, 1.0]"),
        ({"metric": [[1, 0, 0], [0, True, 0], [0, 0, 1]]}, "'metric'"),
        ({"metric": [["1", 0, 0], [0, 1, 0], [0, 0, "1e0"]]}, "'metric'"),
        ({"metric": [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]}, "'metric'"),
        # only an absent key or null means no hints, as for the metric
        ({"hints": []}, "'hints'"),
        ({"hints": 0}, "'hints'"),
        ({"hints": False}, "'hints'"),
        ({"hints": ""}, "'hints'"),
        ({"dim": 0}, "dim must be in 1..16, got 0"),
        ({"dim": 17}, "dim must be in 1..16, got 17"),
        ({"brackets": {}}, "'brackets' must be a list"),
        ({"metric": [[1, 0], [0, 1]]}, "metric must be 3x3"),
        # a name is text, or absent or null
        ({"name": 3}, "'name' must be text, got 3"),
        ({"name": False}, "'name' must be text, got False"),
        ({"name": ["h3"]}, "'name' must be text, got ['h3']"),
    ],
    ids=["lambda-text", "lambda-nan", "lambda-inf", "bracket-nan", "bracket-inf",
         "metric-nan", "dim-fraction", "dim-true", "index-true", "metric-true", "metric-text",
         "metric-huge", "hints-list", "hints-zero", "hints-false", "hints-empty-text",
         "dim-zero", "dim-17", "brackets-object", "metric-2x2", "name-number", "name-false",
         "name-list"],
)
def test_malformed_value_names_its_key(tmp_path, capsys, change, named):
    text = json.dumps({**H3, **change})  # NaN and Infinity as Python's json writes them
    with pytest.raises(AlgebraFormatError) as info:
        algebra.parse_algebra(text)
    assert named in str(info.value)

    (tmp_path / "bad.alg").write_text(text)
    code, out, err = run(capsys, "analyze", str(tmp_path / "bad.alg"))
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith("error: ") and named in err and err.count("\n") == 1

    write_alg(tmp_path, "good", H3)
    code, out, _ = run(capsys, "table", str(tmp_path))
    assert code == EXIT_STABLE
    rows = out.strip().splitlines()[1:]
    assert rows[0].startswith("bad ") and "error: " in rows[0] and named in rows[0]
    assert "0.569" in rows[1]


def test_file_without_a_name_is_named_by_its_stem(tmp_path, capsys):
    write_alg(tmp_path, "h3_absent", H3)
    write_alg(tmp_path, "h3_null", {**H3, "name": None})
    write_alg(tmp_path, "h3_named", {**H3, "name": "heisenberg"})
    code, out, _ = run(capsys, "table", str(tmp_path))
    assert code == EXIT_STABLE
    assert [row.split()[0] for row in out.splitlines()[1:]] == ["h3_absent", "heisenberg", "h3_null"]
    for stem in ("h3_absent", "h3_null"):
        code, out, _ = run(capsys, "analyze", str(tmp_path / f"{stem}.alg"), "--format", "json")
        assert (code, load_json(out)["name"]) == (EXIT_STABLE, stem)
    assert algebra.parse_algebra(json.dumps(H3)).name == "unnamed"  # text has no file


def test_small_scale_jacobi_failure_is_input_error(tmp_path, capsys):
    # a residual of 1e-12 at bracket scale 1e-6 is as large as 1 at scale 1
    doc = {"dim": 4, "brackets": [[1, 2, 3, 1e-6], [1, 3, 4, 1e-6], [2, 4, 1, 1e-6]]}
    code, out, err = run(capsys, "analyze", write_alg(tmp_path, "tiny", doc))
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert "Jacobi identity violated at triple (e1, e2, e3)" in err


@pytest.mark.parametrize(
    "name, s, stage",
    [
        ("heisenberg3", 1e160, "curvature stage: Riemann tensor"),
        ("heisenberg3", 8e153, "soliton stage: lambda"),
        ("heisenberg3", 1e154, "soliton stage: lambda"),
        ("heisenberg3", 1.4e154, "curvature stage: scalar curvature"),
        ("heisenberg5", 5e153, "soliton stage: lambda"),
        ("heisenberg5", 1e154, "curvature stage: scalar curvature"),
    ],
    ids=["huge", "h3-8e153", "h3-1e154", "h3-1.4e154", "h5-5e153", "h5-1e154"],
)
def test_non_finite_curvature_is_input_error(tmp_path, capsys, name, s, stage):
    # finite brackets whose curvature, its trace or the soliton's lambda
    # overflows: a NaN would pass a tolerance comparison or read "not a soliton"
    path = _rotated_copy(tmp_path, name, np.eye(catalog.load(name).dim), s)
    code, out, err = run(capsys, "analyze", path, "--extend")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith(f"error: {path}: {stage} is not finite") and err.count("\n") == 1
    assert "nan" not in err

    write_alg(tmp_path, "h3", H3)
    code, out, _ = run(capsys, "table", str(tmp_path))
    assert code == EXIT_STABLE
    rows = out.strip().splitlines()[1:]
    assert rows[1].startswith(f"{Path(path).stem} ") and "error: " in rows[1]
    assert rows[1].count(path) == 1 and stage in rows[1]
    assert "0.569" in rows[0]


# the one-line message of each range fault, after "error: <path>: "
OUT_OF_RANGE = (
    r"parse stage: Jacobi identity violated at triple \(e\d, e\d, e\d\): "
    r"relative residual \d\.\d{3}e[+-]\d+"
    r"|(curvature|soliton) stage: (Riemann tensor|Ricci tensor|scalar curvature|"
    r"cross-check residual|lambda|residual) is not finite \(FP\)"
    r"|curvature stage: max\|c\|\^2 underflows \(FP\)"
).replace("FP", "structure constants out of floating-point range")


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e120, 1e155, 1e200])
@pytest.mark.parametrize("name", ["heisenberg3", "heisenberg5", "solv4", "not_lie3"])
def test_out_of_range_brackets_name_file_stage_and_quantity(tmp_path, capsys, rng, name, s):
    # max|c|^2 below the normal floats, a residual max|c| max|delta(D)| or a
    # curvature past the largest one, or a Jacobiator past it in a broken
    # copy: never a verdict, a NaN or an Infinity, on every command
    dim = NOT_LIE3["dim"] if name == "not_lie3" else catalog.load(name).dim
    path = _rotated_copy(tmp_path, name, random_orthogonal(rng, dim), s)
    message = rf"error: {re.escape(path)}: ({OUT_OF_RANGE})"
    for argv in (["analyze", "--extend", "--gaussian", "--format", "json"],
                 ["flow", "--t-max", "0.01"], ["gaussian"]):
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (EXIT_INPUT_ERROR, ""), argv
        assert re.fullmatch(message + "\n", err) and "nan" not in err, err
    code, out, err = run(capsys, "table", str(tmp_path))
    assert (code, err) == (EXIT_STABLE, "")
    row = out.splitlines()[1]
    assert re.fullmatch(rf"{re.escape(Path(path).stem)} +{message}", row) and "nan" not in row


def test_metric_that_takes_the_brackets_out_of_range_is_a_range_error(tmp_path, capsys):
    # c and G are finite, but the bracket coefficients c G^-1 are not
    doc = {"dim": 3, "brackets": [[1, 2, 3, 1e300]], "metric": (1e-20 * np.eye(3)).tolist()}
    path = write_alg(tmp_path, "h3_thin", doc)
    code, out, err = run(capsys, "analyze", path)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == (f"error: {path}: parse stage: bracket tensor is not finite "
                   "(structure constants out of floating-point range)\n")


@pytest.mark.parametrize("lam, quantity", [(-1e308, "tr D is not finite"),
                                           (-1e-320, "|lambda| underflows")])
def test_hint_at_an_edge_of_the_float_range_is_a_range_error(tmp_path, capsys, lam, quantity):
    # abelian g takes lambda from the hint: tr D = n|lambda| overflows, or the
    # unit |lambda| is subnormal, and the extension and k divide by it
    path = write_alg(tmp_path, "edge", {"dim": 2, "brackets": [], "hints": {"lambda": lam}})
    line = (f"error: {path}: soliton stage: {quantity} "
            "(structure constants out of floating-point range)")
    for argv in (["analyze", "--extend", "--gaussian", "--format", "json"],
                 ["gaussian"], ["gaussian", "--mode", "sharp"], ["gaussian", "--ignore-stability"],
                 ["gaussian", "--mode", "sharp", "--ignore-stability"],
                 ["flow", "--t-max", "0.01", "--trials", "1"]):
        assert run(capsys, argv[0], path, *argv[1:]) == (EXIT_INPUT_ERROR, "", line + "\n"), argv
    code, out, err = run(capsys, "table", str(tmp_path))
    assert (code, err) == (EXIT_STABLE, "")
    assert re.fullmatch(rf"edge +{re.escape(line)}", out.splitlines()[1])


def test_thin_metric_passes_the_ricci_cross_check(tmp_path, capsys):
    # the frame's structure constants are of order 1e3, so the two Ricci
    # routes differ by round-off of order eps * 1e6, above any absolute bound
    doc = {**H3, "metric": [[1, 0, 0], [0, 1e-6, 0], [0, 0, 1]]}
    code, out, err = run(capsys, "analyze", write_alg(tmp_path, "thin", doc), "--extend")
    assert (code, err) == (EXIT_STABLE, "")
    assert out.endswith("verdict: stable\n")


def test_metric_that_takes_the_frame_out_of_range_is_a_range_error(tmp_path, capsys):
    # c G^-1 is finite, but the frame's constants c M M M (M of order 1e8) are
    # not, and the curvature stage names them, with no warning from the frame
    doc = {"dim": 3, "brackets": [[1, 2, 3, 1e300]],
           "metric": [[1e-16, 0, 0], [0, 1e-16, 0], [0, 0, 1]]}
    path = write_alg(tmp_path, "thin", doc)
    message = (f"error: {path}: curvature stage: Riemann tensor is not finite "
               "(structure constants out of floating-point range)")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "analyze", path)
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", message + "\n")
        code, out, err = run(capsys, "table", str(tmp_path))
    assert (code, err) == (EXIT_STABLE, "")
    assert re.fullmatch(rf"thin +{re.escape(message)}", out.splitlines()[1])


def test_stack_records_match_each_file_alone(tmp_path):
    # rows read out of a stack, and out of a masked sub-stack of one row, which
    # keeps its stack axis: h3 is the one row with an extension of its stack,
    # su2 the one without, and jordan3 is not a soliton
    jordan = write_alg(tmp_path, "jordan3", JORDAN3)
    for paths, options in (([cat("heisenberg3"), cat("su2"), cat("abelian3")], {"extend": True}),
                           ([cat("heisenberg3"), jordan], {"extend": True, "gaussian_mode": "sharp"}),
                           ([jordan, cat("abelian3")], {"gaussian_mode": "paper-bound"})):
        records = cli._analyze(paths, [algebra.load_algebra(p) for p in paths], {}, **options)
        for path, rec in zip(paths, records):
            alone = analyze_file(path, **options)
            assert cli.record_row(rec) == cli.record_row(alone)
            assert (json.dumps({**cli.record_json(rec), "timings": None})
                    == json.dumps({**cli.record_json(alone), "timings": None}))


def _per_file_row(path):
    try:
        return cli.record_row(analyze_file(path, extend=True))
    except solstab.errors.SolstabError as exc:
        return cli._message_row(Path(path).stem, f"error: {exc}")


def test_table_stacks_give_the_rows_of_each_file_alone(monkeypatch, tmp_path, capsys, rng):
    # stacks of 3 dim-3 rows, so dim 3 spans four stacks, the last one partial,
    # with parse-, curvature- and soliton-stage errors and a not-a-soliton row
    # among good ones
    for name in catalog.catalog_names():
        shutil.copy(catalog.catalog_path(name), tmp_path)
    for name in ("heisenberg3", "heisenberg5"):
        Q = random_orthogonal(rng, catalog.load(name).dim)
        for s in (1e-3, 1.0, 1e3):
            _rotated_copy(tmp_path, name, Q, s)
    write_alg(tmp_path, "h3_metric", {**H3, "metric": [[2, 0.5, 0], [0.5, 1, 0], [0, 0, 3]]})
    write_alg(tmp_path, "heisenberg3_2_broken", NOT_LIE3)
    write_alg(tmp_path, "heisenberg3_3_jordan", JORDAN3)
    (tmp_path / "heisenberg3_4_malformed.alg").write_text("{broken")
    for s in (8e153, 1e155):  # a soliton-stage and a curvature-stage range fault
        _rotated_copy(tmp_path, "heisenberg3", np.eye(3), s)
    paths = sorted(tmp_path.glob("*.alg"))
    monkeypatch.setattr(cli, "STACK_ENTRIES", 3 * 4 ** 4)
    sizes = []
    analyze = cli._analyze
    monkeypatch.setattr(cli, "_analyze",
                        lambda p, *args, **kw: sizes.append(len(p)) or analyze(p, *args, **kw))
    rows = cli.table_rows(paths)
    assert sizes.count(3) >= 3 and 2 in sizes  # 11 dim-3 rows in stacks 3, 3, 3 and 2
    assert rows == [_per_file_row(path) for path in paths]
    assert sorted(row[5].split(": ")[2] for row in rows if "error: " in row[5]) == [
        "curvature stage", "parse stage", "parse stage", "soliton stage"]
    assert sum("not a soliton" in row[5] for row in rows) == 1
    code, out, _ = run(capsys, "table", str(tmp_path))
    assert (code, out) == (EXIT_STABLE, cli._render_table(rows) + "\n")

    # a bad row in the middle of one stack leaves its neighbours' rows as they are
    sizes.clear()
    middle = [tmp_path / "heisenberg3_1.alg", tmp_path / "heisenberg3_2_broken.alg",
              tmp_path / "heisenberg3_1000.alg"]
    rows = cli.table_rows(middle)
    assert sizes[0] == 3 and rows == [_per_file_row(path) for path in middle]
    assert "Jacobi identity violated" in rows[1][5]


def test_extension_error_names_the_file(monkeypatch, tmp_path, capsys):
    def fail(F, cert):
        raise EinsteinVerificationFailed("extension is not Einstein")

    monkeypatch.setattr(soliton, "rank_one_extension", fail)
    path = write_alg(tmp_path, "h3", H3)
    code, out, err = run(capsys, "analyze", path, "--extend")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == f"error: {path}: stability stage: extension is not Einstein\n"
    code, out, _ = run(capsys, "table", str(tmp_path))
    row = out.strip().splitlines()[1]
    assert code == EXIT_STABLE
    assert "error: " in row and row.count(path) == 1


@pytest.mark.parametrize(
    "args, named",
    [
        (["--eps", "0.1"], "eps"),
        (["--eps", "-5"], "eps"),
        (["--dt", "0"], "dt"),
        (["--t-max", "-1"], "t_max"),
        (["--t-max", "0"], "t_max"),
        (["--trials", "0"], "trials"),
        (["--trials", "-1"], "trials"),
    ],
    ids=["eps-large", "eps-negative", "dt-zero", "t-max-negative", "t-max-no-step",
         "trials-zero", "trials-negative"],
)
def test_flow_bad_argument_is_input_error(capsys, args, named):
    code, out, err = run(capsys, "flow", cat("heisenberg3"), *args)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith("error: ") and named in err and err.count("\n") == 1


def test_flow_state_error_names_the_file(capsys):
    # a step of 2 takes the metric out of the positive-definite cone
    path = cat("heisenberg3")
    code, out, err = run(capsys, "flow", path, "--dt", "2", "--t-max", "20")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == f"error: {path}: flow stage: metric is not positive definite\n"


def _count_calls(monkeypatch, *targets):
    """Wrap each (module, attribute) in a counter; all share one tally."""
    tally = {"calls": 0}
    for module, attr in targets:
        original = getattr(module, attr)

        def counted(*args, _original=original, **kwargs):
            tally["calls"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    return tally


def test_each_command_certifies_once(monkeypatch, tmp_path, capsys):
    decodes = _count_calls(monkeypatch, (json, "loads"))
    summaries = _count_calls(
        monkeypatch, (curvature, "curvature_summary"), (soliton, "curvature_summary")
    )
    profiles = _count_calls(monkeypatch, (algebra, "structure_profile"))
    # the Der(g) basis and the least-squares fit are the reference only
    reference = _count_calls(
        monkeypatch, (algebra, "derivation_basis"), (soliton, "solve_algebraic_soliton")
    )
    code, _, _ = run(capsys, "analyze", cat("heisenberg3"), "--extend", "--gaussian")
    assert code == EXIT_STABLE
    assert summaries["calls"] == 2  # the base and its Einstein extension
    assert decodes["calls"] == 1
    assert profiles["calls"] == 1
    assert reference["calls"] == 0

    decodes["calls"] = 0
    eigen = _count_calls(monkeypatch, (stability, "jacobi_eigenvalues"))
    ricci = _count_calls(monkeypatch, (flow, "ricci_of_metric"))
    code, _, _ = run(capsys, "flow", cat("heisenberg5"), "--t-max", "0.05", "--trials", "2")
    assert code == EXIT_STABLE
    assert decodes["calls"] == 1
    assert eigen["calls"] == 0
    steps = 50
    assert ricci["calls"] == 4 * steps + 1  # each point's defect is evaluated once
    assert reference["calls"] == 0


def test_flow_builds_its_ricci_form_once(monkeypatch, capsys):
    # the metric-independent part of Ricci is built once per bracket tensor:
    # one for the certificate's curvature summary and one for the whole flow,
    # while the per-evaluation entry point still runs 4 steps + 1 times
    summary_forms = _count_calls(monkeypatch, (curvature, "ricci_form"))
    flow_forms = _count_calls(monkeypatch, (flow, "ricci_form"))
    ricci = _count_calls(monkeypatch, (flow, "ricci_of_metric"))
    code, _, _ = run(capsys, "flow", cat("heisenberg5"), "--t-max", "0.05", "--trials", "2")
    assert code == EXIT_STABLE
    assert (summary_forms["calls"], flow_forms["calls"]) == (1, 1)
    assert ricci["calls"] == 4 * 50 + 1


RANK1 = {"dim": 2, "brackets": [[1, 2, 2, 1]], "metric": [[1, 3], [3, 9]]}  # G of rank 1


def test_singular_metric_is_an_input_error(tmp_path, capsys):
    # eigvalsh puts the least eigenvalue of G at 1.1e-16 > 0, but G has no
    # inverse and no Cholesky factor: a parse-stage error, not a traceback
    for name in ("heisenberg3", "su2"):
        shutil.copy(catalog.catalog_path(name), tmp_path)
    code, before, _ = run(capsys, "table", str(tmp_path))
    path = write_alg(tmp_path, "rank1", RANK1)
    message = f"error: {path}: parse stage: metric is not positive definite"
    for argv in (["analyze", path, "--extend"], ["flow", path], ["gaussian", path]):
        assert run(capsys, *argv) == (EXIT_INPUT_ERROR, "", message + "\n")
    code, out, err = run(capsys, "table", str(tmp_path))
    assert (code, err) == (EXIT_STABLE, "")
    lines = out.splitlines()
    assert re.fullmatch(rf"rank1 +{re.escape(message)}", lines[2])
    assert [line.split() for line in lines[:2] + lines[3:]] == [
        line.split() for line in before.splitlines()]


STAGE_ERROR = r"error: {path}: (parse|curvature|soliton|profile|stability|gaussian|flow) stage: .+\n"


def _hostile_documents(rng):
    """About 100 documents near the edges of the input domain: rotated catalog
    algebras and random solvable ones at bracket scales 1e-3..1e3, under SPD
    metrics of condition 1..1e16 or rank-deficient ones, with and without a
    lambda hint, and antisymmetric tensors that are no Lie algebra."""
    names = catalog.catalog_names()
    for d in range(100):
        kind = d % 4
        if kind == 3:  # not a Lie algebra, almost surely
            n = int(rng.integers(3, 6))
            beta = rng.standard_normal((n, n, n))
            beta -= beta.swapaxes(0, 1)
        elif kind == 2:
            n = int(rng.integers(2, 7))
            beta = random_solvable(rng, n).c
        else:
            F = framed(names[d % len(names)])
            n, beta = F.dim, conjugate_framed(F, random_orthogonal(rng, F.dim)).c
        beta = beta * 10.0 ** rng.uniform(-3, 3)
        if d % 5 == 4:  # rank-deficient, exactly: X X^T of an integer n x (n - 1) matrix X
            X = rng.integers(-3, 4, (n, n - 1)).astype(float)
            G = X @ X.T
        else:
            Q = random_orthogonal(rng, n)
            G = (Q * np.logspace(0, -rng.uniform(0, 16), n)) @ Q.T
            G = 0.5 * (G + G.T)
        c = beta @ G if d % 3 else beta  # <[e_i, e_j], e_k> in the metric G, or G = I
        doc = {"dim": n, "brackets": [[i + 1, j + 1, k + 1, c[i, j, k]] for i in range(n)
                                      for j in range(i + 1, n) for k in range(n) if c[i, j, k]]}
        if d % 3:
            doc["metric"] = G.tolist()
        if d % 7 == 0:
            doc["hints"] = {"lambda": float(rng.uniform(-2, 1))}
        yield f"doc{d:03d}", doc


def test_no_exception_leaves_main(tmp_path, capsys):
    docs = dict(_hostile_documents(np.random.default_rng(22)))
    for name, doc in docs.items():
        path = write_alg(tmp_path, name, doc)
        for argv in (["analyze", path, "--extend", "--gaussian", "--format", "json"],
                     ["flow", path, "--t-max", "0.01", "--trials", "1"], ["gaussian", path]):
            code, out, err = run(capsys, *argv)
            assert code in (0, 1, 2, 3), (argv, err)
            if code == EXIT_INPUT_ERROR:
                assert re.fullmatch(STAGE_ERROR.format(path=re.escape(path)), err), (argv, err)
            if argv[-1] == "json" and out:
                load_json(out)
    code, out, err = run(capsys, "table", str(tmp_path))
    assert (code, err) == (EXIT_STABLE, "")
    assert [line.split()[0] for line in out.splitlines()[1:]] == sorted(docs)
