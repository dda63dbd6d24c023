import csv
import io
import json

import pytest

from solstab import algebra, catalog, curvature, flow, soliton, stability
from solstab.errors import AlgebraFormatError, EinsteinVerificationFailed
from solstab.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_SOLITON,
    EXIT_STABLE,
    EXIT_UNSTABLE,
    analyze_file,
    main,
)


def cat(name):
    return str(catalog.catalog_path(name))


NOT_EXPANDING_SU2 = f"error: {cat('su2')}: not expanding: lambda=0.5\n"  # the path once


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    doc = json.loads(out)
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
    assert err == "error: /nonexistent/x.alg: No such file or directory\n"


def test_analyze_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.alg"
    p.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == EXIT_INPUT_ERROR
    assert err.startswith(f"error: {p}: malformed document")
    assert err.count(str(p)) == 1 and err.count("\n") == 1


def test_analyze_binary_file(tmp_path, capsys):
    p = tmp_path / "bin.alg"
    p.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "analyze", str(p))
    assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {p}: not UTF-8 text\n")


def test_analyze_broken_jacobi_names_triple(tmp_path, capsys):
    path = write_alg(
        tmp_path,
        "broken",
        {"dim": 3, "brackets": [[1, 2, 3, 1.0], [1, 3, 1, 1.0], [2, 3, 1, 1.0]]},
    )
    code, _, err = run(capsys, "analyze", path)
    assert code == EXIT_INPUT_ERROR
    assert err.startswith(f"error: {path}: Jacobi identity violated")
    assert err.count(path) == 1 and err.count("\n") == 1
    assert "(e1, e2, e3)" in err


def test_analyze_gaussian_flag(capsys):
    code, out, _ = run(
        capsys, "analyze", cat("heisenberg3"), "--gaussian", "--ignore-stability"
    )
    assert code == EXIT_STABLE
    assert "k=7" in out
    assert "product residual" in out


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
    code, _, err = run(capsys, "table", "/nonexistent/dir")
    assert code == EXIT_INPUT_ERROR


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
    assert err == NOT_EXPANDING_SU2


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
    assert err == NOT_EXPANDING_SU2


def test_analyze_gaussian_not_expanding(capsys):
    # the same outcome as the gaussian and flow commands, not an input error
    code, out, err = run(capsys, "analyze", cat("su2"), "--gaussian")
    assert (code, out) == (EXIT_NOT_SOLITON, "")
    assert err == NOT_EXPANDING_SU2


def test_analyze_file_api_returns_record():
    rec = analyze_file(cat("heisenberg3"), extend=True)
    assert rec.verdict == "stable"
    assert rec.report is not None
    assert rec.report.q_verdict is True
    assert set(rec.timings) >= {"parse", "curvature", "soliton", "stability"}


def test_degenerate_abelian_uses_hint(capsys):
    code, out, _ = run(capsys, "analyze", cat("abelian3"), "--format", "json")
    assert code == EXIT_STABLE
    doc = json.loads(out)
    assert doc["lambda"] == pytest.approx(-1.0)
    assert doc["degenerate"] is True
    assert doc["verdict"] == "stable"


H3 = {"dim": 3, "brackets": [[1, 2, 3, 1.0]]}


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
    ],
    ids=["lambda-text", "lambda-nan", "lambda-inf", "bracket-nan", "bracket-inf",
         "metric-nan", "dim-fraction", "dim-true", "index-true"],
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


def test_small_scale_jacobi_failure_is_input_error(tmp_path, capsys):
    # a residual of 1e-12 at bracket scale 1e-6 is as large as 1 at scale 1
    doc = {"dim": 4, "brackets": [[1, 2, 3, 1e-6], [1, 3, 4, 1e-6], [2, 4, 1, 1e-6]]}
    code, out, err = run(capsys, "analyze", write_alg(tmp_path, "tiny", doc))
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert "Jacobi identity violated at triple (e1, e2, e3)" in err


def test_non_finite_curvature_is_input_error(tmp_path, capsys):
    # finite brackets whose curvature overflows: the cross-check residual is
    # NaN, which no tolerance comparison rejects
    path = write_alg(tmp_path, "huge", {"dim": 3, "brackets": [[1, 2, 3, 1e160]]})
    code, out, err = run(capsys, "analyze", path)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("error:")
    assert "curvature" in err
    assert err.count(path) == 1

    write_alg(tmp_path, "h3", H3)
    code, out, _ = run(capsys, "table", str(tmp_path))
    assert code == EXIT_STABLE
    rows = out.strip().splitlines()[1:]
    assert rows[1].startswith("huge ") and "error: " in rows[1]
    assert rows[1].count(path) == 1
    assert "0.569" in rows[0]


def test_thin_metric_passes_the_ricci_cross_check(tmp_path, capsys):
    # the frame's structure constants are of order 1e3, so the two Ricci
    # routes differ by round-off of order eps * 1e6, above any absolute bound
    doc = {**H3, "metric": [[1, 0, 0], [0, 1e-6, 0], [0, 0, 1]]}
    code, out, err = run(capsys, "analyze", write_alg(tmp_path, "thin", doc), "--extend")
    assert (code, err) == (EXIT_STABLE, "")
    assert out.endswith("verdict: stable\n")


def test_extension_error_names_the_file(monkeypatch, tmp_path, capsys):
    def fail(F, cert):
        raise EinsteinVerificationFailed("extension is not Einstein")

    monkeypatch.setattr(soliton, "rank_one_extension", fail)
    path = write_alg(tmp_path, "h3", H3)
    code, out, err = run(capsys, "analyze", path, "--extend")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == f"error: {path}: extension is not Einstein\n"
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
    assert err == f"error: {path}: metric is not positive definite\n"


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
    code, _, _ = run(capsys, "analyze", cat("heisenberg3"), "--extend", "--gaussian")
    assert code == EXIT_STABLE
    assert summaries["calls"] == 2  # the base and its Einstein extension
    assert decodes["calls"] == 1
    assert profiles["calls"] == 1

    decodes["calls"] = 0
    eigen = _count_calls(monkeypatch, (stability, "jacobi_eigenvalues"))
    ricci = _count_calls(monkeypatch, (flow, "ricci_of_metric"))
    code, _, _ = run(capsys, "flow", cat("heisenberg5"), "--t-max", "0.05", "--trials", "2")
    assert code == EXIT_STABLE
    assert decodes["calls"] == 1
    assert eigen["calls"] == 0
    steps = 50
    assert ricci["calls"] == 4 * steps + 1  # each point's defect is evaluated once
