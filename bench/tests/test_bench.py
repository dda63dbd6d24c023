"""Tests of the benchmark itself: generator, checks, tracing, metric names.

    python3 -m pytest bench/tests -q

They run the program in-process on small inputs (a few seconds in all).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

import solstab  # noqa: E402
import solstab.cli  # noqa: E402

CATALOG = ROOT / "src" / "solstab" / "data" / "catalog"


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = solstab.cli.main([str(a) for a in argv])
    return rc, out.getvalue()


# --- generator ---------------------------------------------------------------


@pytest.mark.parametrize("spec, catalog_name", [("h3", "heisenberg3"), ("h5", "heisenberg5")])
def test_generated_heisenberg_matches_catalog(spec, catalog_name):
    doc = json.loads((CATALOG / f"{catalog_name}.alg").read_text())
    c, info = gen.nice_algebra(spec, None, None)
    assert info["dim"] == doc["dim"]
    assert [[i + 1, j + 1, k + 1, v] for i, j, k, v in gen.entries_of(c)] == sorted(doc["brackets"])


@pytest.mark.parametrize("spec", gen.LADDER)
def test_payne_values_agree_with_closed_forms(spec):
    _, info = gen.nice_algebra(spec, None, None)
    lam, trace_D = gen.ladder_closed_form(spec)
    assert info["lambda"] == pytest.approx(lam, rel=1e-12)
    assert info["trace_D"] == pytest.approx(trace_D, rel=1e-12)


def test_closed_forms_of_catalog_heisenberg():
    # heisenberg3: Ric = diag(-1/2, -1/2, 1/2) = -3/2 I + diag(1, 1, 2)
    assert gen.ladder_closed_form("h3") == (-1.5, 4.0)
    assert gen.ladder_closed_form("h5") == (-2.0, 9.0)


def test_same_seed_same_inputs(tmp_path):
    a = gen.generate("table-kp8", 7, tmp_path / "a")
    b = gen.generate("table-kp8", 7, tmp_path / "b")
    assert a["inputs"] == b["inputs"]
    for rec in a["inputs"]:
        assert (tmp_path / "a" / rec["file"]).read_bytes() == (tmp_path / "b" / rec["file"]).read_bytes()


def test_kp8_rows_follow_published_steps_and_lambdas(tmp_path):
    recs = gen.generate("table-kp8", 3, tmp_path)["inputs"]
    assert [(r["step"], r["lambda"]) for r in recs] == [
        (s, pytest.approx(lam, rel=1e-12)) for s, lam in gen.KP8_STEP_LAMBDA]
    assert sum(r["base"] is not None for r in recs) == 37
    assert all(r["dim"] == 8 for r in recs)


# --- checks reject corrupted outputs -----------------------------------------

SMALL_KP8 = [(7, -14.5), (3, -5.5), (3, -5.5)]  # the third row rotates the second


@pytest.fixture(scope="module")
def small_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("kp8")
    recs = gen.gen_table_kp8(np.random.default_rng(5), out, rows=SMALL_KP8)
    rc, stdout = cli(["table", out])
    return recs, rc, stdout


def test_table_check_accepts_program_output(small_table):
    recs, rc, stdout = small_table
    assert checks.check_table(stdout, rc, recs) == []


def _edit_row(stdout, name, column, value):
    lines = stdout.splitlines()
    for n, line in enumerate(lines):
        fields = re.split(r" {2,}", line.strip())
        if fields[0] == name:
            fields[column] = value
            lines[n] = "  ".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, column, value, why", [
    ("kp8_001", 2, "-14.6", "lambda"),
    ("kp8_002", 5, "✗", "verdicts"),
    ("kp8_001", 7, "✗", "verdicts"),
    ("kp8_003", 4, "9.999", "differ from base"),
    ("kp8_002", 1, "4", "step"),
])
def test_table_check_rejects_corruption(small_table, name, column, value, why):
    recs, rc, stdout = small_table
    bad = _edit_row(stdout, name, column, value)
    assert bad != stdout
    assert any(why in p for p in checks.check_table(bad, rc, recs))


def test_table_check_rejects_missing_row_and_exit_code(small_table):
    recs, rc, stdout = small_table
    assert checks.check_table("\n".join(stdout.splitlines()[:-1]), rc, recs)
    assert checks.check_table(stdout, 1, recs)


@pytest.fixture(scope="module")
def small_ladder(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder")
    c, info = gen.nice_algebra("h3", None, None)
    info["closed_lambda"], info["closed_trace_D"] = gen.ladder_closed_form("h3")
    base = gen._record(out, "h3", "h3", c, info)
    rot, _ = gen.rotated_copy(np.random.default_rng(2), out, "h3_rot", base, c)
    recs = [base, rot]
    results = {r["name"]: cli(["analyze", out / r["file"], "--extend", "--gaussian",
                               "--format", "json"]) for r in recs}
    return recs, results


def test_ladder_check_accepts_program_output(small_ladder):
    recs, results = small_ladder
    assert checks.check_ladder(results, recs) == []


def _edit_json(results, name, path, value):
    rc, stdout = results[name]
    doc = json.loads(stdout)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return {**results, name: (rc, json.dumps(doc))}


@pytest.mark.parametrize("name, path, value, why", [
    ("h3", ["lambda"], -1.6, "lambda"),
    ("h3", ["trace_D"], 4.5, "trace_D"),
    ("h3", ["stability", "max_q"], 0.57, "sqrt(57)"),
    ("h3_rot", ["stability", "max_q"], 0.5687, "differs from base"),
    ("h3_rot", ["stability", "max_Ro"], 1.001, "differs from base"),
    ("h3", ["gaussian", "k"], 1, "Gaussian k"),
    ("h3", ["step"], 3, "step"),
])
def test_ladder_check_rejects_corruption(small_ladder, name, path, value, why):
    recs, results = small_ladder
    bad = _edit_json(results, name, path, value)
    assert any(why in p for p in checks.check_ladder(bad, recs))


def test_least_gaussian_k():
    assert checks.least_gaussian_k(3.0, 2.0, -2.0, 5.0, 1.0) == 7  # 5 - k < -1
    assert checks.least_gaussian_k(3.0, 2.0, -2.0, 0.5, 1.0) == 0  # already stable


FLOW_OK = "".join(
    f"trial {i}: initial {1e-3:.6e} final {4e-5:.6e} decayed (monotonicity violations: 0)\n"
    for i in range(10))


def test_flow_check_accepts_decay():
    assert checks.check_flow(FLOW_OK, 0, 10, 1e-15) == []


def test_flow_check_rejects_slow_decay_and_drift():
    slow = FLOW_OK.replace(f"final {4e-5:.6e}", f"final {2e-4:.6e}", 1)
    assert any("trial 0" in p for p in checks.check_flow(slow, 0, 10, 1e-15))
    assert any("flow_rhs" in p for p in checks.check_flow(FLOW_OK, 0, 10, 1e-8))
    assert checks.check_flow(FLOW_OK, 2, 10, 1e-15)
    assert checks.check_flow("\n".join(FLOW_OK.splitlines()[:9]), 0, 10, 1e-15)


# --- tracing reproduces counts known from the code ------------------------------


def _traced(argv):
    tracer = tracing.Tracer(solstab)
    tracer.install(0)
    try:
        rc, _ = cli(argv)
    finally:
        tracer.uninstall()
    return rc, tracing.layer_totals(tracer.spans), tracer


def test_trace_counts_of_analyze(tmp_path):
    path = tmp_path / "h3.alg"
    path.write_text((CATALOG / "heisenberg3.alg").read_text())
    rc, layers, _ = _traced(["analyze", path, "--extend", "--gaussian", "--format", "json"])
    assert rc == 0
    assert layers["curvature.summary"]["calls"] == 4
    assert layers["stability.eigen"]["calls"] == 2
    assert layers["algebra.profile"]["calls"] == 2
    assert layers["cli.analyze"]["calls"] == 1
    assert solstab.cli.analyze_file.__name__ == "analyze_file"
    assert not hasattr(solstab.cli.analyze_file, "__wrapped__")  # uninstalled


def test_trace_counts_of_flow(tmp_path):
    path = tmp_path / "h5.alg"
    path.write_text((CATALOG / "heisenberg5.alg").read_text())
    rc, layers, tracer = _traced(["flow", path, "--t-max", "0.05", "--trials", "2"])
    assert rc == 0
    steps, samples = 50, 5
    assert layers["flow.ricci"]["calls"] == 4 * steps + samples + 1
    assert layers["algebra.parse"]["calls"] == 4  # parse_algebra and algebra_hints, twice
    assert layers["stability.eigen"]["calls"] == 1
    assert 0 < tracing.flow_prep_seconds(tracer.spans) < layers["cli.flow"]["wall_s"]


def test_self_time_counts_parallel_children_once():
    spans = [(0, "p", 0.0, 10.0, 0.0, 1.0, None, 0, 1),
             (1, "c", 1.0, 5.0, 0.0, 4.0, 0, 0, 2),
             (2, "c", 2.0, 6.0, 0.0, 4.0, 0, 0, 3)]
    totals = tracing.layer_totals(spans)
    assert totals["p"]["wall_self_s"] == pytest.approx(5.0)
    assert totals["p"]["busy_self_s"] == pytest.approx(1.0)  # children ran in other threads
    assert totals["c"]["calls"] == 2


# --- BENCHMARK.json names what run.py prints -----------------------------------


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
