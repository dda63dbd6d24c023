"""Output checks of the benchmark's operations.

Each check takes what the program printed and its exit code, plus the
generator's manifest records, and returns a list of problems (empty when the
output is correct).  Expected values come from the generator's own numpy
(Payne's system, closed forms), from (sqrt(57) - 3)/8 for h3, or from
properties the method must have: invariance under a rotation of the
orthonormal basis, the least admissible Gaussian k, tenfold decay of every
flow trial, and stationarity of the soliton metric.  Nothing is compared
against a stored copy of the program's own output.
"""

from __future__ import annotations

import json
import math
import re

H3_MAX_Q = (math.sqrt(57.0) - 3.0) / 8.0
PRINTED_REL = 1e-5  # `%g` keeps 6 significant digits: relative error <= 5e-6
JSON_REL = 1e-9
DECAY_FACTOR = 10.0
STATIONARITY_TOL = 1e-10

_TRIAL = re.compile(r"trial (\d+): initial (\S+) final (\S+) ")


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(y), 1.0)


def check_table(stdout: str, rc: int, records: list[dict]) -> list[str]:
    """`solstab table` over the kp8 stand-in."""
    problems = []
    if rc != 0:
        problems.append(f"table exit code {rc}")
    lines = stdout.strip().splitlines()
    rows = {}
    for line in lines[1:]:
        fields = re.split(r" {2,}", line.strip())
        rows[fields[0]] = fields
    if len(lines) - 1 != len(records) or len(rows) != len(records):
        problems.append(f"table has {len(lines) - 1} rows, expected {len(records)}")
    for rec in records:
        name = rec["name"]
        f = rows.get(name)
        if f is None:
            problems.append(f"{name}: missing row")
            continue
        if len(f) != 8:
            problems.append(f"{name}: error row {' '.join(f[1:])!r}")
            continue
        try:
            step, lam, trD = int(f[1]), float(f[2]), float(f[3])
        except ValueError:
            problems.append(f"{name}: unreadable row {f!r}")
            continue
        if step != rec["step"]:
            problems.append(f"{name}: step {step}, expected {rec['step']}")
        if not _close(lam, rec["lambda"], PRINTED_REL):
            problems.append(f"{name}: lambda {lam}, expected {rec['lambda']}")
        if not _close(trD, rec["trace_D"], PRINTED_REL):
            problems.append(f"{name}: tr D {trD}, expected {rec['trace_D']}")
        if f[5] != "✓" or f[7] != "✓":
            problems.append(f"{name}: verdicts {f[5]} {f[7]}, expected ✓ ✓")
        base = rows.get(rec["base"]) if rec["base"] else None
        if base is not None and (f[4], f[6]) != (base[4], base[6]):
            problems.append(
                f"{name}: max q, max Ro {f[4]}, {f[6]} differ from base "
                f"{rec['base']}: {base[4]}, {base[6]}"
            )
    return problems


def least_gaussian_k(C1: float, C2: float, lam: float, max_q: float, threshold: float) -> int:
    """k of the method: 0 when max q < tr(D)/2 already, otherwise the least
    k >= 0 with C1 + C2 + lambda k / 2 < -1."""
    if max_q < threshold:
        return 0
    k = 0
    while C1 + C2 + 0.5 * lam * k >= -1.0:
        k += 1
    return k


def check_analysis(stdout: str, rc: int, rec: dict) -> tuple[list[str], dict | None]:
    """One `solstab analyze --extend --gaussian --format json` result."""
    name = rec["name"]
    try:
        doc = json.loads(stdout)
        st, g = doc["stability"], doc["gaussian"]
    except (ValueError, KeyError, TypeError):
        return [f"{name}: no analysis JSON (exit code {rc})"], None
    problems = []
    expected_rc = {"stable": 0, "not-a-soliton": 3}.get(doc["verdict"], 2)
    if rc != expected_rc:
        problems.append(f"{name}: exit code {rc} for verdict {doc['verdict']}")
    if not doc["accepted"]:
        problems.append(f"{name}: soliton certificate not accepted")
    if doc["step"] != rec["step"]:
        problems.append(f"{name}: step {doc['step']}, expected {rec['step']}")
    for key, want in (("lambda", rec["closed_lambda"]), ("trace_D", rec["closed_trace_D"])):
        if not _close(doc[key], want, JSON_REL):
            problems.append(f"{name}: {key} {doc[key]!r}, closed form {want!r}")
    if rec["spec"] == "h3" and rec["base"] is None and abs(st["max_q"] - H3_MAX_Q) > 1e-9:
        problems.append(f"{name}: max q {st['max_q']!r}, expected (sqrt(57)-3)/8")
    k = least_gaussian_k(g["C1"], g["C2"], doc["lambda"], st["max_q"], st["threshold"])
    if g["k"] != k:
        problems.append(f"{name}: Gaussian k {g['k']}, least admissible k is {k}")
    return problems, doc


def check_ladder(results: dict[str, tuple[int, str]], records: list[dict]) -> list[str]:
    """One ladder pass: every algebra's result, and each rotated copy
    against its base."""
    problems, docs = [], {}
    for rec in records:
        rc, stdout = results.get(rec["name"], (None, ""))
        p, doc = check_analysis(stdout, rc, rec)
        problems += p
        docs[rec["name"]] = doc
    for rec in records:
        doc, base = docs[rec["name"]], docs.get(rec["base"]) if rec["base"] else None
        if doc is None or base is None:
            continue
        for key in ("max_q", "max_Ro"):
            if not _close(doc["stability"][key], base["stability"][key], JSON_REL):
                problems.append(
                    f"{rec['name']}: {key} {doc['stability'][key]!r} differs from "
                    f"base {rec['base']}: {base['stability'][key]!r}"
                )
    return problems


def check_flow(stdout: str, rc: int, n_trials: int, stationarity: float) -> list[str]:
    """`solstab flow`: every trial decays tenfold; the soliton is stationary."""
    problems = []
    if rc != 0:
        problems.append(f"flow exit code {rc}")
    if not stationarity <= STATIONARITY_TOL:
        problems.append(f"flow_rhs at the soliton metric is {stationarity:.3e}")
    trials = [_TRIAL.match(line) for line in stdout.splitlines()]
    trials = [m for m in trials if m is not None]
    if len(trials) != n_trials:
        problems.append(f"flow printed {len(trials)} trials, expected {n_trials}")
    for m in trials:
        initial, final = float(m.group(2)), float(m.group(3))
        if not final <= initial / DECAY_FACTOR:
            problems.append(f"trial {m.group(1)}: final {final:.3e} > initial {initial:.3e} / 10")
    return problems
