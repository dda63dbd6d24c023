"""One workload run in a fresh process: operations back to back, checked.

    python3 bench/worker.py --workload W --inputs DIR --seconds T --trace 0|1 [--spans FILE]

Runs `solstab.cli.main` in this process, one operation after another, until
T seconds have passed; starts no thread of its own.  With --trace 1 the
operations alternate untraced and traced (ending on a whole pair), so the
tracing overhead is measured in the same process.  The last line of stdout
is a JSON object with each operation's wall time and check result, the
per-layer totals of the traced operations, and the peak resident memory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import time
from pathlib import Path

import numpy as np

import checks
import tracing

import solstab
import solstab.cli
from solstab import algebra, flow

# flow-decay: --t-max 2 and the CLI defaults otherwise (10 trials, eps 1e-3, dt 1e-3)
FLOW_TRIALS, FLOW_DT, FLOW_T_MAX = 10, 1e-3, 2.0


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = solstab.cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


class Workload:
    """The operation of one workload: run() is timed, check() is not."""

    def __init__(self, name: str, inputs: Path):
        self.name, self.inputs = name, inputs
        self.records = json.loads((inputs / "manifest.json").read_text())["inputs"]
        self.per_input: dict[str, list[float]] = {}
        if name == "flow-decay":
            rec = self.records[0]
            L = algebra.load_algebra(inputs / rec["file"])
            rhs = flow.flow_rhs(L, np.eye(rec["dim"]), rec["lambda"], np.diag(rec["derivation"]))
            self.stationarity = float(np.max(np.abs(rhs)))
            self.rk4_steps = int(round(FLOW_T_MAX / FLOW_DT))
            self.items = FLOW_TRIALS * self.rk4_steps
        else:
            self.rk4_steps = 0
            self.items = len(self.records)

    def run(self, op: int):
        if self.name == "table-kp8":
            return _cli(["table", str(self.inputs)])
        if self.name == "flow-decay":
            rec = self.records[0]
            seed = rec["op_seeds"][op % len(rec["op_seeds"])]
            return _cli(["flow", str(self.inputs / rec["file"]),
                         "--t-max", str(FLOW_T_MAX), "--seed", str(seed)])
        results = {}
        for rec in self.records:
            t0 = time.perf_counter()
            results[rec["name"]] = _cli(["analyze", str(self.inputs / rec["file"]),
                                         "--extend", "--gaussian", "--format", "json"])
            self.per_input.setdefault(rec["name"], []).append(time.perf_counter() - t0)
        return results

    def check(self, result) -> list[str]:
        if self.name == "table-kp8":
            return checks.check_table(result[1], result[0], self.records)
        if self.name == "flow-decay":
            return checks.check_flow(result[1], result[0], FLOW_TRIALS, self.stationarity)
        return checks.check_ladder(result, self.records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    work = Workload(args.workload, args.inputs)
    tracer = tracing.Tracer(solstab) if args.trace else None
    ops = []
    start = time.perf_counter()
    op = 0
    while True:
        traced = tracer is not None and op % 2 == 1
        gc.collect()
        if traced:
            tracer.install(op)
        t0 = time.perf_counter()
        try:
            result, error = work.run(op), None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        problems = [error] if error else work.check(result)
        ops.append({"seconds": seconds, "traced": traced, "problems": problems[:5]})
        op += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or op % 2 == 0):
            break

    out = {"ops": ops, "items": work.items, "rk4_steps": work.rk4_steps,
           "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "per_input_s": work.per_input}
    if tracer is not None:
        out["layers"] = tracing.layer_totals(tracer.spans)
        out["flow_prep_s"] = tracing.flow_prep_seconds(tracer.spans)
        if args.spans:
            args.spans.write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
