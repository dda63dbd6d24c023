"""The solstab benchmark: one command, three workloads, every metric by name.

    python3 bench/run.py --workload table-kp8 --seed 1 --seconds 33 --trace 0

Run from the root of a source checkout (`src/solstab` must be there; nothing
is installed).  It generates the workload's inputs from the seed
(bench/gen.py), times fresh interpreter start-ups, runs the operations in
one fresh worker process (bench/worker.py), checks every output
(bench/checks.py) and prints, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  A run report
with metadata and the raw timings goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_STARTS = 7  # fresh interpreters per run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s

PROBE = (
    "import time; t0 = time.perf_counter(); import numpy, solstab.cli; "
    "t1 = time.perf_counter(); import json, solstab; "
    "print(json.dumps({'import_s': t1 - t0, 'file': solstab.__file__}))"
)

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_p50_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# per-layer metric -> (span name, statistic of tracing.layer_totals).  Times
# are busy (thread CPU) seconds, self or inclusive, except cli.table_self_s:
# wall time of `table` outside every analyze_file span of its pool.  Values
# are per traced operation.
LAYER_SPANS = {
    "algebra.parse_s": ("algebra.parse", "busy_self_s"),
    "algebra.parse_calls": ("algebra.parse", "calls"),
    "algebra.jacobi_s": ("algebra.jacobi", "busy_self_s"),
    "algebra.frame_s": ("algebra.frame", "busy_self_s"),
    "algebra.derivations_s": ("algebra.derivations", "busy_self_s"),
    "algebra.profile_s": ("algebra.profile", "busy_self_s"),
    "algebra.profile_calls": ("algebra.profile", "calls"),
    "curvature.summary_s": ("curvature.summary", "busy_self_s"),
    "curvature.summary_calls": ("curvature.summary", "calls"),
    "soliton.fit_s": ("soliton.fit", "busy_self_s"),
    "soliton.extension_s": ("soliton.extension", "busy_self_s"),
    "soliton.gaussian_s": ("soliton.gaussian", "busy_self_s"),
    "stability.form_s": ("stability.form", "busy_self_s"),
    "stability.eigen_s": ("stability.eigen", "busy_self_s"),
    "stability.eigen_calls": ("stability.eigen", "calls"),
    "stability.report_self_s": ("stability.report", "busy_self_s"),
    "cli.analyze_s": ("cli.analyze", "busy_s"),
    "cli.analyze_calls": ("cli.analyze", "calls"),
    "cli.table_self_s": ("cli.table", "wall_self_s"),
    "flow.experiment_s": ("flow.experiment", "busy_s"),
    "flow.ricci_s": ("flow.ricci", "busy_s"),
    "flow.ricci_calls": ("flow.ricci", "calls"),
    "flow.self_s": ("flow.experiment", "busy_self_s"),
}
# computed apart from the span table, in per_layer_metrics
LAYER_OTHER = {"cli.flow_prep_s": "s", "flow.step_s": "s", "setup.import_s": "s",
               "trace.overhead_pct": "%"}
PER_LAYER = {**{k: ("count" if k.endswith("_calls") else "s") for k in LAYER_SPANS},
             **LAYER_OTHER}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probe(deadline: float) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreter start-ups that import solstab, and
    the import time each measured inside itself."""
    walls, imports = [], []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"importing solstab failed: {proc.stderr.strip()[-300:]}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(info["file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"solstab imported from {info['file']}, not from {SRC}")
        imports.append(info["import_s"])
    return walls, imports


def per_layer_metrics(worker: dict) -> dict[str, float]:
    traced = [o["seconds"] for o in worker["ops"] if o["traced"]]
    plain = [o["seconds"] for o in worker["ops"] if not o["traced"]]
    n = len(traced)
    layers = worker["layers"]
    out = {}
    for metric, (span, stat) in LAYER_SPANS.items():
        out[metric] = layers.get(span, {}).get(stat, 0) / n
    out["cli.flow_prep_s"] = worker["flow_prep_s"] / n
    steps = worker["rk4_steps"]
    out["flow.step_s"] = out["flow.experiment_s"] / steps if steps else 0.0
    out["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return out


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "solstab").rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default (OpenBLAS: one per core)"),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="solstab benchmark")
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "solstab" / "__init__.py").is_file():
        return fail(f"no solstab sources at {SRC}; run from a source checkout")
    inputs = OUT / "inputs" / f"{args.workload}-seed{args.seed}"
    manifest = gen.generate(args.workload, args.seed, inputs)

    try:
        setup_walls, import_times = setup_probe(deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--inputs", str(inputs), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", str(OUT / f"spans-{tag}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return fail("worker did not finish before the deadline")
    if proc.returncode != 0:
        return fail(f"worker failed: {proc.stderr.strip()[-2000:]}")
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    ops = worker["ops"]
    failed = sum(1 for o in ops if o["problems"])
    timed = [o["seconds"] for o in ops if not o["traced"]]
    if args.trace:
        metrics = per_layer_metrics(worker)
        metrics["setup.import_s"] = statistics.median(import_times)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "op_p50_s": statistics.median(timed),
            "items_per_s": worker["items"] * len(timed) / sum(timed),
            "peak_rss_mib": worker["peak_rss_kib"] / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **metadata(), "result": result,
        "inputs": len(manifest["inputs"]), "setup_walls_s": setup_walls,
        "import_s": import_times, "ops": ops,
        "per_input_s": worker["per_input_s"], "layers": worker.get("layers"),
    }
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for o in ops:
        for p in o["problems"]:
            print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
