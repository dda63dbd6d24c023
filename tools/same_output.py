"""Check that two solstab trees print the same, command by command.

    python3 tools/same_output.py PARENT_SRC

writes the benchmark inputs of table-kp8, analyze-ladder and flow-decay for
seeds 1 and 2, with `bench/gen.py` (imported without writing bytecode), and
a copy of the catalog into a temporary directory.  It then runs each command
below twice, with PYTHONPATH set to this tree's `src` and to PARENT_SRC, and
compares stdout, stderr and exit code:

- `table`, human and csv, on table-kp8 and the catalog;
- `analyze --extend --gaussian --format json` (its timings dropped),
  `analyze --format csv` and `gaussian` in both modes, on each file of
  analyze-ladder and the catalog;
- `flow` with the defaults and with `--t-max 2 --seed 3`, on each file of
  the catalog and flow-decay.

It prints the number of runs compared and the first difference, and exits 1
when any run differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)


def load_gen():
    """bench/gen.py as a module, with no __pycache__ left under bench/."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def write_inputs(tmp: Path) -> dict[str, list[Path]]:
    """The input directories of each workload, the catalog as one more."""
    gen = load_gen()
    dirs = {"catalog": [tmp / "catalog"]}
    shutil.copytree(ROOT / "src" / "solstab" / "data" / "catalog", dirs["catalog"][0])
    for workload in ("table-kp8", "analyze-ladder", "flow-decay"):
        dirs[workload] = [tmp / f"{workload}-{seed}" for seed in SEEDS]
        for seed, out in zip(SEEDS, dirs[workload]):
            gen.generate(workload, seed, out)
    return dirs


def commands(dirs: dict[str, list[Path]]):
    def files(*names):
        return [p for name in names for d in dirs[name] for p in sorted(d.glob("*.alg"))]

    for d in dirs["table-kp8"] + dirs["catalog"]:
        for fmt in ("human", "csv"):
            yield ["table", str(d), "--format", fmt]
    for path in files("analyze-ladder", "catalog"):
        yield ["analyze", str(path), "--extend", "--gaussian", "--format", "json"]
        yield ["analyze", str(path), "--format", "csv"]
        for mode in ("paper", "sharp"):
            yield ["gaussian", str(path), "--mode", mode]
    for path in files("catalog", "flow-decay"):
        yield ["flow", str(path)]
        yield ["flow", str(path), "--t-max", "2", "--seed", "3"]


def run(src: Path, argv: list[str]) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-B", "-m", "solstab.cli", *argv],
                          env=env, capture_output=True, text=True)
    out = proc.stdout
    if argv[0] == "analyze" and out.startswith("{"):  # timings differ from run to run
        doc = json.loads(out)
        doc.pop("timings", None)
        out = json.dumps(doc, indent=2)
    return proc.returncode, out, proc.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path, help="the src directory of the tree to compare against")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = list(commands(write_inputs(Path(tmp))))
        differ = []
        for command in runs:
            ours, theirs = run(ROOT / "src", command), run(args.parent_src.resolve(), command)
            if ours != theirs:
                differ.append((command, ours, theirs))
    print(f"{len(runs)} runs compared, {len(differ)} differ")
    if not differ:
        return 0
    command, ours, theirs = differ[0]
    print(f"first difference: solstab {' '.join(command)}")
    for stream, a, b in zip(("exit code", "stdout", "stderr"), ours, theirs):
        if a != b:
            print(f"--- {stream} here:\n{a}\n--- {stream} in {args.parent_src}:\n{b}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
