"""Command-line front end.

Subcommands:

    analyze   one .alg file -> soliton certificate + stability row
    table     directory of .alg files -> multi-row stability table
    flow      perturbation-decay experiment under the normalized Ricci flow
    gaussian  flat-extension dimension needed for certified stability

Exit codes: 0 stable verdict, 1 input error, 2 unstable or inconclusive,
3 not a soliton, or not expanding where an expanding soliton is needed
(flow, gaussian, analyze --gaussian).

Each step runs in one named, timed stage (`_stage`: parse, curvature, soliton,
profile, stability, gaussian, flow), which owns the stage names: an error
raised inside reads "<path>: <stage> stage: <message>".

Every command runs one pipeline on a stack of algebras of one dimension: a
stack of one for analyze, gaussian and flow, while `table` stacks its files
by dimension, up to STACK_ENTRIES, and runs a stack that raises again row by
row, so each error row reads as that file alone would.  Every stage after the
parse, the frame and the profile too, runs once per stack, and `algebra.rows`
alone reads the records out of its results, a stack of one as any other.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import algebra, curvature, flow, soliton, stability
from .errors import AlgebraFormatError, NotExpanding, SolstabError

EXIT_STABLE = 0
EXIT_INPUT_ERROR = 1
EXIT_UNSTABLE = 2
EXIT_NOT_SOLITON = 3
EXIT_CODES = {"stable": EXIT_STABLE, "not-a-soliton": EXIT_NOT_SOLITON}  # any other: EXIT_UNSTABLE

TABLE_COLUMNS = ["#", "step", "λ", "trD", "maxq", "<?½trD", "maxRo", "<?−λ"]

# At most this many Riemann entries in a stack's extensions: 19 rows of dim 8 (32
# of dim 7, 13 of dim 9).  The table-kp8 worker peaks at 37.3 MiB RSS, 34.7 at
# 2**16 (9 rows): +7.4%, within the benchmark's 10% bound on peak memory.
STACK_ENTRIES = 2 ** 17


@dataclass(frozen=True)
class AnalysisRecord:
    name: str
    profile: algebra.StructureProfile
    certificate: soliton.SolitonCertificate
    report: stability.StabilityReport | None
    gaussian_plan: soliton.GaussianExtensionPlan | None
    timings: dict[str, float]

    @property
    def verdict(self) -> str:  # report is set exactly when the certificate is accepted
        return "not-a-soliton" if self.report is None else self.report.verdict


@contextmanager
def _stage(timings: dict[str, float], name: str, path):
    """Time the block as stage ``name`` of the file ``path``; a SolstabError
    raised inside is raised again with the path and the stage named."""
    t0 = time.perf_counter()
    try:
        yield
    except SolstabError as exc:
        raise type(exc)(f"{path}: {name} stage: {exc}") from None
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0


def _read(path, timings: dict[str, float]) -> algebra.MetricLieAlgebra:
    with _stage(timings, "parse", path):
        return algebra.load_algebra(path)


def _certify(where: str, algebras, timings: dict[str, float]):
    """The stages every command starts with, on a stack of algebras of one
    dimension from the files ``where``: stack, frame, summary, certificate."""
    with _stage(timings, "parse", where):
        algebra.validate_algebra(L := algebra.stack(algebras))
    with _stage(timings, "curvature", where):
        summary = curvature.curvature_summary(F := algebra.orthonormal_frame(L))
    with _stage(timings, "soliton", where):
        hints = np.array([a.hints.get("lambda") for a in algebras], dtype=float)  # None: NaN
        cert = soliton.certify_soliton(F, summary, hints)
    return F, summary, cert


def _analyze(paths, algebras, timings: dict[str, float], extend: bool = False,
             gaussian_mode: str | None = None, ignore_stability: bool = False):
    """The analysis pipeline on a stack of algebras of one dimension, one record
    per row; not a soliton, no extension and a tie are masks over the rows."""
    where, count = ", ".join(map(str, paths)), len(algebras)
    F, summary, cert = _certify(where, algebras, timings)
    with _stage(timings, "profile", where):
        profile = algebra.structure_profile(F)
    certs, reports, plans = algebra.rows(cert, count), [None] * count, [None] * count
    if (ok := cert.accepted).any():
        with _stage(timings, "stability", where):
            ext = ok & (np.equal(soliton.extension_obstruction(cert), None) if extend else False)
            for mask in (ext, ok & ~ext):  # the rows with an extension, then the rest
                if mask.any():
                    part = [x if mask.all() else algebra.take(x, mask) for x in (F, summary, cert)]
                    ext_summary = (soliton.rank_one_extension(part[0], part[2]).summary
                                   if mask is ext else None)
                    report = stability.stability_report(*part, ext_summary)
                    for r, rep in zip(np.flatnonzero(mask), algebra.rows(report, int(mask.sum()))):
                        reports[r] = rep
        if gaussian_mode is not None:
            with _stage(timings, "gaussian", where):
                bases = algebra.rows(summary, count)
                for r in np.flatnonzero(ok):
                    plans[r] = soliton.gaussian_extension_dimension(
                        bases[r], bases[r].riemann, certs[r], reports[r].max_q,
                        mode=gaussian_mode, ignore_stability=ignore_stability)
    return [AnalysisRecord(L.name, *row, timings)
            for L, *row in zip(algebras, algebra.rows(profile, count), certs, reports, plans)]


def analyze_file(path, extend: bool = False, gaussian_mode: str | None = None,
                 ignore_stability: bool = False) -> AnalysisRecord:
    """Run the full analysis pipeline on one .alg file, as a stack of one."""
    timings: dict[str, float] = {}
    L = _read(path, timings)
    return _analyze([path], [L], timings, extend, gaussian_mode, ignore_stability)[0]


def table_rows(paths: list[Path]) -> list[list[str]]:
    """The `table` row of each .alg file, in order.  Each file is read alone; the
    algebras of one dimension run with --extend in stacks, each once it is full."""
    rows, stacks = {}, {}
    for path in paths:
        try:
            L = _read(path, {})
        except SolstabError as exc:
            rows[path] = _message_row(path.stem, f"error: {exc}")
            continue
        stacks.setdefault(L.dim, []).append((path, L))
        if len(stacks[L.dim]) >= STACK_ENTRIES // (L.dim + 1) ** 4:
            rows.update(_stack_rows(stacks.pop(L.dim)))
    for items in stacks.values():
        rows.update(_stack_rows(items))
    return [rows[path] for path in paths]


def _stack_rows(items) -> dict:  # path -> row, of a stack of (path, algebra) items
    paths, algebras = zip(*items)
    try:
        return dict(zip(paths, map(record_row, _analyze(paths, algebras, {}, extend=True))))
    except SolstabError as exc:
        if len(items) > 1:  # again row by row, so the error fills its own row alone
            return dict(row for item in items for row in _stack_rows([item]).items())
        return {paths[0]: _message_row(paths[0].stem, f"error: {exc}")}


def _fmt_exact(x: float, unit: float) -> str:
    """x, or 0 for rounding noise around an exact zero (TIE_TOL units)."""
    return "0" if algebra.within(abs(x), algebra.TIE_TOL, unit) else f"{x:g}"


def _fmt3(x: float) -> str:
    return f"{round(x, 3) + 0.0:.3f}"  # round-half-even to 3 decimals; -0.0 + 0.0 is 0.0


def _fmt_verdict(v: bool | None) -> str:
    return "?" if v is None else "✓" if v else "✗"


def _message_row(name: str, text: str) -> list[str]:
    """A table row that carries one message in place of the verdict columns."""
    return [name, "", "", "", "", text, "", ""]


def record_row(rec: AnalysisRecord) -> list[str]:
    r = rec.report
    if r is None:
        return _message_row(rec.name, f"not a soliton (residual {rec.certificate.residual:.3e})")
    return [
        rec.name,
        str(rec.profile.step),
        _fmt_exact(r.lam, rec.certificate.scale),
        _fmt_exact(r.trace_D, rec.certificate.scale),
        _fmt3(r.max_q),
        _fmt_verdict(r.q_verdict),
        _fmt3(r.max_Ro) if r.max_Ro is not None else "",
        _fmt_verdict(r.Ro_verdict) if r.max_Ro is not None else "",
    ]


def record_json(rec: AnalysisRecord) -> dict:
    cert = rec.certificate
    out = {
        "name": rec.name,
        "verdict": rec.verdict,
        "step": rec.profile.step,
        "nilpotent": rec.profile.nilpotent,
        "unimodular": rec.profile.unimodular,
        "lambda": cert.lam,
        "trace_D": cert.trace_D,
        "derivation": cert.derivation.tolist(),
        "soliton_residual": cert.residual,
        "accepted": cert.accepted,
        "degenerate": cert.degenerate,
        "expanding": cert.expanding,
    }
    # lambda and tr D are already at the top level
    if rec.report is not None:
        out["stability"] = asdict(rec.report)
        del out["stability"]["lam"], out["stability"]["trace_D"]
    if rec.gaussian_plan is not None:
        out["gaussian"] = asdict(rec.gaussian_plan)
    out["timings"] = rec.timings
    return out


def _render_table(rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(TABLE_COLUMNS, *rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in [TABLE_COLUMNS, *rows])


def _render_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([TABLE_COLUMNS, *rows])
    return buf.getvalue()


def cmd_analyze(args) -> int:
    rec = analyze_file(args.path, extend=args.extend, ignore_stability=args.ignore_stability,
                       gaussian_mode=_mode(args.mode) if args.gaussian else None)
    if args.format == "json":
        print(json.dumps(record_json(rec), indent=2))
    elif args.format == "csv":
        print(_render_csv([record_row(rec)]), end="")
    else:
        print(_render_table([record_row(rec)]))
        print(f"verdict: {rec.verdict}")
        if rec.gaussian_plan is not None:
            p = rec.gaussian_plan
            print(
                f"gaussian extension ({p.mode}): C1={p.C1:.6g} C2={p.C2:.6g} "
                f"k={p.k} bracket={p.bracket_value_at_k:.6g}"
            )
    return EXIT_CODES.get(rec.verdict, EXIT_UNSTABLE)


def cmd_table(args) -> int:
    root = Path(args.dir)
    with _stage({}, "parse", root):
        if not root.is_dir():
            raise AlgebraFormatError("not a directory")
        paths = sorted(root.glob("*.alg"))
    rows = table_rows(paths)
    if args.format == "csv":
        print(_render_csv(rows), end="")
    else:
        print(_render_table(rows))
    return EXIT_STABLE


def cmd_flow(args) -> int:
    F, _, cert = _certify(args.path, [_read(args.path, {})], {})
    (F,), (cert,) = algebra.rows(F, 1), algebra.rows(cert, 1)
    if not cert.accepted:
        return _not_a_soliton(args.path, cert)
    with _stage({}, "flow", args.path):
        try:
            trials = flow.perturbation_experiment(
                F, cert, eps=args.eps, n_trials=args.trials, seed=args.seed,
                config=flow.FlowConfig(dt=args.dt, t_max=args.t_max))
        except ValueError as exc:  # out-of-range flow arguments are input errors too
            raise SolstabError(str(exc)) from None
    ok = True
    for t in trials:
        print(
            f"trial {t.trial}: initial {t.initial_residual:.6e} "
            f"final {t.final_residual:.6e} "
            f"{'decayed' if t.decayed else 'NOT decayed'} "
            f"(monotonicity violations: {t.monotonicity_violations})"
        )
        ok = ok and t.decayed
    return EXIT_STABLE if ok else EXIT_UNSTABLE


def cmd_gaussian(args) -> int:
    rec = analyze_file(args.path, gaussian_mode=_mode(args.mode),
                       ignore_stability=args.ignore_stability)
    if rec.gaussian_plan is None:
        return _not_a_soliton(args.path, rec.certificate)
    p = rec.gaussian_plan
    print(f"mode: {p.mode}")
    print(f"C1 = {p.C1:.9g}")
    print(f"C2 = {p.C2:.9g}")
    print(f"k = {p.k}")
    print(f"bracket value at k: {p.bracket_value_at_k:.9g}")
    return EXIT_STABLE


def _not_a_soliton(path, cert: soliton.SolitonCertificate) -> int:
    print(f"{path}: not a soliton: residual {cert.residual:.3e}", file=sys.stderr)
    return EXIT_NOT_SOLITON


def _mode(mode: str) -> str:
    return {"paper": "paper-bound", "sharp": "sharp"}[mode]


@functools.cache  # main() may run many times in one process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solstab",
        description="Stability certificates for algebraic Ricci solitons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one .alg file")
    p.add_argument("path")
    p.add_argument("--extend", action="store_true", help="also analyze the rank-one Einstein extension")
    p.add_argument("--gaussian", action="store_true", help="also compute the Gaussian extension dimension")
    p.add_argument("--mode", choices=["paper", "sharp"], default="paper")
    p.add_argument("--ignore-stability", action="store_true")
    p.add_argument("--format", choices=["human", "json", "csv"], default="human")

    p = sub.add_parser("table", help="analyze a directory of .alg files")
    p.add_argument("dir")
    p.add_argument("--format", choices=["human", "csv"], default="human")

    p = sub.add_parser("flow", help="perturbation-decay flow experiment")
    p.add_argument("path")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=10.0,
                   help="run round(t_max/dt) steps of dt, in units of 1/max|c|^2")
    p.add_argument("--dt", type=float, default=1e-3, help="RK4 step, in units of 1/max|c|^2")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gaussian", help="Gaussian extension dimension")
    p.add_argument("path")
    p.add_argument("--mode", choices=["paper", "sharp"], default="paper")
    p.add_argument("--ignore-stability", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # looked up per call, past the cached parser
    try:
        return command(args)
    except (SolstabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SOLITON if isinstance(exc, NotExpanding) else EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
