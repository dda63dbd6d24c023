"""Command-line front end.

Subcommands:

    analyze   one .alg file -> soliton certificate + stability row
    table     directory of .alg files -> multi-row stability table
    flow      perturbation-decay experiment under the normalized Ricci flow
    gaussian  flat-extension dimension needed for certified stability

Exit codes: 0 stable verdict, 1 input error, 2 unstable or inconclusive,
3 not a soliton, or not expanding where an expanding soliton is needed
(flow, gaussian, analyze --gaussian).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from . import algebra, curvature, flow, soliton, stability
from .errors import AlgebraFormatError, Blowup, NotExpanding, PositivityLost, SolstabError

EXIT_STABLE = 0
EXIT_INPUT_ERROR = 1
EXIT_UNSTABLE = 2
EXIT_NOT_SOLITON = 3

TABLE_COLUMNS = ["#", "step", "λ", "trD", "maxq", "<?½trD", "maxRo", "<?−λ"]


@dataclass(frozen=True)
class AnalysisRecord:
    name: str
    profile: algebra.StructureProfile
    certificate: soliton.SolitonCertificate
    report: stability.StabilityReport | None
    gaussian_plan: soliton.GaussianExtensionPlan | None
    gaussian_residual: float | None
    timings: dict[str, float]

    @property
    def verdict(self) -> str:
        if self.report is None:  # set exactly when the certificate is accepted
            return "not-a-soliton"
        checks = [self.report.q_verdict]
        if self.report.max_Ro is not None:
            checks.append(self.report.Ro_verdict)
        if all(v is True for v in checks):
            return "stable"
        if any(v is None for v in checks):
            return "inconclusive"
        return "unstable"


@contextmanager
def _stage(timings: dict[str, float], name: str):
    t0 = time.perf_counter()
    yield
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0


@contextmanager
def _naming(path, errors=SolstabError):
    """Prefix the message of an error of these types raised inside with the path."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _certify(path, timings: dict[str, float]):
    """Parse, validate and frame one .alg file; return the frame, its curvature
    summary and its soliton certificate.  Every command starts with this stage,
    and each error it raises names the file."""
    with _naming(path):
        with _stage(timings, "parse"):
            try:
                text = Path(path).read_text(encoding="utf-8")
            except OSError as exc:
                raise AlgebraFormatError(exc.strerror) from None
            except UnicodeDecodeError:
                raise AlgebraFormatError("not UTF-8 text") from None
            L = algebra.parse_algebra(text)
            algebra.require_jacobi(L)
        with _stage(timings, "curvature"):
            F = algebra.orthonormal_frame(L)
            summary = curvature.curvature_summary(F)
        with _stage(timings, "soliton"):
            ders = algebra.derivation_basis(F)
            cert = soliton.solve_algebraic_soliton(
                F, summary, ders, lambda_hint=L.hints.get("lambda")
            )
    return F, summary, cert


def analyze_file(
    path,
    extend: bool = False,
    gaussian_mode: str | None = None,
    ignore_stability: bool = False,
) -> AnalysisRecord:
    """Run the full analysis pipeline on one .alg file."""
    timings: dict[str, float] = {}
    F, summary, cert = _certify(path, timings)
    with _stage(timings, "curvature"):
        profile = algebra.structure_profile(F)

    report = None
    gaussian_plan = None
    gaussian_residual = None
    if cert.accepted:
        with _naming(path):
            with _stage(timings, "stability"):
                ext_summary = None
                if extend and soliton.extension_obstruction(cert) is None:
                    ext_summary = soliton.rank_one_extension(F, cert).summary
                report = stability.stability_report(F, summary, cert, ext_summary)
            if gaussian_mode is not None:
                gaussian_plan = soliton.gaussian_extension_dimension(
                    summary,
                    summary.riemann,
                    cert,
                    report.max_q,
                    mode=gaussian_mode,
                    ignore_stability=ignore_stability,
                )
                gaussian_residual = soliton.verify_gaussian_product(
                    summary, cert, gaussian_plan.k
                ).residual

    return AnalysisRecord(
        name=F.name,
        profile=profile,
        certificate=cert,
        report=report,
        gaussian_plan=gaussian_plan,
        gaussian_residual=gaussian_residual,
        timings=timings,
    )


def _fmt_exact(x: float) -> str:
    if abs(x) < 1e-9:  # least-squares noise around an exact zero
        x = 0.0
    return f"{x:g}"


def _fmt3(x: float | None) -> str:
    if x is None:
        return ""
    return f"{round(x, 3):.3f}"  # round-half-even to 3 decimals


def _fmt_verdict(v: bool | None) -> str:
    if v is None:
        return "?"
    return "✓" if v else "✗"


def record_row(rec: AnalysisRecord) -> list[str]:
    r = rec.report
    if r is None:
        return [rec.name, "", "", "", "", "not a soliton "
                f"(residual {rec.certificate.residual:.3e})", "", ""]
    return [
        rec.name,
        str(rec.profile.step),
        _fmt_exact(r.lam),
        _fmt_exact(r.trace_D),
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
        del out["gaussian"]["lam"]
        out["gaussian"]["product_residual"] = rec.gaussian_residual
    out["timings"] = rec.timings
    return out


def _render_table(rows: list[list[str]]) -> str:
    header = TABLE_COLUMNS
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _render_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([TABLE_COLUMNS, *rows])
    return buf.getvalue()


def cmd_analyze(args) -> int:
    rec = analyze_file(
        args.path,
        extend=args.extend,
        gaussian_mode=_mode(args.mode) if args.gaussian else None,
        ignore_stability=args.ignore_stability,
    )
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
                f"k={p.k} bracket={p.bracket_value_at_k:.6g} "
                f"product residual={rec.gaussian_residual:.3e}"
            )
    if rec.verdict == "stable":
        return EXIT_STABLE
    if rec.verdict == "not-a-soliton":
        return EXIT_NOT_SOLITON
    return EXIT_UNSTABLE


def cmd_table(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    rows = []
    for path in sorted(root.glob("*.alg")):
        try:
            rows.append(record_row(analyze_file(path, extend=True)))
        except (SolstabError, OSError) as exc:
            rows.append([path.stem, "", "", "", "", f"error: {exc}", "", ""])
    if args.format == "csv":
        print(_render_csv(rows), end="")
    else:
        print(_render_table(rows))
    return EXIT_STABLE


def cmd_flow(args) -> int:
    F, _, cert = _certify(args.path, {})
    if not cert.accepted:
        print(f"not a soliton: residual {cert.residual:.3e}", file=sys.stderr)
        return EXIT_NOT_SOLITON
    try:
        config = flow.FlowConfig(dt=args.dt, t_max=args.t_max)
        with _naming(args.path, (PositivityLost, Blowup, NotExpanding)):  # the flow's errors
            trials = flow.perturbation_experiment(
                F, cert, eps=args.eps, n_trials=args.trials, seed=args.seed, config=config
            )
    except ValueError as exc:  # out-of-range flow arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
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
    rec = analyze_file(
        args.path,
        gaussian_mode=_mode(args.mode),
        ignore_stability=args.ignore_stability,
    )
    if rec.gaussian_plan is None:
        print(
            f"not a soliton: residual {rec.certificate.residual:.3e}",
            file=sys.stderr,
        )
        return EXIT_NOT_SOLITON
    p = rec.gaussian_plan
    print(f"mode: {p.mode}")
    print(f"C1 = {p.C1:.9g}")
    print(f"C2 = {p.C2:.9g}")
    print(f"k = {p.k}")
    print(f"bracket value at k: {p.bracket_value_at_k:.9g}")
    print(f"product soliton residual: {rec.gaussian_residual:.3e}")
    return EXIT_STABLE


def _mode(mode: str) -> str:
    return {"paper": "paper-bound", "sharp": "sharp"}[mode]


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
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("table", help="analyze a directory of .alg files")
    p.add_argument("dir")
    p.add_argument("--format", choices=["human", "csv"], default="human")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("flow", help="perturbation-decay flow experiment")
    p.add_argument("path")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("gaussian", help="Gaussian extension dimension")
    p.add_argument("path")
    p.add_argument("--mode", choices=["paper", "sharp"], default="paper")
    p.add_argument("--ignore-stability", action="store_true")
    p.set_defaults(func=cmd_gaussian)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotExpanding as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SOLITON
    except (SolstabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
