"""Algebraic soliton certificates and their extensions.

Certifies Ric = lambda * id + D with D a derivation in closed form,
certifies Einstein metrics, builds rank-one solvable Einstein extensions,
and computes how many flat Gaussian directions must be added to force
strict linear stability.  The tolerances are `algebra.CERT_TOL` in the
certificate's unit, ``scale``.  The certificate, the Einstein check and the
extension take a stack of algebras of one dimension as they take one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (CERT_TOL, MetricLieAlgebra, derivation_defect, orthonormal_frame,
                      require_in_range, take, within)
from .curvature import CurvatureSummary, RiemannTensor, curvature_summary
from .errors import EinsteinVerificationFailed, NotExpanding


@dataclass(frozen=True)
class SolitonCertificate:
    """(lambda, D = Ric - lambda I) with residual max|delta(D)|, accepted up
    to CERT_TOL max|c|^3.  ``scale`` = max|c|^2, or |lambda| when c = 0, is
    the unit of every later tolerance (see the block in `algebra`)."""

    lam: float
    derivation: np.ndarray
    residual: float
    trace_D: float  # also div X, the divergence of the soliton field
    accepted: bool
    degenerate: bool  # g abelian, so I is in Der(g) and lambda is not determined
    expanding: bool
    scale: float


@dataclass(frozen=True)
class EinsteinCertificate:
    lam: float
    residual: float
    accepted: bool


@dataclass(frozen=True)
class GaussianExtensionPlan:
    C1: float
    C2: float
    k: int
    mode: str  # "paper-bound" or "sharp"
    bracket_value_at_k: float


def certify_soliton(
    F: MetricLieAlgebra, summary: CurvatureSummary, lambda_hint: float | None = None
) -> SolitonCertificate:
    """The soliton certificate of an orthonormal frame in closed form: D =
    Ric - lambda I, with lambda the hint, or 0 for abelian g, or else
    -<delta(Ric), c> / <c, c>, the least-squares solution of delta(D) =
    delta(Ric) + lambda c = 0.  delta is taken of c / max|c|, but its sums of
    products of Ric may still overflow when max|c|^2 nears the float range, and
    the residual max|delta(D)|, of degree 3, before them, and a hint's tr D: one
    not finite, or a unit |lambda| (of c = 0) below the normal floats, raises
    the range error (`algebra.require_in_range`).
    Of a stack, the hint is an array with NaN in the rows that have none."""
    axes, stack = (-3, -2, -1), F.c.shape[:-3]
    s = np.max(np.abs(F.c), axis=axes)
    u, ric = F.c / np.where(s, s, 1.0)[..., None, None, None], summary.ric
    hint = np.asarray(lambda_hint, dtype=float)  # None is NaN; a parsed hint is finite

    def dot(x, y):  # <x, y> per row, as one dot product each
        return (x.reshape(*stack, 1, -1) @ y.reshape(*stack, -1, 1))[..., 0, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        # u = 0 where s is, and its lambda 0; a steady soliton is flat, so a
        # lambda within the tolerance is 0
        lam = -dot(derivation_defect(u, ric), u) / (dot(u, u) + (s == 0))
        lam = np.where(np.isnan(hint), np.where(within(abs(lam), CERT_TOL, s * s), 0.0, lam), hint)
        D = ric - lam[..., None, None] * np.eye(F.dim)
        defect = np.max(np.abs(derivation_defect(u, D)), axis=axes)  # max|delta(D)| / s
        residual = s * defect
        trace_D = np.trace(D, axis1=-2, axis2=-1)
    require_in_range(("lambda", lam), ("residual", residual), ("tr D", trace_D), scale=s, lam=lam)
    unit = np.where(s * s, s * s, abs(lam))
    return take(SolitonCertificate(lam, D, residual, trace_D,
                                   accepted=within(defect, CERT_TOL, unit), degenerate=s == 0,
                                   expanding=lam < 0, scale=unit))


def solve_algebraic_soliton(
    F: MetricLieAlgebra,
    summary: CurvatureSummary,
    ders: list[np.ndarray],
    lambda_hint: float | None = None,
) -> SolitonCertificate:
    """Least-squares fit of Ric over span{I} + Der(g), residual
    max|Ric - lambda I - D| up to CERT_TOL scale: the reference for the tests.

    Non-solitons yield a certificate with large residual rather than an
    error.  The identity is a derivation exactly when [x, y] = 2[x, y] for
    all x, y, that is, when g is abelian; then the split into lambda and D
    is not unique, the minimum-norm coefficient solution is returned and
    the certificate is flagged degenerate, unless ``lambda_hint`` pins
    lambda.  ``ders`` is never empty: it spans gl(n) for abelian g and
    contains ad(g) otherwise.
    """
    n = F.dim
    ric = summary.ric
    Ad = np.column_stack([d.ravel() for d in ders])
    if lambda_hint is None:
        A = np.column_stack([np.eye(n).ravel(), Ad])
        x, *_ = np.linalg.lstsq(A, ric.ravel(), rcond=None)
        lam, coef = float(x[0]), x[1:]
    else:
        lam = float(lambda_hint)
        coef, *_ = np.linalg.lstsq(Ad, (ric - lam * np.eye(n)).ravel(), rcond=None)
    D = sum(c * d for c, d in zip(coef, ders))

    residual = float(np.max(np.abs(ric - lam * np.eye(n) - D)))
    s = float(np.max(np.abs(F.c)))
    unit = s * s or abs(lam)
    return SolitonCertificate(lam, D, residual, float(np.trace(D)),
                              accepted=within(residual, CERT_TOL, unit), degenerate=not s,
                              expanding=lam < 0, scale=unit)


def check_einstein(summary: CurvatureSummary) -> EinsteinCertificate:
    """Certify Ric = lambda I with lambda = scal / n, up to CERT_TOL |lambda|:
    an Einstein metric's unit is |lambda| = max|Ric|."""
    lam = np.divide(summary.scal, summary.dim)
    residual = np.max(np.abs(summary.ric - lam[..., None, None] * np.eye(summary.dim)),
                      axis=(-2, -1))
    return EinsteinCertificate(lam, residual, accepted=within(residual, CERT_TOL, abs(lam)))


@dataclass(frozen=True, kw_only=True)
class EinsteinExtension(MetricLieAlgebra):
    """A rank-one extension with the curvature summary that verified it Einstein."""

    summary: CurvatureSummary


_OBSTRUCTIONS = np.array(["certificate not accepted (residual too large)",
                          "extension requires lambda < 0", "extension requires tr D > 0",
                          "extension requires D positive semidefinite"], dtype=object)


def extension_obstruction(cert: SolitonCertificate):
    """Why ``cert`` admits no rank-one Einstein extension, or None if it does;
    of a stacked certificate, an object array with one of these per row.
    The round-off D of an Einstein metric has none at any bracket scale."""
    D = cert.derivation
    least = np.linalg.eigvalsh(0.5 * (D + D.swapaxes(-1, -2)))[..., 0]
    bad = np.array([np.logical_not(cert.accepted), np.greater_equal(cert.lam, 0),
                    within(cert.trace_D, CERT_TOL, cert.scale),
                    np.logical_not(within(-least, CERT_TOL, cert.scale))])
    return np.where(bad.any(axis=0), _OBSTRUCTIONS[bad.argmax(axis=0)], None)[()]


def rank_one_extension(F: MetricLieAlgebra, cert: SolitonCertificate) -> EinsteinExtension:
    """One-dimensional solvable extension s = span(A) + n with ad A = alpha D.

    alpha = sqrt(-lambda / tr D^2) is the unique scaling making the
    extension Einstein with the same lambda; this is verified a posteriori
    via the curvature pipeline rather than trusted, and the verified
    curvature summary is returned with the extension.  Raises ValueError
    when ``extension_obstruction(cert)`` names a reason, for any row of a stack.
    """
    for reason in np.ravel(extension_obstruction(cert)):
        if reason is not None:
            raise ValueError(reason)

    D, n, scale = cert.derivation, F.dim, np.asarray(cert.scale)[..., None, None]
    u = D / scale  # tr D^2 is of degree 2 in the unit, so it is taken of D / unit
    alpha = np.sqrt(-cert.lam / cert.scale / np.trace(u @ u, axis1=-2, axis2=-1) / cert.scale)
    c = np.zeros((*F.c.shape[:-3], n + 1, n + 1, n + 1))
    c[..., :n, :n, :n] = F.c
    # [A, e_j] = alpha D e_j, with A the new last basis vector
    c[..., n, :n, :n] = np.asarray(alpha)[..., None, None] * D.swapaxes(-1, -2)
    c[..., :n, n, :n] = -c[..., n, :n, :n]
    ext = MetricLieAlgebra(f"{F.name}+solvext", n + 1, c, np.eye(n + 1))
    summary = curvature_summary(orthonormal_frame(ext))
    ecert = check_einstein(summary)
    if not np.all(ecert.accepted & within(abs(ecert.lam - cert.lam), CERT_TOL, cert.scale)):
        raise EinsteinVerificationFailed(
            f"extension is not Einstein at lambda={cert.lam}: "
            f"residual {np.max(ecert.residual):.3e}, lambda {ecert.lam}"
        )
    return EinsteinExtension(**vars(ext), summary=summary)


def crude_curvature_bound(riemann: RiemannTensor, ric: np.ndarray) -> float:
    """Term-by-term absolute-value bound C1 on the stability form.

    Bounds |sum R[i,j,k,l] h[i,l] h[j,k] + sum R[i,j] h[i,k] h[j,k]| by a
    diagonal quadratic form sum w[a,b] h[a,b]^2 via 2xy <= x^2 + y^2, then
    maximizes over the unit sphere: C1 = max w[a,b].
    """
    R = np.abs(riemann.R)
    W = 0.5 * np.einsum("ajkb->ab", R) + 0.5 * np.einsum("iabl->ab", R)
    rowsum = np.abs(ric).sum(axis=1)
    W = W + 0.5 * rowsum[:, None] + 0.5 * rowsum[None, :]
    return float(W.max())


def gaussian_extension_dimension(
    summary: CurvatureSummary,
    riemann: RiemannTensor,
    cert: SolitonCertificate,
    stability_max_q: float,
    mode: str = "paper-bound",
    ignore_stability: bool = False,
) -> GaussianExtensionPlan:
    """Number k of flat Gaussian directions forcing strict linear stability.

    k is the smallest non-negative integer with C1 + C2 + lambda*k/2 < -1,
    except k = 0 when the algebraic stability test already passes.  In
    paper-bound mode C1 is the crude curvature bound and
    C2 = (|scal| + n|lambda|)/2; in sharp mode C1 = max(stability_max_q, 0)
    and C2 = |div X| / 2 = |tr D| / 2.
    """
    if cert.lam >= 0:
        raise NotExpanding(f"not expanding: lambda={cert.lam:g}")
    if mode not in ("paper-bound", "sharp"):
        raise ValueError(f"unknown mode {mode!r}")
    lam = cert.lam
    n = summary.dim
    if mode == "paper-bound":
        C1 = crude_curvature_bound(riemann, summary.ric)
        C2 = (abs(summary.scal) + n * abs(lam)) / 2.0
    else:
        C1 = max(stability_max_q, 0.0)
        C2 = abs(cert.trace_D) / 2.0

    k = 0
    if ignore_stability or not stability_max_q < 0.5 * cert.trace_D:
        # the real root of the bracket, then stepped with the comparison itself
        # (monotone in k), so k is exactly the least count that satisfies it
        k = max(0, int(-2.0 * (C1 + C2 + 1.0) / lam))
        while C1 + C2 + 0.5 * lam * k >= -1.0:
            k += 1
        while k > 0 and C1 + C2 + 0.5 * lam * (k - 1) < -1.0:
            k -= 1
    return GaussianExtensionPlan(C1, C2, k, mode, bracket_value_at_k=C1 + C2 + 0.5 * lam * k)


def verify_gaussian_product(summary: CurvatureSummary, cert: SolitonCertificate, k: int) -> float:
    """Residual of the soliton equation on the product with k flat directions.

    ``summary`` is the curvature of the base.  The product Ricci is
    block-diagonal (Ric_M, 0) and the right side is block-diagonal
    (lambda I + D, lambda I + Hess f) with Hess f = -lambda I on the flat
    factor, so the flat block cancels exactly and the residual is that of
    the base block, max|Ric - lambda I - D|, whatever k is.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return float(np.max(np.abs(summary.ric - (cert.lam * np.eye(summary.dim) + cert.derivation))))

