"""The stability form q on symmetric 2-tensors and its spectrum.

q(h) = <Ro h + Ric o h, h> with (Ro h)_ij = R[i,p,q,j] h[p,q] and
(Ric o h)_ij = Ric[i,k] h[k,j].  A left-invariant metric satisfying
Ric = lambda I + D is certified strictly linearly stable when
max q < tr(D) / 2 over unit symmetric 2-tensors; for Einstein metrics the
criterion is max <Ro h, h> < -lambda.  Maxima are top eigenvalues of the
form's matrix in an orthonormal basis of Sym^2, computed by LAPACK eigvalsh;
the matrix is gathered from R and Ric at each basis element's index pairs,
not multiplied out as P M P^T.
Both sides are of degree 2 in the brackets, so a margin is measured in the
algebra's unit, SolitonCertificate.scale = max|c|^2: one within
algebra.TIE_TOL units of zero is inconclusive, at every bracket scale.
The gathers, the eigen-solve and the report take a stack of algebras of one
dimension as they take one; a stacked report has one row each.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import CERT_TOL, MAX_DIM, TIE_TOL, within
from .curvature import CurvatureSummary
from .errors import NotSymmetric
from .soliton import SolitonCertificate


@dataclass(frozen=True)
class Sym2Basis:
    """Orthonormal basis of symmetric n x n matrices under <h,k> = sum h*k.

    Deterministic ordering: diagonal units E_ii first (ascending), then
    (E_ij + E_ji)/sqrt(2) in lexicographic order.
    """

    N: int
    # element a is w[a] (E_ij + E_ji) with (i, j) = pairs[:, a], i <= j, and
    # w = 1/2 on the diagonal units and 1/sqrt(2) off them; weights = w w^T
    pairs: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class StabilityForm:
    """Matrices of the stability form and its pure-curvature part, each built
    on its first read (a report reads S of g and S_Ro of its extension).

    An operator M on n x n matrices, with M[(i,j),(p,q)] the coefficient of
    h[p,q] in (M h)[i,j], has the matrix P M P^T on Sym^2, where the rows of
    P are the basis elements; as element a is w[a] (E_ij + E_ji), its entries
    are sums of M at the index pairs (i,j) and (j,i), read off by gathers.
    For Ro, M[(i,j),(p,q)] = R[i,p,q,j].  The Ricci term is symmetrized to
    (Ric h + h Ric)/2, which leaves the quadratic form unchanged on symmetric
    h and makes S symmetric; it is added to the gathered rows.
    """

    summary: CurvatureSummary
    basis: Sym2Basis

    @functools.cached_property
    def S(self) -> np.ndarray:  # matrix of h -> Ro h + (Ric h + h Ric)/2
        return self._gather(0.5 * self.summary.ric)

    @functools.cached_property
    def S_Ro(self) -> np.ndarray:  # matrix of h -> Ro h alone
        return self._gather(None)

    def _gather(self, ric: np.ndarray | None) -> np.ndarray:
        (i, j), a, R = self.basis.pairs, np.arange(self.basis.N), self.summary.riemann.R
        # rows[a, ..., p, q] = M[(i,j),(p,q)] + M[(j,i),(p,q)], a stack's axes after a
        rows, stack = R[..., i, :, :, j], range(R.ndim - 4)
        rows += R[..., j, :, :, i]
        if ric is not None:  # ric[..., r, :] and ric[..., :, r] at [r]
            ric_rows, ric_cols = ric.transpose(-2, *stack, -1), ric.transpose(-1, *stack, -2)
            rows[a, ..., :, j] += ric_rows[i]
            rows[a, ..., :, i] += ric_rows[j]
            rows[a, ..., i, :] += ric_cols[j]
            rows[a, ..., j, :] += ric_cols[i]
        S = rows[:, ..., i, j] + rows[:, ..., j, i]
        return self.basis.weights * S.transpose(*(k + 1 for k in stack), 0, -1)


@dataclass(frozen=True)
class StabilityReport:
    max_q: float
    threshold: float  # tr(D) / 2
    q_margin: float
    q_verdict: bool | None  # None: |margin| within the tie dead zone
    lam: float
    trace_D: float
    max_Ro: float | None = None
    einstein_threshold: float | None = None
    Ro_margin: float | None = None
    Ro_verdict: bool | None = None

    @property
    def verdict(self) -> str:  # over the criteria present: Ro only with an extension
        checks = {self.q_verdict, True if self.max_Ro is None else self.Ro_verdict}
        return "stable" if checks == {True} else "inconclusive" if None in checks else "unstable"


@functools.cache
def sym2_basis(n: int) -> Sym2Basis:
    """The basis of Sym^2 of R^n, built once per n; its arrays are read-only."""
    if n < 1 or n > MAX_DIM + 1:
        raise ValueError(f"n must be in 1..{MAX_DIM + 1}, got {n}")
    iu, ju = np.triu_indices(n, k=1)
    diag = np.arange(n)
    pairs = np.array([np.concatenate([diag, iu]), np.concatenate([diag, ju])])
    w = np.where(pairs[0] == pairs[1], 0.5, 1.0 / np.sqrt(2.0))
    tables = (pairs, np.outer(w, w))
    for table in tables:
        table.flags.writeable = False
    return Sym2Basis(n * (n + 1) // 2, *tables)


def stability_form(summary: CurvatureSummary, basis: Sym2Basis) -> StabilityForm:
    """The stability form of a curvature summary on a Sym^2 basis, built lazily."""
    return StabilityForm(summary, basis)


def jacobi_eigenvalues(S: np.ndarray, unit: float | None = None) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, or of each in a stack, ascending,
    from LAPACK eigvalsh.

    Input whose asymmetry max|S - S^T| exceeds CERT_TOL unit raises
    NotSymmetric; the unit is the algebra's max|c|^2 for a stability form,
    and max|S| by default.  The solver sees the symmetrized matrix.
    Agreement with the bisection oracle is tested up to N = 136; platform
    differences in the last digits are absorbed by the TIE_TOL dead zone of
    the verdicts.  The name is historical; the benchmark's tracer addresses
    the eigen-solve by it.
    """
    S = np.asarray(S, dtype=float)
    ST, axes = S.swapaxes(-1, -2), (-2, -1)
    unit = np.max(np.abs(S), axis=axes) if unit is None else unit
    if not np.all(within(np.max(np.abs(S - ST), axis=axes), CERT_TOL, unit)):
        raise NotSymmetric("matrix is not symmetric")
    return np.linalg.eigvalsh(0.5 * (S + ST))


def max_eigenvalue(S: np.ndarray, unit: float | None = None):
    """Largest eigenvalue of a symmetric matrix, or of each in a stack."""
    return jacobi_eigenvalues(S, unit)[..., -1][()]


_VERDICTS = np.array([False, True, None], dtype=object)


def _verdict(margin, unit):
    """True or False by the margin's sign, None within TIE_TOL units of zero
    (of a stack, an object array)."""
    return _VERDICTS[np.where(within(abs(margin), TIE_TOL, unit), 2, np.greater(margin, 0))]


def stability_report(
    F,
    summary: CurvatureSummary,
    cert: SolitonCertificate,
    extension_summary: CurvatureSummary | None = None,
) -> StabilityReport:
    """One table row: max q against tr(D)/2, and, when an extension summary
    is supplied, max Ro of the extension against -lambda (of a stack, a row each)."""
    max_q = max_eigenvalue(stability_form(summary, sym2_basis(F.dim)).S, cert.scale)
    threshold = 0.5 * cert.trace_D
    q_margin = threshold - max_q

    max_Ro = einstein_threshold = Ro_margin = Ro_verdict = None
    if extension_summary is not None:
        ext_form = stability_form(extension_summary, sym2_basis(extension_summary.dim))
        max_Ro = max_eigenvalue(ext_form.S_Ro, cert.scale)
        einstein_threshold = -cert.lam
        Ro_margin = einstein_threshold - max_Ro
        Ro_verdict = _verdict(Ro_margin, cert.scale)

    return StabilityReport(max_q, threshold, q_margin, _verdict(q_margin, cert.scale), cert.lam,
                           cert.trace_D, max_Ro, einstein_threshold, Ro_margin, Ro_verdict)
