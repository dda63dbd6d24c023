"""Metric Lie algebras from structure constants.

An algebra is read from a sparse list of bracket entries (i, j, k, c),
1-based with i < j, meaning <[e_i, e_j], e_k> = c, together with an inner
product G on the basis (identity by default), and held as its dense
structure tensor.  This module validates the Jacobi identity, moves the
tensor into an orthonormal frame, computes the derivation algebra, and
reports structural invariants (nilpotency step, unimodularity).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AlgebraFormatError, MetricError

MAX_DIM = 16

# Rank / null-space decisions are made relative to the largest singular
# value; catalog constants are exact small rationals or simple surds, far
# from this threshold.
RANK_TOL = 1e-10
JACOBI_TOL = 1e-10  # times max|beta|^2: the Jacobi residual is quadratic


@dataclass(frozen=True)
class MetricLieAlgebra:
    """A Lie algebra with a chosen basis and inner product.

    ``c`` is the dense antisymmetric structure tensor c[i,j,k] =
    <[e_i, e_j], e_k> (0-based) with respect to ``metric``.  In an
    orthonormal frame (metric I) it equals the bracket coefficients.
    """

    name: str
    dim: int
    c: np.ndarray
    metric: np.ndarray
    hints: dict = field(default_factory=dict)

    @property
    def bracket_tensor(self) -> np.ndarray:
        """Coefficients beta[i,j,m] with [e_i, e_j] = sum_m beta[i,j,m] e_m.

        The last index of the structure tensor is raised with G^{-1}.
        """
        if _is_identity(self.metric):
            return self.c
        return self.c @ np.linalg.inv(self.metric)


@dataclass(frozen=True)
class StructureProfile:
    """Structural invariants: nilpotency step and unimodularity."""

    step: int  # lower-central-series length; 0 when not nilpotent
    nilpotent: bool
    unimodular: bool  # tr(ad X) = 0 for every X


@dataclass(frozen=True)
class AlgebraDiagnostics:
    jacobi_residual: float
    ok: bool


def parse_algebra(text: str) -> MetricLieAlgebra:
    """Parse a .alg document (JSON) into a MetricLieAlgebra.

    Keys: name (text), dim (integer), brackets (list of [i, j, k, value]
    with integer indices i < j, 1-based, and finite values), metric
    (optional n x n row-major symmetric matrix of finite numbers), hints
    (optional object, e.g. {"lambda": -1.0} with a finite number).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFormatError(f"malformed document: {exc}") from None
    if not isinstance(doc, dict):
        raise AlgebraFormatError("document must be a JSON object")
    n = _integer(doc.get("dim"), "'dim'")
    if n < 1 or n > MAX_DIM:
        raise AlgebraFormatError(f"dim must be in 1..{MAX_DIM}, got {n}")
    name = str(doc.get("name", "unnamed"))

    raw_entries = doc.get("brackets", [])
    if not isinstance(raw_entries, list):
        raise AlgebraFormatError("'brackets' must be a list")
    c = np.zeros((n, n, n))
    seen: set[tuple[int, int, int]] = set()
    for raw in raw_entries:
        what = f"bracket entry {raw!r}"
        if not isinstance(raw, list) or len(raw) != 4:
            raise AlgebraFormatError(f"malformed {what}")
        i, j, k = (_integer(x, f"index in {what}") for x in raw[:3])
        v = _finite(raw[3], f"value in {what}")
        for idx in (i, j, k):
            if idx < 1 or idx > n:
                raise AlgebraFormatError(
                    f"index out of range in {what}: {idx} not in 1..{n}"
                )
        if i >= j:
            raise AlgebraFormatError(f"{what} must have i < j")
        if (i, j, k) in seen:
            raise AlgebraFormatError(f"duplicate bracket entry ({i},{j},{k})")
        seen.add((i, j, k))
        c[i - 1, j - 1, k - 1] = v
        c[j - 1, i - 1, k - 1] = -v

    if doc.get("metric") is not None:
        try:
            G = np.asarray(doc["metric"], dtype=float)
        except (TypeError, ValueError):  # ragged rows or non-numbers
            G = None
        if G is None or G.shape != (n, n):
            raise AlgebraFormatError(f"metric must be {n}x{n}")
        if not np.all(np.isfinite(G)):
            raise AlgebraFormatError("'metric' entries must be finite")
        _check_metric(G)
    else:
        G = np.eye(n)

    hints = doc.get("hints") or {}
    if not isinstance(hints, dict):
        raise AlgebraFormatError("'hints' must be a JSON object")
    if hints.get("lambda") is not None:
        hints = {**hints, "lambda": _finite(hints["lambda"], "hints.lambda")}
    return MetricLieAlgebra(name=name, dim=n, c=c, metric=G, hints=hints)


def load_algebra(path) -> MetricLieAlgebra:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def algebra_hints(text: str) -> dict:
    """The optional hints object of a .alg document, validated."""
    return parse_algebra(text).hints


def _integer(value, what: str) -> int:
    # JSON true is an int to Python, and int() would truncate 3.7 to 3
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise AlgebraFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    # the bound also rejects NaN, and integers too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise AlgebraFormatError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def jacobi_residual(beta: np.ndarray) -> float:
    """Max-norm of [[x,y],z] + [[y,z],x] + [[z,x],y] over basis triples."""
    return worst_jacobi_triple(beta)[3]


def worst_jacobi_triple(beta: np.ndarray) -> tuple[int, int, int, float]:
    """The (i, j, k) triple (1-based) with the largest Jacobi violation."""
    jac = (
        np.einsum("ijp,pkm->ijkm", beta, beta)
        + np.einsum("jkp,pim->ijkm", beta, beta)
        + np.einsum("kip,pjm->ijkm", beta, beta)
    )
    flat = np.max(np.abs(jac), axis=-1)
    i, j, k = np.unravel_index(np.argmax(flat), flat.shape)
    return int(i) + 1, int(j) + 1, int(k) + 1, float(flat[i, j, k])


def validate_algebra(L) -> AlgebraDiagnostics:
    """Jacobi-identity diagnostics for a metric Lie algebra; the check
    is res <= JACOBI_TOL max|beta|^2, written so that it cannot overflow."""
    beta = L.bracket_tensor
    res, scale = jacobi_residual(beta), float(np.max(np.abs(beta)))
    return AlgebraDiagnostics(jacobi_residual=res,
                              ok=scale == 0 or res / scale <= JACOBI_TOL * scale)


def require_jacobi(L) -> None:
    """Raise AlgebraFormatError naming the worst triple when Jacobi fails."""
    if not validate_algebra(L).ok:
        i, j, k, res = worst_jacobi_triple(L.bracket_tensor)
        raise AlgebraFormatError(
            f"Jacobi identity violated at triple (e{i}, e{j}, e{k}): residual {res:.3e}"
        )


def orthonormal_frame(L: MetricLieAlgebra) -> MetricLieAlgebra:
    """The same algebra with its structure constants in a G-orthonormal basis.

    The basis change comes from the lower-triangular Cholesky factor
    G = L L^T, with new_a = sum_i (L^{-T})[i, a] old_i; the result has the
    identity metric and keeps the hints.  An algebra whose metric is
    already the identity is returned itself.
    """
    G = L.metric
    if _is_identity(G):
        return L
    _check_metric(G)
    low = np.linalg.cholesky(G)
    M = np.linalg.inv(low).T
    beta = L.bracket_tensor
    # <[new_a, new_b], new_c> with <old_m, new_c> = (G M)_{mc} = L_{mc};
    # contract i, then j, with M as matrix products on (n, n^2) reshapes
    n = L.dim
    c = (M.T @ (beta @ low).reshape(n, n * n)).reshape(n, n, n)
    c = (M.T @ c.transpose(1, 0, 2).reshape(n, n * n)).reshape(n, n, n)
    return replace(L, c=c.transpose(1, 0, 2), metric=np.eye(n))


def derivation_basis(L) -> list[np.ndarray]:
    """Orthonormal basis of the derivation algebra Der(g).

    Solves D[e_i,e_j] = [D e_i, e_j] + [e_i, D e_j] for all i < j as the
    null space of the linear map on n x n matrices that sends D to the
    defects, with singular-value thresholding at RANK_TOL relative to the
    largest singular value.  For abelian g every constraint vanishes and
    Der(g) = gl(n), returned as its standard basis.
    """
    beta = L.bracket_tensor
    n = beta.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    pairs = np.arange(iu.size)
    # A[p, k, a, b]: coefficient of D[a, b] in component k of the defect on
    # pair p = (i, j), i.e. sum_m beta[i,j,m] D[k,m]
    #   - sum_a beta[a,j,k] D[a,i] - sum_a beta[i,a,k] D[a,j]
    A = np.zeros((iu.size, n, n, n))
    diag = np.arange(n)
    A[:, diag, diag, :] = beta[iu, ju][:, None, :]
    A[pairs, :, :, iu] -= beta[:, ju, :].transpose(1, 2, 0)
    A[pairs, :, :, ju] -= beta[iu].transpose(0, 2, 1)
    A = A.reshape(-1, n * n)
    A = A[np.any(A != 0.0, axis=1)]
    if A.shape[0] == 0:
        return list(np.eye(n * n).reshape(n * n, n, n))
    # vh must be square to hold the whole null space, which takes full
    # matrices when fewer constraint rows than unknowns are left
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return [vh[r].reshape(n, n) for r in range(rank, n * n)]


def derivation_residual(L, D: np.ndarray) -> float:
    """Max violation of the derivation identity over basis pairs i < j."""
    beta = L.bracket_tensor
    lhs = np.einsum("ijm,km->ijk", beta, D)
    rhs = np.einsum("pi,pjk->ijk", D, beta) + np.einsum("pj,ipk->ijk", D, beta)
    diff = lhs - rhs
    iu = np.triu_indices(beta.shape[0], k=1)
    return float(np.max(np.abs(diff[iu]))) if iu[0].size else 0.0


def structure_profile(L) -> StructureProfile:
    """Nilpotency step and unimodularity."""
    beta = L.bracket_tensor
    # rank and trace decisions use the overall bracket scale, not the
    # (possibly numerically-zero) quantity at hand, so roundoff never revives
    # the series and the verdicts do not change when the brackets are scaled
    scale = float(np.max(np.abs(beta)))
    traces = np.einsum("ikk->i", beta)  # tr(ad e_i)
    step = _nilpotency_step(beta, scale)
    return StructureProfile(
        step=step,
        nilpotent=step > 0,
        unimodular=bool(np.max(np.abs(traces)) <= RANK_TOL * scale),
    )


def _nilpotency_step(beta: np.ndarray, scale: float) -> int:
    """Length of the lower central series, or 0 if it never reaches zero."""
    n = beta.shape[0]
    basis = np.eye(n)  # columns span C^m
    step = 0
    for _ in range(n + 1):
        step += 1
        # [g, C^m]: all [e_i, v] for v in the current span
        prods = np.einsum("ijm,jv->miv", beta, basis).reshape(n, -1)
        nxt = _column_span(prods, scale)
        if nxt.shape[1] == 0:
            return step
        if nxt.shape[1] >= basis.shape[1]:
            return 0  # stabilized at a nonzero ideal: not nilpotent
        basis = nxt
    return 0


def _column_span(A: np.ndarray, scale: float) -> np.ndarray:
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    cutoff = RANK_TOL * max(float(s[0]), scale)
    rank = int(np.sum(s > cutoff))
    return u[:, :rank]


def _is_identity(G: np.ndarray) -> bool:
    n = G.shape[0]
    return bool(np.array_equal(G, np.eye(n)))


def _check_metric(G: np.ndarray) -> None:
    if np.max(np.abs(G - G.T)) > 1e-12:
        raise MetricError("metric is not symmetric")
    if np.linalg.eigvalsh(G).min() <= 0:
        raise MetricError("metric is not positive definite")
