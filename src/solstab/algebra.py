"""Metric Lie algebras from structure constants.

An algebra is read from a sparse list of bracket entries (i, j, k, c),
1-based with i < j, meaning <[e_i, e_j], e_k> = c, together with an inner
product G on the basis (identity by default), and held as its dense
structure tensor.  `load_algebra` is the one file reader; each rule of the
parse has one function: `_entry`, the one reader of every bracket entry,
`_check_metric` (the one factorization of G) of the metric, `validate_algebra`
of the Jacobi identity.  The module moves the tensor into an orthonormal
frame, computes the derivation defect delta and reports structural invariants
(step, unimodularity).  Der(g) is the null space of delta over the unit
matrices.  The Jacobiator and delta are matrix products on reshaped views;
they and the structure profile take a stack of algebras of one dimension
(`stack`) as well as one.  `take` reads rows, or a masked sub-stack, back out
of a stacked result, and `rows` reads every row of it at once, field by field.
It also holds every tolerance of the package, in one block of relative ones,
and the one range error (`require_in_range`) of every stage.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path

import numpy as np

from .errors import AlgebraFormatError, MetricError

MAX_DIM = 16
_NUMBERS = frozenset((int, float))  # JSON numbers; bool is a type of its own
_OUT_OF_RANGE = "structure constants out of floating-point range"
_TINY = np.finfo(float).tiny  # the least normal float

# Every tolerance of solstab, each relative.  A check accepts a residual r
# when within(r, TOL, unit**d).  The unit is max|c|^2 in the basis at hand,
# SolitonCertificate.scale once certified; it is |lambda| when c = 0 and for
# an Einstein certificate.  Ricci, curvature, lambda, D, q and the flow's
# defect are of degree d = 1 in it, tr ad and the singular values of maps
# linear in c of d = 1/2.  So no decision moves when the brackets are rescaled.
ROUND_TOL = 1e-10  # rounding: Jacobi, Ricci cross-check (d = 1); ranks, tr ad (d = 1/2)
CERT_TOL = 1e-8  # soliton and Einstein certificates, lambda = 0, extension guards, S = S^T (d = 1)
TIE_TOL = 1e-9  # a verdict margin, or a printed lambda or tr D, this close to 0 is 0 (d = 1)
DECAY_TOL = 1e-12  # a flow residual at or below this has decayed (d = 1)
JITTER_TOL = 1e-13  # a flow residual that rises by less than this is still monotone (d = 1)
METRIC_TOL = 1e-12  # asymmetry of an input metric G, in its own unit max|G| (d = 1)


def within(residual, tol: float, unit):
    """residual <= tol * unit, element-wise; the one comparison of every check.
    Dividing first is overflow-safe: an overflowed residual fails against an
    overflowed unit (inf / inf is NaN), and NaN always fails."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(unit, np.ndarray) and unit.ndim:  # one unit per row of a stack
            return np.where(unit != 0, residual / unit <= tol, residual <= 0)
        return residual / unit <= tol if unit else residual <= 0


def require_in_range(*quantities, scale: float = 0.0, lam: float = 0.0) -> None:
    """Raise AlgebraFormatError for the first (name, value) pair, in the order
    given, whose value is not finite, and when the unit is nonzero but below the
    normal floats, where a verdict would read zeros or divide by them: max|c|^2
    of max|c| = ``scale`` (of a stack, one per row), or |``lam``| where c = 0."""
    for quantity, value in quantities:
        if not np.isfinite(value).all():
            raise AlgebraFormatError(f"{quantity} is not finite ({_OUT_OF_RANGE})")
    if ((scale != 0) & (scale * scale < _TINY)).any():
        raise AlgebraFormatError(f"max|c|^2 underflows ({_OUT_OF_RANGE})")
    if ((scale == 0) & (lam != 0) & (abs(lam) < _TINY)).any():
        raise AlgebraFormatError(f"|lambda| underflows ({_OUT_OF_RANGE})")


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
        """Coefficients beta[i,j,m] with [e_i, e_j] = sum_m beta[i,j,m] e_m, the last
        index of the structure tensor raised with G^{-1} = M M^T (`_check_metric`);
        where that leaves the float range it is not finite, a range error."""
        if _is_identity(self.metric):
            return self.c
        M = _check_metric(self.metric)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.c @ (M @ M.swapaxes(-1, -2))[..., None, :, :]


def stack(algebras) -> MetricLieAlgebra:
    """Algebras of one dimension as one, with a leading stack axis on c and the
    metric, which the kernels take as they take one; a stack of one is itself."""
    return algebras[0] if len(algebras) == 1 else MetricLieAlgebra(
        ", ".join(L.name for L in algebras), algebras[0].dim,
        *map(np.stack, zip(*((L.c, L.metric) for L in algebras))))


def take(result, index=()):
    """The rows ``index`` (an integer, or a mask) of a result of a stack: a
    dataclass, nested ones included, whose arrays carry the stack axis.  A value
    of ndim 0 comes out a Python scalar, so take(result) of one algebra's
    result makes its numpy scalars Python ones."""
    def row(value):
        if isinstance(value, (np.ndarray, np.generic)):
            value = value[index]  # of an object array, a Python value
            return value.item() if getattr(value, "ndim", None) == 0 else value
        return take(value, index) if is_dataclass(value) else value
    return type(result)(**{name: row(value) for name, value in vars(result).items()})


def rows(result, count: int) -> list:
    """take(result, r) for each row r < count of a result of a stack, read
    column-wise: one tolist() or row view per field, not an index per row."""
    def column(value):
        if isinstance(value, np.ndarray):
            return value.tolist() if value.ndim == 1 else list(value)
        return rows(value, count) if is_dataclass(value) else [value] * count
    columns = {name: column(value) for name, value in vars(result).items()}
    return [type(result)(**dict(zip(columns, cells))) for cells in zip(*columns.values())]


@dataclass(frozen=True)
class StructureProfile:
    """Structural invariants: nilpotency step and unimodularity."""

    step: int  # lower-central-series length; 0 when not nilpotent
    nilpotent: bool
    unimodular: bool  # tr(ad X) = 0 for every X


def parse_algebra(text: str, default_name: str = "unnamed") -> MetricLieAlgebra:
    """Parse a .alg document (JSON) into a MetricLieAlgebra.

    Keys: name (optional text; ``default_name`` when absent or null), dim
    (integer), brackets (list of [i, j, k, value] with integer indices i < j,
    1-based, and finite values), metric (optional n x n row-major symmetric
    matrix of finite numbers), hints (optional object, e.g. {"lambda": -1.0}
    with a finite number).
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
    name = default_name if doc.get("name") is None else doc["name"]
    if not isinstance(name, str):
        raise AlgebraFormatError(f"'name' must be text, got {name!r}")

    raw_entries = doc.get("brackets", [])
    if not isinstance(raw_entries, list):
        raise AlgebraFormatError("'brackets' must be a list")
    c = _bracket_tensor(raw_entries, n)

    G = np.eye(n)
    if doc.get("metric") is not None:
        rows = doc["metric"]
        if type(rows) is not list or len(rows) != n or any(
                type(row) is not list or len(row) != n for row in rows):
            raise AlgebraFormatError(f"metric must be {n}x{n}")
        G = np.array([[_finite(x, "'metric' entry") for x in row] for row in rows])
        _check_metric(G)

    hints = {} if doc.get("hints") is None else doc["hints"]  # as for metric: absent or null
    if not isinstance(hints, dict):
        raise AlgebraFormatError("'hints' must be a JSON object")
    if hints.get("lambda") is not None:
        hints = {**hints, "lambda": _finite(hints["lambda"], "hints.lambda")}
    return MetricLieAlgebra(name=name, dim=n, c=c, metric=G, hints=hints)


def load_algebra(path) -> MetricLieAlgebra:
    """Read and parse one .alg file, named by its stem when it has no name; one
    unreadable or not UTF-8 text raises AlgebraFormatError like a malformed one."""
    try:
        text = (path := Path(path)).read_text(encoding="utf-8")
    except OSError as exc:
        raise AlgebraFormatError(exc.strerror) from None
    except UnicodeDecodeError:
        raise AlgebraFormatError("not UTF-8 text") from None
    return parse_algebra(text, path.stem)


def algebra_hints(text: str) -> dict:
    """The optional hints object of a .alg document, validated."""
    return parse_algebra(text).hints


def _bracket_tensor(entries: list, n: int) -> np.ndarray:
    """The dense structure tensor of a list of bracket entries, each read by `_entry`."""
    seen = set()
    a = np.array([_entry(raw, n, seen) for raw in entries], dtype=float).reshape(-1, 4)
    i, j, k = a[:, :3].T.astype(int) - 1
    c = np.zeros((n, n, n))
    c[i, j, k] = a[:, 3]
    c[j, i, k] = -a[:, 3]
    return c


def _entry(raw, n: int, seen: set) -> list:
    """One bracket entry as [i, j, k, value], its (i, j, k) added to ``seen``.
    One plain guard takes an entry with integer indices as it is; any other goes
    through the rules in order, raising for the first that fails: a list of 4,
    integer (or integral float) indices, a finite value, indices in 1..n, i < j,
    and (i, j, k) not in ``seen``, the entries before it."""
    if type(raw) is list and len(raw) == 4:
        i, j, k, value = raw
        if (type(i) is type(j) is type(k) is int and 0 < i < j <= n and 0 < k <= n
                and type(value) in _NUMBERS and abs(value) <= sys.float_info.max
                and (i, j, k) not in seen):
            seen.add((i, j, k))
            return raw
    what = f"bracket entry {raw!r}"
    if not isinstance(raw, list) or len(raw) != 4:
        raise AlgebraFormatError(f"malformed {what}")
    i, j, k = (_integer(x, f"index in {what}") for x in raw[:3])
    value = _finite(raw[3], f"value in {what}")
    for idx in (i, j, k):
        if idx < 1 or idx > n:
            raise AlgebraFormatError(f"index out of range in {what}: {idx} not in 1..{n}")
    if i >= j:
        raise AlgebraFormatError(f"{what} must have i < j")
    if (i, j, k) in seen:
        raise AlgebraFormatError(f"duplicate bracket entry ({i},{j},{k})")
    seen.add((i, j, k))
    return [i, j, k, value]


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


def worst_jacobi_triple(beta: np.ndarray):
    """The (i, j, k) triple (1-based, sorted: the Jacobiator of an antisymmetric
    beta is totally antisymmetric, so its six orders tie up to rounding) with the
    largest Jacobi violation, and that violation: the max-norm of [[x,y],z] +
    [[y,z],x] + [[z,x],y] over basis triples; of a stack, an array of each per row."""
    n, batch = beta.shape[-1], beta.shape[:-3]
    # X[i,j,k,m] = [[e_i,e_j],e_k]_m; the other two terms are X[j,k,i,m] and X[k,i,j,m]
    X = (beta @ beta.reshape(*batch, 1, n, n * n)).reshape(*batch, n, n, n, n)
    b = len(batch)
    jac = X + X.transpose(*range(b), b + 2, b, b + 1, b + 3)
    jac += X.transpose(*range(b), b + 1, b + 2, b, b + 3)
    jac = np.abs(jac, out=jac).reshape(*batch, n ** 4)
    at = jac.argmax(axis=-1)
    triple = np.sort(np.unravel_index(at, (n, n, n, n))[:3], axis=0) + 1
    return *triple, np.take_along_axis(jac, at[..., None], -1)[..., 0]


def validate_algebra(L) -> None:
    """The Jacobi identity, accepted up to ROUND_TOL max|beta|^2; of a stack, an
    AlgebraFormatError names the first failing row's worst triple as that row
    alone would, and a beta not finite is a range error.  The check runs on
    beta / 2^e with max|beta| = m 2^e, 1/2 <= m < 1: exact, so it cannot overflow."""
    beta = L.bracket_tensor
    m, e = np.frexp(np.max(np.abs(beta), axis=(-3, -2, -1)))
    require_in_range(("bracket tensor", m))  # m is finite exactly when beta is
    *triple, res = worst_jacobi_triple(np.ldexp(beta, -e[..., None, None, None]))
    ok = np.ravel(within(res, ROUND_TOL, m * m))
    if not ok.all():
        i, j, k, res, m = (np.ravel(x)[np.argmin(ok)] for x in (*triple, res, m))
        raise AlgebraFormatError(f"Jacobi identity violated at triple (e{i}, e{j}, e{k}): "
                                 f"relative residual {res / (m * m):.3e}")


def orthonormal_frame(L: MetricLieAlgebra) -> MetricLieAlgebra:
    """The same algebra with its structure constants in a G-orthonormal basis.

    The basis change comes from the lower-triangular Cholesky factor
    G = L L^T, with new_a = sum_i (L^{-T})[i, a] old_i; the result has the
    identity metric and keeps the hints.  An algebra whose metric is
    already the identity is returned itself.
    """
    if _is_identity(L.metric):
        return L
    M = _check_metric(L.metric)
    # <[new_a, new_b], new_c> = sum c[i,j,k] M[i,a] M[j,b] M[k,c]; contract
    # k, then i, then j, as matrix products on (n, n^2) reshapes
    n = L.dim
    with np.errstate(over="ignore", invalid="ignore"):  # a curvature-stage range error
        c = (M.T @ (L.c @ M).reshape(n, n * n)).reshape(n, n, n)
        c = (M.T @ c.transpose(1, 0, 2).reshape(n, n * n)).reshape(n, n, n)
    return replace(L, c=c.transpose(1, 0, 2), metric=np.eye(n))


def derivation_basis(L) -> list[np.ndarray]:
    """Orthonormal basis of the derivation algebra Der(g).

    Der(g) is the null space of delta (`derivation_defect`) restricted to
    the pairs i < j: its matrix has as column (a, b) delta of the unit
    matrix E_ab, and the null space is found with singular-value
    thresholding at ROUND_TOL relative to the largest singular value.  For
    abelian g every constraint vanishes and Der(g) = gl(n), returned as its
    standard basis.
    """
    beta = L.bracket_tensor
    n = beta.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    units = np.eye(n * n).reshape(n * n, n, n)  # E_ab
    # row (p, k): component k of delta on the pair p = (i, j)
    A = derivation_defect(beta, units)[:, iu, ju].reshape(n * n, -1).T
    A = A[np.any(A != 0.0, axis=1)]
    if A.shape[0] == 0:
        return list(np.eye(n * n).reshape(n * n, n, n))
    # vh must be square to hold the whole null space, which takes full
    # matrices when fewer constraint rows than unknowns are left
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.sum(~within(s, ROUND_TOL, s[0])))
    return [vh[r].reshape(n, n) for r in range(rank, n * n)]


def derivation_defect(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """delta(X)[i,j,k]: component k of X[e_i,e_j] - [X e_i, e_j] - [e_i, X e_j].

    X is a derivation exactly when delta(X) = 0.  delta is linear in X, and
    delta(I) = -beta.  X may carry leading batch axes, and beta a stack axis.
    """
    n, batch = beta.shape[-1], beta.shape[:-3]
    XT, shape = X.swapaxes(-1, -2), (*X.shape[:-2], n, n, n)
    first = (beta.reshape(*batch, n * n, n) @ XT).reshape(shape)  # X[e_i, e_j]
    second = (XT @ beta.reshape(*batch, n, n * n)).reshape(shape)  # [X e_i, e_j]
    third = (XT @ beta.swapaxes(-3, -2).reshape(*batch, n, n * n)).reshape(shape)
    return first - second - third.swapaxes(-3, -2)  # third[j, i] = [e_i, X e_j]


def structure_profile(L) -> StructureProfile:
    """Nilpotency step and unimodularity; of a stack, arrays with one of each
    per row, from one batched lower central series (`_nilpotency_step`)."""
    beta = L.bracket_tensor
    # rank and trace decisions use the overall bracket scale, not the
    # (possibly numerically-zero) quantity at hand, so roundoff never revives
    # the series and the verdicts do not change when the brackets are scaled
    scale = np.max(np.abs(beta), axis=(-3, -2, -1))
    traces = np.einsum("...ikk->...i", beta)  # tr(ad e_i)
    step = _nilpotency_step(beta.reshape(-1, *beta.shape[-3:]), scale.ravel()).reshape(scale.shape)
    return take(StructureProfile(step=step, nilpotent=step > 0, unimodular=within(
        np.max(np.abs(traces), axis=-1), ROUND_TOL, scale)))


def _nilpotency_step(beta: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Length of the lower central series of each row of a stack, or 0 where it
    never reaches zero.  Each step is one batched SVD over the rows still live,
    their bases of C^m zero-padded to the widest; a row leaves when its rank
    reaches 0 or stops shrinking, so every row leaves within n + 1 steps."""
    n = beta.shape[-1]
    ad = beta.transpose(0, 3, 1, 2).reshape(-1, n * n, n)  # ad[m*n + i, j] = beta[i,j,m]
    steps, live, scale = np.zeros(len(beta), int), np.arange(len(beta)), scale[:, None]
    basis, width = np.eye(n), n  # columns span C^m; its rank
    for step in itertools.count(1):
        # [g, C^m]: all [e_i, v] for v in the current span, and its rank
        u, s, _ = np.linalg.svd((ad @ basis).reshape(len(ad), n, -1), full_matrices=False)
        big = ~within(s, ROUND_TOL, np.maximum(s[:, :1], scale))  # a prefix of s
        rank = big.sum(axis=1)
        go = (rank > 0) & (rank < width)  # rank >= width: a nonzero ideal, not nilpotent
        if not go.all():  # rows leave
            steps[live[rank == 0]] = step
            if not go.any():
                return steps
            live, ad, scale, u, big, rank = live[go], ad[go], scale[go], u[go], big[go], rank[go]
        width, top = rank, rank.max()
        basis = u[:, :, :top] * big[:, None, :top]  # zero past each row's rank


def _is_identity(G: np.ndarray) -> bool:  # every metric of a stack
    return bool((G == np.eye(G.shape[-1])).all())


def _check_metric(G: np.ndarray) -> np.ndarray:
    """M = L^{-T} of the Cholesky factor G = L L^T, so G^{-1} = M M^T: the one
    factorization of a metric, or of a stack of them.  G is positive definite
    when it and its inverse succeed and the least eigenvalue is > 0."""
    if not within(np.max(np.abs(G - G.swapaxes(-1, -2))), METRIC_TOL, np.max(np.abs(G))):
        raise MetricError("metric is not symmetric")
    try:
        M = np.linalg.inv(np.linalg.cholesky(G)).swapaxes(-1, -2)
        if np.linalg.eigvalsh(G).min() > 0:
            return M
    except np.linalg.LinAlgError:
        pass
    raise MetricError("metric is not positive definite")
