"""Curvature of a left-invariant metric.

The connection and the Riemann tensor take the structure constants
c[i,j,k] = <[e_i,e_j], e_k> of an orthonormal basis.  The connection comes
from the Koszul formula

    gamma[i,j,k] = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2,

and the Riemann tensor from R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z with R[i,j,k,l] = <R(e_i,e_j)e_k, e_l>, in two matrix
products (`_riemann`).  Ricci has one closed form, in any basis through the
inner product G and its inverse; `ricci_form` builds its metric-independent
part once per bracket tensor, and a flow evaluates the function it returns
on stacks of time-dependent metrics.  `curvature_summary` evaluates it at
G = I in an orthonormal frame and checks it against the contraction
sum_i R[i,j,k,i] on every call, so the Riemann kernel and the formula the
flow uses cross-check each other: the most likely bug class here is a sign
or index error.  Each kernel takes a stack of algebras of one dimension (a
leading axis on c or beta) as it takes one; a stacked summary has one row each.

Sign calibration: the bi-invariant metric on su(2) has sectional curvature
+1/4 and the Heisenberg algebra h3 has K(e1,e2) = -3/4, K(e1,e3) =
K(e2,e3) = +1/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ROUND_TOL, MetricLieAlgebra, require_in_range, within
from .errors import ContractionMismatch


@dataclass(frozen=True)
class RiemannTensor:
    """R[i,j,k,l] = <R(e_i,e_j)e_k, e_l>."""

    R: np.ndarray


@dataclass(frozen=True)
class CurvatureSummary:
    ric: np.ndarray  # Ricci endomorphism (= Ricci tensor, orthonormal frame)
    scal: float
    riemann: RiemannTensor
    cross_check_residual: float

    @property
    def dim(self) -> int:
        return self.ric.shape[-1]


def _gamma(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c - np.einsum("...jki->...ijk", c) + np.einsum("...kij->...ijk", c))


def _riemann(c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    # R[i,j,k,l] = A[j,k,i,l] - A[i,k,j,l] - c[i,j,m] gamma[m,k,l] with
    # A[j,k,i,l] = gamma[j,k,m] gamma[i,m,l]; stacked products, as OpenBLAS may
    # split one (n^2, n) x (n, n^2) product over threads, at a loss at this size
    n, batch = c.shape[-1], c.shape[:-3]  # one leading axis for any stack
    c, gamma = c.reshape(-1, n, n, n), gamma.reshape(-1, n, n, n)
    A = (gamma @ gamma.transpose(0, 2, 1, 3).reshape(-1, 1, n, n * n)).reshape(-1, n, n, n, n)
    R = (c @ gamma.reshape(-1, 1, n, n * n)).reshape(-1, n, n, n, n)
    np.subtract(A.transpose(0, 3, 1, 2, 4), R, out=R)
    R -= A.transpose(0, 1, 3, 2, 4)
    return R.reshape(*batch, n, n, n, n)


def ricci_form(beta: np.ndarray):
    """Ricci (0,2)-tensor in the basis of beta, as a function ric(G, A) of the
    inner product G and A = G^{-1}, which may carry leading batch axes; a
    stack of bracket tensors takes a stack of metrics, one per row.

    beta[i,j,m] are the bracket coefficients, [e_i, e_j] = beta[i,j,m] e_m.
    This is Besse's closed form (Einstein Manifolds, 7.38) with its sums over
    an orthonormal basis contracted by A, where Y = beta G and tau_x = beta_xkk:

        Ric_xy = -1/2 A^ij beta_xim G_mn beta_yjn + 1/4 A^ip A^jq Y_ijx Y_pqy
                 - 1/2 B_xy - 1/2 (U_xy + U_yx)

    with the Killing form B_xy = beta_xkm beta_ymk and U_xy = H^m Y_mxy, where
    H = A tau is the mean-curvature vector; B/2 and tau are built here, once,
    and B or U is left out where B or tau is zero, as both are for nilpotent
    algebras.  Every metric-dependent term comes from W[p,j,x] = A^pi Y_ijx
    and its transposed copy T[x,j,n] = W[j,x,n]: as beta and Y are
    antisymmetric in i and j, A^ij beta_xim G_mn = -T[x,j,n] in the first
    term, A^jq Y_pqy = -T[p,j,y] in the second, and U_xy = tau_p W[p,x,y].
    W is stored halved, which carries the 1/2 and 1/4 exactly.
    """
    n, stack = beta.shape[-1], beta.shape[:-3]
    rows, cols = beta.reshape(*stack, n, n * n), beta.reshape(*stack, n * n, n)
    half_killing = 0.5 * (rows @ beta.swapaxes(-2, -1).reshape(*stack, n, n * n).swapaxes(-2, -1))
    tau = beta.trace(axis1=-2, axis2=-1)
    killing, unimodular = bool(np.any(half_killing)), not np.any(tau)

    def ricci(G: np.ndarray, A: np.ndarray) -> np.ndarray:
        batch = G.shape[:-2] or stack
        W = 0.5 * (A @ (cols @ G).reshape(*batch, n, n * n))  # A^pi Y_ijx / 2 at [p,(j,x)]
        # T[x,(j,n)]; of one beta, one (batch n, n^2) product for the whole batch
        T = W.reshape(*batch, n, n, n).swapaxes(-3, -2).reshape(*stack, -1, n * n)
        ric = (T @ rows.swapaxes(-2, -1)).reshape(*batch, n, n)
        ric -= W.reshape(*batch, n * n, n).swapaxes(-1, -2) @ T.reshape(*batch, n * n, n)
        if killing:
            ric -= half_killing
        if not unimodular:
            U = (tau[..., None, :] @ W).reshape(*batch, n, n)
            ric -= U + U.swapaxes(-1, -2)
        return ric

    return ricci


def curvature_summary(F: MetricLieAlgebra) -> CurvatureSummary:
    """Assemble Ricci, scalar curvature, and the Riemann tensor of an
    algebra in an orthonormal frame.

    Raises the range error of `algebra.require_in_range` when a curvature
    quantity is not finite or max|c|^2 underflows, and ContractionMismatch
    when the closed-form Ricci and the Riemann contraction sum_i R[i,j,k,i]
    disagree beyond ROUND_TOL max|c|^2 (Ricci is quadratic in c), in any row.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        gamma = _gamma(F.c)
        R = _riemann(F.c, gamma)
        eye = np.eye(F.dim)
        ric = ricci_form(F.c)(eye, eye)
        contracted = np.einsum("...ijki->...jk", R)
        residual = np.max(np.abs(ric - contracted), axis=(-2, -1))
        scal = np.trace(ric, axis1=-2, axis2=-1)
    scale = np.max(np.abs(F.c), axis=(-3, -2, -1))
    # a NaN residual would pass the comparison below and reach a verdict
    require_in_range(("Riemann tensor", R), ("Ricci tensor", ric), ("scalar curvature", scal),
                     ("cross-check residual", residual), scale=scale)
    if not np.all(within(residual, ROUND_TOL, scale * scale)):
        raise ContractionMismatch(
            f"closed-form vs contracted Ricci residual {np.max(residual):.3e}"
        )
    return CurvatureSummary(ric, scal, RiemannTensor(R), residual)
