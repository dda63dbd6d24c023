"""Curvature of a left-invariant metric.

The connection and the Riemann tensor take the structure constants
c[i,j,k] = <[e_i,e_j], e_k> of an orthonormal basis.  The connection comes
from the Koszul formula

    gamma[i,j,k] = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2,

and the Riemann tensor from R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z with R[i,j,k,l] = <R(e_i,e_j)e_k, e_l>.  Ricci has one
closed form, `ricci_tensor`, written in any basis through the inner product
G and its inverse; the flow evaluates it on stacks of time-dependent
metrics.  `curvature_summary` evaluates it at G = I in an orthonormal frame
and checks it against the contraction sum_i R[i,j,k,i] on every call, so the
formula the flow uses is cross-checked too: the most likely bug class here
is a sign or index error.

Sign calibration: the bi-invariant metric on su(2) has sectional curvature
+1/4 and the Heisenberg algebra h3 has K(e1,e2) = -3/4, K(e1,e3) =
K(e2,e3) = +1/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import MetricLieAlgebra
from .errors import AlgebraFormatError, ContractionMismatch

CROSS_CHECK_TOL = 1e-10


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
        return self.ric.shape[0]


def _gamma(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c - np.einsum("...jki->...ijk", c) + np.einsum("...kij->...ijk", c))


def _riemann(c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    return (
        np.einsum("...jkm,...iml->...ijkl", gamma, gamma)
        - np.einsum("...ikm,...jml->...ijkl", gamma, gamma)
        - np.einsum("...ijm,...mkl->...ijkl", c, gamma)
    )


def ricci_tensor(beta: np.ndarray, G: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Ricci (0,2)-tensor of the inner product G in the basis of beta.

    beta[i,j,m] are the bracket coefficients, [e_i, e_j] = beta[i,j,m] e_m,
    and A = G^{-1}; G and A may carry leading batch axes.  This is Besse's
    closed form (Einstein Manifolds, 7.38) with its sums over an orthonormal
    basis contracted by A, where Y = beta G and tau_x = beta_xkk:

        Ric_xy = -1/2 A^ij beta_xim G_mn beta_yjn + 1/4 A^ip A^jq Y_ijx Y_pqy
                 - 1/2 B_xy - 1/2 (U_xy + U_yx)

    with the Killing form B_xy = beta_xkm beta_ymk and U_xy = H^m Y_mxy, where
    H = A tau is the mean-curvature vector; the last two terms vanish for
    nilpotent algebras.  Every metric-dependent term comes from
    W[p,j,x] = A^pi Y_ijx and its transposed copy T[x,j,n] = W[j,x,n]: as beta
    and Y are antisymmetric in i and j, A^ij beta_xim G_mn = -T[x,j,n] in the
    first term, A^jq Y_pqy = -T[p,j,y] in the second, and U_xy = tau_p W[p,x,y].
    W is stored halved, which carries the 1/2 and 1/4 exactly.
    """
    n = beta.shape[-1]
    batch = G.shape[:-2]
    rows = beta.reshape(n, n * n)
    Y = (beta.reshape(n * n, n) @ G).reshape(*batch, n, n * n)  # <[e_i,e_j], e_x>
    W = 0.5 * (A @ Y)  # A^pi Y_ijx / 2 at [p,(j,x)]
    T = W.reshape(*batch, n, n, n).swapaxes(-3, -2).reshape(-1, n * n)  # [x,(j,n)]
    first = (T @ rows.T).reshape(*batch, n, n)
    second = W.reshape(*batch, n * n, n).swapaxes(-1, -2) @ T.reshape(*batch, n * n, n)
    killing = rows @ beta.transpose(0, 2, 1).reshape(n, n * n).T
    U = (beta.trace(axis1=1, axis2=2) @ W).reshape(*batch, n, n)
    return first - second - 0.5 * killing - (U + U.swapaxes(-1, -2))


def curvature_summary(F: MetricLieAlgebra) -> CurvatureSummary:
    """Assemble Ricci, scalar curvature, and the Riemann tensor of an
    algebra in an orthonormal frame.

    Raises AlgebraFormatError when a curvature quantity is not finite, and
    ContractionMismatch when the closed-form Ricci and the Riemann
    contraction sum_i R[i,j,k,i] disagree beyond CROSS_CHECK_TOL max|c|^2
    (Ricci is quadratic in c), written so that it cannot overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        gamma = _gamma(F.c)
        R = _riemann(F.c, gamma)
        eye = np.eye(F.dim)
        ric = ricci_tensor(F.c, eye, eye)
        contracted = np.einsum("ijki->jk", R)
        residual = float(np.max(np.abs(ric - contracted)))
    # a NaN residual would pass the comparison below and reach a verdict
    for quantity, value in (("Riemann tensor", R), ("Ricci tensor", ric),
                            ("cross-check residual", residual)):
        if not np.all(np.isfinite(value)):
            raise AlgebraFormatError(
                f"curvature stage: {quantity} is not finite "
                "(structure constants out of floating-point range)"
            )
    scale = float(np.max(np.abs(F.c)))
    if scale != 0 and not residual / scale <= CROSS_CHECK_TOL * scale:
        raise ContractionMismatch(
            f"closed-form vs contracted Ricci residual {residual:.3e}"
        )
    return CurvatureSummary(
        ric=ric,
        scal=float(np.trace(ric)),
        riemann=RiemannTensor(R=R),
        cross_check_residual=residual,
    )
