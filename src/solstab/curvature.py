"""Curvature of a left-invariant metric in an orthonormal frame.

All formulas take the structure constants c[i,j,k] = <[e_i,e_j], e_k> of an
orthonormal basis.  The connection comes from the Koszul formula

    gamma[i,j,k] = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2,

the Riemann tensor from R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z with R[i,j,k,l] = <R(e_i,e_j)e_k, e_l>, and the Ricci
endomorphism both in closed form and as the contraction sum_i R[i,j,k,i].
The two Ricci routes are kept as a permanent runtime cross-check: the most
likely bug class here is a sign or index error.

Sign calibration: the bi-invariant metric on su(2) has sectional curvature
+1/4 and the Heisenberg algebra h3 has K(e1,e2) = -3/4, K(e1,e3) =
K(e2,e3) = +1/4.

The private helpers accept stacked inputs (leading batch axes); the flow
module reuses them on time-dependent metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FramedAlgebra
from .errors import AlgebraFormatError, ContractionMismatch

CROSS_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class ConnectionCoefficients:
    """gamma[i,j,k] = <nabla_{e_i} e_j, e_k>."""

    gamma: np.ndarray


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


def _ricci_closed(c: np.ndarray) -> np.ndarray:
    ad = np.einsum("...imk->...ikm", c)
    traces = np.einsum("...ikk->...i", ad)  # coordinates of H
    B = np.einsum("...ikm,...jmk->...ij", ad, ad)
    U = np.einsum("...m,...mxy->...xy", traces, c)
    UT = np.einsum("...xy->...yx", U)
    return (
        -0.5 * np.einsum("...xik,...yik->...xy", c, c)
        + 0.25 * np.einsum("...ijx,...ijy->...xy", c, c)
        - 0.5 * B
        - 0.5 * (U + UT)
    )


def connection_coefficients(F: FramedAlgebra) -> ConnectionCoefficients:
    """Levi-Civita connection coefficients of the left-invariant metric."""
    return ConnectionCoefficients(gamma=_gamma(F.c))


def riemann_tensor(F: FramedAlgebra, gamma: ConnectionCoefficients) -> RiemannTensor:
    return RiemannTensor(R=_riemann(F.c, gamma.gamma))


def ricci_closed_form(F: FramedAlgebra) -> np.ndarray:
    """Ricci endomorphism from the standard left-invariant closed form.

    ric(X,Y) = -1/2 sum_i <[X,e_i],[Y,e_i]>
               + 1/4 sum_{ij} <[e_i,e_j],X><[e_i,e_j],Y>
               - 1/2 B(X,Y) - 1/2 (<[H,X],Y> + <[H,Y],X>)

    with B the Killing form and H the mean-curvature vector.  The last two
    terms vanish for nilpotent algebras.
    """
    return _ricci_closed(F.c)


def curvature_summary(F: FramedAlgebra) -> CurvatureSummary:
    """Assemble Ricci, scalar curvature, and the Riemann tensor.

    Raises AlgebraFormatError when a curvature quantity is not finite, and
    ContractionMismatch when the closed-form Ricci and the Riemann
    contraction sum_i R[i,j,k,i] disagree beyond CROSS_CHECK_TOL.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        gamma = _gamma(F.c)
        R = _riemann(F.c, gamma)
        ric = _ricci_closed(F.c)
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
    if residual > CROSS_CHECK_TOL:
        raise ContractionMismatch(
            f"closed-form vs contracted Ricci residual {residual:.3e}"
        )
    return CurvatureSummary(
        ric=ric,
        scal=float(np.trace(ric)),
        riemann=RiemannTensor(R=R),
        cross_check_residual=residual,
    )
