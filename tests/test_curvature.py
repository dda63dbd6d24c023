from dataclasses import replace

import numpy as np
import pytest

from solstab import algebra, catalog, curvature
from solstab.errors import ContractionMismatch

from conftest import conjugate_framed, framed, random_orthogonal, random_solvable


def riemann_symmetry_residual(R):
    return max(
        np.max(np.abs(R + np.einsum("jikl->ijkl", R))),
        np.max(np.abs(R + np.einsum("ijlk->ijkl", R))),
        np.max(np.abs(R - np.einsum("klij->ijkl", R))),
    )


def bianchi_residual(R):
    return np.max(
        np.abs(R + np.einsum("jkil->ijkl", R) + np.einsum("kijl->ijkl", R))
    )


def test_connection_abelian_vanishes():
    gamma = curvature._gamma(framed("abelian3").c)
    assert np.max(np.abs(gamma)) == 0.0


def test_connection_h3_values():
    gamma = curvature._gamma(framed("heisenberg3").c)
    assert gamma[0, 1, 2] == 0.5
    assert gamma[1, 0, 2] == -0.5
    assert gamma[0, 2, 1] == -0.5
    assert gamma[2, 0, 1] == -0.5
    assert gamma[1, 2, 0] == 0.5
    assert gamma[2, 1, 0] == 0.5


def test_connection_su2_is_half_epsilon():
    F = framed("su2")
    gamma = curvature._gamma(F.c)
    assert np.max(np.abs(gamma - 0.5 * F.c)) <= 1e-15


def test_connection_invariants():
    for name in catalog.catalog_names():
        F = framed(name)
        gamma = curvature._gamma(F.c)
        # metric compatibility and torsion-freeness
        assert np.max(np.abs(gamma + np.einsum("ikj->ijk", gamma))) <= 1e-12
        assert np.max(np.abs(gamma - np.einsum("jik->ijk", gamma) - F.c)) <= 1e-12


def test_riemann_abelian_flat():
    F = framed("abelian4")
    assert np.max(np.abs(curvature.curvature_summary(F).riemann.R)) == 0.0


def test_riemann_su2_sectional_quarter():
    F = framed("su2")
    R = curvature.curvature_summary(F).riemann.R
    for i in range(3):
        for j in range(3):
            if i != j:
                assert R[i, j, j, i] == pytest.approx(0.25, abs=1e-14)


def test_riemann_h3_sectional():
    F = framed("heisenberg3")
    R = curvature.curvature_summary(F).riemann.R
    assert R[0, 1, 1, 0] == pytest.approx(-0.75, abs=1e-14)
    assert R[0, 2, 2, 0] == pytest.approx(0.25, abs=1e-14)
    assert R[1, 2, 2, 1] == pytest.approx(0.25, abs=1e-14)


def test_ricci_closed_form_values():
    assert np.allclose(
        curvature.curvature_summary(framed("heisenberg3")).ric,
        np.diag([-0.5, -0.5, 0.5]),
        atol=1e-14,
    )
    assert np.allclose(
        curvature.curvature_summary(framed("su2")).ric, 0.5 * np.eye(3), atol=1e-14
    )
    assert np.max(np.abs(curvature.curvature_summary(framed("abelian3")).ric)) == 0.0


def test_curvature_summary_h3():
    s = curvature.curvature_summary(framed("heisenberg3"))
    assert np.allclose(s.ric, np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
    assert s.scal == pytest.approx(-0.5, abs=1e-14)
    assert s.cross_check_residual <= 1e-12


def test_curvature_summary_su2():
    s = curvature.curvature_summary(framed("su2"))
    assert np.allclose(s.ric, 0.5 * np.eye(3), atol=1e-14)
    assert s.scal == pytest.approx(1.5, abs=1e-14)


def test_curvature_summary_solv4_einstein():
    s = curvature.curvature_summary(framed("solv4"))
    assert np.allclose(s.ric, -1.5 * np.eye(4), atol=1e-12)


def test_summary_scal_is_trace():
    for name in catalog.catalog_names():
        s = curvature.curvature_summary(framed(name))
        assert s.scal == pytest.approx(float(np.trace(s.ric)), abs=1e-12)
        assert np.max(np.abs(s.ric - s.ric.T)) <= 1e-12


def test_random_solvable_cross_check(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        F = algebra.orthonormal_frame(random_solvable(rng, n))
        s = curvature.curvature_summary(F)
        assert s.cross_check_residual <= 1e-10
        R = s.riemann.R
        assert riemann_symmetry_residual(R) <= 1e-12 * max(1.0, np.max(np.abs(R)))
        assert bianchi_residual(R) <= 1e-12 * max(1.0, np.max(np.abs(R)))


def test_catalog_riemann_symmetries():
    for name in catalog.catalog_names():
        R = curvature.curvature_summary(framed(name)).riemann.R
        assert riemann_symmetry_residual(R) <= 1e-12, name
        assert bianchi_residual(R) <= 1e-12, name


def test_scal_invariant_under_orthogonal_frame_change(rng):
    for name in ("heisenberg3", "heisenberg5", "su2", "solv4"):
        F = framed(name)
        expected = curvature.curvature_summary(F).scal
        for _ in range(5):
            Q = random_orthogonal(rng, F.dim)
            got = curvature.curvature_summary(conjugate_framed(F, Q)).scal
            assert got == pytest.approx(expected, abs=1e-10), name


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e4, 1e6])
def test_cross_check_is_scale_free(rng, s):
    # a rotated solv4 carries round-off of order eps * s^2 in both Ricci routes
    F = conjugate_framed(framed("solv4"), random_orthogonal(rng, 4))
    summary = curvature.curvature_summary(replace(F, c=s * F.c))
    assert np.max(np.abs(summary.ric + 1.5 * s**2 * np.eye(4))) <= 1e-12 * s**2


def test_contraction_mismatch_raises():
    # deliberately corrupted structure constants are not antisymmetric and
    # break the convention the two Ricci routes share
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[2, 2, 0] = 0.7  # corruption
    F = algebra.MetricLieAlgebra("bad", 3, c, np.eye(3))
    with pytest.raises(ContractionMismatch):
        curvature.curvature_summary(F)
