"""The tensor kernels of the verdict path against their index-form references.

Each kernel is checked on the catalog and on random solvable algebras of
dims 2..17 in random orthonormal bases, and on random arrays without any
symmetry, where a transposed index cannot hide behind one.  The flow's
Ricci kernel, prepared once per bracket tensor, does the arithmetic of its
per-call reference, so the two must agree exactly, under one metric and
stacks of random SPD metrics.  Agreement is
to 1e-13 of the kernel's scale: a bound on its entries from the max-norms
of its inputs.
"""

from dataclasses import replace

import numpy as np
import pytest

from solstab import algebra, catalog, curvature, stability

from conftest import conjugate_framed, framed, random_orthogonal, random_solvable, random_spd
from oracles import (
    derivation_defect_reference,
    jacobiator_reference,
    ricci_tensor_reference,
    riemann_reference,
    stability_form_reference,
)

TOL = 1e-13


def scale(*arrays):
    return float(np.prod([np.max(np.abs(a)) for a in arrays]))


def frames():
    """The catalog, the flat e(2), and random solvable algebras of dims 2..17
    in rotated bases."""
    rng = np.random.default_rng(7)
    out = [framed(name) for name in catalog.catalog_names()]
    e2 = algebra.parse_algebra('{"dim": 3, "brackets": [[1, 3, 2, 1.0], [2, 3, 1, -1.0]]}')
    out.append(replace(algebra.orthonormal_frame(e2), name="e2"))
    for n in range(2, 18):
        F = algebra.orthonormal_frame(random_solvable(rng, n))
        out.append(conjugate_framed(F, random_orthogonal(rng, n)))
    return out


FRAMES = frames()
IDS = [f"{F.name}-{F.dim}" for F in FRAMES]


def unstructured(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n, n)), rng.standard_normal((n, n, n))


def assert_close(got, want, unit):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= TOL * unit


@pytest.mark.parametrize("F", FRAMES, ids=IDS)
def test_riemann_matches_reference(F):
    gamma = curvature._gamma(F.c)
    got = curvature.curvature_summary(F).riemann.R
    assert_close(got, riemann_reference(F.c, gamma), scale(F.c) ** 2)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 17])
def test_riemann_matches_reference_without_symmetry(n):
    c, gamma = unstructured(n, n)
    got = curvature._riemann(c, gamma)
    assert_close(got, riemann_reference(c, gamma), n * (2 * scale(gamma) ** 2 + scale(c, gamma)))


def assert_ricci(beta, G):
    # the terms it leaves out are exactly zero, and the rest are unchanged
    A = np.linalg.inv(G)
    assert np.array_equal(curvature.ricci_form(beta)(G, A), ricci_tensor_reference(beta, G, A))


@pytest.mark.parametrize("F", FRAMES, ids=IDS)
def test_ricci_form_matches_reference(F):
    # nilpotent (no Killing or tau term), unimodular (su2, e(2): no tau term)
    # and not unimodular (solv4, random solvable), on an orthonormal and a
    # rotated bracket tensor
    rng = np.random.default_rng(400 + F.dim)
    for beta in (F.c, F.c @ random_spd(rng, F.dim, ())):
        assert_ricci(beta, np.eye(F.dim))
        for batch in ((), (1,), (4,), (2, 3)):
            assert_ricci(beta, random_spd(rng, F.dim, batch))


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_ricci_form_matches_reference_without_symmetry(n):
    beta, _ = unstructured(n, 500 + n)
    rng = np.random.default_rng(n)
    for batch in ((), (3,)):
        assert_ricci(beta, random_spd(rng, n, batch))


def assert_worst_triple(beta):
    ref = np.max(np.abs(jacobiator_reference(beta)), axis=-1)
    unit = beta.shape[0] * scale(beta) ** 2
    i, j, k, res = algebra.worst_jacobi_triple(beta)
    assert abs(res - ref.max()) <= TOL * unit
    assert ref[i - 1, j - 1, k - 1] >= ref.max() - TOL * unit
    n = beta.shape[0]
    diag = algebra.validate_algebra(algebra.MetricLieAlgebra("x", n, beta, np.eye(n)))
    assert (diag.jacobi_residual, diag.triple) == (res, (i, j, k))


@pytest.mark.parametrize("F", FRAMES, ids=IDS)
def test_jacobi_matches_reference(F):
    assert_worst_triple(F.c)


@pytest.mark.parametrize("n", [1, 3, 8, 16, 17])
def test_jacobi_matches_reference_without_symmetry(n):
    beta, _ = unstructured(n, 100 + n)
    assert_worst_triple(beta)
    assert_worst_triple(beta - beta.transpose(1, 0, 2))  # antisymmetric, not a Lie algebra


@pytest.mark.parametrize("F", FRAMES, ids=IDS)
def test_derivation_defect_matches_reference(F):
    rng = np.random.default_rng(F.dim)
    X = rng.standard_normal((F.dim, F.dim))
    got = algebra.derivation_defect(F.c, X)
    assert_close(got, derivation_defect_reference(F.c, X), 3 * F.dim * scale(F.c, X))
    assert np.array_equal(algebra.derivation_defect(F.c, np.eye(F.dim)), -F.c)
    # a stack of X gives delta of each slice, exactly
    stack = rng.standard_normal((2, 3, F.dim, F.dim))
    got = algebra.derivation_defect(F.c, stack)
    assert got.shape == (2, 3, F.dim, F.dim, F.dim)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], algebra.derivation_defect(F.c, stack[idx]))


@pytest.mark.parametrize("n", [1, 4, 16, 17])
def test_derivation_defect_matches_reference_without_symmetry(n):
    beta, X = unstructured(n, 200 + n)
    X = X[0]
    got = algebra.derivation_defect(beta, X)
    assert_close(got, derivation_defect_reference(beta, X), 3 * n * scale(beta, X))
    assert np.array_equal(algebra.derivation_defect(beta, np.eye(n)), -beta)


def assert_form(summary):
    n = summary.dim
    form = stability.stability_form(summary, stability.sym2_basis(n))
    S, S_Ro = stability_form_reference(summary.riemann.R, summary.ric)
    unit = n * n * (scale(summary.riemann.R) + scale(summary.ric))
    assert_close(form.S, S, unit)
    assert_close(form.S_Ro, S_Ro, unit)


@pytest.mark.parametrize("F", FRAMES, ids=IDS)
def test_stability_form_matches_reference(F):
    assert_form(curvature.curvature_summary(F))


@pytest.mark.parametrize("n", [1, 2, 7, 16, 17])
def test_stability_form_matches_reference_without_symmetry(n):
    rng = np.random.default_rng(300 + n)
    ric = rng.standard_normal((n, n))
    R = curvature.RiemannTensor(rng.standard_normal((n, n, n, n)))
    assert_form(curvature.CurvatureSummary(ric, float(np.trace(ric)), R, 0.0))


def test_sym2_basis_is_built_once_and_read_only():
    for n in (1, 4, 17):
        basis = stability.sym2_basis(n)
        assert stability.sym2_basis(n) is basis
        for table in (basis.pairs, basis.weights):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 2.0
        assert (basis.pairs[0, 0], basis.weights[0, 0]) == (0, 0.25)
