import json
from dataclasses import replace

import numpy as np
import pytest

from solstab import algebra, catalog, curvature, soliton
from solstab.errors import AlgebraFormatError, MetricError

from conftest import (
    conjugate_framed,
    framed,
    heisenberg15,
    random_orthogonal,
    random_solvable,
)
from oracles import derivation_projector

H3_TEXT = json.dumps({"name": "h3", "dim": 3, "brackets": [[1, 2, 3, 1.0]]})


def test_parse_h3():
    L = algebra.parse_algebra(H3_TEXT)
    assert L.dim == 3
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    assert np.array_equal(L.c, c)
    assert np.array_equal(L.metric, np.eye(3))


def test_parse_gives_exactly_antisymmetric_tensor(rng):
    entries = [[i, j, k, float(rng.standard_normal())]
               for i in range(1, 6) for j in range(i + 1, 6) for k in range(1, 6)]
    L = algebra.parse_algebra(json.dumps({"dim": 5, "brackets": entries}))
    assert np.array_equal(L.c, -L.c.transpose(1, 0, 2))
    assert [L.c[i - 1, j - 1, k - 1] for i, j, k, _ in entries] == [v for *_, v in entries]


def test_parse_abelian_empty_brackets():
    L = algebra.parse_algebra(json.dumps({"dim": 2, "brackets": []}))
    assert L.dim == 2
    assert L.c.shape == (2, 2, 2)
    assert np.max(np.abs(L.bracket_tensor)) == 0.0


def test_parse_index_out_of_range():
    doc = json.dumps({"dim": 3, "brackets": [[1, 2, 5, 1.0]]})
    with pytest.raises(AlgebraFormatError, match="index out of range"):
        algebra.parse_algebra(doc)


def test_parse_duplicate_entry():
    doc = json.dumps({"dim": 3, "brackets": [[1, 2, 3, 1.0], [1, 2, 3, 2.0]]})
    with pytest.raises(AlgebraFormatError, match="duplicate"):
        algebra.parse_algebra(doc)


def test_parse_requires_i_less_than_j():
    doc = json.dumps({"dim": 3, "brackets": [[2, 1, 3, 1.0]]})
    with pytest.raises(AlgebraFormatError, match="i < j"):
        algebra.parse_algebra(doc)


def test_parse_malformed_json():
    with pytest.raises(AlgebraFormatError, match="malformed"):
        algebra.parse_algebra("{not json")


def test_parse_rejects_bad_metric():
    doc = {"dim": 2, "brackets": [], "metric": [[1.0, 2.0], [2.0, 1.0]]}
    with pytest.raises(MetricError):
        algebra.parse_algebra(json.dumps(doc))
    doc["metric"] = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(MetricError):
        algebra.parse_algebra(json.dumps(doc))


def test_validate_h3_and_su2():
    for name in ("heisenberg3", "su2"):
        diag = algebra.validate_algebra(catalog.load(name))
        assert diag.ok
        assert diag.jacobi_residual == 0.0


def test_validate_broken_jacobi():
    # [e1,e3] mapped onto e1 makes the cyclic Jacobi sum for (1,2,3) nonzero
    doc = json.dumps(
        {"dim": 3, "brackets": [[1, 2, 3, 1.0], [1, 3, 1, 1.0], [2, 3, 1, 1.0]]}
    )
    diag = algebra.validate_algebra(algebra.parse_algebra(doc))
    assert not diag.ok
    assert diag.jacobi_residual > 0.1


NOT_LIE = [[1, 2, 3, 1.0], [1, 3, 4, 1.0], [2, 4, 1, 1.0]]  # fails Jacobi at (e1, e2, e3)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e4, 1e6])
def test_jacobi_check_is_scale_free(rng, s):
    doc = {"dim": 4, "brackets": [[i, j, k, s * v] for i, j, k, v in NOT_LIE]}
    assert not algebra.validate_algebra(algebra.parse_algebra(json.dumps(doc))).ok
    # a rotated solv4 carries round-off of order eps * s^2 in its residual
    F = conjugate_framed(framed("solv4"), random_orthogonal(rng, 4))
    scaled = replace(F, c=s * F.c)
    assert algebra.validate_algebra(scaled).ok


def test_validate_catalog():
    for name in catalog.catalog_names():
        assert algebra.validate_algebra(catalog.load(name)).ok, name


def test_orthonormal_frame_identity_metric_bitwise():
    # the algebra itself, not a copy: a transposed view from the general
    # path would change the summation order of every later contraction
    L = catalog.load("heisenberg3")
    assert algebra.orthonormal_frame(L) is L


def test_orthonormal_frame_general_metric_keeps_hints(rng):
    G = rng.standard_normal((3, 3))
    doc = {"dim": 3, "brackets": [[1, 2, 3, 1.0]], "metric": (G @ G.T + np.eye(3)).tolist(),
           "hints": {"lambda": -1.5, "note": "kept"}}
    L = algebra.parse_algebra(json.dumps(doc))
    F = algebra.orthonormal_frame(L)
    assert np.array_equal(F.metric, np.eye(3))
    assert F.hints == L.hints and F.name == L.name
    assert algebra.orthonormal_frame(F) is F


def test_orthonormal_frame_abelian_scaled_metric():
    doc = {"dim": 3, "brackets": [], "metric": [[4, 0, 0], [0, 1, 0], [0, 0, 1]]}
    F = algebra.orthonormal_frame(algebra.parse_algebra(json.dumps(doc)))
    assert np.max(np.abs(F.c)) == 0.0


@pytest.mark.parametrize("t", [0.25, 2.0, 9.0])
def test_orthonormal_frame_h3_diagonal_metric(t):
    # e1 -> sqrt(t) * new_e1 rescales the single structure constant by t^(-1/2)
    doc = {
        "name": "h3t",
        "dim": 3,
        "brackets": [[1, 2, 3, 1.0]],
        "metric": [[t, 0, 0], [0, 1, 0], [0, 0, 1]],
    }
    F = algebra.orthonormal_frame(algebra.parse_algebra(json.dumps(doc)))
    assert F.c[0, 1, 2] == pytest.approx(t ** -0.5, abs=1e-14)
    assert algebra.jacobi_residual(F.c) <= 1e-10


def test_orthonormal_frame_preserves_jacobi(rng):
    # bracket entries are metric-relative (<[e_i,e_j], e_k> w.r.t. G), so the
    # entries for the same underlying algebra must have the index lowered by G
    for n in (3, 4, 5):
        L = random_solvable(rng, n)
        G = rng.standard_normal((n, n))
        G = G @ G.T + n * np.eye(n)
        L = replace(L, c=np.einsum("ijm,mk->ijk", L.bracket_tensor, G), metric=G)
        assert algebra.jacobi_residual(L.bracket_tensor) <= 1e-12
        F = algebra.orthonormal_frame(L)
        assert algebra.jacobi_residual(F.c) <= 1e-10


def test_derivation_basis_abelian_r2():
    L = algebra.parse_algebra(json.dumps({"dim": 2, "brackets": []}))
    basis = algebra.derivation_basis(L)
    assert len(basis) == 4


def test_derivation_basis_h3():
    L = catalog.load("heisenberg3")
    basis = algebra.derivation_basis(L)
    assert len(basis) == 6
    # diag(1,1,2) must lie in the span
    target = np.diag([1.0, 1.0, 2.0]).ravel()
    A = np.column_stack([d.ravel() for d in basis])
    coef, *_ = np.linalg.lstsq(A, target, rcond=None)
    assert np.max(np.abs(A @ coef - target)) <= 1e-10
    for D in basis:
        assert algebra.derivation_residual(L, D) <= 1e-10


def test_derivation_basis_su2():
    L = catalog.load("su2")
    basis = algebra.derivation_basis(L)
    assert len(basis) == 3  # semisimple: inner derivations only
    for D in basis:
        assert algebra.derivation_residual(L, D) <= 1e-10


def test_derivation_basis_affine_plane():
    # [e1, e2] = e2 gives fewer constraint rows (2) than unknowns (4), so the
    # null space must come from a full set of right singular vectors
    L = algebra.parse_algebra(json.dumps({"dim": 2, "brackets": [[1, 2, 2, 1.0]]}))
    basis = algebra.derivation_basis(L)
    assert len(basis) == 2  # Der = ad(g) for this algebra
    for D in basis:
        assert algebra.derivation_residual(L, D) <= 1e-10


def _scaled_h3(t):
    return algebra.parse_algebra(json.dumps({"dim": 3, "brackets": [[1, 2, 3, t]]}))


def test_derivation_basis_matches_row_by_row_assembly(rng):
    # (frame, abelian?) pairs; the abelian ones have no nonzero constraint row
    cases = [(framed(name), name.startswith("abelian")) for name in catalog.catalog_names()]
    cases += [
        (algebra.orthonormal_frame(heisenberg15()), False),
        (conjugate_framed(framed("solv4"), random_orthogonal(rng, 4)), False),
        (algebra.orthonormal_frame(random_solvable(rng, 5)), False),
        (algebra.orthonormal_frame(_scaled_h3(1e-6)), False),
        (algebra.orthonormal_frame(_scaled_h3(1e6)), False),
        (algebra.orthonormal_frame(algebra.parse_algebra('{"dim": 1}')), True),
        (algebra.orthonormal_frame(algebra.parse_algebra(json.dumps(
            {"dim": 4, "metric": np.diag([1.0, 2.0, 3.0, 4.0]).tolist()}))), True),
    ]
    for F, abelian in cases:
        ders = algebra.derivation_basis(F)
        P = sum(np.outer(d.ravel(), d.ravel()) for d in ders)
        assert np.max(np.abs(P - derivation_projector(F.c))) <= 1e-12, F.name
        cert = soliton.solve_algebraic_soliton(F, curvature.curvature_summary(F), ders)
        assert cert.degenerate is abelian, F.name


def test_derivation_space_closed_under_commutator():
    for name in ("heisenberg3", "heisenberg5", "su2", "solv4"):
        L = catalog.load(name)
        basis = algebra.derivation_basis(L)
        if not basis:
            continue
        A = np.column_stack([d.ravel() for d in basis])
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                comm = (basis[i] @ basis[j] - basis[j] @ basis[i]).ravel()
                coef, *_ = np.linalg.lstsq(A, comm, rcond=None)
                assert np.max(np.abs(A @ coef - comm)) <= 1e-8, name


def test_structure_profile_h3():
    p = algebra.structure_profile(catalog.load("heisenberg3"))
    assert p.step == 2
    assert p.nilpotent and p.unimodular


def test_structure_profile_abelian():
    p = algebra.structure_profile(catalog.load("abelian4"))
    assert p.step == 1
    assert p.nilpotent and p.unimodular


def test_structure_profile_su2_not_nilpotent():
    p = algebra.structure_profile(catalog.load("su2"))
    assert p.step == 0
    assert not p.nilpotent
    assert p.unimodular


def test_structure_profile_solv4():
    # rank-one extension of h3: solvable, not nilpotent, not unimodular, at
    # every bracket scale (tr ad is compared with the scale of the brackets)
    L = catalog.load("solv4")
    for s in (1.0, 1e-13, 1e-20, 1e6):
        scaled = replace(L, c=s * L.c)
        p = algebra.structure_profile(scaled)
        assert p.step == 0, s
        assert not p.nilpotent, s
        assert not p.unimodular, s


def test_nilpotent_profiles_are_unimodular():
    for name in ("abelian2", "abelian3", "abelian4", "heisenberg3", "heisenberg5"):
        p = algebra.structure_profile(catalog.load(name))
        assert p.nilpotent, name
        assert p.unimodular, name


def test_step_invariant_under_orthogonal_basis_change(rng):
    from conftest import conjugate_framed

    for name in ("heisenberg3", "heisenberg5", "su2", "solv4"):
        F = framed(name)
        expected = algebra.structure_profile(F).step
        Q = random_orthogonal(rng, F.dim)
        assert algebra.structure_profile(conjugate_framed(F, Q)).step == expected


def test_worst_jacobi_triple_names_violation():
    doc = json.dumps(
        {"dim": 3, "brackets": [[1, 2, 3, 1.0], [1, 3, 1, 1.0], [2, 3, 1, 1.0]]}
    )
    L = algebra.parse_algebra(doc)
    i, j, k, res = algebra.worst_jacobi_triple(L.bracket_tensor)
    assert (i, j, k) == (1, 2, 3)
    assert res > 0.1
