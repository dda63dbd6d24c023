import json
import sys
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
from oracles import bracket_tensor_reference, derivation_projector

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


DENSE8 = [[i, j, k, 0.5 * k] for i in range(1, 9) for j in range(i + 1, 9) for k in range(1, 9)]


@pytest.mark.parametrize(
    "bad, message",
    [
        ([7, 8, 3], "malformed bracket entry [7, 8, 3]"),
        ("7 8 3 1", "malformed bracket entry '7 8 3 1'"),
        ([7, 8.5, 3, 1.0], "index in bracket entry [7, 8.5, 3, 1.0] must be an integer, got 8.5"),
        ([7, False, 3, 1.0], "index in bracket entry [7, False, 3, 1.0] must be an integer, got False"),
        ([7, 8, 3, None], "value in bracket entry [7, 8, 3, None] must be a finite number, got None"),
        ([7, 8, 3, 10**400], "value in bracket entry [7, 8, 3, 1" + "0" * 400 + "] must be a finite"),
        ([7, 8, 10**400, 1.0], "index out of range in bracket entry [7, 8, 1" + "0" * 400 + ", 1.0]"),
        ([7, 8, 9, 1.0], "index out of range in bracket entry [7, 8, 9, 1.0]: 9 not in 1..8"),
        ([0, 8, 3, 1.0], "index out of range in bracket entry [0, 8, 3, 1.0]: 0 not in 1..8"),
        ([8, 7, 3, 1.0], "bracket entry [8, 7, 3, 1.0] must have i < j"),
        ([7, 7, 3, 1.0], "bracket entry [7, 7, 3, 1.0] must have i < j"),
        ([2.0, 5, 3.0, -1], "duplicate bracket entry (2,5,3)"),
        ([7, 8, 3, float("inf")], "value in bracket entry [7, 8, 3, inf] must be a finite number, got inf"),
        ([7, 8, 3, float("nan")], "value in bracket entry [7, 8, 3, nan] must be a finite number, got nan"),
        ([7, 8, 3, True], "value in bracket entry [7, 8, 3, True] must be a finite number, got True"),
    ],
    ids=["short", "text", "fraction", "bool", "null", "huge-value", "huge-index", "range",
         "zero", "order", "diagonal", "duplicate", "infinite-value", "nan-value", "true-value"],
)
def test_parse_names_the_last_entry_of_a_dense_list(bad, message):
    entries = DENSE8[:-1] + [bad]  # 224 entries, every (i < j, k) of dim 8 but the last
    with pytest.raises(AlgebraFormatError) as info:
        algebra.parse_algebra(json.dumps({"dim": 8, "brackets": entries}))
    assert str(info.value).startswith(message)
    # an earlier bad entry is the one named
    entries[100] = [3, 2, 1, 1.0]
    with pytest.raises(AlgebraFormatError, match=r"^bracket entry \[3, 2, 1, 1.0\] must have i < j$"):
        algebra.parse_algebra(json.dumps({"dim": 8, "brackets": entries}))


_FLOAT_MAX = sys.float_info.max
# one bad cell each; the last is an integer past the float range that rounds down to it
_BAD_CELLS = [True, False, "1", None, [1], {}, float("nan"), float("inf"), -float("inf"),
              10**400, -10**400, 2.5, 0, -1, 99, int(_FLOAT_MAX) + 2**969 - 1]
_BAD_ENTRIES = [[1, 2, 3], [1, 2, 3, 1.0, 1.0], [], "1 2 3 1", None, 5, {}]


def _fuzzed_entries(rng, n):
    """A dense or sparse bracket list of dim n with up to three faults of any
    kind, as json.loads would give it."""
    triples = [[i, j, k] for i in range(1, n + 1) for j in range(i + 1, n + 1)
               for k in range(1, n + 1)]
    if rng.random() < 0.5 and triples:  # sparse
        triples = [triples[t] for t in rng.choice(len(triples), rng.integers(len(triples)))]
    entries = [[*t, float(rng.standard_normal()) if rng.random() < 0.8 else int(rng.integers(-3, 4))]
               for t in triples]
    for fault in rng.integers(6, size=rng.integers(4)):
        if not entries:
            break
        e = int(rng.integers(len(entries)))
        good = isinstance(entries[e], list) and len(entries[e]) == 4
        if fault == 0:  # a bad entry
            entries[e] = _BAD_ENTRIES[rng.integers(len(_BAD_ENTRIES))]
        elif fault == 1 and good:  # a bad cell
            entries[e][rng.integers(4)] = _BAD_CELLS[rng.integers(len(_BAD_CELLS))]
        elif fault == 2 and good:  # i > j, or i = j
            entries[e][:2] = entries[e][1::-1] if rng.random() < 0.5 else entries[e][:1] * 2
        elif fault == 3 and good:  # a repeat later on, its cells floats or not
            cells = [float(x) if rng.random() < 0.5 and type(x) is int and abs(x) < 2**53 else x
                     for x in entries[e]]
            entries.insert(int(rng.integers(e + 1, len(entries) + 1)), cells)
        elif fault == 4 and good:  # the largest float as a value
            entries[e][3] = _FLOAT_MAX * rng.choice([-1.0, 1.0])
        elif fault == 5:  # an entry dropped
            del entries[e]
    return json.loads(json.dumps(entries))


def _parsed(parse, entries, n):
    try:
        return parse(entries, n), None
    except AlgebraFormatError as exc:
        return None, str(exc)


def test_parser_matches_its_column_by_column_reference():
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        entries = _fuzzed_entries(rng, n)
        c, message = _parsed(algebra._bracket_tensor, entries, n)
        want, want_message = _parsed(bracket_tensor_reference, entries, n)
        assert message == want_message, entries
        if want is not None:
            assert np.array_equal(c, want) and np.array_equal(np.signbit(c), np.signbit(want))
        seen.add(message.split(" ")[0] if message else "ok")
    # every kind of outcome came up: a tensor, and each kind of message
    assert seen == {"ok", "malformed", "index", "value", "bracket", "duplicate"}


def test_entry_reader_gives_the_accepted_tensor():
    # the guard of `_entry` takes exactly the entries of a valid list that
    # have integer indices, as they are; with each index written as a float
    # (2 -> 2.0) it takes none, and the ordered rules read the same tensor,
    # signed zeros too
    rng = np.random.default_rng(22)
    valid = 0
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        entries = _fuzzed_entries(rng, n)
        want, message = _parsed(algebra._bracket_tensor, entries, n)
        if message is not None:
            continue
        valid += 1
        floats = [[float(i), float(j), float(k), value] for i, j, k, value in entries]
        seen, seen_floats = set(), set()
        for raw in entries:
            assert (algebra._entry(raw, n, seen) is raw) == (set(map(type, raw[:3])) == {int})
        assert not any(algebra._entry(raw, n, seen_floats) is raw for raw in floats)
        c = algebra._bracket_tensor(floats, n)
        assert np.array_equal(c, want) and np.array_equal(np.signbit(c), np.signbit(want))
    assert valid == 1132


def test_parse_accepts_integral_float_indices_and_integer_values():
    ints = algebra.parse_algebra(json.dumps({"dim": 8, "brackets": DENSE8}))
    floats = [[float(i), float(j), float(k), v] for i, j, k, v in DENSE8]
    floats[0][3] = 0  # [1.0, 2.0, 1.0, 0], an integer value
    c = algebra.parse_algebra(json.dumps({"dim": 8, "brackets": floats})).c
    want = ints.c.copy()
    want[0, 1, 0], want[1, 0, 0] = 0.0, -0.0
    assert np.array_equal(c, want)
    assert ints.c[6, 7, 7] == 4.0 and ints.c[7, 6, 7] == -4.0


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
        L = catalog.load(name)
        algebra.validate_algebra(L)
        assert algebra.worst_jacobi_triple(L.bracket_tensor)[3] == 0.0


def test_validate_broken_jacobi():
    # [e1,e3] mapped onto e1 makes the cyclic Jacobi sum for (1,2,3) nonzero
    doc = json.dumps(
        {"dim": 3, "brackets": [[1, 2, 3, 1.0], [1, 3, 1, 1.0], [2, 3, 1, 1.0]]}
    )
    L = algebra.parse_algebra(doc)
    with pytest.raises(AlgebraFormatError, match=r"^Jacobi identity violated at triple \(e1, e2, e3\): "):
        algebra.validate_algebra(L)
    assert algebra.worst_jacobi_triple(L.bracket_tensor)[3] > 0.1


NOT_LIE = [[1, 2, 3, 1.0], [1, 3, 4, 1.0], [2, 4, 1, 1.0]]  # fails Jacobi at (e1, e2, e3)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e4, 1e6])
def test_jacobi_check_is_scale_free(rng, s):
    doc = {"dim": 4, "brackets": [[i, j, k, s * v] for i, j, k, v in NOT_LIE]}
    with pytest.raises(AlgebraFormatError, match="Jacobi identity violated"):
        algebra.validate_algebra(algebra.parse_algebra(json.dumps(doc)))
    # a rotated solv4 carries round-off of order eps * s^2 in its residual
    F = conjugate_framed(framed("solv4"), random_orthogonal(rng, 4))
    scaled = replace(F, c=s * F.c)
    algebra.validate_algebra(scaled)


def test_validate_catalog():
    for name in catalog.catalog_names():
        algebra.validate_algebra(catalog.load(name))


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
    assert algebra.worst_jacobi_triple(F.c)[3] <= 1e-10


def test_orthonormal_frame_preserves_jacobi(rng):
    # bracket entries are metric-relative (<[e_i,e_j], e_k> w.r.t. G), so the
    # entries for the same underlying algebra must have the index lowered by G
    for n in (3, 4, 5):
        L = random_solvable(rng, n)
        G = rng.standard_normal((n, n))
        G = G @ G.T + n * np.eye(n)
        L = replace(L, c=np.einsum("ijm,mk->ijk", L.bracket_tensor, G), metric=G)
        assert algebra.worst_jacobi_triple(L.bracket_tensor)[3] <= 1e-12
        F = algebra.orthonormal_frame(L)
        assert algebra.worst_jacobi_triple(F.c)[3] <= 1e-10


def test_derivation_defect_identity_and_brackets(rng):
    F = algebra.orthonormal_frame(random_solvable(rng, 5))
    c = F.c
    assert np.array_equal(algebra.derivation_defect(c, np.eye(5)), -c)

    def bracket(x, y):
        return np.einsum("i,j,ijk->k", x, y, c)

    X = rng.standard_normal((5, 5))
    delta = algebra.derivation_defect(c, X)
    E = np.eye(5)
    for i in range(5):
        for j in range(5):
            want = X @ bracket(E[i], E[j]) - bracket(X @ E[i], E[j]) - bracket(E[i], X @ E[j])
            assert np.max(np.abs(delta[i, j] - want)) <= 1e-12


@pytest.mark.parametrize("name", catalog.catalog_names())
def test_orthonormal_frame_ill_conditioned_metric(rng, name):
    # the basis e'_a = sum_i P[i,a] e_i of an orthonormal frame has the Gram
    # matrix G = P^T P, of condition 1e8 here, and the constants sum P P P c.
    # Framing it gives an orthogonally equivalent tensor, so the same norm,
    # up to the rounding of the re-expressed constants, about eps cond(G);
    # raising an index with inv(G) first lost 3e-6 to 1.5e-5.
    F = framed(name)
    n = F.dim
    norm = np.linalg.norm(F.c)
    for _ in range(5):
        P = random_orthogonal(rng, n) @ np.diag(np.logspace(0, 4, n)) @ random_orthogonal(rng, n)
        c = np.einsum("ia,jb,kc,ijk->abc", P, P, P, F.c)
        G = P.T @ P  # the halved sums below are exactly (anti)symmetric
        L = algebra.MetricLieAlgebra(name, n, 0.5 * (c - c.transpose(1, 0, 2)), 0.5 * (G + G.T))
        framed_norm = np.linalg.norm(algebra.orthonormal_frame(L).c)
        assert abs(framed_norm - norm) <= 1e-7 * norm


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
        assert np.max(np.abs(algebra.derivation_defect(L.c, D))) <= 1e-10


def test_derivation_basis_su2():
    L = catalog.load("su2")
    basis = algebra.derivation_basis(L)
    assert len(basis) == 3  # semisimple: inner derivations only
    for D in basis:
        assert np.max(np.abs(algebra.derivation_defect(L.c, D))) <= 1e-10


def test_derivation_basis_affine_plane():
    # [e1, e2] = e2 gives fewer constraint rows (2) than unknowns (4), so the
    # null space must come from a full set of right singular vectors
    L = algebra.parse_algebra(json.dumps({"dim": 2, "brackets": [[1, 2, 2, 1.0]]}))
    basis = algebra.derivation_basis(L)
    assert len(basis) == 2  # Der = ad(g) for this algebra
    for D in basis:
        assert np.max(np.abs(algebra.derivation_defect(L.c, D))) <= 1e-10


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
