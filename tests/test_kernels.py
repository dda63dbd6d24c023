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

import json
from dataclasses import asdict, is_dataclass, replace
from itertools import permutations

import numpy as np
import pytest

from solstab import algebra, catalog, curvature, soliton, stability
from solstab.errors import AlgebraFormatError, MetricError

from conftest import (conjugate_framed, framed, heisenberg15, random_orthogonal, random_solvable,
                      random_spd)
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
    # the triple is named sorted; the Jacobiator of an antisymmetric beta, as
    # every bracket tensor is, is totally antisymmetric, so the sorted order
    # itself attains the max; of any other beta, one order of the triple does
    assert i <= j <= k
    orders = [(i, j, k)] if np.array_equal(beta, -beta.swapaxes(0, 1)) else permutations((i, j, k))
    assert max(ref[a - 1, b - 1, c - 1] for a, b, c in orders) >= ref.max() - TOL * unit
    # the check itself runs on beta / 2^e: exact, so it accepts, or names this
    # triple and residual, as the unscaled kernel would
    n, squared = beta.shape[0], scale(beta) ** 2
    L = algebra.MetricLieAlgebra("x", n, beta, np.eye(n))
    if algebra.within(res, algebra.ROUND_TOL, squared):
        algebra.validate_algebra(L)
    else:
        with pytest.raises(AlgebraFormatError) as exc:
            algebra.validate_algebra(L)
        assert str(exc.value) == (f"Jacobi identity violated at triple (e{i}, e{j}, e{k}): "
                                  f"relative residual {res / squared:.3e}")


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


def stacks():
    """Stacks of algebras of one dimension, each row in a rotated orthonormal
    basis and at its own bracket scale: random solvable ones (not unimodular,
    so Ricci runs its Killing and tau terms), a mixed dim-3 stack, and
    solitons with a rank-one extension (nilpotent: no Killing or tau term).
    A lambda within CERT_TOL of a row's own unit is 0, but not one of another's."""
    rng = np.random.default_rng(14)
    scales = (1e-2, 1.0, 1e2)

    def rotated(F, s):
        return replace(conjugate_framed(F, random_orthogonal(rng, F.dim)), c=s * F.c)

    out = [[rotated(algebra.orthonormal_frame(random_solvable(rng, n)), s) for s in scales]
           for n in range(2, 10)]
    e2 = algebra.parse_algebra('{"dim": 3, "brackets": [[1, 3, 2, 1.0], [2, 3, 1, -1.0]]}')
    out.append([rotated(F, s) for F, s in ((e2, 1e3), (framed("heisenberg3"), 1e-2),
                                           (framed("su2"), 1e2), (framed("abelian3"), 1.0),
                                           (framed("heisenberg3"), 1.0))])
    out += [[rotated(framed(name), s) for s in scales] for name in ("heisenberg5", "solv4")]
    return out


STACKS = stacks()
STACK_IDS = [f"{rows[0].name}-{rows[0].dim}" for rows in STACKS]
STACK_TOL = 1e-14  # of (max|c|^2)^d for a quantity of degree d in max|c|^2


def assert_rows(stacked, per_row, units, degree=1):
    """Row r of ``stacked`` against ``per_row[r]``, within STACK_TOL units[r]**degree,
    where units are max|c|^2 and the degree is the quantity's in it."""
    assert len(stacked) == len(per_row) == len(units)
    for got, want, unit in zip(stacked, per_row, units):
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= STACK_TOL * unit ** degree


@pytest.mark.parametrize("rows", STACKS, ids=STACK_IDS)
def test_stacked_kernels_match_each_row_alone(rows):
    F = algebra.stack(rows)
    units = [np.max(np.abs(L.c)) ** 2 for L in rows]
    assert F.c.shape == (len(rows), *rows[0].c.shape)

    for L in (F, *rows):  # every row is a Lie algebra: the stack passes, as each row does
        algebra.validate_algebra(L)
    assert_rows(algebra.worst_jacobi_triple(F.c)[3],
                [algebra.worst_jacobi_triple(L.c)[3] for L in rows], units)
    X = np.random.default_rng(F.dim).standard_normal((len(rows), F.dim, F.dim))
    assert_rows(algebra.derivation_defect(F.c, X),
                [algebra.derivation_defect(L.c, x) for L, x in zip(rows, X)], units, 0.5)

    gamma = curvature._gamma(F.c)
    assert_rows(gamma, [curvature._gamma(L.c) for L in rows], units, 0.5)
    assert_rows(curvature._riemann(F.c, gamma),
                [curvature._riemann(L.c, g) for L, g in zip(rows, gamma)], units)
    G = random_spd(np.random.default_rng(F.dim), F.dim, (len(rows),))
    A = np.linalg.inv(G)
    assert_rows(curvature.ricci_form(F.c)(G, A),
                [curvature.ricci_form(L.c)(g, a) for L, g, a in zip(rows, G, A)],
                [u * np.max(np.abs(g)) * np.max(np.abs(a)) ** 2 for u, g, a in zip(units, G, A)])

    summary = curvature.curvature_summary(F)
    summaries = [curvature.curvature_summary(L) for L in rows]
    assert_rows(summary.riemann.R, [s.riemann.R for s in summaries], units)
    assert_rows(summary.ric, [s.ric for s in summaries], units)
    assert_rows(summary.scal, [s.scal for s in summaries], units)

    cert = soliton.certify_soliton(F, summary, np.full(len(rows), np.nan))
    certs = [soliton.certify_soliton(L, s) for L, s in zip(rows, summaries)]
    for name in ("lam", "derivation", "trace_D", "scale"):
        assert_rows(getattr(cert, name), [getattr(c, name) for c in certs], units)
    assert_rows(cert.residual, [c.residual for c in certs], units, 1.5)
    assert [lam == 0.0 for lam in cert.lam] == [c.lam == 0.0 for c in certs]
    for name in ("accepted", "degenerate", "expanding"):
        assert list(getattr(cert, name)) == [getattr(c, name) for c in certs]
    reasons = soliton.extension_obstruction(cert)
    assert list(reasons) == [soliton.extension_obstruction(c) for c in certs]
    einstein = soliton.check_einstein(summary)
    einsteins = [soliton.check_einstein(s) for s in summaries]
    assert list(einstein.accepted) == [e.accepted for e in einsteins]
    assert_rows(einstein.lam, [e.lam for e in einsteins], units)

    ok = np.asarray(cert.accepted)
    ext = ok & np.equal(reasons, None)
    for group in (ext, ok & ~ext):  # as the table runs them: with an extension, the rest
        if not group.any():
            continue
        part = [algebra.take(x, group) for x in (F, summary, cert)]
        ext_summary = soliton.rank_one_extension(part[0], part[2]).summary if group is ext else None
        report = stability.stability_report(*part, ext_summary)
        for k, r in enumerate(np.flatnonzero(group)):
            row_ext = soliton.rank_one_extension(rows[r], certs[r]).summary if ext[r] else None
            want = stability.stability_report(rows[r], summaries[r], certs[r], row_ext)
            got = algebra.take(report, k)
            assert (got.q_verdict, got.Ro_verdict) == (want.q_verdict, want.Ro_verdict)
            assert_rows([got.max_q, got.q_margin], [want.max_q, want.q_margin], [units[r]] * 2)
            if row_ext is None:
                assert got.max_Ro is want.max_Ro is None
            else:
                assert_rows([got.max_Ro, ext_summary.riemann.R[k]],
                            [want.max_Ro, row_ext.riemann.R], [units[r]] * 2)
    form = stability.stability_form(summary, stability.sym2_basis(F.dim))
    forms = [stability.stability_form(s, stability.sym2_basis(F.dim)) for s in summaries]
    assert_rows(form.S, [f.S for f in forms], units)
    assert_rows(form.S_Ro, [f.S_Ro for f in forms], units)
    assert_rows(stability.max_eigenvalue(form.S, cert.scale),
                [stability.max_eigenvalue(f.S, c.scale) for f, c in zip(forms, certs)], units)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_stacked_jacobi_finds_each_rows_triple(n):
    # a broken bracket tensor per row, so each triple stands out of round-off
    rng = np.random.default_rng(600 + n)
    beta = rng.standard_normal((4, n, n, n))
    beta -= beta.swapaxes(-3, -2)
    *triple, res = algebra.worst_jacobi_triple(beta)
    for r, b in enumerate(beta):
        i, j, k, want = algebra.worst_jacobi_triple(b)
        assert (triple[0][r], triple[1][r], triple[2][r]) == (i, j, k)
        assert abs(res[r] - want) <= STACK_TOL * np.max(np.abs(b)) ** 2


def under_metric(L, G, s):
    """L, with bracket coefficients c and metric I, times s under the metric G:
    <[e_i, e_j], e_k>_G = s sum_m c[i,j,m] G[m,k]."""
    return replace(L, c=s * L.c @ G, metric=G)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_stacked_frame_matches_each_row_alone(n):
    # random solvable algebras under random metrics, each at its own scale,
    # alone and between two rows of metric I: each row is framed as it is alone
    rng = np.random.default_rng(700 + n)
    bent = [under_metric(random_solvable(rng, n), G, s)
            for G, s in zip(random_spd(rng, n, (3,)), (1e-2, 1.0, 1e2))]
    for rows in (bent, [random_solvable(rng, n), *bent, random_solvable(rng, n)]):
        F = algebra.orthonormal_frame(algebra.stack(rows))
        alone = [algebra.orthonormal_frame(L) for L in rows]
        units = [np.max(np.abs(L.c)) ** 2 for L in alone]
        assert_rows(F.c, [L.c for L in alone], units, 0.5)
        assert F.metric.shape == (len(rows), n, n) and (F.metric == np.eye(n)).all()
        odd = np.arange(len(rows)) % 2 == 1  # the frame of a stack cuts as any result does
        assert_rows(algebra.take(F, odd).c, [L.c for L in alone[1::2]], units[1::2], 0.5)


def test_stacked_metric_is_symmetric_in_its_own_unit():
    # B is off symmetry by 1e-10 of its own unit 1, over METRIC_TOL: rejected
    # alone, and in a stack next to a metric of unit 1000 as well
    c = catalog.load("heisenberg3").c
    G = np.eye(3)
    G[0, 1] = 1e-10
    A = algebra.MetricLieAlgebra("a", 3, c, 1e3 * np.eye(3))
    B = algebra.MetricLieAlgebra("b", 3, c, G)
    for L in (B, algebra.stack([A, B]), algebra.stack([B, A])):
        with pytest.raises(MetricError, match="^metric is not symmetric$"):
            algebra.orthonormal_frame(L)
        with pytest.raises(MetricError, match="^metric is not symmetric$"):
            L.bracket_tensor
    assert algebra.orthonormal_frame(algebra.stack([A, A])).metric.shape == (2, 3, 3)


def test_jacobi_names_each_triple_sorted():
    # the six orders of a triple tie up to rounding, and the one named is
    # sorted: of a stack as of each row alone, and in the check's message
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        beta = rng.standard_normal((3, n, n, n))
        beta -= beta.swapaxes(-3, -2)
        *triple, res = algebra.worst_jacobi_triple(beta)
        assert (np.diff(triple, axis=0) > 0).all()
        for r, b in enumerate(beta):
            assert [t[r] for t in triple] == list(algebra.worst_jacobi_triple(b)[:3])
    # a stack whose first failing row is row 1 fails as row 1 alone does
    rows = [algebra.MetricLieAlgebra(f"x{r}", n, b, np.eye(n)) for r, b in enumerate(beta)]
    rows[0] = replace(rows[0], c=np.zeros_like(beta[0]))
    messages = []
    for L in (algebra.stack(rows), rows[1]):
        with pytest.raises(AlgebraFormatError, match="Jacobi identity violated") as exc:
            algebra.validate_algebra(L)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def filiform(n):
    """The model filiform algebra, [e_1, e_i] = e_(i+1) for 1 < i < n: step n - 1."""
    c = np.zeros((n, n, n))
    for i in range(1, n - 1):
        c[0, i, i + 1], c[i, 0, i + 1] = 1.0, -1.0
    return algebra.MetricLieAlgebra(f"filiform{n}", n, c, np.eye(n))


def plus_abelian(F, n):
    """F plus an abelian factor, of dim n: the step of F when F is not abelian."""
    c = np.zeros((n, n, n))
    c[:F.dim, :F.dim, :F.dim] = F.c
    return algebra.MetricLieAlgebra(f"{F.name}+R{n - F.dim}", n, c, np.eye(n))


def profile_stacks():
    """Stacks for the lower central series, each row rotated and at its own
    bracket scale: the catalog by dimension, h15, random solvable algebras of
    dims 2..17 among nilpotent rows of each step and an abelian one, h3, h5 and
    solv4 from 1e-6 to 1e6, and a dim-6 stack mixing a perfect, a solvable,
    an abelian and nilpotent rows of steps 2 to 5."""
    rng = np.random.default_rng(21)

    def rotated(F, s=1.0):
        return replace(conjugate_framed(F, random_orthogonal(rng, F.dim)), c=s * F.c)

    by_dim = {}
    for name in catalog.catalog_names():
        by_dim.setdefault(framed(name).dim, []).append(rotated(framed(name)))
    out = list(by_dim.values()) + [[heisenberg15(), rotated(heisenberg15(), 1e3)]]
    for n in range(2, 18):
        out.append([rotated(algebra.orthonormal_frame(random_solvable(rng, n)), 10.0 ** rng.integers(-3, 4)),
                    rotated(filiform(n), 1e-2), plus_abelian(filiform(2), n)]
                   + [rotated(plus_abelian(filiform(m), n)) for m in range(3, n, 3)])
    scales = (1e-6, 1e-3, 1.0, 1e3, 1e6)
    out += [[rotated(framed(name), s) for s in scales] for name in ("heisenberg3", "heisenberg5", "solv4")]
    mixed = [framed("su2"), framed("solv4"), filiform(2), framed("heisenberg3"),
             framed("heisenberg5"), filiform(6), filiform(4)]
    out.append([rotated(plus_abelian(F, 6), s) for F, s in zip(mixed, (1e4, 1.0, 1.0, 1e-4, 1.0, 1e2, 1.0))])
    return out


PROFILE_STACKS = profile_stacks()
MIXED_STEPS = [0, 0, 1, 2, 2, 5, 3]  # su2, solv4, abelian, h3, h5, filiform6, filiform4


@pytest.mark.parametrize("rows", PROFILE_STACKS,
                         ids=[f"{rows[0].name}-{rows[0].dim}" for rows in PROFILE_STACKS])
def test_stacked_profile_matches_each_row_alone(rows):
    alone = []
    for L in rows:
        # read out of a stack of one: Python scalars, which JSON takes
        (p,) = algebra.rows(algebra.structure_profile(algebra.stack([L])), 1)
        assert (type(p.step), type(p.nilpotent), type(p.unimodular)) == (int, bool, bool)
        json.dumps(asdict(p))
        alone.append((p.step, p.nilpotent, p.unimodular))
    if len(rows) > 1:
        p = algebra.structure_profile(algebra.stack(rows))
        assert list(zip(p.step.tolist(), p.nilpotent.tolist(), p.unimodular.tolist())) == alone
    if rows is PROFILE_STACKS[-1]:
        assert [step for step, *_ in alone] == MIXED_STEPS
    if rows[0].name.startswith("rand_solv"):  # then filiform, abelian and filiform + abelian
        n = rows[0].dim
        assert [step for step, *_ in alone] == [0, n - 1, 1, *range(2, n - 1, 3)]


def assert_same_row(got, want):
    """Two rows of a result equal field by field, each of one type: arrays
    equal, nested dataclasses alike, and scalars equal (NaN to NaN) and Python ones."""
    assert type(got) is type(want)
    for name, value in vars(want).items():
        other = getattr(got, name)
        assert type(other) is type(value) and not isinstance(value, np.generic), name
        if isinstance(value, np.ndarray):
            assert other.shape == value.shape and np.array_equal(other, value, equal_nan=True), name
        elif is_dataclass(value):
            assert_same_row(other, value)
        else:
            assert other == value or (value != value and other != other), name


@pytest.mark.parametrize("rows", STACKS, ids=STACK_IDS)
def test_column_wise_rows_match_take(rows):
    F = algebra.stack(rows)
    summary = curvature.curvature_summary(F)
    cert = soliton.certify_soliton(F, summary, np.full(len(rows), np.nan))
    verdicts = np.array([None, True, False] * len(rows), dtype=object)[:len(rows)]
    results = [summary, cert, algebra.structure_profile(F),
               stability.stability_report(F, summary, cert),
               replace(stability.stability_report(F, summary, cert), q_verdict=verdicts,
                       Ro_verdict=verdicts[::-1].copy())]
    index = np.arange(len(rows))
    # each row alone (a mask with one True keeps the stack axis), then every other row
    masks = [index == r for r in index] + [index % 2 == 0]
    for result in results:
        got = algebra.rows(result, len(rows))
        assert len(got) == len(rows)
        for mask in masks:
            part = algebra.rows(algebra.take(result, mask), int(mask.sum()))
            assert len(part) == mask.sum()
            for r, row in zip(np.flatnonzero(mask), part):
                assert_same_row(got[r], row)
