import numpy as np
import pytest

from solstab import algebra, curvature, soliton, stability

from conftest import conjugate_framed, framed, heisenberg15, random_orthogonal, summary_of
from oracles import bisection_eigenvalues, brute_force_max_q, direct_q, sym2_elements

# Frozen oracle outputs (brute-force sampling + power-iteration refinement),
# pinned here so regressions surface as exact-value diffs.
H3_MAX_Q = (np.sqrt(57.0) - 3.0) / 8.0  # 0.5687293044...
H5_MAX_Q = 1.1061072252245139
SOLV4_MAX_RO = 1.0
HYP4_MAX_RO = 1.0 / 3.0


def certified(name, lambda_hint=None):
    F = framed(name)
    summary = curvature.curvature_summary(F)
    cert = soliton.certify_soliton(F, summary, lambda_hint=lambda_hint)
    return F, summary, cert


def test_sym2_basis_shape_and_orthonormality():
    for n in (1, 2, 3, 5, 8):
        basis = stability.sym2_basis(n)
        assert basis.N == n * (n + 1) // 2 == basis.pairs.shape[1]
        E = sym2_elements(n).reshape(basis.N, -1)
        assert np.max(np.abs(E @ E.T - np.eye(basis.N))) <= 1e-14


def test_sym2_basis_ordering():
    # element a is w[a] (E_ij + E_ji) at (i, j) = pairs[:, a], which must
    # give the element-by-element construction exactly
    for n in (1, 2, 3, 5, 17):
        basis = stability.sym2_basis(n)
        (i, j), a = basis.pairs, np.arange(basis.N)
        w = np.where(i == j, 0.5, 1.0 / np.sqrt(2.0))
        dense = np.zeros((basis.N, n, n))
        dense[a, i, j] += w
        dense[a, j, i] += w
        assert np.array_equal(dense, sym2_elements(n)), n
        assert np.array_equal(basis.weights, np.outer(w, w)), n


def test_sym2_basis_rejects_out_of_range():
    with pytest.raises(ValueError):
        stability.sym2_basis(0)
    with pytest.raises(ValueError):
        stability.sym2_basis(18)


def test_form_matrix_is_symmetric_and_matches_direct_q(rng):
    for name in ("heisenberg3", "heisenberg5", "su2", "solv4"):
        summary = summary_of(name)
        n = summary.dim
        basis = stability.sym2_basis(n)
        form = stability.stability_form(summary, basis)
        assert np.max(np.abs(form.S - form.S.T)) <= 1e-12
        assert np.max(np.abs(form.S_Ro - form.S_Ro.T)) <= 1e-12
        # quadratic-form agreement: h^T S h == q(h) for random symmetric h
        elements = sym2_elements(n)
        for _ in range(20):
            x = rng.standard_normal(basis.N)
            h = np.einsum("a,aij->ij", x, elements)
            assert x @ form.S @ x == pytest.approx(
                direct_q(summary.riemann.R, summary.ric, h), abs=1e-10
            )


def test_q_single_ricci_term_h3():
    # q on the diagonal unit E33 picks up exactly one Ricci contraction
    summary = summary_of("heisenberg3")
    E33 = np.diag([0.0, 0.0, 1.0])
    # Ro part: R[2,2,2,2] = 0; Ricci part: Ric[2,2] * 1 = 0.5
    assert direct_q(summary.riemann.R, summary.ric, E33) == pytest.approx(0.5, abs=1e-14)
    # E33 is basis element 2, so q(E33) is the diagonal entry S[2, 2]
    form = stability.stability_form(summary, stability.sym2_basis(3))
    assert form.S[2, 2] == pytest.approx(0.5, abs=1e-14)


def test_max_q_h3_matches_frozen_oracle():
    summary = summary_of("heisenberg3")
    form = stability.stability_form(summary, stability.sym2_basis(3))
    max_q = stability.max_eigenvalue(form.S)
    assert max_q == pytest.approx(H3_MAX_Q, abs=1e-11)


def test_max_q_h5_matches_frozen_oracle():
    summary = summary_of("heisenberg5")
    form = stability.stability_form(summary, stability.sym2_basis(5))
    assert stability.max_eigenvalue(form.S) == pytest.approx(H5_MAX_Q, abs=1e-10)


@pytest.mark.slow
def test_max_q_against_live_brute_force():
    for name in ("heisenberg3", "solv4"):
        summary = summary_of(name)
        form = stability.stability_form(summary, stability.sym2_basis(summary.dim))
        max_q = stability.max_eigenvalue(form.S)
        refined, sampled = brute_force_max_q(
            summary.riemann.R, summary.ric, n_samples=200_000
        )
        assert sampled <= max_q + 1e-9  # sampling never exceeds the true max
        assert refined == pytest.approx(max_q, abs=1e-8)


def test_max_Ro_solv4_and_hyperbolic():
    s4 = summary_of("solv4")
    form = stability.stability_form(s4, stability.sym2_basis(4))
    assert stability.max_eigenvalue(form.S_Ro) == pytest.approx(
        SOLV4_MAX_RO, abs=1e-10
    )

    F, _, cert = certified("abelian3", lambda_hint=-1.0)
    ext = soliton.rank_one_extension(F, cert)
    sh = curvature.curvature_summary(algebra.orthonormal_frame(ext))
    formh = stability.stability_form(sh, stability.sym2_basis(4))
    assert stability.max_eigenvalue(formh.S_Ro) == pytest.approx(
        HYP4_MAX_RO, abs=1e-10
    )


def test_einstein_invariant_max_q_equals_max_Ro_plus_lambda():
    # on an Einstein space Ric = lambda I so the Ricci term shifts by lambda
    for name, lam in (("solv4", -1.5), ("su2", 0.5)):
        summary = summary_of(name)
        form = stability.stability_form(summary, stability.sym2_basis(summary.dim))
        max_q = stability.max_eigenvalue(form.S)
        max_Ro = stability.max_eigenvalue(form.S_Ro)
        assert max_q == pytest.approx(max_Ro + lam, abs=1e-10)


def test_stability_report_h3():
    F, summary, cert = certified("heisenberg3")
    ext = soliton.rank_one_extension(F, cert)
    ext_summary = curvature.curvature_summary(algebra.orthonormal_frame(ext))
    rep = stability.stability_report(F, summary, cert, ext_summary)
    assert algebra.structure_profile(F).step == 2
    assert rep.lam == pytest.approx(-1.5)
    assert rep.trace_D == pytest.approx(4.0)
    assert rep.max_q == pytest.approx(H3_MAX_Q, abs=1e-10)
    assert rep.threshold == pytest.approx(2.0)
    assert rep.q_verdict is True
    assert rep.max_Ro == pytest.approx(SOLV4_MAX_RO, abs=1e-10)
    assert rep.einstein_threshold == pytest.approx(1.5)
    assert rep.Ro_verdict is True


def test_h15_extension_matches_bisection_oracle():
    # the largest forms the pipeline builds: N = 120 on h15, N = 136 on its
    # dim-16 rank-one extension
    F = algebra.orthonormal_frame(heisenberg15())
    summary = curvature.curvature_summary(F)
    cert = soliton.certify_soliton(F, summary)
    ext_summary = soliton.rank_one_extension(F, cert).summary
    rep = stability.stability_report(F, summary, cert, ext_summary)

    S = stability.stability_form(summary, stability.sym2_basis(15)).S
    S_Ro = stability.stability_form(ext_summary, stability.sym2_basis(16)).S_Ro
    assert S.shape == (120, 120) and S_Ro.shape == (136, 136)
    for got, matrix in ((rep.max_q, S), (rep.max_Ro, S_Ro)):
        want = float(bisection_eigenvalues(matrix)[-1])
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_stability_report_without_extension():
    F, summary, cert = certified("heisenberg5")
    rep = stability.stability_report(F, summary, cert)
    assert rep.max_Ro is None and rep.Ro_verdict is None
    assert rep.q_verdict is True
    assert rep.threshold == pytest.approx(4.5)


def test_flat_soliton_strictly_stable():
    # flat abelian with lambda = -1: max q = 0 against threshold n/2 > 0
    F, summary, cert = certified("abelian3", lambda_hint=-1.0)
    rep = stability.stability_report(F, summary, cert)
    assert rep.max_q == pytest.approx(0.0, abs=1e-12)
    assert rep.threshold == pytest.approx(1.5)
    assert rep.q_verdict is True


def test_verdict_dead_zone():
    # the dead zone is TIE_TOL = 1e-9 in the algebra's unit max|c|^2
    for unit in (1.0, 1e-12, 1e12):
        assert stability._verdict(0.0, unit) is None
        assert stability._verdict(5e-10 * unit, unit) is None
        assert stability._verdict(-5e-10 * unit, unit) is None
        assert stability._verdict(2e-9 * unit, unit) is True
        assert stability._verdict(-2e-9 * unit, unit) is False
    # abelian g with no lambda hint: unit 0, and only an exact zero is a tie
    assert stability._verdict(0.0, 0.0) is None
    assert stability._verdict(1e-300, 0.0) is True


def test_max_q_invariant_under_orthogonal_frame_change(rng):
    for name in ("heisenberg3", "solv4"):
        F = framed(name)
        s = curvature.curvature_summary(F)
        form = stability.stability_form(s, stability.sym2_basis(F.dim))
        expected = stability.max_eigenvalue(form.S)
        for _ in range(3):
            Q = random_orthogonal(rng, F.dim)
            sc = curvature.curvature_summary(conjugate_framed(F, Q))
            fc = stability.stability_form(sc, stability.sym2_basis(F.dim))
            assert stability.max_eigenvalue(fc.S) == pytest.approx(
                expected, abs=1e-9
            )


@pytest.mark.parametrize(
    "q, ro, verdict",
    [
        (True, "absent", "stable"), (True, True, "stable"), (False, "absent", "unstable"),
        (True, False, "unstable"), (None, "absent", "inconclusive"),
        (True, None, "inconclusive"), (False, None, "inconclusive"), (None, False, "inconclusive"),
    ],
)
def test_report_verdict_combines_the_criteria_present(q, ro, verdict):
    # a tie in any criterion is inconclusive, even beside a failed one
    extension = () if ro == "absent" else (1.0, 1.0, 0.0, ro)
    report = stability.StabilityReport(1.0, 1.0, 0.0, q, -1.0, 2.0, *extension)
    assert report.verdict == verdict
