from dataclasses import replace

import numpy as np
import pytest

from solstab import algebra, catalog, curvature, soliton, stability
from solstab.errors import NotExpanding

from conftest import conjugate_framed, framed, random_orthogonal
from oracles import nilsoliton_identity_residual


def certify(name, lambda_hint=None):
    F = framed(name)
    summary = curvature.curvature_summary(F)
    ders = algebra.derivation_basis(F)
    cert = soliton.solve_algebraic_soliton(F, summary, ders, lambda_hint=lambda_hint)
    return F, summary, cert


def test_h3_certificate():
    _, _, cert = certify("heisenberg3")
    assert cert.accepted
    assert cert.lam == pytest.approx(-1.5, abs=1e-12)
    assert np.allclose(cert.derivation, np.diag([1.0, 1.0, 2.0]), atol=1e-10)
    assert cert.residual <= 1e-12
    assert cert.trace_D == pytest.approx(4.0, abs=1e-10)
    assert cert.expanding
    assert not cert.degenerate


def test_h5_certificate():
    _, _, cert = certify("heisenberg5")
    assert cert.accepted
    assert cert.lam == pytest.approx(-2.0, abs=1e-10)
    assert np.allclose(cert.derivation, np.diag([1.5, 1.5, 1.5, 1.5, 3.0]), atol=1e-9)


def test_abelian_with_lambda_hint():
    _, _, cert = certify("abelian3", lambda_hint=-1.0)
    assert cert.accepted
    assert cert.lam == -1.0
    assert np.allclose(cert.derivation, np.eye(3), atol=1e-12)
    assert cert.degenerate


def test_abelian_without_hint_is_degenerate_min_norm():
    _, _, cert = certify("abelian3")
    assert cert.accepted
    assert cert.degenerate
    assert cert.lam == pytest.approx(0.0, abs=1e-12)


def test_su2_certificate_not_expanding():
    _, _, cert = certify("su2")
    assert cert.accepted
    assert cert.lam == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(cert.derivation)) <= 1e-12
    assert not cert.expanding


def test_nilsoliton_identity():
    for name, expected in (("heisenberg3", 6.0), ("heisenberg5", 18.0)):
        _, _, cert = certify(name)
        D = cert.derivation
        assert np.trace(D @ D) == pytest.approx(expected, abs=1e-8)
        assert nilsoliton_identity_residual(cert) <= 1e-6


def test_check_einstein():
    assert soliton.check_einstein(curvature.curvature_summary(framed("su2"))).accepted
    h3 = soliton.check_einstein(curvature.curvature_summary(framed("heisenberg3")))
    assert not h3.accepted
    assert h3.lam == pytest.approx(-1.0 / 6.0, abs=1e-14)
    assert h3.residual == pytest.approx(2.0 / 3.0, abs=1e-14)
    flat = soliton.check_einstein(curvature.curvature_summary(framed("abelian3")))
    assert flat.accepted and flat.lam == 0.0


def test_rank_one_extension_h3():
    F, _, cert = certify("heisenberg3")
    assert soliton.extension_obstruction(cert) is None
    ext = soliton.rank_one_extension(F, cert)
    assert ext.dim == 4
    assert ext.c[0, 1, 2] == pytest.approx(1.0)
    assert ext.c[0, 3, 0] == pytest.approx(-0.5)  # [A, e1] = e1 / 2
    assert ext.c[1, 3, 1] == pytest.approx(-0.5)
    assert ext.c[2, 3, 2] == pytest.approx(-1.0)
    assert np.array_equal(ext.c, -ext.c.transpose(1, 0, 2))
    summary = curvature.curvature_summary(algebra.orthonormal_frame(ext))
    ecert = soliton.check_einstein(summary)
    assert ecert.accepted
    assert ecert.lam == pytest.approx(-1.5, abs=1e-8)
    assert np.array_equal(ext.summary.riemann.R, summary.riemann.R)  # handed on


def test_rank_one_extension_abelian_gives_hyperbolic_space():
    F, _, cert = certify("abelian3", lambda_hint=-1.0)
    ext = soliton.rank_one_extension(F, cert)
    summary = curvature.curvature_summary(algebra.orthonormal_frame(ext))
    assert np.allclose(summary.ric, -np.eye(4), atol=1e-8)
    alpha = 1.0 / np.sqrt(3.0)
    for j in range(3):
        assert ext.c[j, 3, j] == pytest.approx(-alpha)


def test_rank_one_extension_rejects_zero_trace():
    F, _, cert = certify("su2")
    reason = soliton.extension_obstruction(cert)
    assert "lambda < 0" in reason
    with pytest.raises(ValueError, match=reason):
        soliton.rank_one_extension(F, cert)


def test_extension_einstein_for_catalog_nilsolitons():
    for name in ("heisenberg3", "heisenberg5"):
        F, _, cert = certify(name)
        ext = soliton.rank_one_extension(F, cert)
        ecert = soliton.check_einstein(
            curvature.curvature_summary(algebra.orthonormal_frame(ext))
        )
        assert ecert.accepted
        assert ecert.lam == pytest.approx(cert.lam, abs=1e-8)


def test_extension_einstein_under_random_metric(rng):
    # the brackets of h3 under a random inner product G, so that the frame's
    # tensor is dense; structure constants are G-relative, <[e_i,e_j], e_k>
    X = rng.standard_normal((3, 3))
    G = X @ X.T + np.eye(3)
    h3 = catalog.load("heisenberg3")
    F = algebra.orthonormal_frame(replace(h3, c=np.einsum("ijm,mk->ijk", h3.c, G), metric=G))
    summary = curvature.curvature_summary(F)
    cert = soliton.solve_algebraic_soliton(F, summary, algebra.derivation_basis(F))
    ext = soliton.rank_one_extension(F, cert)
    ecert = soliton.check_einstein(ext.summary)
    assert ecert.accepted
    assert ecert.lam == pytest.approx(cert.lam, abs=1e-10)
    # [x, y] = s z in some orthonormal basis gives lambda = -3/2 s^2 = -3/4 |c|^2
    assert cert.lam == pytest.approx(-0.75 * np.sum(F.c ** 2), rel=1e-12)


def test_gaussian_flat_r2_paper_bound():
    F, summary, cert = certify("abelian2", lambda_hint=-1.0)
    plan = soliton.gaussian_extension_dimension(
        summary, summary.riemann, cert, stability_max_q=0.0,
        mode="paper-bound", ignore_stability=True,
    )
    assert plan.C1 == 0.0
    assert plan.C2 == 1.0
    assert plan.k == 5
    assert plan.bracket_value_at_k == pytest.approx(-1.5)
    assert plan.bracket_value_at_k < -1.0
    # the previous k fails the strict inequality
    assert plan.C1 + plan.C2 + 0.5 * cert.lam * (plan.k - 1) >= -1.0


def test_gaussian_k_zero_when_already_stable():
    F, summary, cert = certify("heisenberg3")
    max_q = (np.sqrt(57.0) - 3.0) / 8.0
    for mode in ("paper-bound", "sharp"):
        plan = soliton.gaussian_extension_dimension(
            summary, summary.riemann, cert, stability_max_q=max_q, mode=mode
        )
        assert plan.k == 0


def test_gaussian_h3_paper_bound_ignoring_stability():
    F, summary, cert = certify("heisenberg3")
    max_q = (np.sqrt(57.0) - 3.0) / 8.0
    plan = soliton.gaussian_extension_dimension(
        summary, summary.riemann, cert, stability_max_q=max_q,
        mode="paper-bound", ignore_stability=True,
    )
    assert plan.C2 == pytest.approx(2.5)
    assert plan.C1 == pytest.approx(1.5)  # pinned by the sampling oracle below
    assert plan.k == 7
    assert plan.bracket_value_at_k < -1.0


def test_crude_bound_matches_sampling_oracle(rng):
    # the bound is sum w[a,b] h[a,b]^2 with w from absolute curvature sums;
    # its max over the unit sphere is approached by sampling concentrated
    # tensors, and must dominate the bounded expression everywhere
    F, summary, cert = certify("heisenberg3")
    R, ric = summary.riemann.R, summary.ric
    C1 = soliton.crude_curvature_bound(summary.riemann, ric)
    n = 3
    w = 0.5 * np.einsum("ajkb->ab", np.abs(R)) + 0.5 * np.einsum(
        "iabl->ab", np.abs(R)
    )
    rowsum = np.abs(ric).sum(axis=1)
    w = w + 0.5 * rowsum[:, None] + 0.5 * rowsum[None, :]
    for _ in range(2000):
        h = rng.standard_normal((n, n))
        h = 0.5 * (h + h.T)
        h /= np.linalg.norm(h)
        assert float(np.sum(w * h**2)) <= C1 + 1e-12
    # concentrating h on the argmax entry attains the max exactly
    a, b = np.unravel_index(np.argmax(w), w.shape)
    h = np.zeros((n, n))
    if a == b:
        h[a, a] = 1.0
    else:
        h[a, b] = h[b, a] = 1.0 / np.sqrt(2.0)
    assert float(np.sum(w * h**2)) == pytest.approx(C1, abs=1e-12)


def test_gaussian_not_expanding_raises():
    F, summary, cert = certify("su2")
    with pytest.raises(NotExpanding):
        soliton.gaussian_extension_dimension(
            summary, summary.riemann, cert, stability_max_q=0.0
        )


def test_gaussian_monotone_under_metric_rescaling():
    # shrinking the metric increases |lambda|; k never increases
    import json

    ks = []
    for t in np.linspace(1.0, 0.1, 10):
        doc = {
            "dim": 3,
            "brackets": [[1, 2, 3, 1.0]],
            "metric": (t * np.eye(3)).tolist(),
        }
        L = algebra.parse_algebra(json.dumps(doc))
        F = algebra.orthonormal_frame(L)
        summary = curvature.curvature_summary(F)
        ders = algebra.derivation_basis(F)
        cert = soliton.solve_algebraic_soliton(F, summary, ders)
        plan = soliton.gaussian_extension_dimension(
            summary, summary.riemann, cert, stability_max_q=np.inf,
            mode="paper-bound", ignore_stability=True,
        )
        ks.append(plan.k)
    assert all(k2 <= k1 for k1, k2 in zip(ks, ks[1:]))


def test_verify_gaussian_product():
    _, summary, cert = certify("heisenberg3")
    r3 = soliton.verify_gaussian_product(summary, cert, 3).residual
    r0 = soliton.verify_gaussian_product(summary, cert, 0).residual
    r7 = soliton.verify_gaussian_product(summary, cert, 7).residual
    assert r3 <= cert.residual + 1e-12
    assert r0 == pytest.approx(cert.residual, abs=1e-15)
    assert abs(r7 - r0) <= 1e-12  # flat factor contributes exactly zero

    _, summarya, certa = certify("abelian3", lambda_hint=-1.0)
    assert soliton.verify_gaussian_product(summarya, certa, 5).residual == 0.0


def test_certificate_basis_covariance(rng):
    F, summary, cert = certify("heisenberg3")
    for _ in range(5):
        Q = random_orthogonal(rng, 3)
        Fc = conjugate_framed(F, Q)
        sc = curvature.curvature_summary(Fc)
        dc = algebra.derivation_basis(Fc)
        cc = soliton.solve_algebraic_soliton(Fc, sc, dc)
        assert cc.accepted
        assert cc.lam == pytest.approx(cert.lam, abs=1e-10)
        # matrix of D in the rotated basis is Q^T D Q
        assert np.max(np.abs(cc.derivation - Q.T @ cert.derivation @ Q)) <= 1e-10
