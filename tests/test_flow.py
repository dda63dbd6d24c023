import re
from dataclasses import replace

import numpy as np
import pytest

from solstab import algebra, catalog, curvature, flow, soliton
from solstab.errors import Blowup, NotExpanding, PositivityLost

from conftest import framed, heisenberg15, random_solvable, random_spd


def certified(name, lambda_hint=None):
    F = framed(name)
    summary = curvature.curvature_summary(F)
    cert = soliton.certify_soliton(F, summary, lambda_hint=lambda_hint)
    return F, cert


def test_ricci_of_metric_identity_matches_closed_form():
    F = framed("heisenberg3")
    ric = flow.ricci_of_metric(curvature.ricci_form(F.bracket_tensor), np.eye(3))
    assert np.allclose(ric, np.diag([-0.5, -0.5, 0.5]), atol=1e-14)


def test_ricci_of_metric_scaling_law():
    # for G = t I the Ricci (0,2)-tensor of a nilpotent metric scales like
    # ric(tG)_ij = t * ric_frame scaled: structure constants scale t^{-1/2}
    # in the orthonormal frame, ric_frame scales 1/t, so ric = L r L^T is
    # scale-invariant in coordinates for h3
    form = curvature.ricci_form(framed("heisenberg3").bracket_tensor)
    base = flow.ricci_of_metric(form, np.eye(3))
    for t in (0.5, 2.0, 4.0):
        got = flow.ricci_of_metric(form, t * np.eye(3))
        assert np.allclose(got, base, atol=1e-12), t


def test_ricci_of_metric_batched_agrees_with_loop(rng):
    form = curvature.ricci_form(framed("heisenberg5").bracket_tensor)
    Gs = []
    for _ in range(6):
        A = rng.standard_normal((5, 5))
        Gs.append(A @ A.T + 5 * np.eye(5))
    stacked = flow.ricci_of_metric(form, np.array(Gs))
    for G, ric in zip(Gs, stacked):
        assert np.allclose(ric, flow.ricci_of_metric(form, G), atol=1e-12)


def ricci_by_contraction(beta, G):
    """Oracle: write the algebra with metric G, move to a G-orthonormal frame,
    contract the Riemann tensor there and pull the result back."""
    c = np.einsum("ijm,mk->ijk", beta, G)  # <[e_i, e_j], e_k> under G
    F = algebra.orthonormal_frame(algebra.MetricLieAlgebra("oracle", G.shape[0], c, G))
    ric_frame = np.einsum("ijki->jk", curvature.curvature_summary(F).riemann.R)
    back = np.linalg.cholesky(G).T  # inverse of the frame's basis change
    return back.T @ ric_frame @ back


def test_ricci_of_metric_matches_riemann_contraction(rng):
    # random solvable algebras are not unimodular, so they exercise the
    # mean-curvature term too
    algebras = ([catalog.load(name) for name in catalog.catalog_names()] + [heisenberg15()]
                + [random_solvable(rng, n) for n in range(3, 9)])
    for L in algebras:
        Gs = random_spd(rng, L.dim, (3,))
        wants = [ricci_by_contraction(L.bracket_tensor, G) for G in Gs]
        form = curvature.ricci_form(L.bracket_tensor)
        stacked = flow.ricci_of_metric(form, Gs)
        for G, want, got in zip(Gs, wants, stacked):
            single = flow.ricci_of_metric(form, G)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, L.name
            assert np.max(np.abs(single - want)) <= 1e-12 * scale, L.name


def test_ricci_of_metric_rejects_indefinite():
    F = framed("heisenberg3")
    with pytest.raises(PositivityLost):
        flow.ricci_of_metric(curvature.ricci_form(F.bracket_tensor), np.diag([1.0, -1.0, 1.0]))


def test_ricci_of_metric_rejects_a_stack_with_one_indefinite_metric(rng):
    form = curvature.ricci_form(framed("heisenberg5").bracket_tensor)
    Gs = random_spd(rng, 5, (6,))
    flow.ricci_of_metric(form, Gs)
    w, V = np.linalg.eigh(Gs[3])
    Gs[3] -= 2.0 * w[0] * np.outer(V[:, 0], V[:, 0])  # one eigenvalue negated
    with pytest.raises(PositivityLost):
        flow.ricci_of_metric(form, Gs)


def test_soliton_is_fixed_point():
    F, cert = certified("heisenberg3")
    rhs = flow.flow_rhs(F, np.eye(3), cert.lam, cert.derivation)
    assert np.max(np.abs(rhs)) <= 1e-12
    # the residual the flow samples at its start
    config = flow.FlowConfig(dt=1e-3, t_max=1e-3)
    trace = flow.integrate_flow(F, np.eye(3), cert.lam, cert.derivation, config)
    assert trace.samples[0][1] <= 1e-13


def test_einstein_fixed_point_solv4():
    F, cert = certified("solv4")
    rhs = flow.flow_rhs(F, np.eye(4), cert.lam, cert.derivation)
    assert np.max(np.abs(rhs)) <= 1e-10


def test_integrate_flow_stationary_stays_put():
    F, cert = certified("heisenberg3")
    config = flow.FlowConfig(dt=1e-2, t_max=1.0)
    trace = flow.integrate_flow(F, np.eye(3), cert.lam, cert.derivation, config)
    assert trace.final.t == pytest.approx(1.0)
    assert np.max(np.abs(trace.final.G - np.eye(3))) <= 1e-12
    for t, resid, dist, rhs_norm in trace.samples:
        assert resid <= 1e-12 and dist <= 1e-12 and rhs_norm <= 1e-12


def test_integrate_flow_perturbation_decays():
    F, cert = certified("heisenberg3")
    rng = np.random.default_rng(5)
    H = flow.random_unit_sym(rng, 3, 1)[0]
    G0 = np.eye(3) + 1e-3 * H
    config = flow.FlowConfig(dt=1e-3, t_max=5.0, sample_every=100)
    trace = flow.integrate_flow(F, G0, cert.lam, cert.derivation, config)
    first = trace.samples[0][1]
    last = trace.samples[-1][1]
    assert last < 0.05 * first  # substantial decay over t=5
    # residual samples are (weakly) decreasing up to integrator noise
    residuals = [s[1] for s in trace.samples]
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


@pytest.mark.parametrize(
    "G0, error, message",
    [
        (2e6 * np.eye(3), Blowup, "metric norm exceeded 1e+06"),
        (np.diag([1.0, 1.0, 1e-13]), PositivityLost, "condition number exceeded"),
        (np.diag([1.0, 1.0, -1.0]), PositivityLost, "lost positive definiteness"),
        (np.array([np.eye(3), np.diag([1.0, 1.0, 1e-13])]), PositivityLost,
         "condition number exceeded"),
    ],
    ids=["norm", "condition", "indefinite", "stack-condition"],
)
def test_integrate_flow_aborts_on_a_bad_state(G0, error, message):
    F, cert = certified("heisenberg3")
    with pytest.raises(error, match=re.escape(message)):
        flow.integrate_flow(F, G0, cert.lam, cert.derivation, flow.FlowConfig(dt=1e-3, t_max=1e-3))


@pytest.mark.parametrize("name", ["heisenberg5", "solv4"])
def test_integrate_flow_step_is_classical_rk4(name):
    F, cert = certified(name)
    dt = 1e-2
    G = np.eye(F.dim) + 1e-3 * flow.random_unit_sym(np.random.default_rng(4), F.dim, 3)
    config = flow.FlowConfig(dt=dt, t_max=dt)
    got = flow.integrate_flow(F, G, cert.lam, cert.derivation, config).final.G

    def k(X):
        return flow.flow_rhs(F, X, cert.lam, cert.derivation)

    k1 = k(G)
    k2 = k(G + 0.5 * dt * k1)
    k3 = k(G + 0.5 * dt * k2)
    k4 = k(G + dt * k3)
    want = G + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(G))


def test_rk4_convergence_order():
    # halving dt should shrink the error ~16x for a smooth flow
    F, cert = certified("heisenberg3")
    rng = np.random.default_rng(11)
    G0 = np.eye(3) + 1e-3 * flow.random_unit_sym(rng, 3, 1)[0]

    def final(dt):
        cfg = flow.FlowConfig(dt=dt, t_max=0.5, sample_every=10**9)
        return flow.integrate_flow(F, G0, cert.lam, cert.derivation, cfg).final.G

    ref = final(0.003125)
    e1 = np.max(np.abs(final(0.05) - ref))
    e2 = np.max(np.abs(final(0.025) - ref))
    assert e1 / e2 > 10.0


def test_config_validation():
    with pytest.raises(ValueError):
        flow.FlowConfig(dt=0.0)
    with pytest.raises(ValueError):
        flow.FlowConfig(t_max=-1.0)
    with pytest.raises(ValueError, match="t_max"):
        flow.FlowConfig(dt=1e-3, t_max=4e-4)  # rounds to no step


def test_random_unit_sym_properties(rng):
    H = flow.random_unit_sym(rng, 4, 50)
    assert H.shape == (50, 4, 4)
    assert np.max(np.abs(H - np.swapaxes(H, -1, -2))) == 0.0
    assert np.allclose(np.linalg.norm(H, axis=(-2, -1)), 1.0, atol=1e-12)


def test_perturbation_experiment_h3():
    F, cert = certified("heisenberg3")
    config = flow.FlowConfig(dt=1e-3, t_max=3.0, sample_every=50)
    reports = flow.perturbation_experiment(F, cert, 1e-3, 4, seed=42, config=config)
    assert len(reports) == 4
    for rep in reports:
        assert rep.decayed
        assert rep.final_residual < rep.initial_residual
        assert rep.monotonicity_violations == 0


def test_perturbation_experiment_zero_eps_counts_as_decayed():
    F, cert = certified("heisenberg3")
    config = flow.FlowConfig(dt=1e-2, t_max=0.5)
    reports = flow.perturbation_experiment(F, cert, 0.0, 2, seed=1, config=config)
    for rep in reports:
        assert rep.initial_residual <= 1e-13
        assert rep.decayed  # final <= 1e-12 floor


def test_perturbation_experiment_matches_single_integration():
    F, cert = certified("heisenberg3")
    config = flow.FlowConfig(dt=1e-2, t_max=1.0, sample_every=10)
    reports = flow.perturbation_experiment(F, cert, 1e-3, 3, seed=9, config=config)
    rng = np.random.default_rng(9)
    H = flow.random_unit_sym(rng, 3, 3)
    for i, rep in enumerate(reports):
        trace = flow.integrate_flow(
            F, np.eye(3) + 1e-3 * H[i], cert.lam, cert.derivation, config
        )
        assert rep.final_residual == pytest.approx(
            trace.samples[-1][1], abs=1e-14
        )


@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_perturbation_experiment_reads_out_python_values(eps):
    F, cert = certified("heisenberg3")
    config = flow.FlowConfig(dt=1e-2, t_max=1.0, sample_every=10)
    reports = flow.perturbation_experiment(F, cert, eps, 3, seed=5, config=config)
    assert [rep.trial for rep in reports] == [0, 1, 2]
    for rep in reports:
        assert [type(v) for v in vars(rep).values()] == [int, float, float, bool, int]
        assert rep.decayed == (rep.final_residual < rep.initial_residual
                               or rep.final_residual <= algebra.DECAY_TOL)


@pytest.mark.parametrize("name", ["heisenberg3", "solv4"])
def test_integrate_flow_stack_equals_single_runs(name):
    F, cert = certified(name)
    config = flow.FlowConfig(dt=1e-2, t_max=0.5, sample_every=7)
    G0 = np.eye(F.dim) + 1e-3 * flow.random_unit_sym(np.random.default_rng(2), F.dim, 3)
    stack = flow.integrate_flow(F, G0, cert.lam, cert.derivation, config)
    for i in range(3):
        single = flow.integrate_flow(F, G0[i], cert.lam, cert.derivation, config)
        assert [(s[0], *(v[i] for v in s[1:])) for s in stack.samples] == single.samples
        assert np.array_equal(stack.final.G[i], single.final.G)
        assert stack.final.t == single.final.t


def test_perturbation_experiment_rejects_nonexpanding():
    F, cert = certified("su2")
    with pytest.raises(NotExpanding):
        flow.perturbation_experiment(F, cert, 1e-3, 1, seed=0)


def test_perturbation_experiment_rejects_a_certificate_not_accepted():
    F, cert = certified("heisenberg3")
    with pytest.raises(ValueError, match="^certificate not accepted$"):
        flow.perturbation_experiment(F, replace(cert, accepted=False), 1e-3, 1, seed=0)


def test_perturbation_experiment_rejects_large_eps():
    F, cert = certified("heisenberg3")
    with pytest.raises(ValueError):
        flow.perturbation_experiment(F, cert, 0.5, 1, seed=0)


def test_perturbation_experiment_rejects_negative_eps():
    F, cert = certified("heisenberg3")
    with pytest.raises(ValueError, match="eps"):
        flow.perturbation_experiment(F, cert, -5.0, 1, seed=0)
