"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 5 needs externally supplied classification data and skips unless
the SOLSTAB_KP_DATA environment variable points at a directory containing
``kp7/`` and ``kp8/`` with one .alg file per algebra in published order.
"""

import functools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from solstab import algebra, catalog, curvature, flow, soliton, stability
from solstab.cli import analyze_file

from conftest import framed, random_solvable
from oracles import bisection_eigenvalues, brute_force_max_q
from kp_expected import DIM7_ROWS, DIM8_ROWS


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"ACCEPTANCE {num} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({label}): PASS")

        return wrapper

    return deco


def pipeline(name, lambda_hint=None):
    F = framed(name)
    summary = curvature.curvature_summary(F)
    cert = soliton.solve_algebraic_soliton(
        F, summary, algebra.derivation_basis(F), lambda_hint=lambda_hint
    )
    return F, summary, cert


@criterion(1, "curvature correctness")
def test_criterion_1_curvature(rng):
    t0 = time.perf_counter()

    def check(F):
        s = curvature.curvature_summary(F)  # raises on contraction mismatch
        R = s.riemann.R
        scale = max(1.0, float(np.max(np.abs(R))))
        assert np.max(np.abs(R + np.einsum("jikl->ijkl", R))) <= 1e-10 * scale
        assert np.max(np.abs(R + np.einsum("ijlk->ijkl", R))) <= 1e-10 * scale
        assert np.max(np.abs(R - np.einsum("klij->ijkl", R))) <= 1e-10 * scale
        bianchi = R + np.einsum("jkil->ijkl", R) + np.einsum("kijl->ijkl", R)
        assert np.max(np.abs(bianchi)) <= 1e-10 * scale
        assert s.cross_check_residual <= 1e-10

    for name in catalog.catalog_names():
        check(framed(name))
    for _ in range(100):
        n = int(rng.integers(2, 7))
        check(algebra.orthonormal_frame(random_solvable(rng, n)))
    assert time.perf_counter() - t0 < 5.0


@criterion(2, "classical values")
def test_criterion_2_classical():
    su2 = curvature.curvature_summary(framed("su2"))
    assert np.max(np.abs(su2.ric - 0.5 * np.eye(3))) <= 1e-12
    assert abs(su2.scal - 1.5) <= 1e-12

    h3 = curvature.curvature_summary(framed("heisenberg3"))
    assert np.max(np.abs(h3.ric - np.diag([-0.5, -0.5, 0.5]))) <= 1e-12

    _, _, cert = pipeline("heisenberg3")
    assert cert.accepted
    assert abs(cert.lam + 1.5) <= 1e-10
    assert np.max(np.abs(cert.derivation - np.diag([1.0, 1.0, 2.0]))) <= 1e-10
    assert cert.residual <= 1e-10
    D = cert.derivation
    assert abs(np.trace(D @ D) - 6.0) <= 1e-10
    assert abs(-cert.lam * cert.trace_D - 6.0) <= 1e-10


@criterion(3, "stability criterion on the 3-dim Heisenberg nilsoliton")
def test_criterion_3_stability():
    F, summary, cert = pipeline("heisenberg3")
    rep = stability.stability_report(F, summary, cert)
    assert rep.threshold == pytest.approx(2.0)
    assert rep.max_q < 2.0
    assert rep.q_margin > 0.1
    assert rep.q_verdict is True
    # the value is first fixed by the brute-force sphere oracle ...
    refined, _ = brute_force_max_q(summary.riemann.R, summary.ric, n_samples=1_000_000)
    assert abs(refined - rep.max_q) <= 1e-4
    # ... and then pinned as a regression constant (exact surd (sqrt(57)-3)/8)
    assert rep.max_q == pytest.approx((np.sqrt(57.0) - 3.0) / 8.0, abs=1e-10)


@criterion(4, "Einstein extensions")
def test_criterion_4_einstein_extension():
    F, _, cert = pipeline("heisenberg3")
    ext = soliton.rank_one_extension(F, cert)
    ext_summary = curvature.curvature_summary(algebra.orthonormal_frame(ext))
    ecert = soliton.check_einstein(ext_summary)
    assert ecert.accepted
    assert abs(ecert.lam + 1.5) <= 1e-8
    assert ecert.residual <= 1e-8
    form = stability.stability_form(ext_summary, stability.sym2_basis(4))
    assert stability.max_eigenvalue(form.S_Ro) < 1.5

    Fa, _, certa = pipeline("abelian3", lambda_hint=-1.0)
    exta = soliton.rank_one_extension(Fa, certa)
    sa = curvature.curvature_summary(algebra.orthonormal_frame(exta))
    ecerta = soliton.check_einstein(sa)
    assert ecerta.accepted
    assert abs(ecerta.lam + 1.0) <= 1e-8
    forma = stability.stability_form(sa, stability.sym2_basis(4))
    assert stability.max_eigenvalue(forma.S_Ro) < 1.0


def _table_rows(data_dir, expected):
    files = sorted(Path(data_dir).glob("*.alg"))
    assert len(files) == len(expected), (
        f"{data_dir}: found {len(files)} .alg files, expected {len(expected)}"
    )
    for path, (idx, step, lam, trD, max_q, max_Ro) in zip(files, expected):
        rec = analyze_file(path, extend=True)
        r = rec.report
        assert r is not None, f"row {idx}: not certified as a soliton"
        assert rec.profile.step == step, f"row {idx}: step {rec.profile.step} != {step}"
        assert r.lam == pytest.approx(lam, abs=1e-6), f"row {idx}: lambda"
        assert r.trace_D == pytest.approx(trD, abs=1e-6), f"row {idx}: tr D"
        assert r.max_q == pytest.approx(max_q, abs=1e-3), f"row {idx}: max q"
        assert r.max_Ro == pytest.approx(max_Ro, abs=1e-3), f"row {idx}: max Ro"
        assert r.q_verdict is True, f"row {idx}: q verdict"
        assert r.Ro_verdict is True, f"row {idx}: Ro verdict"


@criterion(5, "classification table reproduction")
def test_criterion_5_tables():
    root = os.environ.get("SOLSTAB_KP_DATA")
    if not root:
        print("ACCEPTANCE 5 (classification table reproduction): SKIP "
              "(SOLSTAB_KP_DATA not set)")
        pytest.skip("external classification data not supplied")
    _table_rows(Path(root) / "kp7", DIM7_ROWS)
    _table_rows(Path(root) / "kp8", DIM8_ROWS)


@criterion(6, "Gaussian extension dimension")
def test_criterion_6_gaussian():
    # sharp mode returns k = 0 for every catalog input certified stable
    for name in catalog.catalog_names():
        hints = catalog.load_hints(name)
        F, summary, cert = pipeline(name, lambda_hint=hints.get("lambda"))
        if not cert.accepted or cert.lam >= 0:
            continue
        rep = stability.stability_report(F, summary, cert)
        if rep.q_verdict is not True:
            continue
        plan = soliton.gaussian_extension_dimension(
            summary, summary.riemann, cert, rep.max_q, mode="sharp"
        )
        assert plan.k == 0, name

    # paper-bound mode on flat R^2 with lambda = -1
    F2, s2, c2 = pipeline("abelian2", lambda_hint=-1.0)
    plan2 = soliton.gaussian_extension_dimension(
        s2, s2.riemann, c2, 0.0, mode="paper-bound", ignore_stability=True
    )
    assert plan2.k == 5
    assert plan2.bracket_value_at_k < -1.0

    # k is monotone non-increasing as |lambda| grows (metric shrink sweep)
    import json

    ks = []
    for t in np.linspace(1.0, 0.1, 10):
        doc = {"dim": 3, "brackets": [[1, 2, 3, 1.0]],
               "metric": (t * np.eye(3)).tolist()}
        L = algebra.parse_algebra(json.dumps(doc))
        Ft = algebra.orthonormal_frame(L)
        st = curvature.curvature_summary(Ft)
        ct = soliton.solve_algebraic_soliton(Ft, st, algebra.derivation_basis(Ft))
        plan = soliton.gaussian_extension_dimension(
            st, st.riemann, ct, np.inf, mode="paper-bound", ignore_stability=True
        )
        ks.append(plan.k)
    assert all(b <= a for a, b in zip(ks, ks[1:]))


@criterion(7, "flow stationarity and perturbation decay")
def test_criterion_7_flow():
    t0 = time.perf_counter()
    for name in catalog.catalog_names():
        hints = catalog.load_hints(name)
        F, summary, cert = pipeline(name, lambda_hint=hints.get("lambda"))
        if not cert.accepted:
            continue
        rhs = flow.flow_rhs(F, np.eye(F.dim), cert.lam, cert.derivation)
        assert np.max(np.abs(rhs)) <= 1e-10, name

    F, _, cert = pipeline("heisenberg3")
    config = flow.FlowConfig(dt=1e-3, t_max=10.0)
    trials = flow.perturbation_experiment(
        F, cert, eps=1e-3, n_trials=10, seed=0, config=config
    )
    assert len(trials) == 10
    for t in trials:
        assert t.final_residual <= t.initial_residual / 10.0, t

    # step-halving convergence of order >= 4
    rng = np.random.default_rng(3)
    G0 = np.eye(3) + 1e-3 * flow.random_unit_sym(rng, 3, 1)[0]

    def final(dt):
        cfg = flow.FlowConfig(dt=dt, t_max=0.5, sample_every=10**9)
        return flow.integrate_flow(F, G0, cert.lam, cert.derivation, cfg).final.G

    ref = final(0.003125)
    e1 = np.max(np.abs(final(0.05) - ref))
    e2 = np.max(np.abs(final(0.025) - ref))
    assert e1 / e2 >= 2.0**4 * 0.7  # 4th order with 30% slack
    assert time.perf_counter() - t0 < 30.0


@criterion(8, "eigensolver vs bisection oracle")
def test_criterion_8_eigensolver(rng):
    for trial in range(50):
        n = int(rng.integers(2, 46))
        A = rng.standard_normal((n, n))
        S = A + A.T
        # jacobi_eigenvalues is the routine every max q and max Ro comes from
        got = stability.jacobi_eigenvalues(S)
        want = bisection_eigenvalues(S)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale, (trial, n)
