"""Dynamical confirmation: perturbations decay under the normalized flow.

A soliton (lambda, D) is a fixed point of the curvature-normalized Ricci
flow  dG/dt = -2 Ric(G) + 2 lambda G + G D + D^T G  on left-invariant
metrics.  Strict linear stability predicts that small perturbations of the
soliton metric flow back; this demo integrates the ODE with fixed-step
fourth-order Runge-Kutta and watches the soliton residual decay.
"""

import numpy as np

from solstab import algebra, catalog, curvature, flow, soliton

F = algebra.orthonormal_frame(catalog.load("heisenberg3"))
summary = curvature.curvature_summary(F)
cert = soliton.certify_soliton(F, summary)

# ---------------------------------------------------------------------------
# 1. The soliton is a numerical fixed point.
# ---------------------------------------------------------------------------
rhs = flow.flow_rhs(F, np.eye(3), cert.lam, cert.derivation)
print(f"||rhs|| at the soliton metric: {np.max(np.abs(rhs)):.3e}")

# ---------------------------------------------------------------------------
# 2. Flow a single perturbed metric and print the residual trace.  The
#    monitored quantity ||Ric - lambda G - sym(GD)|| / ||G|| vanishes
#    exactly on the soliton orbit, so it is insensitive to the
#    diffeomorphism drift that raw metric distance would pick up.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(0)
H = flow.random_unit_sym(rng, 3, 1)[0]
G0 = np.eye(3) + 1e-3 * H

config = flow.FlowConfig(dt=1e-3, t_max=5.0, sample_every=1000)
trace = flow.integrate_flow(F, G0, cert.lam, cert.derivation, config)
print("\n   t      residual      rhs norm")
for t, resid, dist, rhs_norm in trace.samples:
    print(f"  {t:4.1f}   {resid:.6e}   {rhs_norm:.6e}")

# ---------------------------------------------------------------------------
# 3. Many trials at once.  All trials integrate in one stacked Runge-Kutta
#    loop; each reports whether its residual decayed and how often the
#    sampled residual ever increased (0 for a cleanly attracting orbit).
# ---------------------------------------------------------------------------
reports = flow.perturbation_experiment(
    F, cert, eps=1e-3, n_trials=5, seed=7,
    config=flow.FlowConfig(dt=1e-3, t_max=5.0, sample_every=100),
)
print("\ntrial  initial        final          decayed  violations")
for r in reports:
    print(
        f"  {r.trial}    {r.initial_residual:.6e}   {r.final_residual:.6e}"
        f"   {str(r.decayed):5}    {r.monotonicity_violations}"
    )
