"""How many flat directions certify stability: the Gaussian extension.

Any expanding soliton becomes strictly linearly stable after taking a
product with a flat Gaussian soliton factor R^k for large enough k: each
flat direction contributes lambda/2 < 0 to the stability estimate while
the curvature constants stay fixed.  This demo computes the smallest such
k two ways:

  * paper-bound mode uses crude curvature bounds C1 (sum of absolute
    curvature weights) and C2 = |div X| / 2 and picks the smallest k with
    C1 + C2 + (lambda/2) k < -1;
  * sharp mode replaces C1 by the computed max q, so any input already
    certified stable needs k = 0.
"""

import numpy as np

from solstab import algebra, catalog, curvature, soliton, stability


def analyze(name, lambda_hint=None):
    F = algebra.orthonormal_frame(catalog.load(name))
    summary = curvature.curvature_summary(F)
    hints = catalog.load_hints(name)
    cert = soliton.certify_soliton(
        F, summary, lambda_hint=lambda_hint or hints.get("lambda")
    )
    form = stability.stability_form(summary, stability.sym2_basis(F.dim))
    return F, summary, cert, stability.max_eigenvalue(form.S)


# ---------------------------------------------------------------------------
# 1. Flat R^2 with lambda = -1: no curvature at all, C1 = 0, C2 = 1,
#    and the bracket C1 + C2 + (lambda/2) k crosses -1 at k = 5.
# ---------------------------------------------------------------------------
F, summary, cert, max_q = analyze("abelian2")
plan = soliton.gaussian_extension_dimension(
    summary, summary.riemann, cert, max_q, mode="paper-bound",
    ignore_stability=True,
)
print(f"flat R^2: C1 = {plan.C1:g}, C2 = {plan.C2:g}, k = {plan.k}")
print(f"bracket value at k: {plan.bracket_value_at_k:g}  (< -1)")

# ---------------------------------------------------------------------------
# 2. The Heisenberg nilsoliton: already stable, so sharp mode returns 0,
#    while the crude bounds ask for 7 flat directions.
# ---------------------------------------------------------------------------
F, summary, cert, max_q = analyze("heisenberg3")
for mode in ("sharp", "paper-bound"):
    plan = soliton.gaussian_extension_dimension(
        summary, summary.riemann, cert, max_q, mode=mode,
        ignore_stability=(mode == "paper-bound"),
    )
    print(f"\nheisenberg3 [{mode}]: C1 = {plan.C1:g}, C2 = {plan.C2:g}, "
          f"k = {plan.k}")

# ---------------------------------------------------------------------------
# 3. The product is still a soliton: verify Ric = lambda I + D on g + R^k
#    block by block.  The flat block satisfies the equation through the
#    Gaussian potential alone, so the residual never grows with k.
# ---------------------------------------------------------------------------
for k in (0, 3, 7):
    residual = soliton.verify_gaussian_product(summary, cert, k)
    print(f"product with R^{k}: soliton residual {residual:.3e}")

# ---------------------------------------------------------------------------
# 4. More expansion means fewer flat directions: shrink the metric (which
#    scales lambda up) and watch k fall.
# ---------------------------------------------------------------------------
import json

print("\nmetric scale t, lambda, k (paper-bound):")
for t in np.linspace(1.0, 0.2, 5):
    doc = {"dim": 3, "brackets": [[1, 2, 3, 1.0]],
           "metric": (t * np.eye(3)).tolist()}
    L = algebra.parse_algebra(json.dumps(doc))
    Ft = algebra.orthonormal_frame(L)
    st = curvature.curvature_summary(Ft)
    ct = soliton.certify_soliton(Ft, st)
    plan = soliton.gaussian_extension_dimension(
        st, st.riemann, ct, np.inf, mode="paper-bound", ignore_stability=True
    )
    print(f"  t = {t:.2f}   lambda = {ct.lam:8.4f}   k = {plan.k}")
