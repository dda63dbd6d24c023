"""From structure constants to a soliton certificate.

The 3-dimensional Heisenberg algebra has a single bracket [e1, e2] = e3.
This walk-through parses it, computes its left-invariant curvature, and
certifies that the standard metric is an algebraic Ricci soliton
Ric = lambda I + D with lambda = -3/2 and D = diag(1, 1, 2).
"""

import json

import numpy as np

from solstab import algebra, curvature, soliton

# ---------------------------------------------------------------------------
# 1. Describe the algebra.  Bracket entries are (i, j, k, value), 1-based
#    with i < j, meaning <[e_i, e_j], e_k> = value.
# ---------------------------------------------------------------------------
doc = {"name": "heisenberg3", "dim": 3, "brackets": [[1, 2, 3, 1.0]]}
L = algebra.parse_algebra(json.dumps(doc))

algebra.validate_algebra(L)  # raises AlgebraFormatError when Jacobi fails
*_, residual = algebra.worst_jacobi_triple(L.bracket_tensor)
print(f"Jacobi residual: {residual:g}")

profile = algebra.structure_profile(L)
print(f"nilpotency step: {profile.step}, unimodular: {profile.unimodular}")

# ---------------------------------------------------------------------------
# 2. Curvature in an orthonormal frame.  The summary computes Ricci two
#    independent ways (closed form and Riemann contraction) and raises if
#    they disagree; the residual of that cross-check is recorded.
# ---------------------------------------------------------------------------
F = algebra.orthonormal_frame(L)
summary = curvature.curvature_summary(F)
print("\nRicci endomorphism:")
print(np.array_str(summary.ric, precision=6, suppress_small=True))
print(f"scalar curvature: {summary.scal:g}")
print(f"Ricci cross-check residual: {summary.cross_check_residual:.3e}")

# Sectional curvatures show the mixed signs typical of nilmanifolds:
R = summary.riemann.R
print(f"K(e1,e2) = {R[0, 1, 1, 0]:+.4f}   K(e1,e3) = {R[0, 2, 2, 0]:+.4f}")

# ---------------------------------------------------------------------------
# 3. The soliton certificate in closed form.  The derivation defect
#    delta(X) = X[.,.] - [X.,.] - [.,X.] is linear and delta(I) = -c, so
#    lambda = -<delta(Ric), c> / <c, c> makes D = Ric - lambda I as close
#    to a derivation as any lambda can; the residual is max|delta(D)|.
# ---------------------------------------------------------------------------
delta_I = algebra.derivation_defect(F.c, np.eye(3))
print(f"\nmax|delta(I) + c| = {np.max(np.abs(delta_I + F.c)):g}")

cert = soliton.certify_soliton(F, summary)
print(f"lambda = {cert.lam:g}")
print("D =")
print(np.array_str(cert.derivation, precision=6, suppress_small=True))
print(f"residual max|delta(D)| = {cert.residual:.3e}")
print(f"accepted: {cert.accepted}, expanding: {cert.expanding}")

# The nilsoliton identity tr D^2 = -lambda tr D is an exact consistency check:
D = cert.derivation
print(
    f"nilsoliton identity: tr D^2 = {np.trace(D @ D):g}, "
    f"-lambda tr D = {-cert.lam * cert.trace_D:g}"
)
