"""Stability certificates and table rows for the built-in catalog.

For a soliton Ric = lambda I + D, strict linear stability is certified by
max q(h) < tr(D)/2 over unit symmetric 2-tensors, where
q(h) = <Ro h + Ric o h, h>.  For the rank-one Einstein extension the
criterion is max <Ro h, h> < -lambda.  This demo builds both forms, takes
their top eigenvalues (LAPACK eigvalsh), and prints the same rows the
``solstab table`` command produces.
"""

from solstab import algebra, catalog, curvature, soliton, stability
from solstab.cli import TABLE_COLUMNS, table_rows

# ---------------------------------------------------------------------------
# 1. One algebra in detail: the 5-dimensional Heisenberg nilsoliton.
# ---------------------------------------------------------------------------
F = algebra.orthonormal_frame(catalog.load("heisenberg5"))
summary = curvature.curvature_summary(F)
cert = soliton.certify_soliton(F, summary)

basis = stability.sym2_basis(F.dim)  # dim Sym^2 = n(n+1)/2 = 15
form = stability.stability_form(summary, basis)
max_q = stability.max_eigenvalue(form.S)
print(f"heisenberg5: lambda = {cert.lam:g}, tr D = {cert.trace_D:g}")
print(f"max q = {max_q:.6f}  <  tr(D)/2 = {0.5 * cert.trace_D:g}  -> stable")

# q of a unit basis element is a diagonal entry of the matrix form; element 8
# (after the 5 diagonal units and (1,2), (1,3), (1,4)) is h = (E_15 + E_51)/sqrt(2):
print(f"spot check q(h) = {form.S[8, 8]:.6f}")

# ---------------------------------------------------------------------------
# 2. The Einstein extension check.  The rank-one solvable extension of a
#    nilsoliton is Einstein with the same lambda; its pure-curvature form
#    Ro must stay below -lambda.
# ---------------------------------------------------------------------------
ext = soliton.rank_one_extension(F, cert)
ext_summary = curvature.curvature_summary(algebra.orthonormal_frame(ext))
ext_form = stability.stability_form(ext_summary, stability.sym2_basis(ext.dim))
max_Ro = stability.max_eigenvalue(ext_form.S_Ro)
print(f"\nextension: max Ro = {max_Ro:.6f}  <  -lambda = {-cert.lam:g}  -> stable")

# ---------------------------------------------------------------------------
# 3. Whole-catalog table, through the entry point of ``solstab table``: the
#    algebras of one dimension are analyzed together, as one stack.
# ---------------------------------------------------------------------------
print("\n" + "  ".join(TABLE_COLUMNS))
for row in table_rows([catalog.catalog_path(name) for name in catalog.catalog_names()]):
    print("  ".join(row))
