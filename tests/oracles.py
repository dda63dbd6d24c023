"""Independent oracles used to check the library's computational paths.

Nothing here may share code with the paths under test: eigenvalues come
from Householder tridiagonalization plus Sturm-count bisection on the
characteristic polynomial recurrence, the maximum of the stability
form comes from random sampling of the unit sphere of symmetric tensors
followed by shifted power-iteration refinement of the direct formula, and
the derivation constraints are assembled one row at a time.  The tensor
kernels of the verdict path (Riemann, Jacobiator, derivation defect, the
Sym^2 form) have references here in their index form, as einsum and kron.
The flow's Ricci kernel, prepared once per bracket tensor, has as its
reference the same closed form evaluated whole on every call.  The bracket
list parser has as its reference the column-by-column version it replaced,
with its own copy of the message writer that version called.
"""

import itertools
import sys

import numpy as np

from solstab.algebra import _finite, _integer
from solstab.errors import AlgebraFormatError


def tridiagonalize(A):
    """Householder reduction of a symmetric matrix to tridiagonal form."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    for k in range(n - 2):
        x = A[k + 1 :, k]
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        v = x.copy()
        v[0] += (np.copysign(1.0, x[0]) if x[0] != 0 else 1.0) * nx
        v /= np.linalg.norm(v)
        P = np.eye(n)
        P[k + 1 :, k + 1 :] -= 2.0 * np.outer(v, v)
        A = P @ A @ P
    return np.diag(A).copy(), np.diag(A, 1).copy()


def count_below(d, e, x):
    """Eigenvalues of the tridiagonal (d, e) strictly below x, via the sign
    pattern of the leading-principal-minor (characteristic polynomial)
    recurrence."""
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    for i in range(1, len(d)):
        if q == 0.0:
            q = 1e-300
        q = d[i] - x - e[i - 1] * e[i - 1] / q
        if q < 0:
            count += 1
    return count


def bisection_eigenvalues(A, tol=1e-12):
    """All eigenvalues of a symmetric matrix by bisection, sorted ascending."""
    d, e = tridiagonalize(A)
    n = len(d)
    if n == 1:
        return d.copy()
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = float(np.min(d - radius)) - 1.0
    hi = float(np.max(d + radius)) + 1.0
    out = np.empty(n)
    for k in range(1, n + 1):
        a, b = lo, hi
        # tolerance is relative to magnitude: near 1e12 doubles are spaced
        # far wider than any fixed absolute tol, and mid would stop moving
        while b - a > tol * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                break
            if count_below(d, e, mid) >= k:
                b = mid
            else:
                a = mid
        out[k - 1] = 0.5 * (a + b)
    return out


def direct_q(R, ric, h):
    """q(h) evaluated straight from its index definition."""
    n = R.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            ricci_term = 0.0
            for k in range(n):
                ricci_term += ric[i, k] * h[k, j]
            for p in range(n):
                for q in range(n):
                    total += R[i, p, q, j] * h[p, q] * h[i, j]
            total += ricci_term * h[i, j]
    return total


def _apply_form(R, ric, h):
    out = np.einsum("ipqj,pq->ij", R, h) + 0.5 * (ric @ h + h @ ric)
    return 0.5 * (out + out.T)


def brute_force_max_q(R, ric, n_samples=1_000_000, seed=1234, refine_steps=400):
    """Max of q over unit symmetric tensors: dense random sampling plus
    shifted power iteration on the form itself (never an eigensolver)."""
    n = R.shape[0]
    rng = np.random.default_rng(seed)
    best_val = -np.inf
    best_h = None
    chunk = 200_000
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        H = rng.standard_normal((m, n, n))
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        H /= np.linalg.norm(H, axis=(-2, -1), keepdims=True)
        vals = np.einsum("ipqj,spq,sij->s", R, H, H, optimize=True) + np.einsum(
            "ik,skj,sij->s", ric, H, H, optimize=True
        )
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best_h = H[idx]
        done += m
    sampled_max = best_val

    # shift makes the form positive definite so power iteration climbs to
    # the top eigenvector; the shift cancels in the Rayleigh quotient
    shift = 1.0 + float(np.sum(np.abs(R)) + np.sum(np.abs(ric)))
    h = best_h
    for _ in range(refine_steps):
        h = _apply_form(R, ric, h) + shift * h
        h /= np.linalg.norm(h)
    refined = float(np.sum(_apply_form(R, ric, h) * h))
    return max(sampled_max, refined), sampled_max


def derivation_projector(beta):
    """Orthogonal projector onto Der(g) in gl(n), from the constraint rows
    D[e_i,e_j] - [D e_i, e_j] - [e_i, D e_j] = 0 built one (i < j, k) at a
    time, with singular values below 1e-10 of the largest counted as zero."""
    n = beta.shape[0]
    rows = [np.zeros(n * n)]  # a zero row keeps the matrix non-empty for n = 1
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = np.zeros((n, n))
                row[k, :] += beta[i, j, :]
                row[:, i] -= beta[:, j, k]
                row[:, j] -= beta[i, :, k]
                rows.append(row.ravel())
    _, s, vh = np.linalg.svd(np.array(rows), full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    null = vh[rank:]
    return null.T @ null


def nilsoliton_identity_residual(cert):
    """|tr(D^2) + lambda tr D|, which vanishes for nilsolitons."""
    D = cert.derivation
    return float(abs(np.trace(D @ D) + cert.lam * np.trace(D)))


def riemann_reference(c, gamma):
    """R[i,j,k,l] = gamma[j,k,m] gamma[i,m,l] - gamma[i,k,m] gamma[j,m,l] - c[i,j,m] gamma[m,k,l]."""
    return (
        np.einsum("jkm,iml->ijkl", gamma, gamma)
        - np.einsum("ikm,jml->ijkl", gamma, gamma)
        - np.einsum("ijm,mkl->ijkl", c, gamma)
    )


def jacobiator_reference(beta):
    """jac[i,j,k,m]: component m of [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
    return (
        np.einsum("ijp,pkm->ijkm", beta, beta)
        + np.einsum("jkp,pim->ijkm", beta, beta)
        + np.einsum("kip,pjm->ijkm", beta, beta)
    )


def derivation_defect_reference(beta, X):
    """delta(X)[i,j,k]: component k of X[e_i,e_j] - [X e_i, e_j] - [e_i, X e_j]."""
    return (np.einsum("ijm,km->ijk", beta, X) - np.einsum("pi,pjk->ijk", X, beta)
            - np.einsum("pj,ipk->ijk", X, beta))


def sym2_elements(n):
    """The Sym^2 basis as dense n x n matrices, built element by element in
    the library's order: diagonal units, then (E_ij + E_ji)/sqrt(2) for i < j."""
    elements = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        elements.append(E)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            elements.append(E)
    return np.array(elements)


def stability_form_reference(R, ric):
    """(S, S_Ro) as P M P^T, with P the rows of sym2_elements and M the
    operator on flattened n x n matrices, the Ricci term (Ric h + h Ric)/2
    as Kronecker products."""
    n = R.shape[0]
    P = sym2_elements(n).reshape(-1, n * n)
    Ro = R.transpose(0, 3, 1, 2).reshape(n * n, n * n)
    eye = np.eye(n)
    Rich = 0.5 * (np.kron(ric, eye) + np.kron(eye, ric.T))
    S_Ro = P @ Ro @ P.T
    return S_Ro + P @ Rich @ P.T, S_Ro


def ricci_tensor_reference(beta, G, A):
    """Ricci (0,2)-tensor of the inner product G (A = G^{-1}, both possibly
    stacked) in the basis of beta, every term rebuilt on each call:
    Besse's closed form (Einstein Manifolds, 7.38)

        Ric_xy = -1/2 A^ij beta_xim G_mn beta_yjn + 1/4 A^ip A^jq Y_ijx Y_pqy
                 - 1/2 B_xy - 1/2 (U_xy + U_yx)

    with Y = beta G, the Killing form B_xy = beta_xkm beta_ymk, tau_x = beta_xkk
    and U_xy = tau_p W[p,x,y], where W[p,j,x] = A^pi Y_ijx / 2 and
    T[x,j,n] = W[j,x,n] carry the first two terms."""
    n = beta.shape[-1]
    batch = G.shape[:-2]
    rows = beta.reshape(n, n * n)
    Y = (beta.reshape(n * n, n) @ G).reshape(*batch, n, n * n)
    W = 0.5 * (A @ Y)
    T = W.reshape(*batch, n, n, n).swapaxes(-3, -2).reshape(-1, n * n)
    first = (T @ rows.T).reshape(*batch, n, n)
    second = W.reshape(*batch, n * n, n).swapaxes(-1, -2) @ T.reshape(*batch, n * n, n)
    killing = rows @ beta.transpose(0, 2, 1).reshape(n, n * n).T
    U = (beta.trace(axis1=1, axis2=2) @ W).reshape(*batch, n, n)
    return first - second - 0.5 * killing - (U + U.swapaxes(-1, -2))


_NUMBERS = frozenset((int, float))


def bracket_tensor_reference(entries, n):
    """The dense structure tensor of a list of bracket entries, checked column
    by column: each check cuts the list at the first entry it rejects, and the
    first bad entry in list order is raised by `_reject_entry`, which writes
    the message.  So a comparison tests which entry is named, and the tensor."""
    first = len(entries)
    if set(map(type, entries)) - {list} or set(map(len, entries)) - {4}:
        first = next(e for e, raw in enumerate(entries)
                     if type(raw) is not list or len(raw) != 4)
    cells = list(zip(*entries[:first])) or [()] * 4
    # JSON numbers (a bool is not one), then numbers within float range
    first = _cut(map(_NUMBERS.__contains__, map(type, itertools.chain(*cells))), first)
    cells = [col[:first] for col in cells]
    first = _cut(map(sys.float_info.max.__ge__, map(abs, itertools.chain(*cells))), first)
    a = np.array([col[:first] for col in cells], dtype=float).reshape(4, first)
    idx, v = a[:3], a[3]
    # integral indices in 1..n with i < j, and no (i, j, k) twice
    ok = np.all((idx == np.floor(idx)) & (idx >= 1) & (idx <= n), axis=0) & (idx[0] < idx[1])
    i, j, k = np.where(ok, idx - 1, 0).astype(int)
    key = (i * n + j) * n + k
    order = np.argsort(key, kind="stable")  # a repeat sorts right after its first
    ok[order[1:]] &= key[order[1:]] != key[order[:-1]]
    bad = first if ok.all() else int(np.argmin(ok))
    if bad < len(entries):
        _reject_entry(entries[bad], n)
    c = np.zeros((n, n, n))
    c[i, j, k] = v
    c[j, i, k] = -v
    return c


def _reject_entry(raw, n: int):
    """Raise the error for one rejected bracket entry, checks in order."""
    what = f"bracket entry {raw!r}"
    if not isinstance(raw, list) or len(raw) != 4:
        raise AlgebraFormatError(f"malformed {what}")
    i, j, k = (_integer(x, f"index in {what}") for x in raw[:3])
    _finite(raw[3], f"value in {what}")
    for idx in (i, j, k):
        if idx < 1 or idx > n:
            raise AlgebraFormatError(f"index out of range in {what}: {idx} not in 1..{n}")
    if i >= j:
        raise AlgebraFormatError(f"{what} must have i < j")
    raise AlgebraFormatError(f"duplicate bracket entry ({i},{j},{k})")


def _cut(flags, first):
    """The first entry with a False flag, or first; flags run column by column."""
    ok = np.fromiter(flags, bool, 4 * first).reshape(4, first).all(axis=0)
    return first if ok.all() else int(np.argmin(ok))
