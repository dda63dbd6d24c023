"""Independent oracles used to check the library's computational paths.

Nothing here may share code with the paths under test: eigenvalues come
from Householder tridiagonalization plus Sturm-count bisection on the
characteristic polynomial recurrence, the maximum of the stability
form comes from random sampling of the unit sphere of symmetric tensors
followed by shifted power-iteration refinement of the direct formula, and
the derivation constraints are assembled one row at a time.
"""

import numpy as np


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
