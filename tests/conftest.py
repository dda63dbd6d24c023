import json

import numpy as np
import pytest

from solstab import algebra, catalog, curvature


def framed(name):
    return algebra.orthonormal_frame(catalog.load(name))


def summary_of(name):
    return curvature.curvature_summary(framed(name))


def heisenberg15():
    """The Heisenberg algebra h15: [e_2i-1, e_2i] = e_15 for i = 1..7."""
    doc = {"dim": 15, "brackets": [[2 * i - 1, 2 * i, 15, 1.0] for i in range(1, 8)]}
    return algebra.parse_algebra(json.dumps(doc))


def random_solvable(rng, n):
    """Abelian R^(n-1) extended by the last basis vector acting by a random
    matrix; always satisfies the Jacobi identity."""
    m = n - 1
    D = rng.standard_normal((m, m))
    entries = []
    for j in range(m):
        for k in range(m):
            if D[k, j] != 0.0:
                entries.append((j + 1, n, k + 1, -float(D[k, j])))
    return algebra.MetricLieAlgebra(
        name=f"rand_solv_{n}", dim=n, brackets=tuple(entries), metric=np.eye(n)
    )


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def conjugate_framed(F, Q):
    """Re-express an orthonormal frame in the rotated basis new_a = sum Q[i,a] e_i."""
    c = np.einsum("ia,jb,kc,ijk->abc", Q, Q, Q, F.c)
    return algebra.FramedAlgebra(name=F.name, dim=F.dim, c=c, provenance=Q)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
