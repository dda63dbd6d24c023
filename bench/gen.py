"""Input generator for the solstab benchmark.

    python3 bench/gen.py --workload table-kp8 --seed 1 --out DIR

writes the workload's `.alg` files into DIR together with `manifest.json`,
which holds the values the benchmark's checks compare against.  Every such
value is computed here with numpy alone, never through `solstab`:

- the algebras are nilpotent, built in nice bases from filiform pieces
  L_k, Heisenberg factors h_{2m+1}, free 2-step factors n_{r,2} and flat
  factors R^k (direct sums, and central products that identify the
  one-dimensional centres of L_k and h pieces);
- their structure constants come from Payne's soliton system U v = [1]
  (T. L. Payne, Geom. Dedicata 145, 2010): for the index set of nonzero
  brackets, Y has one row e_i + e_j - e_k per bracket [e_i, e_j] = c e_k,
  U = Y Y^T, and c^2 = t v makes the basis orthonormal for a nilsoliton
  with lambda = -t/2 and the diagonal derivation D = -Y^T (t v)/2 - lambda;
- the step comes from the construction, the Jacobi residual from the
  written constants, and rotated copies record their rotation and base.
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import numpy as np

WORKLOADS = ("table-kp8", "analyze-ladder", "flow-decay")

# (step, lambda) of the 109 published eight-dimensional rows of the
# Kadioglu-Payne nilsoliton classification, in row order.
KP8_STEP_LAMBDA = [
    (7, -79.5), (7, -14.5), (4, -8.0), (5, -11.5), (6, -18.5), (3, -200.5),
    (4, -256.5), (4, -340.5), (5, -9.0), (3, -17.0), (3, -5.5), (4, -22.0),
    (5, -10.5), (6, -14.5), (3, -6.5), (3, -18.5), (3, -6.5), (4, -10.5),
    (4, -9.0), (4, -10.5), (3, -9.5), (4, -9.5), (5, -12.0), (6, -17.0),
    (3, -6.5), (3, -7.5), (3, -7.0), (3, -9.0), (4, -13.5), (4, -16.0),
    (4, -19.5), (3, -8.0), (3, -8.5), (3, -8.0), (3, -9.5), (3, -9.5),
    (4, -12.0), (5, -23.5), (3, -9.0), (4, -13.5), (4, -13.5), (3, -10.5),
    (4, -15.5), (3, -11.5), (3, -11.5), (3, -13.5), (3, -12.0), (4, -14.5),
    (3, -11.5), (3, -12.0), (3, -14.5), (3, -14.5), (3, -15.5), (4, -18.5),
    (3, -11.5), (3, -13.5), (3, -13.5), (3, -18.5), (3, -18.5), (3, -14.5),
    (3, -16.5), (3, -15.5), (3, -14.5), (4, -29.5), (4, -19.5), (3, -17.0),
    (5, -146.5), (3, -18.5), (3, -19.0), (3, -18.5), (3, -18.5), (4, -28.5),
    (3, -18.5), (3, -19.0), (4, -34.0), (3, -19.5), (4, -24.0), (4, -29.5),
    (3, -23.5), (3, -23.5), (4, -41.5), (3, -23.5), (4, -28.5), (4, -34.0),
    (4, -40.5), (4, -34.5), (4, -40.5), (4, -56.0), (5, -61.5), (3, -31.5),
    (3, -39.5), (4, -61.5), (4, -55.5), (4, -53.5), (6, -140.5), (3, -56.0),
    (3, -146.5), (4, -113.5), (5, -140.5), (4, -113.5), (3, -113.5),
    (4, -148.5), (5, -176.5), (3, -113.5), (4, -140.5), (4, -146.5),
    (4, -176.5), (3, -140.5), (3, -146.5),
]

# Eight-dimensional nice-basis structures, by step.  "*" is a central
# product (the pieces share their centre), "+" a direct sum.
KP8_POOL = {
    3: ["L4 + R4", "L4 + L4", "L4 + h3 + R1", "L4*L4 + R1", "L4*h5", "L4*h3 + R2"],
    4: ["L5 + R3", "L5 + h3", "L5*h3 + R1", "L5*L4"],
    5: ["L6 + R2", "L6*h3"],
    6: ["L7 + R1"],
    7: ["L8"],
}

# analyze-ladder: dim 3 to 16, plus a rotated copy of ROTATED_LADDER_BASE.
LADDER = ["h3", "h5", "h7", "h9", "h11", "h13", "h15",
          "n32", "n32 + R2", "n42", "n42 + R6"]
ROTATED_LADDER_BASE = "h9"

FLOW_ALGEBRA = "h5"  # the catalog's heisenberg5, brackets of length 1

JACOBI_TOL = 1e-9  # relative to max c^2


# --- pieces -----------------------------------------------------------------


def _piece(token: str):
    """(dim, step, triples, centre) of one piece; centre None if not 1-dim."""
    m = re.fullmatch(r"([LhnR])(\d+)", token)
    if m is None:
        raise ValueError(f"unknown piece {token!r}")
    kind, size = m.group(1), int(m.group(2))
    if kind == "L":  # model filiform: [e_1, e_i] = e_{i+1}
        if size < 3:
            raise ValueError("L_k needs k >= 3")
        return size, size - 1, [(0, i, i + 1) for i in range(1, size - 1)], size - 1
    if kind == "h":  # Heisenberg: [e_{2i-1}, e_{2i}] = e_{2m+1}
        if size < 3 or size % 2 == 0:
            raise ValueError("h_{2m+1} needs an odd dimension >= 3")
        m_ = (size - 1) // 2
        return size, 2, [(2 * i, 2 * i + 1, 2 * m_) for i in range(m_)], 2 * m_
    if kind == "n":  # free 2-step on r generators, written n{r}2
        r = size // 10
        if size % 10 != 2 or r < 2:
            raise ValueError("free 2-step pieces are written n{r}2")
        pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
        return r + len(pairs), 2, [(i, j, r + a) for a, (i, j) in enumerate(pairs)], None
    return size, 1, [], None  # flat R^k


def build_structure(spec: str):
    """(dim, step, triples) of a spec such as "L5*h3 + R1", 0-based triples."""
    dim, step, triples = 0, 1, []
    for group in spec.split("+"):
        pieces = [_piece(tok.strip()) for tok in group.split("*")]
        centre = None
        for n, s, tr, c in pieces:
            if len(pieces) > 1 and c is None:
                raise ValueError(f"{spec}: only pieces with a 1-dim centre are glued")
            # indices of this piece: the centre is shared after the first piece
            idx, nxt = [], dim
            for local in range(n):
                if centre is not None and local == c:
                    idx.append(centre)
                else:
                    idx.append(nxt)
                    nxt += 1
            if centre is None and c is not None:
                centre = idx[c]
            triples += [(idx[i], idx[j], idx[k]) for i, j, k in tr]
            dim, step = nxt, max(step, s)
    return dim, step, triples


# --- Payne's system and the written constants --------------------------------


def payne(dim: int, triples):
    """The solution v > 0 of U v = [1], and Y."""
    Y = np.zeros((len(triples), dim))
    for t, (i, j, k) in enumerate(triples):
        Y[t, i] += 1.0
        Y[t, j] += 1.0
        Y[t, k] -= 1.0
    U = Y @ Y.T
    v, *_ = np.linalg.lstsq(U, np.ones(len(triples)), rcond=None)
    if np.max(np.abs(U @ v - 1.0)) > 1e-12 or np.min(v) <= 0.0:
        raise ValueError("Payne's system U v = [1] has no positive solution")
    return v, Y


def soliton_values(Y: np.ndarray, v: np.ndarray, t: float):
    """lambda and the diagonal of D for the nice-basis metric with c^2 = t v."""
    lam = -0.5 * t
    d = -0.5 * (Y.T @ (t * v)) - lam
    if Y.size and np.max(np.abs(Y @ d)) > 1e-9 * max(1.0, t):
        raise ValueError("diagonal D is not a derivation")
    return lam, d


def jacobi_residual(c: np.ndarray) -> float:
    """max |[[x,y],z] + [[y,z],x] + [[z,x],y]| over basis triples."""
    jac = (np.einsum("ijp,pkm->ijkm", c, c) + np.einsum("jkp,pim->ijkm", c, c)
           + np.einsum("kip,pjm->ijkm", c, c))
    return float(np.max(np.abs(jac))) if jac.size else 0.0


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotate(c: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Constants in the orthonormal basis new_a = sum_i Q[i, a] e_i."""
    return np.einsum("ia,jb,kc,ijk->abc", Q, Q, Q, c)


def entries_of(c: np.ndarray):
    n = c.shape[0]
    return [(i, j, k, float(c[i, j, k])) for i in range(n) for j in range(i + 1, n)
            for k in range(n) if c[i, j, k] != 0.0]


def write_alg(out: Path, name: str, dim: int, entries) -> str:
    doc = {"name": name, "dim": dim,
           "brackets": [[i + 1, j + 1, k + 1, v] for i, j, k, v in entries]}
    (out / f"{name}.alg").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return f"{name}.alg"


def nice_algebra(spec: str, lam: float | None, rng: np.random.Generator | None):
    """Constants c[i,j,k] of one nice-basis nilsoliton, and a dict of its
    dim, step, lambda, tr D, diagonal derivation and basis relabelling.

    With ``lam`` the constants are scaled to that lambda; without it every
    constant is 1 (possible when v is constant, as for h and n pieces).  With
    ``rng`` the basis is permuted and its vectors' signs flipped at random,
    which gives an isometric algebra.
    """
    dim, step, triples = build_structure(spec)
    v, Y = payne(dim, triples)
    if lam is None:
        if np.ptp(v) > 1e-12:
            raise ValueError(f"{spec}: unit constants are not a soliton")
        t = 1.0 / float(v[0])
        consts = np.ones_like(v)
    else:
        t = -2.0 * lam
        consts = np.sqrt(t * v)
    lam_p, d = soliton_values(Y, v, t)
    perm, signs = np.arange(dim), np.ones(dim)
    if rng is not None:
        perm, signs = rng.permutation(dim), rng.choice([-1.0, 1.0], size=dim)
    c = np.zeros((dim, dim, dim))
    for (i, j, k), val in zip(triples, consts):
        s = signs[i] * signs[j] * signs[k] * val
        c[perm[i], perm[j], perm[k]] = s
        c[perm[j], perm[i], perm[k]] = -s
    d_perm = np.empty(dim)
    d_perm[perm] = d
    info = {"dim": dim, "step": step, "lambda": lam_p, "trace_D": float(np.sum(d)),
            "derivation": d_perm.tolist(), "perm": perm.tolist(), "signs": signs.tolist()}
    return c, info


def _record(out: Path, name: str, spec: str, c: np.ndarray, info: dict) -> dict:
    """Write the algebra with constants ``c`` and return its manifest record;
    only a Jacobi-valid algebra is kept."""
    res = jacobi_residual(c)
    if res > JACOBI_TOL * max(float(np.max(c * c)), 1.0):
        raise ValueError(f"{name}: Jacobi residual {res:.3e}")
    file = write_alg(out, name, c.shape[0], entries_of(c))
    return {"name": name, "file": file, "spec": spec, "jacobi_residual": res,
            "base": None, "rotation": None, **info}


def rotated_copy(rng, out: Path, name: str, base: dict, c_base: np.ndarray):
    """Write ``base`` in a random orthonormal basis; (record, constants)."""
    Q = random_orthogonal(rng, base["dim"])
    c = rotate(c_base, Q)
    keep = ("dim", "step", "lambda", "trace_D", "closed_lambda", "closed_trace_D")
    rec = _record(out, name, base["spec"], c, {k: base[k] for k in keep if k in base})
    rec.update(base=base["name"], rotation=Q.tolist())
    return rec, c


# --- workloads ---------------------------------------------------------------


def gen_table_kp8(rng: np.random.Generator, out: Path, rows=None) -> list[dict]:
    """One file per kp8 row.  A row whose (step, lambda) already appeared is a
    random rotation of the first row with that pair; the others pick a
    structure of their step and a random isometric relabelling."""
    rows = KP8_STEP_LAMBDA if rows is None else rows
    records, first, tensors = [], {}, {}
    for idx, (step, lam) in enumerate(rows, start=1):
        name = f"kp8_{idx:03d}"
        if (step, lam) in first:
            base = records[first[(step, lam)]]
            rec, c = rotated_copy(rng, out, name, base, tensors[base["name"]])
        else:
            pool = KP8_POOL[step]
            spec = pool[int(rng.integers(len(pool)))]
            c, info = nice_algebra(spec, lam, rng)
            if info["step"] != step:
                raise ValueError(f"{spec} has step {info['step']}, not {step}")
            rec = _record(out, name, spec, c, info)
            first[(step, lam)] = len(records)
        tensors[name] = c
        records.append(rec)
    return records


def ladder_closed_form(spec: str) -> tuple[float, float]:
    """(lambda, tr D) with unit constants: h_{2m+1} has lambda = -(m+2)/2 and
    tr D = (m+1)^2, n_{r,2} has lambda = -(r - 1/2) and tr D = r^3/2, and each
    flat factor R^k adds k|lambda| to tr D."""
    head, *flat = [p.strip() for p in spec.split("+")]
    if head.startswith("h"):
        m = (int(head[1:]) - 1) // 2
        lam, trace_D = -(m + 2) / 2, float((m + 1) ** 2)
    else:
        r = int(head[1:]) // 10
        lam, trace_D = -(r - 0.5), r ** 3 / 2
    for f in flat:
        trace_D += int(f[1:]) * abs(lam)
    return lam, trace_D


def _ladder_name(spec: str) -> str:
    return spec.replace(" ", "").replace("+", "_plus_")


def gen_analyze_ladder(rng: np.random.Generator, out: Path) -> list[dict]:
    records, tensors = [], {}
    for spec in LADDER:
        name = _ladder_name(spec)
        tensors[name], info = nice_algebra(spec, None, None)
        info["closed_lambda"], info["closed_trace_D"] = ladder_closed_form(spec)
        records.append(_record(out, name, spec, tensors[name], info))
    base = next(r for r in records if r["spec"] == ROTATED_LADDER_BASE)
    records.append(rotated_copy(rng, out, f"{base['name']}_rot", base, tensors[base["name"]])[0])
    return records


def gen_flow_decay(rng: np.random.Generator, out: Path) -> list[dict]:
    c, info = nice_algebra(FLOW_ALGEBRA, None, None)
    info["closed_lambda"], info["closed_trace_D"] = ladder_closed_form(FLOW_ALGEBRA)
    rec = _record(out, "heisenberg5", FLOW_ALGEBRA, c, info)
    # one flow seed per operation; operation j of a run uses op_seeds[j % len]
    rec["op_seeds"] = [int(s) for s in rng.integers(0, 2**31 - 1, size=64)]
    return [rec]


GENERATORS = {
    "table-kp8": gen_table_kp8,
    "analyze-ladder": gen_analyze_ladder,
    "flow-decay": gen_flow_decay,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload and return its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    for old in out.glob("*.alg"):
        old.unlink()
    rng = np.random.default_rng([seed % 2**63, WORKLOADS.index(workload)])
    manifest = {"workload": workload, "seed": seed,
                "inputs": GENERATORS[workload](rng, out)}
    (out / "manifest.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    manifest = generate(args.workload, args.seed, args.out)
    print(f"{len(manifest['inputs'])} inputs in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
