"""Curvature-normalized Ricci flow as an ODE on left-invariant metrics.

The flow is d/dt G = -2 Ric(G) + 2 lambda G + G D + D^T G on inner
products G over a fixed Lie algebra basis; an algebraic soliton (lambda, D)
is a stationary point.  Ric(G) comes from the closed form in G and G^{-1}
in that fixed basis, with no change of frame; its metric-independent part,
`curvature.ricci_form` of the bracket tensor, is built once per flow.
Integration is classical fixed-step fourth-order Runge-Kutta: stiffness is
absent near stable fixed points at the perturbation sizes used here, and
determinism is preferred over adaptive control.

`integrate_flow` is the one RK4 loop.  It steps in the defect
d = Ric - lambda G - (G D + D^T G)/2, which is -1/2 the right-hand side:
the stages sit at G - dt d, G - dt d2 and G - 2 dt d3, and the step is
G - (dt/3)(d + 2 (d2 + d3) + d4).  Each point's defect is evaluated once,
as its residual and as the next step's first stage, so n steps make
4 n + 1 Ricci calls.
All helpers accept stacked metrics (leading batch axes), which is how
independent perturbation trials run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import DECAY_TOL, JITTER_TOL, within
from .curvature import ricci_form
from .errors import Blowup, NotExpanding, PositivityLost
from .soliton import SolitonCertificate

# a flow is aborted when max|G| or the condition number of G exceeds these
NORM_THRESHOLD = 1e6
COND_THRESHOLD = 1e12


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-3
    t_max: float = 10.0
    sample_every: int = 10  # record a trace sample every this many steps

    def __post_init__(self):
        # negated comparisons also reject NaN
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt:g}")
        if not (0 <= self.t_max / self.dt < np.inf and self.n_steps >= 1):
            raise ValueError(f"t_max must give a finite number, at least one, of steps "
                             f"of dt={self.dt:g}, got {self.t_max:g}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))


@dataclass(frozen=True)
class FlowState:
    t: float
    G: np.ndarray


@dataclass(frozen=True)
class FlowTrace:
    samples: list[tuple]
    # entries: (t, soliton_residual, distance_to_G0, rhs_norm); the last three
    # are floats for one metric and arrays with one value per metric for a stack
    final: FlowState


@dataclass(frozen=True)
class TrialReport:
    trial: int
    initial_residual: float
    final_residual: float
    decayed: bool
    monotonicity_violations: int


def ricci_of_metric(form, G: np.ndarray) -> np.ndarray:
    """Ricci (0,2)-tensor of the metric G, with form = ricci_form(beta).

    G may carry leading batch axes.  Raises PositivityLost when G is not
    positive definite, as a Cholesky factorization finds; G^{-1} comes from
    `inv`, as one factorization yielding both made a flow no faster.
    """
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise PositivityLost("metric is not positive definite") from None
    return form(G, np.linalg.inv(G))


def flow_rhs(L, G: np.ndarray, lam: float, D: np.ndarray) -> np.ndarray:
    """-2 Ric(G) + 2 lambda G + G D + D^T G."""
    return -2.0 * _defect(ricci_form(L.bracket_tensor), G, _shift(lam, D))


def _shift(lam, D):  # M with lambda G + (G D + D^T G)/2 = G M + (G M)^T
    return 0.5 * (D + lam * np.eye(len(D)))


def _defect(form, G, M):
    """Ric(G) - (G M + (G M)^T) with M = _shift(lam, D): -1/2 the right-hand side."""
    S = G @ M
    return ricci_of_metric(form, G) - (S + S.swapaxes(-1, -2))


def _relative(defect, G):  # the soliton residual: max|defect| / max|G|, per metric
    return np.max(np.abs(defect), axis=(-2, -1)) / np.max(np.abs(G), axis=(-2, -1))


def _check_state(G):
    if np.max(np.abs(G)) > NORM_THRESHOLD:
        raise Blowup(f"metric norm exceeded {NORM_THRESHOLD:g}")
    w = np.linalg.eigvalsh(G)  # ascending, per metric of a stack
    if np.min(w) <= 0:
        raise PositivityLost("metric lost positive definiteness")
    if np.max(w[..., -1] / w[..., 0]) > COND_THRESHOLD:
        raise PositivityLost("metric condition number exceeded threshold")


def integrate_flow(
    L,
    G0: np.ndarray,
    lam: float,
    D: np.ndarray,
    config: FlowConfig | None = None,
) -> FlowTrace:
    """RK4 from G0, one metric or a stack, sampled every sample_every steps and
    at the end; each point's defect is evaluated once, as the sample's residual
    (one value per metric for a stack) and as the next step's first stage."""
    config = config or FlowConfig()
    form, dt, n_steps, M = ricci_form(L.bracket_tensor), config.dt, config.n_steps, _shift(lam, D)
    G = G0 = np.array(G0, dtype=float)
    _check_state(G)
    d = _defect(form, G, M)

    def sample(t, G, d):  # the right-hand side is -2 d
        values = (_relative(d, G), np.linalg.norm(G - G0, axis=(-2, -1)),
                  2.0 * np.max(np.abs(d), axis=(-2, -1)))
        return (t, *(float(v) if G.ndim == 2 else v for v in values))

    samples = [sample(0.0, G, d)]
    for step in range(1, n_steps + 1):
        d2 = _defect(form, G - dt * d, M)
        d3 = _defect(form, G - dt * d2, M)
        d4 = _defect(form, G - (2.0 * dt) * d3, M)
        G = G - (dt / 3.0) * (d + 2.0 * (d2 + d3) + d4)
        sampled = step % config.sample_every == 0 or step == n_steps
        if sampled:
            _check_state(G)
        d = _defect(form, G, M)
        if sampled:
            samples.append(sample(step * dt, G, d))
    return FlowTrace(samples=samples, final=FlowState(t=n_steps * dt, G=G))


def random_unit_sym(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Uniform points on the unit sphere of symmetric n x n matrices."""
    H = rng.standard_normal((size, n, n))
    H = 0.5 * (H + np.swapaxes(H, -1, -2))
    H /= np.linalg.norm(H, axis=(-2, -1), keepdims=True)
    return H


def perturbation_experiment(
    F,
    cert: SolitonCertificate,
    eps: float,
    n_trials: int,
    seed: int,
    config: FlowConfig | None = None,
) -> list[TrialReport]:
    """Flow random eps-perturbations of the soliton metric and report decay.

    Trials are integrated in one stacked Runge-Kutta loop (identical
    stepping to integrating each alone).  The monitored quantity is the
    soliton residual with the certificate's D.  Unlike raw metric distance it
    is insensitive to an automorphism phi of g that commutes with D, but not
    to others: Ric(phi^T G phi) = phi^T Ric(G) phi, so phi^T G phi is a
    soliton with phi^-1 D phi in place of D.  It flows c / sqrt(s), lambda / s
    and D / s, s = ``cert.scale``: times are in units of 1/s and residuals of s,
    so the floors DECAY_TOL and JITTER_TOL have unit 1, at any bracket scale.
    """
    if not cert.accepted:
        raise ValueError("certificate not accepted")
    if cert.lam >= 0:
        raise NotExpanding(f"not expanding: lambda={cert.lam:g}")
    if not 0 <= eps <= 1e-2:
        raise ValueError(f"eps must be between 0 and 1e-2, got {eps:g}")
    if n_trials < 1:
        raise ValueError(f"trials must be at least 1, got {n_trials}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    G = np.eye(F.dim) + eps * random_unit_sym(rng, F.dim, n_trials)
    scaled = replace(F, c=F.c / np.sqrt(cert.scale))  # max|c| = 1, or lambda = -1 when c = 0
    trace = integrate_flow(scaled, G, cert.lam / cert.scale, cert.derivation / cert.scale, config)
    residuals = np.array([s[1] for s in trace.samples])
    initial, final = residuals[0], residuals[-1]
    # residuals at integrator precision jitter freely
    violations = np.sum(~within(residuals[1:] - residuals[:-1], JITTER_TOL, 1.0), axis=0)
    return [
        TrialReport(
            trial=i,
            initial_residual=float(initial[i]),
            final_residual=float(final[i]),
            decayed=bool(final[i] < initial[i] or within(final[i], DECAY_TOL, 1.0)),
            monotonicity_violations=int(violations[i]),
        )
        for i in range(n_trials)
    ]
