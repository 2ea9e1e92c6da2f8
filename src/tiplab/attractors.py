"""Hyperbolic solutions of frozen equations and pullback solutions of
transition equations.

Attractive solutions of the frozen equation x' = f(t, x, gamma) are found by
forward burn-in from seeds outside the state box, repulsive ones by backward
burn-in; each estimate is certified by doubling the burn-in until the change
over the window drops below a convergence tolerance. Pullback solutions of a
transition equation are anchored to those estimates at the horizon edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .integrator import (
    DEFAULT_CONFIG,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    integrate,
)
from .models import CONCAVE, DCONCAVE, DomainError


class AttractorError(RuntimeError):
    """Missing or non-convergent hyperbolic structure."""


class NonConvergentError(AttractorError):
    """Burn-in doubling failed to stabilize the estimate."""


@dataclass(frozen=True)
class Numerics:
    """Shared numerical knobs for attractor, classification and warning runs."""

    horizon: float = 400.0
    tail_rel_tol: float = 5.0e-3       # parameter-path tail vs its spread at the horizon
    max_horizon_doublings: int = 2
    burn_in: float = 200.0
    conv_tol: float = 1.0e-7           # relative to max(1, sup|x|) over the window
    max_burn_doublings: int = 5
    sep_tol: float = 1.0e-3
    track_tol_factor: float = 1.0e-3   # fraction of the future attractor separation
    tail_track_factor: float = 4.0     # tracking allowance per unit of path tail at +-H
    band_margin: float = 1.0
    window_samples: int = 257
    anchor_delta: float = 1.0e-4
    anchor_tol: float = 1.0e-6
    quad_h: float = 0.1
    quad_tol: float = 1.0e-6
    warn_refine_tol: float = 1.0e-3
    integ: IntegratorConfig = DEFAULT_CONFIG

    def with_(self, **kw) -> "Numerics":
        return replace(self, **kw)


DEFAULT_NUMERICS = Numerics()


# ---------------------------------------------------------------------------
# hyperbolic estimates for frozen equations
# ---------------------------------------------------------------------------

@dataclass
class HyperbolicEstimate:
    """Numerical estimate of a hyperbolic solution of a frozen equation."""

    role: str                      # upper-attractive | lower-attractive | middle-repulsive
    gamma: float                   # | attractive | repulsive
    trajectory: Trajectory
    window: tuple[float, float]
    burn_in: float
    convergence_gap: float

    def __call__(self, t: float) -> float:
        return self.trajectory(t)

    def eval_array(self, times) -> np.ndarray:
        return self.trajectory.eval_array(times)

    @property
    def attractive(self) -> bool:
        return "attractive" in self.role

    def shifted(self, dx: float, gamma: float) -> "HyperbolicEstimate":
        return HyperbolicEstimate(self.role, gamma, self.trajectory.shifted(dx),
                                  self.window, self.burn_in, self.convergence_gap)


@dataclass
class LimitSet:
    """Hyperbolic solutions of one frozen equation over a window.

    For d-concave fields the full structure is three solutions
    (lower-attractive < middle-repulsive < upper-attractive); for concave
    fields it is two (repulsive < attractive). ``complete`` says whether the
    full structure was found with the required uniform separation.
    """

    gamma: float
    concavity: str
    window: tuple[float, float]
    estimates: dict[str, HyperbolicEstimate] = field(default_factory=dict)
    separation: float | None = None
    complete: bool = False
    notes: list[str] = field(default_factory=list)

    def __getitem__(self, role: str) -> HyperbolicEstimate:
        try:
            return self.estimates[role]
        except KeyError:
            raise AttractorError(
                f"no {role} estimate at gamma={self.gamma} (notes: {self.notes})"
            ) from None

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(self.estimates)

    def shifted(self, dx: float, gamma: float) -> "LimitSet":
        est = {r: e.shifted(dx, gamma) for r, e in self.estimates.items()}
        return LimitSet(gamma, self.concavity, self.window, est,
                        self.separation, self.complete, list(self.notes))


def _sup_gap(a: Trajectory, b: Trajectory, grid: np.ndarray) -> tuple[float, float]:
    """Sup-norm gap over the grid and the comparison threshold scale.

    conv_tol is applied relative to max(1, sup|x|): an absolute 1e-8 on a
    state of magnitude 100 sits below the accuracy floor of double-precision
    integration over windows this long.
    """
    va = a.eval_array(grid)
    vb = b.eval_array(grid)
    gap = float(np.max(np.abs(va - vb)))
    scale = max(1.0, float(np.max(np.abs(va))))
    return gap, scale


def _certified_run(rhs, t_from_of, x0_of, t_to, grid, num: Numerics, what: str):
    """Integrate with doubling burn-in until the window values stabilize.

    t_from_of/x0_of map the current burn-in B to the start point; the run ends
    at t_to. Returns (trajectory, burn_in, gap).
    """
    B = num.burn_in
    prev = integrate(rhs, t_from_of(B), x0_of(B), t_to, num.integ)
    if prev.status != "completed":
        raise NonConvergentError(f"{what}: escape during burn-in (no bounded solution reached)")
    for _ in range(num.max_burn_doublings):
        B *= 2.0
        cur = integrate(rhs, t_from_of(B), x0_of(B), t_to, num.integ)
        if cur.status != "completed":
            raise NonConvergentError(f"{what}: escape during burn-in (no bounded solution reached)")
        gap, scale = _sup_gap(cur, prev, grid)
        if gap < num.conv_tol * scale:
            return cur, B, gap
        prev = cur
    raise NonConvergentError(
        f"{what}: burn-in doubling did not converge (last gap {gap:.3g})"
    )


def limit_hyperbolic_solutions(
    model,
    gamma: float,
    window: tuple[float, float] | None = None,
    num: Numerics = DEFAULT_NUMERICS,
    strict: bool = False,
    right_pad: float = 0.0,
) -> LimitSet:
    """Estimate the hyperbolic solutions of x' = f(t, x, gamma) over a window.

    Attractive solutions come from forward burn-in started at seeds placed
    outside the state box; the d-concave middle repulsive solution comes from
    backward burn-in seeded between the attractive pair beyond the right edge
    of the window, and the concave repulsive one from backward burn-in seeded
    at the low seed. With strict=True an incomplete structure raises.
    """
    w0, w1 = window if window is not None else (-num.horizon, num.horizon)
    if not w1 > w0:
        raise AttractorError(f"empty window ({w0}, {w1})")
    grid = np.linspace(w0, w1, num.window_samples)
    seed_lo, seed_hi = model.seeds()
    rhs = model.frozen_rhs(gamma)
    out = LimitSet(gamma=gamma, concavity=model.concavity, window=(w0, w1))
    pad = max(right_pad, 2.0 * num.burn_in)

    if model.concavity == DCONCAVE:
        _dconcave_limit_set(model, rhs, out, grid, w0, w1, pad, seed_lo, seed_hi, num)
    elif model.concavity == CONCAVE:
        _concave_limit_set(model, rhs, out, grid, w0, w1, seed_lo, seed_hi, num)
    else:  # pragma: no cover
        raise AttractorError(f"unknown concavity class {model.concavity!r}")

    if strict and not out.complete:
        raise AttractorError(
            f"incomplete hyperbolic structure at gamma={gamma}: "
            f"found {list(out.roles)}; notes: {out.notes}"
        )
    return out


def _dconcave_limit_set(model, rhs, out, grid, w0, w1, pad, seed_lo, seed_hi, num):
    upper = lower = None
    try:
        tr_u, b_u, g_u = _certified_run(
            rhs, lambda b: w0 - b, lambda b: seed_hi, w1 + pad, grid, num, "upper attractive")
        upper = (tr_u, b_u, g_u)
    except (NonConvergentError, IntegrationError, DomainError) as e:
        out.notes.append(f"upper attractive: {e}")
    try:
        tr_l, b_l, g_l = _certified_run(
            rhs, lambda b: w0 - b, lambda b: seed_lo, w1 + pad, grid, num, "lower attractive")
        lower = (tr_l, b_l, g_l)
    except (NonConvergentError, IntegrationError, DomainError) as e:
        out.notes.append(f"lower attractive: {e}")

    if upper is None and lower is None:
        return
    if upper is None or lower is None:
        tr, b, g = upper or lower
        out.estimates["attractive"] = HyperbolicEstimate("attractive", out.gamma, tr, out.window, b, g)
        out.notes.append("single attractive estimate")
        return

    tr_u, b_u, g_u = upper
    tr_l, b_l, g_l = lower
    att_gap = float(np.min(tr_u.eval_array(grid) - tr_l.eval_array(grid)))
    if att_gap < num.sep_tol:
        out.estimates["attractive"] = HyperbolicEstimate("attractive", out.gamma, tr_u, out.window, b_u, g_u)
        out.notes.append(f"attractive estimates collide (gap {att_gap:.3g}); not bistable")
        return

    out.estimates["upper-attractive"] = HyperbolicEstimate(
        "upper-attractive", out.gamma, tr_u, out.window, b_u, g_u)
    out.estimates["lower-attractive"] = HyperbolicEstimate(
        "lower-attractive", out.gamma, tr_l, out.window, b_l, g_l)

    # middle repulsive: backward burn-in from the midpoint of the attractive
    # pair taken beyond the right window edge; the attractive runs are
    # extended whenever the seed point moves past their coverage
    try:
        tr_m, b_m, g_m = _middle_repulsive_run(
            rhs, w0, w1, tr_u, tr_l, grid, num)
    except (NonConvergentError, IntegrationError, DomainError) as e:
        out.notes.append(f"middle repulsive: {e}")
        return
    band_lo = model.state_box[0] - num.band_margin
    band_hi = model.state_box[1] + num.band_margin
    vals = tr_m.eval_array(grid)
    if vals.min() < band_lo or vals.max() > band_hi:
        out.notes.append("middle repulsive leaves the state band; not bistable")
        return
    out.estimates["middle-repulsive"] = HyperbolicEstimate(
        "middle-repulsive", out.gamma, tr_m, out.window, b_m, g_m)
    sep = min(
        float(np.min(tr_u.eval_array(grid) - vals)),
        float(np.min(vals - tr_l.eval_array(grid))),
    )
    out.separation = sep
    out.complete = sep >= num.sep_tol
    if not out.complete:
        out.notes.append(f"separation {sep:.3g} below sep_tol; not uniformly separated")


def _middle_repulsive_run(rhs, w0, w1, tr_u, tr_l, grid, num: Numerics):
    B = num.burn_in
    prev = None
    gap = math.inf
    for _ in range(num.max_burn_doublings + 1):
        start = w1 + B
        if not (tr_u.covers(start) and tr_l.covers(start)):
            tr_u = integrate(rhs, tr_u.t[0], tr_u.x[0], start, num.integ)
            tr_l = integrate(rhs, tr_l.t[0], tr_l.x[0], start, num.integ)
            if tr_u.status != "completed" or tr_l.status != "completed":
                raise NonConvergentError("middle repulsive: attractive extension escaped")
        seed = 0.5 * (tr_u(start) + tr_l(start))
        cur = integrate(rhs, start, seed, w0, num.integ)
        if cur.status != "completed" or not cur.covers(w0, w1):
            raise NonConvergentError(
                "middle repulsive: escape during backward burn-in (no bounded solution)")
        if prev is not None:
            gap, scale = _sup_gap(cur, prev, grid)
            if gap < num.conv_tol * scale:
                return cur, B, gap
        prev = cur
        B *= 2.0
    raise NonConvergentError(
        f"middle repulsive: burn-in doubling did not converge (last gap {gap:.3g})")


def _concave_limit_set(model, rhs, out, grid, w0, w1, seed_lo, seed_hi, num):
    attractive = None
    try:
        tr_a, b_a, g_a = _certified_run(
            rhs, lambda b: w0 - b, lambda b: seed_hi, w1 + 2.0 * num.burn_in, grid, num,
            "attractive")
        attractive = (tr_a, b_a, g_a)
        out.estimates["attractive"] = HyperbolicEstimate(
            "attractive", out.gamma, tr_a, out.window, b_a, g_a)
    except (NonConvergentError, IntegrationError, DomainError) as e:
        out.notes.append(f"attractive: {e}")
    try:
        tr_r, b_r, g_r = _certified_run(
            rhs, lambda b: w1 + b, lambda b: seed_lo, w0, grid, num, "repulsive")
        out.estimates["repulsive"] = HyperbolicEstimate(
            "repulsive", out.gamma, tr_r, out.window, b_r, g_r)
    except (NonConvergentError, IntegrationError, DomainError) as e:
        out.notes.append(f"repulsive: {e}")

    if attractive is not None and "repulsive" in out.estimates:
        tr_a = attractive[0]
        tr_r = out.estimates["repulsive"].trajectory
        sep = float(np.min(tr_a.eval_array(grid) - tr_r.eval_array(grid)))
        out.separation = sep
        out.complete = sep >= num.sep_tol
        if not out.complete:
            out.notes.append(f"separation {sep:.3g} below sep_tol")


# ---------------------------------------------------------------------------
# pullback solutions of transition equations
# ---------------------------------------------------------------------------

_ROLE_SHORT = {
    "upper-attractive": "u",
    "lower-attractive": "l",
    "middle-repulsive": "m",
    "attractive": "a",
    "repulsive": "r",
}


def _role_for(model, role: str) -> str:
    """The role a d-concave role stands for on the model: itself on a
    d-concave model, the one attractive or repulsive role on a concave one."""
    if model.concavity == DCONCAVE:
        return role
    return "attractive" if role.endswith("attractive") else "repulsive"


@dataclass
class PullbackSolution:
    """Solution of the transition equation anchored to a limit estimate.

    Locally pullback attractive solutions are anchored at the past limit and
    integrated forward; locally pullback repulsive ones are anchored at the
    future limit and integrated backward. band_exit_time records where the
    solution first left the state band (in the direction of integration).
    """

    role: str
    trajectory: Trajectory
    anchor: HyperbolicEstimate
    horizon: float
    band: tuple[float, float]
    band_exit_time: float | None = None

    def __call__(self, t: float) -> float:
        return self.trajectory(t)

    def eval_array(self, times) -> np.ndarray:
        return self.trajectory.eval_array(times)

    @property
    def status(self) -> str:
        return self.trajectory.status

    @property
    def bounded(self) -> bool:
        return self.trajectory.status == "completed" and self.band_exit_time is None


def _band_exit(traj: Trajectory, band: tuple[float, float], backward: bool) -> float | None:
    lo, hi = band
    outside = (traj.x < lo) | (traj.x > hi)
    if not outside.any():
        return None
    idx = np.nonzero(outside)[0]
    # first exited node in the direction the integration proceeded
    i = idx[-1] if backward else idx[0]
    return float(traj.t[i])


def pullback_attractive(model, mechanism, anchor: HyperbolicEstimate,
                        horizon: float | None = None,
                        num: Numerics = DEFAULT_NUMERICS) -> PullbackSolution:
    """Forward solution of the transition equation anchored at the past
    attractive estimate: starts from (-horizon, anchor(-horizon))."""
    if not anchor.attractive:
        raise AttractorError("pullback_attractive needs an attractive anchor")
    H = float(horizon if horizon is not None else num.horizon)
    if not anchor.trajectory.covers(-H):
        raise AttractorError(f"anchor window does not cover -{H}")
    rhs = model.transition_rhs(mechanism)
    traj = integrate(rhs, -H, anchor(-H), H, num.integ)
    band = (model.state_box[0] - num.band_margin, model.state_box[1] + num.band_margin)
    return PullbackSolution(
        role=_ROLE_SHORT[anchor.role], trajectory=traj, anchor=anchor,
        horizon=H, band=band, band_exit_time=_band_exit(traj, band, backward=False),
    )


def pullback_repulsive(model, mechanism, anchor: HyperbolicEstimate,
                       horizon: float | None = None,
                       num: Numerics = DEFAULT_NUMERICS) -> PullbackSolution:
    """Backward solution of the transition equation anchored at the future
    repulsive estimate: starts from (+horizon, anchor(+horizon))."""
    if anchor.attractive:
        raise AttractorError("pullback_repulsive needs a repulsive anchor")
    H = float(horizon if horizon is not None else num.horizon)
    if not anchor.trajectory.covers(H):
        raise AttractorError(f"anchor window does not cover +{H}")
    rhs = model.transition_rhs(mechanism)
    traj = integrate(rhs, H, anchor(H), -H, num.integ)
    band = (model.state_box[0] - num.band_margin, model.state_box[1] + num.band_margin)
    return PullbackSolution(
        role=_ROLE_SHORT[anchor.role], trajectory=traj, anchor=anchor,
        horizon=H, band=band, band_exit_time=_band_exit(traj, band, backward=True),
    )


def check_anchor_insensitivity(model, mechanism, solution: PullbackSolution,
                               num: Numerics = DEFAULT_NUMERICS,
                               delta0: float | None = None) -> float:
    """Re-run the pullback integration from a perturbed anchor value and
    report the largest deviation from the solution at the half horizon."""
    d0 = delta0 if delta0 is not None else num.anchor_delta
    H = solution.horizon
    rhs = model.transition_rhs(mechanism)
    backward = solution.trajectory.direction == "backward"
    t_from = H if backward else -H
    t_probe = 0.5 * H if backward else -0.5 * H
    base = solution(t_probe)
    worst = 0.0
    for sgn in (1.0, -1.0):
        traj = integrate(rhs, t_from, solution.anchor(t_from) + sgn * d0, t_probe, num.integ)
        worst = max(worst, abs(traj(t_probe) - base))
    return worst


# ---------------------------------------------------------------------------
# quadrature along trajectories and the Lyapunov exponent
# ---------------------------------------------------------------------------

_G3_OFF = math.sqrt(3.0 / 5.0)   # Gauss-Legendre 3-point nodes at +-off, 0
_G3_W = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


def gauss3_interval_integrals(g, a: float, h: float, n: int) -> np.ndarray:
    """Integrals of g over the n intervals [a + i*h, a + (i+1)*h]."""
    w1, w2, w3 = _G3_W
    off = _G3_OFF * 0.5 * h
    half = 0.5 * h
    out = np.empty(n)
    for i in range(n):
        m = a + (i + 0.5) * h
        out[i] = half * (w1 * g(m - off) + w2 * g(m) + w3 * g(m + off))
    return out


@dataclass
class LyapunovEstimate:
    value: float
    window: float
    sensitivity: float       # change when the averaging window is halved
    quad_gap: float          # change under quadrature refinement

    def __float__(self) -> float:  # pragma: no cover
        return self.value


def estimate_lyapunov(model, gamma: float, solution: HyperbolicEstimate,
                      window_length: float,
                      num: Numerics = DEFAULT_NUMERICS) -> LyapunovEstimate:
    """Average of f_x along a hyperbolic estimate over a centered window.

    The average over half the window is reported as a sensitivity measure;
    the quadrature is refined once and the change recorded.
    """
    w0, w1 = solution.window
    c = 0.5 * (w0 + w1)
    a, b = c - 0.5 * window_length, c + 0.5 * window_length
    if a < w0 - 1e-9 or b > w1 + 1e-9:
        raise AttractorError(
            f"averaging window {window_length} exceeds the estimate window {solution.window}"
        )
    traj = solution.trajectory
    fx = model.fx

    def g(s):
        return fx(s, traj(s), gamma)

    def average(lo, hi, h_target):
        n = max(1, int(math.ceil((hi - lo) / h_target)))
        h = (hi - lo) / n
        return float(np.sum(gauss3_interval_integrals(g, lo, h, n))) / (hi - lo)

    val = average(a, b, num.quad_h)
    val_fine = average(a, b, 0.5 * num.quad_h)
    quad_gap = abs(val - val_fine)
    if quad_gap > num.quad_tol:
        val_fine2 = average(a, b, 0.25 * num.quad_h)
        quad_gap = abs(val_fine - val_fine2)
        val_fine = val_fine2
    half = average(c - 0.25 * window_length, c + 0.25 * window_length, num.quad_h)
    return LyapunovEstimate(
        value=val_fine, window=window_length,
        sensitivity=abs(val_fine - half), quad_gap=quad_gap,
    )
