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
    _check_ranges,
    _hermite,
    _span_error,
    integrate,
)
from .models import CONCAVE, DCONCAVE, DomainError, _fx_along


class AttractorError(RuntimeError):
    """Missing or non-convergent hyperbolic structure."""


class NonConvergentError(AttractorError):
    """Burn-in doubling failed to stabilize the estimate."""


# the least value of a Numerics field; every other number field must be positive
_NUMERICS_LEAST = {"max_horizon_doublings": 0, "max_burn_doublings": 0, "tail_track_factor": 0,
                   "band_margin": 0, "warn_refine_tol": 0, "window_samples": 2}


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
    quad_h: float = 0.1
    quad_tol: float = 1.0e-6
    warn_refine_tol: float = 1.0e-3
    integ: IntegratorConfig = DEFAULT_CONFIG

    def __post_init__(self):
        _check_ranges(self, "numerics", _NUMERICS_LEAST, ValueError)


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

    def require_complete(self) -> "LimitSet":
        """The set itself; raises when the structure is incomplete."""
        if not self.complete:
            raise AttractorError(
                f"incomplete hyperbolic structure at gamma={self.gamma}: "
                f"found {list(self.roles)}; notes: {self.notes}"
            )
        return self


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


def _certified_run(rhs, t_from_of, x0_of, t_to, grid, num: Numerics):
    """Integrate with doubling burn-in until the window values stabilize.

    t_from_of/x0_of map the burn-in B to the start point (t_from_of is called
    first); every run ends at t_to. Runs at B, 2B, ... up to
    max_burn_doublings doublings and returns (trajectory, burn_in, gap) of
    the first run within conv_tol of the one before.
    """
    B = num.burn_in
    prev, gap = None, math.inf
    for _ in range(num.max_burn_doublings + 1):
        cur = integrate(rhs, t_from_of(B), x0_of(B), t_to, num.integ)
        if cur.status != "completed":
            raise NonConvergentError("escape during burn-in (no bounded solution reached)")
        if prev is not None:
            gap, scale = _sup_gap(cur, prev, grid)
            if gap < num.conv_tol * scale:
                return cur, B, gap
        prev = cur
        B *= 2.0
    raise NonConvergentError(f"burn-in doubling did not converge (last gap {gap:.3g})")


def _band(model, num: Numerics) -> tuple[float, float]:
    """The state box widened by band_margin; leaving it counts as escape."""
    return (model.state_box[0] - num.band_margin, model.state_box[1] + num.band_margin)


def limit_hyperbolic_solutions(
    model,
    gamma: float,
    window: tuple[float, float] | None = None,
    num: Numerics = DEFAULT_NUMERICS,
) -> LimitSet:
    """Estimate the hyperbolic solutions of x' = f(t, x, gamma) over a window.

    Attractive solutions come from forward burn-in started at seeds placed
    outside the state box and run on past the right edge of the window; the
    d-concave middle repulsive solution comes from backward burn-in seeded
    between the attractive pair beyond the right edge, and the concave
    repulsive one from backward burn-in seeded at the low seed.
    ``LimitSet.require_complete`` raises on an incomplete structure.
    """
    w0, w1 = window if window is not None else (-num.horizon, num.horizon)
    if not w1 > w0:
        raise AttractorError(f"empty window ({w0}, {w1})")
    if model.concavity not in (CONCAVE, DCONCAVE):  # pragma: no cover
        raise AttractorError(f"unknown concavity class {model.concavity!r}")
    grid = np.linspace(w0, w1, num.window_samples)
    seed_lo, seed_hi = model.seeds()
    rhs = model.frozen_rhs(gamma)
    out = LimitSet(gamma=gamma, concavity=model.concavity, window=(w0, w1))

    def estimate(role, t_from_of, x0_of, t_to):
        """The certified estimate of one role, or None and a note."""
        try:
            tr, b, gap = _certified_run(rhs, t_from_of, x0_of, t_to, grid, num)
        except (NonConvergentError, IntegrationError, DomainError) as e:
            out.notes.append(f"{role}: {e}")
            return None
        return HyperbolicEstimate(role, gamma, tr, (w0, w1), b, gap)

    def attractive(role, seed):
        return estimate(role, lambda b: w0 - b, lambda b: seed, w1 + 2.0 * num.burn_in)

    def repulsive(role, x0_of):
        return estimate(role, lambda b: w1 + b, x0_of, w0)

    def separation(*ests):
        """Least gap between neighbouring estimates, listed top down."""
        return min(float(np.min(hi.eval_array(grid) - lo.eval_array(grid)))
                   for hi, lo in zip(ests, ests[1:]))

    if model.concavity == CONCAVE:
        chain = [attractive("attractive", seed_hi), repulsive("repulsive", lambda b: seed_lo)]
    else:
        upper = attractive("upper-attractive", seed_hi)
        lower = attractive("lower-attractive", seed_lo)
        if upper is None or lower is None:
            chain = [replace(e, role="attractive") for e in (upper, lower) if e is not None]
            if chain:
                out.notes.append("single attractive estimate")
        elif (gap := separation(upper, lower)) < num.sep_tol:
            chain = [replace(upper, role="attractive")]
            out.notes.append(f"attractive estimates collide (gap {gap:.3g}); not bistable")
        else:
            pair = [upper.trajectory, lower.trajectory]

            def midpoint(b):
                # the attractive runs are run again from their start when
                # the seed point w1 + b moves past their end
                start = w1 + b
                if not all(tr.covers(start) for tr in pair):
                    pair[:] = [integrate(rhs, tr.t[0], tr.x[0], start, num.integ) for tr in pair]
                    if any(tr.status != "completed" for tr in pair):
                        raise NonConvergentError("attractive extension escaped")
                return 0.5 * (pair[0](start) + pair[1](start))

            middle = repulsive("middle-repulsive", midpoint)
            if middle is not None:
                band_lo, band_hi = _band(model, num)
                vals = middle.eval_array(grid)
                if vals.min() < band_lo or vals.max() > band_hi:
                    out.notes.append("middle-repulsive leaves the state band; not bistable")
                    middle = None
            chain = [upper, middle, lower]

    out.estimates.update((e.role, e) for e in chain if e is not None)
    if len(chain) > 1 and None not in chain:
        out.separation = separation(*chain)
        out.complete = out.separation >= num.sep_tol
        if not out.complete:
            out.notes.append(f"separation {out.separation:.3g} below sep_tol; "
                             "not uniformly separated")
    return out


# ---------------------------------------------------------------------------
# pullback solutions of transition equations
# ---------------------------------------------------------------------------

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
                        horizon: float,
                        num: Numerics = DEFAULT_NUMERICS) -> PullbackSolution:
    """Forward solution of the transition equation anchored at the past
    attractive estimate: starts from (-horizon, anchor(-horizon))."""
    return _pullback(model, mechanism, anchor, horizon, num, backward=False)


def pullback_repulsive(model, mechanism, anchor: HyperbolicEstimate,
                       horizon: float,
                       num: Numerics = DEFAULT_NUMERICS) -> PullbackSolution:
    """Backward solution of the transition equation anchored at the future
    repulsive estimate: starts from (+horizon, anchor(+horizon))."""
    return _pullback(model, mechanism, anchor, horizon, num, backward=True)


def _pullback(model, mechanism, anchor, horizon, num, backward: bool) -> PullbackSolution:
    kind = "repulsive" if backward else "attractive"
    if anchor.attractive == backward:
        raise AttractorError(f"pullback_{kind}: the anchor is not {kind}")
    H = float(horizon)
    t_from = H if backward else -H
    if not anchor.trajectory.covers(t_from):
        raise AttractorError(f"anchor window does not cover {t_from}")
    traj = integrate(model.transition_rhs(mechanism), t_from, anchor(t_from), -t_from, num.integ)
    band = _band(model, num)
    return PullbackSolution(
        role=anchor.role, trajectory=traj, anchor=anchor,
        horizon=H, band=band, band_exit_time=_band_exit(traj, band, backward),
    )


def check_anchor_insensitivity(model, mechanism, solution: PullbackSolution,
                               num: Numerics = DEFAULT_NUMERICS) -> float:
    """Re-run the pullback integration from an anchor value moved by
    num.anchor_delta and report the largest deviation from the solution at
    the half horizon."""
    H = solution.horizon
    rhs = model.transition_rhs(mechanism)
    backward = solution.trajectory.direction == "backward"
    t_from = H if backward else -H
    t_probe = 0.5 * H if backward else -0.5 * H
    base = solution(t_probe)
    worst = 0.0
    for sgn in (1.0, -1.0):
        x0 = solution.anchor(t_from) + sgn * num.anchor_delta
        traj = integrate(rhs, t_from, x0, t_probe, num.integ)
        worst = max(worst, abs(traj(t_probe) - base))
    return worst


# ---------------------------------------------------------------------------
# quadrature along trajectories and the Lyapunov exponent
# ---------------------------------------------------------------------------

_G3_OFF = math.sqrt(3.0 / 5.0)   # Gauss-Legendre 3-point nodes at +-off, 0
_G3_W = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)
_QUAD_MAX_HALVINGS = 4           # step halvings before a quadrature counts as stalled


def gauss3_interval_integrals(fn, traj: Trajectory, a: float, h: float, n: int) -> np.ndarray:
    """Integrals of fn(t, traj(t)) over the n intervals [a + i*h, a + (i+1)*h].

    The Gauss nodes ascend, so one walk over the trajectory's nodes reads
    the solution at all of them: each value is bitwise traj(t) (the same
    Hermite formula on the same operands, the node value at a node, the
    last value at the last node and the same IntegrationError outside the
    span), and fn is called once per Gauss node, in ascending order. a and
    h are taken as Python floats: a numpy scalar would carry numpy's scalar
    arithmetic, bitwise the same but slower, into every node.
    """
    if not h > 0.0:
        raise AttractorError(f"quadrature step must be positive, got {h!r}")
    a, h = float(a), float(h)
    w1, w2, w3 = _G3_W
    off = _G3_OFF * 0.5 * h
    half = 0.5 * h
    tl, xl, fl = traj._tl, traj._xl, traj._fl
    last = len(tl) - 1
    lo, hi = tl[0], tl[last]
    j = 0
    out = np.empty(n)
    for i in range(n):
        m = a + (i + 0.5) * h
        g = []
        for t in (m - off, m, m + off):
            if not lo <= t <= hi:
                raise _span_error(tl, t)
            while j < last and tl[j + 1] <= t:
                j += 1
            if j == last:
                x = xl[last]
            elif t == tl[j]:
                x = xl[j]
            else:
                x = _hermite(tl[j], xl[j], fl[j], tl[j + 1], xl[j + 1], fl[j + 1], t)
            g.append(fn(t, x))
        out[i] = half * (w1 * g[0] + w2 * g[1] + w3 * g[2])
    return out


def _refined(quadrature, gap, tol: float, error: type):
    """Halve the quadrature step until two passes in a row agree.

    quadrature(k) is the pass at the step halved k times. Returns (coarse,
    fine, gap) of the first passes k and k + 1 with gap(coarse, fine) <= tol;
    when _QUAD_MAX_HALVINGS halvings do not get there, raises error naming
    the last gap.
    """
    coarse = quadrature(0)
    for k in range(1, _QUAD_MAX_HALVINGS + 1):
        fine = quadrature(k)
        d = gap(coarse, fine)
        if d <= tol:
            return coarse, fine, d
        coarse = fine
    raise error(f"quadrature refinement stalled at gap {d:.3e}")


@dataclass
class LyapunovEstimate:
    value: float
    window: float
    sensitivity: float       # change when the averaging window is halved
    quad_gap: float          # change under quadrature refinement, not an error bound


def estimate_lyapunov(model, gamma: float, solution: HyperbolicEstimate,
                      window_length: float,
                      num: Numerics = DEFAULT_NUMERICS) -> LyapunovEstimate:
    """Average of f_x along a hyperbolic estimate over a centered window.

    The quadrature step num.quad_h is halved until two passes agree within
    num.quad_tol, at most _QUAD_MAX_HALVINGS times, else NonConvergentError
    names the last gap. The finer pass of the agreeing pair is the value,
    and their gap is quad_gap, a refinement gap and not an error bound of
    the exponent. The average over half the window, at num.quad_h, is
    reported as a sensitivity measure.
    """
    w0, w1 = solution.window
    c = 0.5 * (w0 + w1)
    a, b = c - 0.5 * window_length, c + 0.5 * window_length
    if a < w0 - 1e-9 or b > w1 + 1e-9:
        raise AttractorError(
            f"averaging window {window_length} exceeds the estimate window {solution.window}"
        )
    traj = solution.trajectory
    fn = _fx_along(model, gamma=gamma)

    def average(lo, hi, h_target):
        n = max(1, int(math.ceil((hi - lo) / h_target)))
        h = (hi - lo) / n
        return float(np.sum(gauss3_interval_integrals(fn, traj, lo, h, n))) / (hi - lo)

    _, value, quad_gap = _refined(lambda k: average(a, b, num.quad_h * 0.5 ** k),
                                  lambda coarse, fine: abs(coarse - fine),
                                  num.quad_tol, NonConvergentError)
    half = average(c - 0.25 * window_length, c + 0.25 * window_length, num.quad_h)
    return LyapunovEstimate(
        value=value, window=window_length,
        sensitivity=abs(value - half), quad_gap=quad_gap,
    )
