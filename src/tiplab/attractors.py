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
from dataclasses import dataclass, replace

import numpy as np

from .integrator import (
    DEFAULT_CONFIG,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    _check_ranges,
    _span_error,
    integrate,
)
from .models import CONCAVE, DCONCAVE, DomainError, _fx_along


class AttractorError(RuntimeError):
    """Missing or non-convergent hyperbolic structure."""


class NonConvergentError(AttractorError):
    """Burn-in doubling failed to stabilize the estimate."""


# the thresholds no run varies, each defined once here
TAIL_REL_TOL = 5.0e-3        # parameter-path tail vs its spread at the horizon
MAX_HORIZON_DOUBLINGS = 2
TRACK_TOL_FACTOR = 1.0e-3    # fraction of the future attractor separation
TAIL_TRACK_FACTOR = 4.0      # tracking allowance per unit of path tail at +-H
BAND_MARGIN = 1.0
WINDOW_SAMPLES = 257
SEP_TOL = 1.0e-3
ANCHOR_DELTA = 1.0e-4
QUAD_H = 0.1                 # first step of the f_x quadratures
QUAD_TOL = 1.0e-6            # agreement of two quadrature passes
WARN_REFINE_TOL = 1.0e-3     # bracket width of a refined warning time


@dataclass(frozen=True)
class Numerics:
    """The numerical knobs a run may vary, shared by attractor,
    classification and warning runs; the thresholds none varies are the
    constants above."""

    horizon: float = 400.0
    burn_in: float = 200.0
    conv_tol: float = 1.0e-7           # relative to max(1, sup|x|) over the window
    max_burn_doublings: int = 5
    integrator: IntegratorConfig = DEFAULT_CONFIG

    def __post_init__(self):
        # max_burn_doublings may be 0; every other number field is positive
        _check_ranges(self, "numerics", {"max_burn_doublings": 0}, ValueError)


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

    def shifted(self, gamma: float) -> "HyperbolicEstimate":
        """The estimate moved to gamma, by gamma - self.gamma in x."""
        return HyperbolicEstimate(self.role, gamma, self.trajectory.shifted(gamma - self.gamma),
                                  self.window, self.burn_in, self.convergence_gap)


def _chain_separation(grid: np.ndarray, ests) -> float:
    """Least gap on the grid between neighbouring estimates, listed top down."""
    return min(float(np.min(hi.eval_array(grid) - lo.eval_array(grid)))
               for hi, lo in zip(ests, ests[1:]))


class LimitSet:
    """Hyperbolic solutions of one frozen equation over a window.

    For d-concave fields the full structure is three solutions
    (lower-attractive < middle-repulsive < upper-attractive); for concave
    fields it is two (repulsive < attractive). ``complete`` says whether the
    full structure was found with the required uniform separation. An
    attractive estimate ends after its first node past the window, and
    holds its whole burn-in run before it (``LimitCache`` keeps window
    copies).

    The repulsive estimate may still be pending: ``limit_hyperbolic_solutions``
    hands the set a ``chain`` that returns every estimate top down, None for
    a missing one, and the set runs it on the first read that needs it, that
    is ``set[role]`` for a role the set does not hold yet, ``estimates``,
    ``roles``, ``complete``, ``separation``, ``notes``, ``require_complete``
    or ``shifted``. Reading an attractive estimate the set holds runs
    nothing. The chain appends its notes to the set's notes list.
    """

    def __init__(self, gamma: float, concavity: str, window: tuple[float, float],
                 estimates: list[HyperbolicEstimate], notes: list[str],
                 separation: float | None = None, chain=None):
        self.gamma = gamma
        self.concavity = concavity
        self.window = window
        self._estimates = {e.role: e for e in estimates}
        self._notes = notes
        self._separation = separation
        # the pending phase; it refers to nothing that refers to the set, so
        # an unread set is freed by reference counting
        self._chain = chain

    def _finished(self) -> "LimitSet":
        if self._chain is not None:
            full = self._chain()
            self._chain = None
            self._estimates = {e.role: e for e in full if e is not None}
            if None not in full:
                grid = np.linspace(*self.window, WINDOW_SAMPLES)
                self._separation = _chain_separation(grid, full)
                if not self.complete:
                    self._notes.append(f"separation {self._separation:.3g} below SEP_TOL; "
                                       "not uniformly separated")
        return self

    @property
    def estimates(self) -> dict[str, HyperbolicEstimate]:
        return self._finished()._estimates

    @property
    def separation(self) -> float | None:
        return self._finished()._separation

    @property
    def complete(self) -> bool:
        return self.separation is not None and self.separation >= SEP_TOL

    @property
    def notes(self) -> list[str]:
        return self._finished()._notes

    def __getitem__(self, role: str) -> HyperbolicEstimate:
        if role in self._estimates:
            return self._estimates[role]
        try:
            return self.estimates[role]
        except KeyError:
            raise AttractorError(
                f"no {role} estimate at gamma={self.gamma} (notes: {self.notes})"
            ) from None

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(self.estimates)

    def shifted(self, gamma: float) -> "LimitSet":
        """The set moved to gamma, each estimate by gamma - self.gamma in x."""
        est = [e.shifted(gamma) for e in self.estimates.values()]
        return LimitSet(gamma, self.concavity, self.window, est, list(self.notes),
                        self.separation)

    def require_complete(self) -> "LimitSet":
        """The set itself; raises when the structure is incomplete."""
        if not self.complete:
            raise AttractorError(
                f"incomplete hyperbolic structure at gamma={self.gamma}: "
                f"found {list(self.roles)}; notes: {self.notes}"
            )
        return self


def _certified_run(rhs, t_from_of, x0_of, t_to, grid, num: Numerics):
    """Integrate with doubling burn-in until the window values stabilize.

    t_from_of/x0_of map the burn-in B to the start point (t_from_of is called
    first); every run steps toward t_to, and a forward run stops after the
    grid's end (``Trajectory.continued`` carries it on). Runs at B, 2B, ...
    up to max_burn_doublings doublings and returns (trajectory, burn_in,
    gap) of the first run within conv_tol of the one before. Only the
    previous run's values on the grid are kept, not the run.

    conv_tol is applied relative to max(1, sup|x|) over the grid: an
    absolute 1e-8 on a state of magnitude 100 sits below the accuracy floor
    of double-precision integration over windows this long.
    """
    B = num.burn_in
    prev, gap = None, math.inf
    stop = grid[-1] if t_to > grid[-1] else None
    for _ in range(num.max_burn_doublings + 1):
        cur = integrate(rhs, t_from_of(B), x0_of(B), t_to, num.integrator, stop_after=stop)
        if cur.status != "completed":
            raise NonConvergentError("escape during burn-in (no bounded solution reached)")
        vals = cur.eval_array(grid)
        if prev is not None:
            gap = float(np.max(np.abs(vals - prev)))
            if gap < num.conv_tol * max(1.0, float(np.max(np.abs(vals)))):
                return cur, B, gap
        prev = vals
        del cur   # the next run integrates with this one freed
        B *= 2.0
    raise NonConvergentError(f"burn-in doubling did not converge (last gap {gap:.3g})")


def _band(model) -> tuple[float, float]:
    """The state box widened by BAND_MARGIN; leaving it counts as escape."""
    return (model.state_box[0] - BAND_MARGIN, model.state_box[1] + BAND_MARGIN)


def limit_hyperbolic_solutions(
    model,
    gamma: float,
    window: tuple[float, float] | None = None,
    num: Numerics = DEFAULT_NUMERICS,
) -> LimitSet:
    """Estimate the hyperbolic solutions of x' = f(t, x, gamma) over a window.

    Attractive solutions come from forward burn-in started at seeds placed
    outside the state box; each run steps toward twice the burn-in past the
    right edge of the window, and stops after its first node past that
    edge. The d-concave middle repulsive solution comes from backward
    burn-in seeded between the attractive pair beyond the right edge, and
    the concave repulsive one from backward burn-in seeded at the low seed.

    The attractive runs are made here, and so is the verdict on a d-concave
    pair that is missing an estimate or collides. The repulsive run, with
    the separation, ``complete`` and the notes it adds, is left to the
    first read of the set that needs it (see ``LimitSet``), so a caller that
    reads only an attractive estimate never pays for it.
    ``LimitSet.require_complete`` raises on an incomplete structure.
    """
    w0, w1 = window if window is not None else (-num.horizon, num.horizon)
    if not w1 > w0:
        raise AttractorError(f"empty window ({w0}, {w1})")
    if model.concavity not in (CONCAVE, DCONCAVE):  # pragma: no cover
        raise AttractorError(f"unknown concavity class {model.concavity!r}")
    grid = np.linspace(w0, w1, WINDOW_SAMPLES)
    seed_lo, seed_hi = model.seeds()
    rhs = model.frozen_rhs(gamma)
    band_lo, band_hi = _band(model)
    notes = []

    def estimate(role, t_from_of, x0_of, t_to):
        """The certified estimate of one role, or None and a note."""
        try:
            tr, b, gap = _certified_run(rhs, t_from_of, x0_of, t_to, grid, num)
        except (NonConvergentError, IntegrationError, DomainError) as e:
            notes.append(f"{role}: {e}")
            return None
        return HyperbolicEstimate(role, gamma, tr, (w0, w1), b, gap)

    reach = w1 + 2.0 * num.burn_in   # where the attractive runs step toward

    def attractive(role, seed):
        return estimate(role, lambda b: w0 - b, lambda b: seed, reach)

    def repulsive(role, x0_of):
        return estimate(role, lambda b: w1 + b, x0_of, w0)

    def middle(upper, lower):
        """The middle repulsive estimate, seeded between the attractive pair;
        None and a note when it leaves the state band."""
        pair = [upper.trajectory, lower.trajectory]

        def midpoint(b):
            # the seed point w1 + b is read on the attractive runs continued
            # to it, past their reach too; the held estimates keep their runs
            start = w1 + b
            pair[:] = [tr if tr.covers(start) else tr.continued(start) for tr in pair]
            if any(tr.status != "completed" for tr in pair):
                raise NonConvergentError("attractive extension escaped")
            return 0.5 * (pair[0](start) + pair[1](start))

        est = repulsive("middle-repulsive", midpoint)
        if est is not None:
            vals = est.eval_array(grid)
            if vals.min() < band_lo or vals.max() > band_hi:
                notes.append("middle-repulsive leaves the state band; not bistable")
                return None
        return est

    chain = None
    if model.concavity == CONCAVE:
        top = attractive("attractive", seed_hi)
        held = [top]
        chain = lambda: [top, repulsive("repulsive", lambda b: seed_lo)]
    else:
        upper = attractive("upper-attractive", seed_hi)
        lower = attractive("lower-attractive", seed_lo)
        if upper is None or lower is None:
            held = [replace(e, role="attractive") for e in (upper, lower) if e is not None]
            if held:
                notes.append("single attractive estimate")
        elif (gap := _chain_separation(grid, (upper, lower))) < SEP_TOL:
            held = [replace(upper, role="attractive")]
            notes.append(f"attractive estimates collide (gap {gap:.3g}); not bistable")
        else:
            held = [upper, lower]
            chain = lambda: [upper, middle(upper, lower), lower]
    return LimitSet(gamma, model.concavity, (w0, w1), [e for e in held if e is not None],
                    notes, chain=chain)


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
    traj = integrate(model.transition_rhs(mechanism), t_from, anchor(t_from), -t_from,
                     num.integrator)
    band = _band(model)
    return PullbackSolution(anchor.role, traj, anchor, H, _band_exit(traj, band, backward))


# ---------------------------------------------------------------------------
# quadrature along trajectories and the Lyapunov exponent
# ---------------------------------------------------------------------------

_G3_OFF = math.sqrt(3.0 / 5.0)   # Gauss-Legendre 3-point nodes at +-off, 0
_G3_W = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)
_QUAD_MAX_HALVINGS = 4           # step halvings before a quadrature counts as stalled
_QUAD_BLOCK = 512                # intervals whose Gauss nodes are read at once


def gauss3_interval_integrals(fn, traj: Trajectory, a: float, h: float, n: int) -> np.ndarray:
    """Integrals of fn(t, traj(t)) over the n intervals [a + i*h, a + (i+1)*h].

    The Gauss nodes of each block of _QUAD_BLOCK intervals (blocks bound the
    memory a pass takes) are one array, formed by the float operations of
    m = a + (i + 0.5)*h and m -+ off, and traj.eval_array reads them, bitwise
    traj(t). numpy does only +, -, * and /, so every value is the Python
    float's; fn stays scalar, called once per node in ascending order. A
    node outside the span raises traj(t)'s IntegrationError after fn has
    run on the nodes before it.
    """
    if not h > 0.0:
        raise AttractorError(f"quadrature step must be positive, got {h!r}")
    w1, w2, w3 = _G3_W
    off = _G3_OFF * 0.5 * h
    half = 0.5 * h
    out = np.empty(n)
    for i in range(0, n, _QUAD_BLOCK):
        m = a + (np.arange(i, min(i + _QUAD_BLOCK, n)) + 0.5) * h
        ts = np.stack((m - off, m, m + off), axis=1).ravel()
        inside = (ts >= traj.t[0]) & (ts <= traj.t[-1])
        k = ts.size if inside.all() else int(np.argmin(inside))
        g = np.fromiter(map(fn, ts[:k].tolist(), traj.eval_array(ts[:k]).tolist()), float, k)
        if k < ts.size:
            raise _span_error(traj.t, float(ts[k]))
        out[i:i + m.size] = half * (w1 * g[0::3] + w2 * g[1::3] + w3 * g[2::3])
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
    """Average of f_x along a hyperbolic estimate of the frozen equation at
    gamma over a centered window; an estimate of another gamma raises.

    The quadrature step QUAD_H is halved until two passes agree within
    QUAD_TOL, at most _QUAD_MAX_HALVINGS times, else NonConvergentError
    names the last gap. The finer pass of the agreeing pair is the value,
    and their gap is quad_gap, a refinement gap and not an error bound of
    the exponent. The average over half the window, at QUAD_H, is reported
    as a sensitivity measure. gamma repeats solution.gamma and num is not
    read; both stay because perfbench/workloads.py passes them positionally.
    """
    if not window_length > 0.0:
        raise AttractorError(f"window_length must be positive, got {window_length!r}")
    if solution.gamma != gamma:
        raise AttractorError(f"the estimate is of gamma={solution.gamma}, not gamma={gamma}")
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

    _, value, quad_gap = _refined(lambda k: average(a, b, QUAD_H * 0.5 ** k),
                                  lambda coarse, fine: abs(coarse - fine),
                                  QUAD_TOL, NonConvergentError)
    half = average(c - 0.25 * window_length, c + 0.25 * window_length, QUAD_H)
    return LyapunovEstimate(
        value=value, window=window_length,
        sensitivity=abs(value - half), quad_gap=quad_gap,
    )
