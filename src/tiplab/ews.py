"""Finite-time Lyapunov exponents as early-warning signals.

The backward exponent of length T at time t is the average of f_x over
[t-T, t] along a chosen solution of the transition equation. Along an
attractive solution it sits near the (negative) Lyapunov exponent of the
past attractor until the transition excites it toward zero; a crossing of
the threshold kappa*L is the warning event. On top of the series this
module builds detection-region sweeps, the frozen-rate repeller curve with
its safe and no-return certificates, and reaction experiments where the
rate is increased as soon as a warning fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attractors import (
    DEFAULT_NUMERICS,
    NonConvergentError,
    Numerics,
    QUAD_H,
    QUAD_TOL,
    TRACK_TOL_FACTOR,
    WARN_REFINE_TOL,
    _refined,
    gauss3_interval_integrals,
)
from .classify import (
    CaseLabel,
    LimitCache,
    classify,
    label_upper_run,
    pullback_of,
    resolve_horizon,
)
from .integrator import IntegrationError, Trajectory, _bisect, _first_hit, integrate
from .models import _fx_along
from .transitions import ConstantRate, Reaction, TimeDependentRate


class EwsError(RuntimeError):
    pass


_CROSSOVER_STEP = 0.25     # scan step of crossover_time before it bisects


# ---------------------------------------------------------------------------
# FTLE series
# ---------------------------------------------------------------------------

@dataclass
class FtleSeries:
    """Backward FTLEs of one window length: values[i] averages f_x over [t[i] - T, t[i]]."""
    window_length: float
    t: np.ndarray
    values: np.ndarray
    quad_gap: float    # refinement gap of the agreeing passes, not an error bound

    @property
    def max_value(self) -> float:
        return float(self.values.max())


def ftle_series(model, mechanism, traj: Trajectory, T: float,
                t_min: float | None = None,
                t_max: float | None = None) -> FtleSeries:
    """Sliding-window average of f_x along traj, for window length T.

    One pass of composite 3-point Gauss quadrature on a uniform step near
    QUAD_H that divides T yields every window by differencing the
    cumulative sums. The step is halved until two passes agree within
    QUAD_TOL at every window of the coarser one, at most _QUAD_MAX_HALVINGS
    times, else EwsError names the last gap. The coarser pass of the
    agreeing pair is the series, and their gap is quad_gap: a refinement
    gap, not an error bound, since the solution is read through cubic
    Hermite interpolation whose error does not shrink with the step.
    """
    if not T > 0.0:
        raise EwsError(f"window length T must be positive, got {T!r}")
    lo_feasible = traj.t[0] + T
    hi_feasible = traj.t[-1]
    if lo_feasible > hi_feasible:
        raise EwsError(f"solution span {traj.span} shorter than the window {T}")
    t1 = min(t_max, hi_feasible) if t_max is not None else hi_feasible
    t0 = max(t_min, lo_feasible) if t_min is not None else lo_feasible
    if t0 > t1:
        raise EwsError("empty time range after clipping to the solution span")

    m = max(1, round(T / QUAD_H))
    h = T / m
    a0 = t0 - T
    n = m + max(1, int(math.ceil((t1 - t0) / h - 1e-12)))
    while a0 + n * h > traj.t[-1] + 1e-12:
        n -= 1
    if n < m:
        raise EwsError("no full window fits in the solution span")

    fn = _fx_along(model, mechanism=mechanism)

    def series(k):
        """(window ends, window averages) at the step halved k times."""
        hk, nk, mk = h / 2.0 ** k, n << k, m << k
        cum = np.concatenate(([0.0], np.cumsum(gauss3_interval_integrals(fn, traj, a0, hk, nk))))
        return a0 + hk * np.arange(mk, nk + 1), (cum[mk:] - cum[:-mk]) / (mk * hk)

    (times, vals), _, gap = _refined(
        series, lambda coarse, fine: float(np.abs(fine[1][::2] - coarse[1]).max()),
        QUAD_TOL, EwsError)
    return FtleSeries(T, times, vals, gap)


def _check_span(T: float, H: float) -> None:
    """Refuse a window T longer than the span (-H, H) of a pullback at
    horizon H, before anything integrates."""
    if T > 2.0 * H:
        raise EwsError(f"solution span {(-H, H)} shorter than the window {T}")


# ---------------------------------------------------------------------------
# warning times
# ---------------------------------------------------------------------------

@dataclass
class EwsConfig:
    kappa: float
    L: float

    def __post_init__(self):
        if not 0.0 <= self.kappa < 1.0:
            raise EwsError(f"kappa must lie in [0, 1), got {self.kappa}")
        if not self.L < 0.0:
            raise EwsError(f"reference exponent must be negative, got {self.L}")

    @property
    def threshold(self) -> float:
        return self.kappa * self.L


def warning_time(series: FtleSeries, ews: EwsConfig,
                 refine_tol: float = WARN_REFINE_TOL) -> float | None:
    """First time the series reaches kappa*L, refined between grid nodes by
    bisection on the linear interpolant; None if never triggered."""
    thr = ews.threshold
    t, v = series.t, series.values
    hits = np.nonzero(v >= thr)[0]
    if len(hits) == 0:
        return None
    i = int(hits[0])
    if i == 0:
        return float(t[0])
    lo_t, hi_t = float(t[i - 1]), float(t[i])
    lo_v, hi_v = float(v[i - 1]), float(v[i])

    def reached(x: float) -> bool:
        w = (x - lo_t) / (hi_t - lo_t)
        return not (lo_v + w * (hi_v - lo_v) < thr)

    return _bisect(reached, lo_t, hi_t, refine_tol)[1]


# ---------------------------------------------------------------------------
# detection-region sweep over (kappa, c)
# ---------------------------------------------------------------------------

@dataclass
class RegionGrid:
    axis1: list
    axis2: list
    outcomes: list            # outcomes[i][j] for (axis1[i], axis2[j])
    axis1_name: str = "axis1"
    axis2_name: str = "axis2"
    notes: dict = field(default_factory=dict)

    def rows(self):
        for i, a in enumerate(self.axis1):
            for j, b in enumerate(self.axis2):
                yield a, b, self.outcomes[i][j]


def ews_region(model, mechanism_family, kappas, cs, T: float, L: float,
               num: Numerics = DEFAULT_NUMERICS,
               search: tuple[float, float] = (-400.0, 400.0),
               role: str = "upper-attractive") -> RegionGrid:
    """Detection grid over (kappa, c): a cell is True when the FTLE series of
    the pullback attractive solution reaches kappa*L inside the search window.

    One solution and one series per c serve the whole kappa column. Each
    (kappa, L) pair is checked as an EwsConfig before any integration, and
    so is each column's window T against the pullback's span (-H, H).
    """
    kappas = [float(k) for k in kappas]
    thresholds = [EwsConfig(k, L).threshold for k in kappas]
    cs = [float(c) for c in cs]
    outcomes = [[None] * len(cs) for _ in kappas]
    notes = {}
    for j, c in enumerate(cs):
        mech = mechanism_family(c)
        try:
            H = resolve_horizon(mech, num)
            _check_span(T, H)
            traj = pullback_of(model, mech, role, num, horizon=H).trajectory
            series = ftle_series(model, mech, traj, T, t_min=search[0], t_max=search[1])
        except (EwsError, NonConvergentError, IntegrationError) as exc:
            notes[c] = f"{type(exc).__name__}: {exc}"
            for i in range(len(kappas)):
                outcomes[i][j] = False
            continue
        for i, thr in enumerate(thresholds):
            outcomes[i][j] = bool((series.values >= thr).any())
    return RegionGrid(kappas, cs, outcomes, "kappa", "c", notes)


# ---------------------------------------------------------------------------
# frozen-rate repellers and safe / no-return certificates
# ---------------------------------------------------------------------------

@dataclass
class SafePointReport:
    s1: float | None              # first crossing of the critical rate
    no_tipping: bool
    grid: np.ndarray
    u_delta: np.ndarray
    m_frozen: np.ndarray
    m_future: np.ndarray
    flags: list                   # safe | no-return | neither, per grid point
    conclusion: str
    t0: float

    def first(self, flag: str) -> float | None:
        return next((float(t) for t, fl in zip(self.grid, self.flags) if fl == flag), None)


def safe_no_return(model, mechanism: TimeDependentRate, c0: float, t0: float, grid,
                   c_star: float | None = None,
                   num: Numerics = DEFAULT_NUMERICS) -> SafePointReport:
    """Certificates for the time-dependent-rate problem x' = f(t, x, G(D(d t) t))
    that mechanism describes, with its profile G, rate curve D and speed d.

    The warning point s1 is the first root of D(d s) - c0. On the grid
    restricted to t >= t0 (the onset of D's monotone growth), a point is safe
    when u_D passes above the frozen-rate repeller there, and a no-return
    point when u_D falls below the repulsive solution of the future rate
    c_star (default: D's limit at +inf). A non-finite c0 is refused
    before any run.
    """
    if not math.isfinite(c0):
        raise EwsError(f"warning rate c0 must be finite, got {c0}")
    profile, delta, d = mechanism.profile, mechanism.delta, mechanism.d
    dval = lambda t: float(delta(d * t))
    c_star = float(c_star) if c_star is not None else float(delta.limit_plus)
    H = resolve_horizon(mechanism, num)
    grid = np.asarray([float(t) for t in grid])

    # D never falls to c0 when its closed-form lower bound does not
    if delta.bounds()[0] >= c0:
        empty = np.full(len(grid), math.nan)
        return SafePointReport(None, True, grid, empty, empty, empty,
                               ["neither"] * len(grid), "no tipping possible", t0)

    s1 = _first_root(dval, c0, -H, H)

    u = pullback_of(model, mechanism, "upper-attractive", num, horizon=H)

    repellers = {}   # pullback repulsive solutions by exact frozen rate

    def repeller(c: float, t: float) -> float:
        if c not in repellers:
            repellers[c] = pullback_of(model, ConstantRate(profile, c), "middle-repulsive", num)
        sol = repellers[c]
        return sol(t) if sol.trajectory.covers(t) else math.nan

    u_vals, mf_vals, mc_vals = (np.empty(len(grid)) for _ in range(3))
    flags = []
    for i, t in enumerate(grid):
        u_vals[i] = u(t) if (u.bounded and u.trajectory.covers(t)) else math.nan
        mf_vals[i] = repeller(dval(t), t)
        mc_vals[i] = repeller(c_star, t)
        # a nan (no solution at t) compares false
        after = not t < t0
        flags.append("safe" if after and u_vals[i] > mf_vals[i] else
                     "no-return" if after and u_vals[i] < mc_vals[i] else "neither")

    seen = ("safe" in flags, "no-return" in flags)
    conclusion = {(True, False): "tracking", (False, True): "tipping",
                  (True, True): "mixed"}.get(seen, "inconclusive")
    return SafePointReport(s1, False, grid, u_vals, mf_vals, mc_vals,
                           flags, conclusion, t0)


def _first_root(fn, level: float, lo: float, hi: float) -> float | None:
    """First root of fn - level on [lo, hi]: a sign change or zero on an
    8001-point scan, bisected; a point where fn reaches the level exactly
    is returned as it is, not as a midpoint."""
    exact = []
    below = fn(lo) - level < 0.0

    def crossed(t: float) -> bool:
        v = fn(t) - level
        if v == 0.0:
            exact.append(float(t))
        return v == 0.0 or (v < 0.0) != below

    hit = _first_hit(crossed, np.linspace(lo, hi, 8001), 1.0e-9)
    if exact:
        return exact[0]
    return None if hit is None else 0.5 * (hit[0] + hit[1])


def crossover_time(traj: Trajectory, future_limits) -> float | None:
    """First time the trajectory lands on the future extinction branch, i.e.
    comes within TRACK_TOL_FACTOR times the attractor gap of the lower
    attractor; None if it never does (tracking runs). Scanned on a
    _CROSSOVER_STEP grid, then bisected by _first_hit."""
    upper = future_limits["upper-attractive"]
    lower = future_limits["lower-attractive"]
    lo = max(traj.t_start, upper.trajectory.t[0], lower.trajectory.t[0])
    hi = min(traj.t_end, upper.window[1], lower.window[1])

    def landed(t: float) -> bool:
        tol = TRACK_TOL_FACTOR * (upper(t) - lower(t))
        return abs(traj(t) - lower(t)) < tol

    n = int((hi - lo) / _CROSSOVER_STEP)
    hit = _first_hit(landed, (lo + k * _CROSSOVER_STEP for k in range(n + 1)), 1.0e-6)
    return None if hit is None else 0.5 * (hit[0] + hit[1])


# ---------------------------------------------------------------------------
# reaction to a warning: increase the rate from the warning time on
# ---------------------------------------------------------------------------

@dataclass
class ReactionOutcome:
    label: CaseLabel
    t1: float | None
    r: float
    kappa: float
    warned: bool


class _UnreactedRun:
    """Shared state for a reaction sweep: the unreacted solution, its FTLE
    series, the limit sets and the unreacted label, computed once for the
    whole grid. The unreacted solution u is the pullback that classify runs
    first, so the label is classified with it rather than a second run. A
    window T longer than u's span (-H, H) is refused before any run."""

    def __init__(self, model, profile, delta, T: float, num: Numerics):
        self.model = model
        self.num = num
        self.mechanism = TimeDependentRate(profile, delta, 1.0)
        self.H = resolve_horizon(self.mechanism, num)
        _check_span(T, self.H)
        self.u = pullback_of(model, self.mechanism, "upper-attractive", num,
                             horizon=self.H)
        self.future = LimitCache(model, num).get(self.mechanism.gamma_plus, self.H)
        self.series = ftle_series(model, self.mechanism, self.u.trajectory, T)
        self._label: CaseLabel | None = None

    def unreacted_label(self) -> CaseLabel:
        """Classification of the unreacted problem, computed on first use
        from the held u and shared by every cell that does not warn."""
        if self._label is None:
            self._label = classify(self.model, self.mechanism, self.num,
                                   horizon=self.H, _upper=self.u)
        return self._label


def reaction_run(model, profile, delta, r: float, b: float, kappa: float,
                 T: float, L: float, num: Numerics = DEFAULT_NUMERICS,
                 shared: _UnreactedRun | None = None) -> ReactionOutcome:
    """Integrate the upper pullback solution, switch to the increased-rate
    equation at the first warning time, and label the run by
    classify.label_upper_run, with the unreacted path's tail term.

    Without a warning the unreacted equation's own classification is
    returned, with t1 = None.
    """
    if not r >= 0.0:
        raise EwsError("reaction strength must be nonnegative")
    run = shared if shared is not None else _UnreactedRun(model, profile, delta, T, num)
    t1 = warning_time(run.series, EwsConfig(kappa, L))
    if t1 is None:
        return ReactionOutcome(run.unreacted_label(), None, r, kappa, False)

    reaction = Reaction(profile, delta, r, b, t1)
    H = run.H
    traj = integrate(model.transition_rhs(reaction), t1, run.u(t1), H, num.integrator)
    # tail term of the unreacted path: the run never follows the Reaction's -H end
    label, to_upper, to_lower, tol = label_upper_run(traj, run.mechanism, run.future, H)
    ev = {"to_upper": to_upper, "track_tol": tol,
          "status": traj.status, "t_blow": traj.t_blow, "t1": t1, "r": r, "kappa": kappa}
    if to_lower is not None:
        ev["to_lower"] = to_lower
    return ReactionOutcome(CaseLabel(label, model.concavity, H, ev), t1, r, kappa, True)


def reaction_region(model, profile, delta, rs, kappas, b: float, T: float,
                    L: float, num: Numerics = DEFAULT_NUMERICS) -> RegionGrid:
    """Grid of reaction outcomes over (r, kappa); the unreacted run and the
    warning times are shared across the whole grid. The unreacted problem
    is the time-dependent rate (profile, delta) at d = 1, given by its
    parts because perfbench/workloads.py passes them positionally."""
    rs = [float(r) for r in rs]
    kappas = [float(k) for k in kappas]
    shared = _UnreactedRun(model, profile, delta, T, num)
    outcomes = [[None] * len(kappas) for _ in rs]
    notes = {}
    for j, kappa in enumerate(kappas):
        for i, r in enumerate(rs):
            try:
                out = reaction_run(model, profile, delta, r, b, kappa, T, L,
                                   num, shared=shared)
                outcomes[i][j] = out.label.label
            except (EwsError, NonConvergentError, IntegrationError) as exc:
                outcomes[i][j] = "error"
                notes[(r, kappa)] = f"{type(exc).__name__}: {exc}"
    return RegionGrid(rs, kappas, outcomes, "r", "kappa", notes)
