"""Finite-time Lyapunov exponents, warning times, and certificates.

The expensive fixtures (pullback solutions of the cubic model under a slow
and a fast Cauchy pulse) are shared across the crossover, nesting, and
warning tests.
"""

import math
import types

import numpy as np
import pytest

from tiplab.attractors import (
    DEFAULT_NUMERICS,
    QUAD_TOL,
    WARN_REFINE_TOL,
    pullback_attractive,
)
from tiplab.classify import LimitCache, classify, pullback_of, resolve_horizon
from tiplab.ews import (
    EwsConfig,
    EwsError,
    FtleSeries,
    _first_root,
    crossover_time,
    ews_region,
    ftle_series,
    reaction_run,
    safe_no_return,
    warning_time,
)
from tiplab.integrator import integrate
from tiplab.models import make_model
from tiplab.transitions import ConstantRate, TimeDependentRate, make_profile

NUM = DEFAULT_NUMERICS

# critical rate of the cubic model under this pulse, from test_classify
PULSE = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)
C0 = 2.192173


# ---------------------------------------------------------------------------
# exactness on a field with prescribed linearization
# ---------------------------------------------------------------------------

def linear_stub(span=60.0):
    """Solution x == 0 of a field whose fx is sin(t) + 0.3, so the window
    average has the closed form 0.3 + (cos(t - T) - cos(t)) / T."""
    model = types.SimpleNamespace(fx=lambda t, x, gamma: math.sin(t) + 0.3)
    mech = ConstantRate(make_profile("constant", value=0.0), 1.0)
    return model, mech, integrate(lambda t, x: 0.0, -span, 0.0, span)


def test_ftle_exact_on_linear_field():
    model, mech, traj = linear_stub()
    T = 10.0
    series = ftle_series(model, mech, traj, T)
    exact = 0.3 + (np.cos(series.t - T) - np.cos(series.t)) / T
    assert np.abs(series.values - exact).max() < 1.0e-8
    assert series.quad_gap < QUAD_TOL
    assert series.t[0] == pytest.approx(-60.0 + T)
    assert series.t[-1] <= 60.0 + 1e-12


def test_ftle_series_helpers():
    model, mech, traj = linear_stub()
    series = ftle_series(model, mech, traj, 10.0)
    sub = ftle_series(model, mech, traj, 10.0, t_min=0.0, t_max=5.0)
    assert sub.t[0] >= 0.0 and sub.t[-1] <= 5.0
    assert sub.max_value == pytest.approx(sub.values.max())
    assert sub.max_value <= series.max_value
    with pytest.raises(EwsError, match="empty time range"):
        ftle_series(model, mech, traj, 10.0, t_min=200.0, t_max=300.0)


def test_ftle_window_errors():
    model, mech, traj = linear_stub()
    for T in (-1.0, math.nan):
        with pytest.raises(EwsError, match="window length T must be positive"):
            ftle_series(model, mech, traj, T)
    with pytest.raises(EwsError, match="empty time range"):
        ftle_series(model, mech, traj, 10.0, t_min=30.0, t_max=20.0)
    model2, mech2, short = linear_stub(span=2.0)
    with pytest.raises(EwsError, match="shorter than the window"):
        ftle_series(model2, mech2, short, 10.0)


def test_ews_config_validation():
    cfg = EwsConfig(0.5, -2.0)
    assert cfg.threshold == pytest.approx(-1.0)
    assert EwsConfig(0.0, -2.0).threshold == 0.0
    with pytest.raises(EwsError, match="kappa"):
        EwsConfig(-0.1, -2.0)
    with pytest.raises(EwsError, match="kappa"):
        EwsConfig(1.0, -2.0)
    with pytest.raises(EwsError, match="negative"):
        EwsConfig(0.5, 0.0)
    with pytest.raises(EwsError, match="negative"):
        EwsConfig(0.5, 1.0)


# ---------------------------------------------------------------------------
# warning times on a synthetic series
# ---------------------------------------------------------------------------

def bump_series():
    t = np.linspace(0.0, 10.0, 101)
    v = -2.0 + 1.9 * np.exp(-((t - 5.0) ** 2))
    return FtleSeries(1.0, t, v, 0.0)


def test_warning_time_bump():
    series = bump_series()
    # threshold -1 is crossed where 1.9 exp(-(t-5)^2) = 1
    t_half = 5.0 - math.sqrt(math.log(1.9))
    wt = warning_time(series, EwsConfig(0.5, -2.0))
    assert wt == pytest.approx(t_half, abs=2e-2)
    # a lower threshold (larger kappa) cannot warn later
    wt_deep = warning_time(series, EwsConfig(0.8, -2.0))
    assert wt_deep <= wt
    assert wt_deep == pytest.approx(5.0 - math.sqrt(math.log(1.9 / 0.4)),
                                    abs=2e-2)


def test_warning_time_with_zero_refine_tolerance_terminates():
    # bisection down to tolerance 0 stops at adjacent floats instead of
    # looping forever; the warning is the later one, where the linear
    # interpolant has reached the threshold
    series = bump_series()
    wt = warning_time(series, EwsConfig(0.5, -2.0), refine_tol=0.0)
    assert wt == pytest.approx(5.0 - math.sqrt(math.log(1.9)), abs=2e-2)
    i = int(np.argmax(series.values >= -1.0))
    t0, t1, v0, v1 = series.t[i - 1], series.t[i], series.values[i - 1], series.values[i]
    at = lambda t: v0 + (t - t0) / (t1 - t0) * (v1 - v0)
    assert at(wt) >= -1.0 > at(math.nextafter(wt, -math.inf))


def test_warning_time_edge_cases():
    series = bump_series()
    # peak value -0.1 never reaches a threshold above it
    assert warning_time(series, EwsConfig(0.02, -2.0)) is None
    # a series that starts beyond the threshold warns at its first node
    flat = FtleSeries(1.0, np.linspace(2.0, 4.0, 21), np.full(21, -0.5), 0.0)
    assert warning_time(flat, EwsConfig(0.5, -2.0)) == pytest.approx(2.0)
    # a series that starts past the bump does not warn
    late = FtleSeries(1.0, series.t[60:], series.values[60:], 0.0)
    assert late.t[0] == 6.0 and warning_time(late, EwsConfig(0.5, -2.0)) is None


# ---------------------------------------------------------------------------
# pullback runs of the cubic model under the pulse
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def slow_run(cubic):
    mech = ConstantRate(PULSE, 0.05)
    H = resolve_horizon(mech, NUM)
    past = LimitCache(cubic, NUM).get(0.0, H)
    u = pullback_attractive(cubic, mech, past["upper-attractive"], H, NUM)
    return mech, H, past, u


@pytest.fixture(scope="module")
def fast_run(cubic):
    mech = ConstantRate(PULSE, 5.0)
    H = resolve_horizon(mech, NUM)
    past = LimitCache(cubic, NUM).get(0.0, H)
    u = pullback_attractive(cubic, mech, past["upper-attractive"], H, NUM)
    return mech, H, past, u


def test_slow_run_warns_before_extinction(cubic, slow_run):
    mech, H, past, u = slow_run
    series = ftle_series(cubic, mech, u.trajectory, 10.0)
    assert series.max_value == pytest.approx(0.2799, abs=5e-3)
    assert series.values.min() == pytest.approx(-3.4726, abs=5e-3)
    # the tipped solution only reaches the frozen lower branch far in the
    # future: the moving branch returns to it like 1/t^2
    arrival = crossover_time(u.trajectory, past)
    assert arrival == pytest.approx(1090.64, abs=0.5)
    wt = warning_time(series, EwsConfig(0.5, -2.0))
    assert wt is not None and wt < arrival


def test_fast_run_stays_quiet(cubic, fast_run):
    mech, H, past, u = fast_run
    series = ftle_series(cubic, mech, u.trajectory, 10.0)
    assert series.max_value == pytest.approx(-1.4154, abs=5e-3)
    assert crossover_time(u.trajectory, past) is None
    assert warning_time(series, EwsConfig(0.5, -2.0)) is None


def test_window_maxima_nested_in_T(cubic, slow_run):
    # doubling T averages pairs of shorter windows, so the maximum of the
    # series cannot increase
    mech, H, past, u = slow_run
    maxima = [ftle_series(cubic, mech, u.trajectory, T).max_value
              for T in (5.0, 10.0, 20.0)]
    assert maxima[1] <= maxima[0] + 1e-4
    assert maxima[2] <= maxima[1] + 1e-4


def test_ftle_along_a_repulsive_solution(cubic):
    # a backward run spans the same interval as a forward one; away from the
    # pulse the pullback repulsive solution sits at the repeller x = 0,
    # where f_x = 1
    mech = ConstantRate(PULSE, 5.0)
    m = pullback_of(cubic, mech, "middle-repulsive", NUM)
    assert m.trajectory.direction == "backward"
    series = ftle_series(cubic, mech, m.trajectory, 10.0)
    assert series.t[0] == pytest.approx(m.trajectory.t[0] + 10.0)
    past = ftle_series(cubic, mech, m.trajectory, 10.0, t_min=-300.0, t_max=-100.0)
    assert np.abs(past.values - 1.0).max() < 1e-6


def test_ews_region_grid(cubic):
    grid = ews_region(cubic, lambda c: ConstantRate(PULSE, c),
                      kappas=[0.5, 0.8], cs=[0.05, 5.0], T=10.0, L=-2.0,
                      num=NUM)
    assert grid.axis1_name == "kappa" and grid.axis2_name == "c"
    assert grid.notes == {}
    # tipped runs are detected at any threshold; the tracking run only once
    # kappa*L drops below its ceiling near -1.42
    assert grid.outcomes == [[True, False], [True, True]]
    assert len(list(grid.rows())) == 4


@pytest.mark.parametrize("kappas, L", [([0.5, 1.5], -2.0), ([-0.5], -2.0), ([0.5], 2.0)])
def test_ews_region_refuses_what_ews_config_refuses(cubic, kappas, L):
    def unreachable(c):
        raise AssertionError("a cell ran before the thresholds were checked")

    with pytest.raises(EwsError):
        ews_region(cubic, unreachable, kappas=kappas, cs=[1.0], T=10.0, L=L, num=NUM)


def test_ews_region_column_whose_window_exceeds_the_span_integrates_nothing(monkeypatch):
    # the pullback spans (-H, H), and H is known before any run: a window
    # longer than 2H fails its column before the burn-ins and the pullback
    import tiplab.integrator as integrator

    inner, runs = integrator._run, []
    monkeypatch.setattr(integrator, "_run", lambda *args: runs.append(args) or inner(*args))
    model = make_model("allee-multiplicative-cubic", {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0})
    grid = ews_region(model, lambda c: ConstantRate(PULSE, c), kappas=[0.3, 0.6], cs=[0.05],
                      T=1.0e5, L=-2.0, num=NUM)
    assert runs == [] and grid.outcomes == [[False], [False]]
    H = resolve_horizon(ConstantRate(PULSE, 0.05), NUM)
    assert grid.notes == {
        0.05: f"EwsError: solution span {(-H, H)} shorter than the window 100000.0"}


# ---------------------------------------------------------------------------
# safe and no-return certificates for a growing rate
# ---------------------------------------------------------------------------

def first_crossing(delta, level):
    lo, hi = -200.0, 200.0
    assert (delta(lo) - level) * (delta(hi) - level) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (delta(lo) - level) * (delta(mid) - level) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_safe_points_for_rate_crossing_upward(cubic):
    delta = make_profile("sigmoid-blend", left=0.5, right=4.0, rate=0.05)
    rep = safe_no_return(cubic, TimeDependentRate(PULSE, delta), C0, 0.0,
                         np.linspace(0.0, 60.0, 7), num=NUM)
    assert rep.s1 == pytest.approx(first_crossing(delta, C0), abs=1e-6)
    assert not rep.no_tipping
    assert set(rep.flags) == {"safe"}
    assert rep.conclusion == "tracking"
    assert rep.first("safe") == pytest.approx(0.0)
    assert rep.first("no-return") is None
    # the solution honors the frozen-rate ordering at every safe point
    assert np.all(rep.u_delta > rep.m_frozen)


def test_safe_points_rate_always_supercritical(cubic):
    delta = make_profile("sigmoid-blend", left=2.5, right=4.0, rate=0.05)
    rep = safe_no_return(cubic, TimeDependentRate(PULSE, delta), C0, 0.0,
                         np.linspace(0.0, 40.0, 5), num=NUM)
    assert rep.s1 is None
    assert rep.no_tipping
    assert rep.conclusion == "no tipping possible"
    assert set(rep.flags) == {"neither"}


def test_no_return_for_subcritical_rate(cubic):
    delta = make_profile("sigmoid-blend", left=0.3, right=1.8, rate=0.05)
    rep = safe_no_return(cubic, TimeDependentRate(PULSE, delta), C0, 0.0,
                         np.linspace(0.0, 40.0, 5), num=NUM)
    assert rep.s1 is None and not rep.no_tipping
    assert set(rep.flags) == {"no-return"}
    assert rep.conclusion == "tipping"
    assert np.all(rep.u_delta < rep.m_future)


def test_rate_whose_infimum_lies_beyond_any_sample(cubic):
    # D = 3 - atan(1e-4 t)/pi falls toward its infimum 2.5 < c0 only far out:
    # D(1e4) = 2.75 and D(t) = c0 at t = 3.1e4, past the horizon
    delta = make_profile("arctan", offset=3.0, amplitude=-1.0 / math.pi, scale=1e-4)
    assert delta(1.0e4) > 2.6 > delta.bounds()[0]
    rep = safe_no_return(cubic, TimeDependentRate(PULSE, delta), 2.6, 0.0, [-5.0, 0.0, 5.0],
                         num=NUM)
    assert not rep.no_tipping
    assert rep.s1 is None
    assert rep.conclusion != "no tipping possible"


@pytest.mark.parametrize("c0", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_warning_rate_is_refused_before_any_run(cubic, monkeypatch, c0):
    # every comparison of D(d s) - c0 with 0 is false for a NaN, so no
    # warning point was found and the report read "tracking"
    import tiplab.integrator as integrator

    inner, runs = integrator._run, []
    monkeypatch.setattr(integrator, "_run", lambda *args: runs.append(args) or inner(*args))
    delta = make_profile("sigmoid-blend", left=0.5, right=4.0, rate=0.05)
    with pytest.raises(EwsError, match=f"^warning rate c0 must be finite, got {c0}$"):
        safe_no_return(cubic, TimeDependentRate(PULSE, delta), c0, 0.0, [0.0], num=NUM)
    assert runs == []


def test_close_frozen_rates_each_get_their_own_repeller(cubic):
    # the two rates differ by about 4e-5, closer than a repeller cache keyed
    # to 1e-4 could tell apart
    delta = make_profile("sigmoid-blend", left=0.5, right=4.0, rate=0.05)
    grid = [0.0, 1.0e-3]
    rep = safe_no_return(cubic, TimeDependentRate(PULSE, delta), C0, 0.0, grid, num=NUM)
    rates = [float(delta(t)) for t in grid]
    assert 0.0 < rates[1] - rates[0] < 1.0e-4
    for t, c, m in zip(grid, rates, rep.m_frozen):
        assert m == pullback_of(cubic, ConstantRate(PULSE, c), "middle-repulsive", NUM)(t)
    future = pullback_of(cubic, ConstantRate(PULSE, delta.limit_plus), "middle-repulsive", NUM)
    assert list(rep.m_future) == [future(t) for t in grid]


def test_first_root_returns_a_level_reached_exactly():
    ts = np.linspace(-4.0, 4.0, 8001)

    def ident(t):
        return float(t)

    # at a scan point past the first, at the first one, and at the first
    # bisection midpoint: the point itself, not the midpoint of a bracket
    assert _first_root(ident, float(ts[4321]), -4.0, 4.0) == ts[4321]
    assert _first_root(ident, -4.0, -4.0, 4.0) == -4.0
    mid = 0.5 * (ts[10] + ts[11])
    assert ts[10] < mid < ts[11]
    assert _first_root(ident, float(mid), -4.0, 4.0) == mid
    assert _first_root(ident, 5.0, -4.0, 4.0) is None


# ---------------------------------------------------------------------------
# reacting to a warning
# ---------------------------------------------------------------------------

def test_reaction_without_warning_keeps_label(cubic):
    delta = make_profile("sigmoid-blend", left=5.0, right=3.0, rate=0.05)
    out = reaction_run(cubic, PULSE, delta, 1.0, 1.0, 0.0, 10.0, -2.0, NUM)
    assert not out.warned and out.t1 is None
    assert out.label.label == "A"


def test_reaction_rescues_slow_rate(cubic):
    delta = make_profile("constant", value=0.5)
    none = reaction_run(cubic, PULSE, delta, 0.0, 1.0, 0.5, 10.0, -2.0, NUM)
    strong = reaction_run(cubic, PULSE, delta, 3.0, 1.0, 0.5, 10.0, -2.0, NUM)
    assert none.warned and strong.warned
    assert strong.t1 == pytest.approx(none.t1, abs=1e-9)
    assert none.label.label == "C2"
    assert strong.label.label == "A"
    for r in (-1.0, math.nan):
        with pytest.raises(EwsError, match="nonnegative"):
            reaction_run(cubic, PULSE, delta, r, 1.0, 0.5, 10.0, -2.0, NUM)


def test_reaction_at_the_past_rate_keeps_its_tolerance(cubic):
    # at r = delta's past limit the Reaction's rate vanishes at -H, so its
    # path sits at the pulse peak there; the reacted run never follows that
    # end, and its tolerance must not budget for it: the run still tips
    delta = make_profile("constant", value=0.5)
    none = reaction_run(cubic, PULSE, delta, 0.0, 1.0, 0.5, 10.0, -2.0, NUM)
    for r in (0.4, 0.5, 0.6):
        out = reaction_run(cubic, PULSE, delta, r, 1.0, 0.5, 10.0, -2.0, NUM)
        assert out.warned
        assert out.label.evidence["track_tol"] == none.label.evidence["track_tol"]
        assert out.label.label == "C2"


def test_reaction_warns_at_the_default_refinement(cubic):
    from tiplab.ews import _UnreactedRun

    delta = make_profile("constant", value=0.5)
    run = _UnreactedRun(cubic, PULSE, delta, 10.0, NUM)
    out = reaction_run(cubic, PULSE, delta, 3.0, 1.0, 0.5, 10.0, -2.0, NUM, shared=run)
    cfg = EwsConfig(0.5, -2.0)
    assert out.warned
    assert out.t1 == warning_time(run.series, cfg, refine_tol=WARN_REFINE_TOL)
    assert out.t1 != warning_time(run.series, cfg, refine_tol=0.25)


def test_unreacted_c2_label_reuses_the_held_pullback(cubic, monkeypatch):
    # the sweep's upper pullback decides C2, so classifying integrates nothing
    import tiplab.attractors as attractors
    from tiplab.ews import _UnreactedRun

    delta = make_profile("constant", value=0.5)
    run = _UnreactedRun(cubic, PULSE, delta, 10.0, NUM)
    inner = attractors.integrate
    calls = []

    def counted(*args):
        calls.append((args[1], args[3]))
        return inner(*args)

    monkeypatch.setattr(attractors, "integrate", counted)
    label = run.unreacted_label()
    assert calls == []
    assert label.label == "C2"
    assert label == classify(cubic, run.mechanism, NUM, horizon=run.H)
    assert calls == [(-run.H, run.H)]


def test_reacted_concave_escape_is_case_c():
    # x' = -(x - gamma)^2 + 1/4 under a deep, fast pulse escapes to -inf
    # (classify: C); a reaction of strength 0 replays that escape after the
    # warning, and the shared tracking rule labels it C as classify does
    cquad = make_model("concave-logistic-migration", {"r": 1.0, "I": 0.25})
    deep = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-3.0, b=0.5)
    delta = make_profile("constant", value=5.0)
    unreacted = classify(cquad, TimeDependentRate(deep, delta, 1.0), NUM)
    out = reaction_run(cquad, deep, delta, 0.0, 1.0, 0.5, 1.0, -1.0, NUM)
    assert unreacted.label == "C" and unreacted.evidence["a_status"] == "blow-up"
    assert out.warned and out.label.evidence["status"] == "blow-up"
    assert out.t1 < out.label.evidence["t_blow"]
    assert out.label.label == "C"
    # with r = 0 the reacted path is the unreacted one, so one rule gives
    # one tolerance
    assert out.label.evidence["track_tol"] == unreacted.evidence["track_tol"]
