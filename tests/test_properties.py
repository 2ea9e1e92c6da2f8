"""Randomized structural invariants of the fields, flows, and warnings.

Draws are derandomized so the suite is reproducible; every numerical
comparison is against an independent construction (difference stencils,
polynomial roots, closed-form window averages, or a second integration).
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import check_anchor_insensitivity, cubic_roots
from tiplab.attractors import (
    DEFAULT_NUMERICS,
    limit_hyperbolic_solutions,
    pullback_attractive,
)
from tiplab.classify import LimitCache, resolve_horizon
from tiplab.ews import EwsConfig, FtleSeries, ftle_series, warning_time
from tiplab.integrator import integrate
from tiplab.models import make_model
from tiplab.transitions import ConstantRate, make_profile

NUM = DEFAULT_NUMERICS
SQ5 = math.sqrt(5.0)

CUBIC = make_model("allee-multiplicative-cubic",
                   {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0})
CQUAD = make_model("concave-logistic-migration", {"r": 1.0, "I": 0.25})
HOLLING = make_model("holling-predation-linear-gamma", {
    "r": {"kind": "sin", "offset": 2.0, "amplitude": 1.0, "omega": 1.0},
    "K": {"kind": "sin2", "offset": 90.0, "amplitude": 18.0, "omega": SQ5 / 2},
    "b": 10.0,
})
DMODEL = make_model("allee-multiplicative-rational", {
    "r":   {"kind": "sin2", "offset": 1.5,  "amplitude": 1.0,  "omega": 0.25},
    "K":   {"kind": "sin2", "offset": 40.0, "amplitude": 40.0, "omega": SQ5 / 16},
    "mu":  {"kind": "sin2", "offset": 30.0, "amplitude": 30.0, "omega": 0.25},
    "nu":  {"kind": "sin2", "offset": 40.0, "amplitude": 40.0, "omega": SQ5 / 16},
    "phi": {"kind": "sin2", "offset": 0.75, "amplitude": 0.5,  "omega": SQ5 / 2},
})
PULSE = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)

COMMON = dict(derandomize=True, deadline=None)


def stencil_fx(f, t, x, g, h=1e-3):
    return (f(t, x - 2 * h, g) - 8 * f(t, x - h, g)
            + 8 * f(t, x + h, g) - f(t, x + 2 * h, g)) / (12 * h)


# ---------------------------------------------------------------------------
# derivative consistency
# ---------------------------------------------------------------------------

DERIVATIVE_BOXES = [
    (CUBIC, (-50.0, 50.0), (-2.0, 2.0), (-0.6, 0.6)),
    (CQUAD, (-50.0, 50.0), (-3.0, 3.0), (-2.0, 2.0)),
    (HOLLING, (-20.0, 20.0), (1.0, 80.0), (0.0, 3.0)),
    (DMODEL, (-20.0, 20.0), (1.0, 60.0), (0.0, 3.0)),
]


@pytest.mark.parametrize("case", DERIVATIVE_BOXES,
                         ids=["cubic", "quadratic", "holling", "rational"])
def test_fx_matches_difference_stencil(case):
    model, (t0, t1), (x0, x1), (g0, g1) = case

    @settings(max_examples=100, **COMMON)
    @given(t=st.floats(t0, t1), x=st.floats(x0, x1), g=st.floats(g0, g1))
    def inner(t, x, g):
        want = stencil_fx(model.f, t, x, g)
        got = model.fx(t, x, g)
        assert got == pytest.approx(want, abs=1e-6 * max(1.0, abs(want)))

    inner()


# ---------------------------------------------------------------------------
# comparison principles for the scalar flow
# ---------------------------------------------------------------------------

@settings(max_examples=100, **COMMON)
@given(x1=st.floats(-2.0, 2.0), gap=st.floats(1e-3, 1.0),
       c=st.floats(0.1, 5.0))
def test_flow_preserves_initial_order(x1, gap, c):
    rhs = CUBIC.transition_rhs(ConstantRate(PULSE, c))
    lo = integrate(rhs, 0.0, x1, 2.0, NUM.integrator)
    hi = integrate(rhs, 0.0, x1 + gap, 2.0, NUM.integrator)
    for t in (0.5, 1.3, 2.0):
        assert hi(t) > lo(t) - 1e-9


@settings(max_examples=100, **COMMON)
@given(g1=st.floats(-0.5, 0.5), dg=st.floats(1e-3, 0.5),
       x0=st.floats(-1.5, 1.5))
def test_flow_monotone_in_additive_forcing(g1, dg, x0):
    low = CUBIC.transition_rhs(ConstantRate(make_profile("constant", value=g1), 1.0))
    high = CUBIC.transition_rhs(
        ConstantRate(make_profile("constant", value=g1 + dg), 1.0))
    a = integrate(low, 0.0, x0, 2.0, NUM.integrator)
    b = integrate(high, 0.0, x0, 2.0, NUM.integrator)
    for t in (0.5, 1.3, 2.0):
        assert b(t) > a(t) - 1e-9


@settings(max_examples=100, **COMMON)
@given(a=st.floats(-1.0, 1.0), b=st.floats(0.05, 0.5),
       x0=st.floats(-1.0, 1.0), T=st.floats(1.0, 5.0))
def test_time_reversal_duality(a, b, x0, T):
    # y(s) = x(-s) solves y' = -f(-s, y); running it back recovers x0
    fwd = integrate(lambda t, x: a * math.cos(t) - b * x, 0.0, x0, T,
                    NUM.integrator)
    back = integrate(lambda s, y: -(a * math.cos(-s) - b * y), -T, fwd(T),
                     0.0, NUM.integrator)
    assert back(0.0) == pytest.approx(x0, abs=1e-8)


# ---------------------------------------------------------------------------
# monotonicity of the frozen-field equilibria in gamma
# ---------------------------------------------------------------------------

@settings(max_examples=100, **COMMON)
@given(g1=st.floats(-0.36, 0.35), dg=st.floats(5e-3, 0.2))
def test_cubic_equilibria_monotone_in_gamma(g1, dg):
    g2 = min(g1 + dg, 0.36)
    lo1, mid1, up1 = cubic_roots(g1)
    lo2, mid2, up2 = cubic_roots(g2)
    assert lo2 > lo1 and up2 > up1
    assert mid2 < mid1


@settings(max_examples=100, **COMMON)
@given(g1=st.floats(-0.35, -0.03), dg=st.floats(5e-3, 0.2))
def test_gompertz_equilibria_monotone_in_gamma(g1, dg):
    # roots of x log x = gamma on either side of 1/e
    g2 = min(g1 + dg, -0.02)

    def root(gamma, lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (lo * math.log(lo) - gamma) * (mid * math.log(mid) - gamma) <= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    e_inv = math.exp(-1.0)
    assert root(g2, e_inv, 3.0) > root(g1, e_inv, 3.0)
    assert root(g2, 1e-12, e_inv) < root(g1, 1e-12, e_inv)


@settings(max_examples=6, **COMMON)
@given(g1=st.floats(-0.3, 0.1), dg=st.floats(0.05, 0.2))
def test_limit_solutions_track_root_monotonicity(g1, dg):
    g2 = g1 + dg
    win = (-60.0, 60.0)
    s1 = limit_hyperbolic_solutions(CUBIC, g1, win, NUM)
    s2 = limit_hyperbolic_solutions(CUBIC, g2, win, NUM)
    for role, idx in (("lower-attractive", 0), ("middle-repulsive", 1),
                      ("upper-attractive", 2)):
        assert s1[role](0.0) == pytest.approx(cubic_roots(g1)[idx], abs=1e-6)
        assert s2[role](0.0) == pytest.approx(cubic_roots(g2)[idx], abs=1e-6)
    assert s2["upper-attractive"](0.0) > s1["upper-attractive"](0.0)
    assert s2["middle-repulsive"](0.0) < s1["middle-repulsive"](0.0)


# ---------------------------------------------------------------------------
# anchor insensitivity of pullback solutions
# ---------------------------------------------------------------------------

PAST_CACHE = LimitCache(CUBIC, NUM)


@settings(max_examples=5, **COMMON)
@given(c=st.floats(1.0, 5.0))
def test_pullback_anchor_insensitive(c):
    mech = ConstantRate(PULSE, c)
    H = resolve_horizon(mech, NUM)
    past = PAST_CACHE.get(0.0, H)
    sol = pullback_attractive(CUBIC, mech, past["upper-attractive"], H, NUM)
    assert check_anchor_insensitivity(CUBIC, mech, sol, NUM) < 1.0e-6


# ---------------------------------------------------------------------------
# window averages and warning times
# ---------------------------------------------------------------------------

ZERO_TRAJ = integrate(lambda t, x: 0.0, -60.0, 0.0, 60.0)


@settings(max_examples=60, **COMMON)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-1.0, 1.0),
       phase=st.floats(0.0, 2.0 * math.pi), T=st.floats(2.0, 15.0))
def test_ftle_matches_closed_form_average(a, b, phase, T):
    model = types.SimpleNamespace(
        fx=lambda t, x, g: a * math.sin(t + phase) + b)
    mech = ConstantRate(make_profile("constant", value=0.0), 1.0)
    series = ftle_series(model, mech, ZERO_TRAJ, T)
    exact = b + a * (np.cos(series.t - T + phase)
                     - np.cos(series.t + phase)) / T
    assert np.abs(series.values - exact).max() < 1e-8


@settings(max_examples=100, **COMMON)
@given(amp=st.floats(0.1, 1.9), center=st.floats(2.0, 8.0),
       width=st.floats(0.3, 2.0), k1=st.floats(0.0, 0.98),
       dk=st.floats(1e-3, 0.5))
def test_warning_time_monotone_in_kappa(amp, center, width, k1, dk):
    t = np.linspace(0.0, 10.0, 201)
    v = -2.0 + amp * np.exp(-(((t - center) / width) ** 2))
    series = FtleSeries(1.0, t, v, 0.0)
    k2 = min(k1 + dk, 0.99)
    w1 = warning_time(series, EwsConfig(k1, -2.0))
    w2 = warning_time(series, EwsConfig(k2, -2.0))
    # a lower threshold can only move the warning earlier
    if w2 is None:
        assert w1 is None
    elif w1 is not None:
        assert w2 <= w1 + 2e-3


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@settings(max_examples=20, **COMMON)
@given(c=st.floats(0.1, 5.0), x0=st.floats(-1.5, 1.5))
def test_integration_is_bitwise_deterministic(c, x0):
    rhs = CUBIC.transition_rhs(ConstantRate(PULSE, c))
    one = integrate(rhs, -3.0, x0, 3.0, NUM.integrator)
    two = integrate(rhs, -3.0, x0, 3.0, NUM.integrator)
    assert np.array_equal(one.t, two.t)
    assert np.array_equal(one.x, two.x)
