"""Case labels, critical values, bistable gamma intervals, switching."""

import math

import numpy as np
import pytest

from tiplab.classify import (
    ClassifyError,
    IndeterminateError,
    LimitCache,
    _bisect,
    classify,
    critical_value,
    gamma_interval,
    resolve_horizon,
    switching_classify,
)
from tiplab.models import make_model
from tiplab.transitions import ConstantRate, make_profile

SN = 2.0 / (3.0 * math.sqrt(3.0))    # cubic saddle-node at gamma = -+SN


@pytest.fixture(scope="module")
def pulse():
    return make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)


@pytest.fixture(scope="module")
def cquad():
    # x' = -(x - gamma)^2 + 1/4: hyperbolic pair gamma -+ 1/2 for every gamma
    return make_model("concave-logistic-migration", {"r": 1.0, "I": 0.25})


@pytest.fixture(scope="module")
def deep_pulse():
    return make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-3.0, b=0.5)


def test_slow_pulse_tips_fast_pulse_tracks(cubic, pulse):
    # the pulse dips below the saddle-node: adiabatic passage loses the
    # upper branch (C2), a fast pulse leaves the state inside its basin (A)
    slow = classify(cubic, ConstantRate(pulse, 0.05))
    assert slow.label == "C2"
    assert slow.concavity == "d-concave"
    fast = classify(cubic, ConstantRate(pulse, 5.0))
    assert fast.label == "A"
    assert not fast.indeterminate
    assert fast.evidence["u_to_upper"] < fast.evidence["track_tol"]


def test_concave_rate_induced_tipping(cquad, deep_pulse):
    # classical direction: slow rates track the moving equilibria, fast
    # pulses drop the state below the repeller and it escapes to -inf
    assert classify(cquad, ConstantRate(deep_pulse, 0.2)).label == "A"
    fast = classify(cquad, ConstantRate(deep_pulse, 5.0))
    assert fast.label == "C"
    assert fast.evidence["a_status"] == "blow-up"


def test_concave_critical_rate_orientation(cquad, deep_pulse):
    # labels may flip A -> C with increasing parameter; bisection only
    # needs the endpoints to differ
    res = critical_value(cquad, lambda c: ConstantRate(deep_pulse, c),
                         0.2, 5.0, 1.0e-3)
    assert res.label_lower == "A" and res.label_upper == "C"
    assert res.boundary_label == "B"
    assert res.width <= 1.0e-3


def test_case_label_to_dict(cubic, pulse):
    lab = classify(cubic, ConstantRate(pulse, 5.0))
    d = lab.to_dict()
    assert d["label"] == "A"
    assert d["horizon"] == lab.horizon
    assert isinstance(d["evidence"], dict)


def test_critical_value_brackets_the_flip(cubic, pulse):
    res = critical_value(cubic, lambda c: ConstantRate(pulse, c),
                         0.05, 5.0, 1.0e-3)
    assert res.width <= 1.0e-3
    assert res.label_lower == "C2" and res.label_upper == "A"
    assert res.boundary_label == "B2"
    assert 0.05 < res.lower < res.upper < 5.0
    # the labels flip across the bracket
    assert classify(cubic, ConstantRate(pulse, res.lower)).label == "C2"
    assert classify(cubic, ConstantRate(pulse, res.upper)).label == "A"


def test_critical_value_rejects_equal_endpoints(cubic, pulse):
    with pytest.raises(ClassifyError, match="both endpoints"):
        critical_value(cubic, lambda c: ConstantRate(pulse, c), 3.0, 5.0, 1e-3)


def test_resolve_horizon_doubles_for_slow_tails(num):
    prof = make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0)
    fast = ConstantRate(prof, 1.0)
    slow = ConstantRate(prof, 1.0e-3)
    assert resolve_horizon(fast, num) == num.horizon
    assert resolve_horizon(slow, num) > num.horizon


def test_limit_cache_reuses_windows(cubic, num):
    cache = LimitCache(cubic, num)
    a = cache.get(0.0, 400.0)
    b = cache.get(0.0, 400.0)
    assert a is b
    c = cache.get(0.0, 800.0)
    assert c is not a


def test_gamma_interval_cubic_saddle_nodes(cubic):
    res = gamma_interval(cubic, (-1.0, 1.0), 1.0e-4)
    lo_lo, lo_hi = res.lower
    hi_lo, hi_hi = res.upper
    assert lo_hi - lo_lo <= 1.0e-4
    assert hi_hi - hi_lo <= 1.0e-4
    assert lo_lo <= -SN <= lo_hi or abs(0.5 * (lo_lo + lo_hi) + SN) < 5e-4
    assert hi_lo <= SN <= hi_hi or abs(0.5 * (hi_lo + hi_hi) - SN) < 5e-4


def test_gamma_interval_needs_bistability_inside_range(cubic):
    # bistable set reaches the scan boundary: refuse rather than guess
    with pytest.raises(ClassifyError, match="end"):
        gamma_interval(cubic, (0.0, 0.2), 1.0e-3)


def test_switching_classify_tracks(cubic):
    prof = make_profile("arctan", amplitude=0.2, scale=1.0)
    left = ConstantRate(prof, 1.0)
    right = ConstantRate(prof, 2.0)
    lab = switching_classify(cubic, left, right, t0=0.0)
    assert lab.label == "A"
    assert lab.evidence["a_at_t0"] > lab.evidence["r_at_t0"]
    assert lab.evidence["margin"] > 0


def test_switching_classify_reports_left_tipping(cquad, deep_pulse):
    # the fast left problem blows up before t0: nothing to continue
    left = ConstantRate(deep_pulse, 5.0)
    right = ConstantRate(deep_pulse, 0.2)
    with pytest.raises(ClassifyError, match="reach"):
        switching_classify(cquad, left, right, t0=50.0)


def test_switching_time_outside_horizon(cubic, pulse):
    left = ConstantRate(pulse, 5.0)
    with pytest.raises(ClassifyError, match="horizon"):
        switching_classify(cubic, left, left, t0=1.0e5)


def test_bisect_moves_the_end_the_predicate_names():
    # pred holds at and above 0.3: b tracks the holding side from either end
    a, b, steps = _bisect(lambda m: m >= 0.3, 0.0, 1.0, 1.0e-3)
    assert a < 0.3 <= b and b - a <= 1.0e-3 and steps == 10
    a, b, _ = _bisect(lambda m: m <= 0.3, 1.0, 0.0, 1.0e-3)
    assert b <= 0.3 < a and a - b <= 1.0e-3


def test_bisect_with_zero_tolerance_stops_at_adjacent_floats():
    a, b, steps = _bisect(lambda m: m >= 0.3, 0.0, 1.0, 0.0)
    assert a < b == math.nextafter(a, 1.0)
    assert a < 0.3 <= b and steps < 100
    assert _bisect(lambda m: True, 0.5, 0.5, 0.0) == (0.5, 0.5, 0)


def test_gamma_interval_with_zero_tolerance_terminates(cubic):
    res = gamma_interval(cubic, (-1.0, 1.0), 0.0, window=(-30.0, 30.0))
    for lo, hi in (res.lower, res.upper):
        assert math.nextafter(lo, hi) == hi
