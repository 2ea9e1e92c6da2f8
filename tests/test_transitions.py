"""Transition profiles and the seven forcing mechanisms."""

import math

import pytest

from tiplab.transitions import (
    ConstantRate,
    Phase,
    Reaction,
    Size,
    Switching,
    TimeDependentPhase,
    TimeDependentRate,
    TransitionError,
    make_profile,
)


def test_cauchy_pulse_shape():
    p = make_profile("cauchy-pulse", gamma_plus=1.5, gamma_star=0.8, b=0.02386)
    assert p(0.0) == pytest.approx(0.8)
    assert p.limit_minus == p.limit_plus == 1.5
    lo, hi = p.bounds()
    assert (lo, hi) == (0.8, 1.5)
    # even, monotone back toward the limit on each side
    assert p(3.0) == p(-3.0)
    assert p(10.0) < p(50.0) < 1.5


def test_arctan_profile_limits():
    p = make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0)
    assert p.limit_minus == pytest.approx(-1.0)
    assert p.limit_plus == pytest.approx(1.0)
    assert p(0.0) == pytest.approx(0.0)


def test_sigmoid_blend_limits():
    p = make_profile("sigmoid-blend", left=-5.0, right=10.0)
    assert p.limit_minus == -5.0
    assert p.limit_plus == 10.0
    assert p(0.0) == pytest.approx(2.5)


def test_rational_dip():
    p = make_profile("rational-dip", amplitude=-550.0, width=1000.0)
    assert p.limit_minus == p.limit_plus == 0.0
    assert p(0.0) == pytest.approx(-0.55)
    with pytest.raises(TransitionError):
        make_profile("rational-dip", amplitude=1.0, width=-2.0)


def test_unknown_profile_kind():
    with pytest.raises(TransitionError, match="unknown profile"):
        make_profile("step", value=1.0)


def test_constant_rate_path():
    p = make_profile("arctan", amplitude=1.0, scale=1.0)
    mech = ConstantRate(p, 2.0)
    for t in (-3.0, 0.0, 1.7):
        assert mech.path(t) == pytest.approx(p(2.0 * t))
    assert mech.gamma_minus == p.limit_minus
    assert mech.gamma_plus == p.limit_plus
    with pytest.raises(TransitionError):
        ConstantRate(p, 0.0)


def test_phase_path():
    p = make_profile("arctan", amplitude=1.0, scale=1.0)
    mech = Phase(p, 2.0, offset=5.0)
    for t in (-1.0, 0.0, 4.0):
        assert mech.path(t) == pytest.approx(p(2.0 * (t + 5.0)))


def test_size_path():
    p = make_profile("cauchy-pulse", gamma_plus=1.5, gamma_star=0.8, b=0.02386)
    mech = Size(p, 0.5)
    for t in (-2.0, 0.0, 3.0):
        assert mech.path(t) == pytest.approx(0.5 * p(t))
    assert mech.gamma_plus == pytest.approx(0.75)


def test_time_dependent_rate_path():
    prof = make_profile("rational-dip", amplitude=-550.0, width=1000.0)
    delta = make_profile("arctan", offset=19.5, amplitude=-1.0 / math.pi, scale=0.1)
    mech = TimeDependentRate(prof, delta, d=2.0)
    for t in (-7.0, 0.0, 13.0):
        assert mech.path(t) == pytest.approx(prof(delta(2.0 * t) * t))
    # positive drifting rate required
    bad = make_profile("arctan", offset=0.0, amplitude=1.0, scale=1.0)
    with pytest.raises(TransitionError):
        TimeDependentRate(prof, bad)


def test_time_dependent_phase_conventions():
    prof = make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0)
    delta = make_profile("sigmoid-blend", left=-5.0, right=10.0)
    minus = TimeDependentPhase(prof, 1.0, delta, d=0.1)
    assert minus.convention == "minus"
    plus = TimeDependentPhase(prof, 1.0, delta, d=0.1, convention="plus")
    for t in (-4.0, 0.0, 9.0):
        assert minus.path(t) == pytest.approx(prof(1.0 * (t - delta(0.1 * t))))
        assert plus.path(t) == pytest.approx(prof(1.0 * (t + delta(0.1 * t))))
    with pytest.raises(TransitionError):
        TimeDependentPhase(prof, 1.0, delta, convention="sideways")


def test_switching_path():
    p = make_profile("arctan", amplitude=1.0, scale=1.0)
    left, right = ConstantRate(p, 0.25), ConstantRate(p, 0.74)
    mech = Switching(left, right, t0=1.0)
    assert mech.path(0.0) == pytest.approx(left.path(0.0))
    assert mech.path(2.0) == pytest.approx(right.path(2.0))
    assert mech.gamma_minus == left.gamma_minus
    assert mech.gamma_plus == right.gamma_plus


def test_reaction_path():
    prof = make_profile("rational-dip", amplitude=-550.0, width=1000.0)
    delta = make_profile("arctan", offset=19.5, amplitude=-1.0 / math.pi, scale=0.1)
    mech = Reaction(prof, delta, r=2.0, b=1.0, t1=3.0)
    for t in (-5.0, 3.0, 40.0):
        rate = delta(t) + 2.0 * math.tanh(1.0 * (t - 3.0))
        assert mech.path(t) == pytest.approx(prof(rate * t))


def test_tail_gap_shrinks_with_horizon():
    p = make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0)
    mech = ConstantRate(p, 1.0)
    assert mech.tail_gap(800.0) < mech.tail_gap(400.0) < mech.tail_gap(100.0)
    assert mech.tail_gap(400.0) > 0.0


def test_describe_round_trips_through_kind():
    prof = make_profile("cauchy-pulse", gamma_plus=1.5, gamma_star=0.8, b=0.02386)
    mech = ConstantRate(prof, 1.01)
    d = mech.describe()
    assert d["kind"] == "constant-rate"
    assert d["profile"]["kind"] == "cauchy-pulse"
    clone_prof = make_profile(d["profile"].pop("kind"), **d["profile"])
    clone = ConstantRate(clone_prof, d["c"])
    assert clone.path(12.3) == mech.path(12.3)


def test_nan_rates_and_speeds_are_refused():
    # each guard reads "not x > 0.0" (r: "not r >= 0.0"), which a NaN fails
    prof = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)
    delta = make_profile("constant", value=0.5)
    nan = math.nan
    for build in (lambda: ConstantRate(prof, nan), lambda: Phase(prof, nan, 0.0),
                  lambda: Size(prof, nan), lambda: TimeDependentRate(prof, delta, nan),
                  lambda: TimeDependentPhase(prof, nan, delta),
                  lambda: TimeDependentPhase(prof, 1.0, delta, nan),
                  lambda: Reaction(prof, delta, nan, 1.0, 0.0),
                  lambda: Reaction(prof, delta, 1.0, nan, 0.0)):
        with pytest.raises(TransitionError, match="got nan"):
            build()


def test_non_finite_offsets_and_switching_times_are_refused():
    # a NaN switching time compared false with every t, so the path followed
    # the right mechanism everywhere; each field is named
    prof = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)
    delta = make_profile("constant", value=0.5)
    rate = ConstantRate(prof, 1.0)
    for value in (math.nan, math.inf, -math.inf):
        for name, build in (("offset", lambda: Phase(prof, 1.0, value)),
                            ("t0", lambda: Switching(rate, rate, t0=value)),
                            ("t1", lambda: Reaction(prof, delta, 1.0, 1.0, value))):
            with pytest.raises(TransitionError, match=f"^{name} must be finite, got {value}$"):
                build()
