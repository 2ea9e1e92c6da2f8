"""Adaptive DP54 integrator: accuracy, dense output, blow-up, reversals."""

import math

import numpy as np
import pytest

from tiplab.integrator import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    IntegrationError,
    _hermite,
    _locate_blow,
    integrate,
)


def test_exponential_decay_accuracy():
    traj = integrate(lambda t, x: -x, 0.0, 1.0, 10.0)
    for t in np.linspace(0.0, 10.0, 37):
        assert traj(t) == pytest.approx(math.exp(-t), rel=1e-8, abs=1e-10)
    assert traj.status == "completed"


def test_dense_output_between_nodes():
    # x' = cos t, x(0)=0 -> sin t; probe strictly between accepted steps.
    # Hermite interpolation error is O(h^4/384), ~2e-6 at the step sizes the
    # controller picks here.
    traj = integrate(lambda t, x: math.cos(t), 0.0, 0.0, 20.0)
    mids = 0.5 * (traj.t[:-1] + traj.t[1:])
    err = np.abs(traj.eval_array(mids) - np.sin(mids))
    assert float(err.max()) < 5e-6
    assert float(np.abs(traj.x - np.sin(traj.t)).max()) < 1e-9


def test_backward_integration_matches_reversed_field():
    # y(s) = x(-s) solves y' = -f(-s, y); backward run stores ascending t
    def rhs(t, x):
        return math.sin(t) - 0.2 * x

    back = integrate(rhs, 0.0, 0.7, -8.0)
    assert back.direction == "backward"
    assert back.t_start == 0.0 and back.t_end == -8.0   # run direction
    assert back.span == (-8.0, 0.0)                     # stored ascending
    assert np.all(np.diff(back.t) > 0)

    fwd = integrate(lambda s, y: -rhs(-s, y), 0.0, 0.7, 8.0)
    for s in np.linspace(0.0, 8.0, 17):
        assert back(-s) == pytest.approx(fwd(s), abs=1e-8)


def test_round_trip_duality():
    # mildly damped forced field: round trip is well conditioned
    rhs = lambda t, x: math.cos(t) - 0.1 * x
    fwd = integrate(rhs, -2.0, 0.5, 6.0)
    ret = integrate(rhs, 6.0, fwd(6.0), -2.0)
    assert ret(-2.0) == pytest.approx(0.5, abs=1e-8)


def test_empty_span_rejected():
    with pytest.raises(IntegrationError, match="empty"):
        integrate(lambda t, x: x, 1.0, 0.5, 1.0)


def test_initial_value_beyond_blow_up_bound():
    with pytest.raises(IntegrationError, match="blow-up"):
        integrate(lambda t, x: x, 0.0, 2e6, 1.0)


def test_blow_up_detection():
    # x' = x^2, x(0)=1 blows up at t=1
    traj = integrate(lambda t, x: x * x, 0.0, 1.0, 2.0)
    assert traj.status == "blow-up"
    assert traj.t_blow == pytest.approx(1.0, abs=5e-3)
    assert not traj.covers(0.0, 2.0)
    assert traj.covers(0.0, 0.9)


def test_domain_error_steps_are_retried():
    # rhs undefined above x=2; solution approaches 2 but never crosses
    def rhs(t, x):
        if x >= 2.0:
            raise ValueError("outside domain")
        return 2.0 - x

    traj = integrate(rhs, 0.0, 0.0, 30.0)
    assert traj.status == "completed"
    assert traj(30.0) == pytest.approx(2.0 - math.exp(-30.0) * 2.0, abs=1e-7)


@pytest.mark.parametrize("x0, f0, x1, f1", [(0.0, 1.0, 2.0e6, 3.0e6), (0.0, -1.0, -2.0e6, -3.0e6)],
                         ids=["rising", "falling"])
def test_blow_up_is_located_at_the_first_float_beyond_the_bound(x0, f0, x1, f1):
    t0, t1, x_max = 0.25, 1.5, 1.0e6
    t_blow = _locate_blow(t0, x0, f0, t1, x1, f1, x_max)
    assert t0 < t_blow <= t1
    assert abs(_hermite(t0, x0, f0, t1, x1, f1, t_blow)) >= x_max
    assert abs(_hermite(t0, x0, f0, t1, x1, f1, math.nextafter(t_blow, t0))) < x_max


def test_invalid_tolerances_rejected():
    with pytest.raises(IntegrationError):
        IntegratorConfig(rtol=-1e-8)


def test_numpy_scalar_entries_coerced():
    x0 = np.float64(1.0)
    traj = integrate(lambda t, x: -x, np.float64(0.0), x0, np.float64(2.0))
    assert isinstance(traj.t_start, float)
    assert traj(2.0) == pytest.approx(math.exp(-2.0), rel=1e-8)


def test_trajectory_call_outside_span_raises():
    traj = integrate(lambda t, x: -x, 0.0, 1.0, 1.0)
    with pytest.raises(IntegrationError):
        traj(5.0)


@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_eval_array_refuses_times_outside_the_span(t_end):
    traj = integrate(lambda t, x: math.sin(t) - x, 0.0, 1.0, t_end)
    t = traj.t
    for outside in (t[-1] + 1e-13, t[0] - 1e-13):
        with pytest.raises(IntegrationError, match="outside"):
            traj.eval_array(np.array([0.5 * (t[0] + t[-1]), outside]))
    ends = traj.eval_array(np.array([t[0], t[-1]]))
    assert ends[0] == traj.x[0] and ends[-1] == traj.x[-1]


def test_eval_array_matches_scalar_evaluation():
    traj = integrate(lambda t, x: math.cos(t) - 0.3 * x, 0.0, 0.2, -15.0)
    times = np.concatenate((traj.t, np.linspace(traj.t[0], traj.t[-1], 501)))
    assert [float(v) for v in traj.eval_array(times)] == [traj(s) for s in times]


def _log_pole(t, x):
    # x' = 1/(1 - t): x grows like -log(1 - t), so the step size underflows
    # short of t = 1 while x is still finite
    return 1.0 / (1.0 - t)


def test_stall_below_the_blow_up_scale_raises():
    with pytest.raises(IntegrationError, match="step size underflow"):
        integrate(_log_pole, 0.0, 0.0, 2.0)


def test_stall_above_the_blow_up_scale_is_a_blow_up():
    traj = integrate(_log_pole, 0.0, 2000.0, 2.0)
    assert traj.status == "blow-up" and traj.x[-1] > 0
    # recorded at the stall point: the last node, just short of the pole
    assert traj.t_blow == traj.t[-1]
    assert 1.0 - 1e-9 < traj.t_blow < 1.0
    assert abs(traj.x[-1]) >= 1e-3 * DEFAULT_CONFIG.x_max
    # the steps next to the pole carry the largest error
    assert traj.x[-1] == pytest.approx(2000.0 - math.log(1.0 - traj.t_blow), abs=1e-3)


def test_clipped_last_step_ends_on_the_end_point():
    # t + (t1 - t) misses t1 by an ulp on these spans: the first ended in a
    # false blow-up, the second in a step-size underflow
    decay = integrate(lambda t, x: -1e-3 * x, -13.744969837743398, 5000.0, 0.009223327641657505)
    assert decay.status == "completed"
    assert decay.t[-1] == 0.009223327641657505
    want = 5000.0 * math.exp(-1e-3 * (0.009223327641657505 + 13.744969837743398))
    assert decay.x[-1] == pytest.approx(want, rel=1e-9)
    fast = integrate(lambda t, x: -x, -49.07370222314418, 1.0, 0.002720523327191292)
    assert fast.t[-1] == 0.002720523327191292
    rng = np.random.default_rng(7)
    for t0, t1 in zip(rng.uniform(-50.0, -1.0, 200), rng.uniform(0.0, 0.01, 200)):
        fwd = integrate(lambda t, x: -1e-3 * x, t0, 5000.0, t1)
        assert fwd.status == "completed" and fwd.t[-1] == t1
        back = integrate(lambda t, x: 1e-3 * x, -t0, 5000.0, -t1)
        assert back.status == "completed" and back.t[0] == -t1


def test_trajectory_arrays_are_read_only():
    # limit sets are shared between callers: a write would change later answers
    rhs = lambda t, x: -x + math.sin(t)
    forward = integrate(rhs, 0.0, 1.0, 5.0)
    backward = integrate(rhs, 5.0, 1.0, 0.0)
    for traj in (forward, backward, forward.shifted(0.5), backward.shifted(0.5)):
        for arr in (traj.t, traj.x, traj.f):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
