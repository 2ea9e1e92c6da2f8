"""Adaptive DP54 integrator: accuracy, dense output, blow-up, reversals."""

import math
from array import array

import numpy as np
import pytest

from tiplab.integrator import (
    DEFAULT_CONFIG,
    IntegratorConfig,
    IntegrationError,
    Trajectory,
    _hermite,
    _locate_blow,
    _view,
    integrate,
)
from tiplab.models import make_model
from tiplab.transitions import ConstantRate, make_profile


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


@pytest.mark.parametrize("args, name", [
    ((0.0, 1.0, math.nan), "t_end"),
    ((0.0, 1.0, math.inf), "t_end"),
    ((math.nan, 1.0, 1.0), "t_start"),
    ((-math.inf, 1.0, 1.0), "t_start"),
    ((0.0, math.nan, 1.0), "x0"),
    ((0.0, -math.inf, 1.0), "x0"),
])
def test_non_finite_arguments_are_refused_by_name(args, name):
    # a NaN end used to give a one-node "completed" run, an infinite one ran
    # until the step budget was exhausted
    with pytest.raises(IntegrationError, match=f"{name} must be finite"):
        integrate(lambda t, x: -x, *args)


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


@pytest.mark.parametrize("t_end", [50.0, -50.0])
def test_a_callable_rhs_is_called_six_times_per_trial_step(t_end):
    # once for the start slope, then stages 2 to 7 of every trial step, with
    # stages 6 and 7 at the same time; the error estimate of x' = 1 is 0, so
    # every trial step is accepted
    calls = []

    def rhs(t, x):
        calls.append(t)
        return 1.0

    traj = integrate(rhs, 0.0, 0.0, t_end)
    assert len(calls) == 6 * (len(traj.t) - 1) + 1 == 6 * traj.steps + 1
    # a rejected trial step takes its 6 calls too
    calls.clear()
    traj = integrate(lambda t, x: rhs(t, x) * math.cos(40.0 * t), 0.0, 0.0, t_end)
    trials, rest = divmod(len(calls) - 1, 6)
    assert rest == 0 and trials == traj.steps > len(traj.t) - 1
    assert all(calls[i + 4] == calls[i + 5] for i in range(1, len(calls), 6))


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
    # as traj(time) does, naming the first time refused; nan is refused too
    traj = integrate(lambda t, x: math.sin(t) - x, 0.0, 1.0, t_end)
    t = traj.t
    for outside in (t[-1] + 1e-13, t[0] - 1e-13, math.nan):
        with pytest.raises(IntegrationError) as scalar:
            traj(outside)
        with pytest.raises(IntegrationError, match="outside") as vector:
            traj.eval_array(np.array([0.5 * (t[0] + t[-1]), outside, t[-1] + 1.0]))
        assert str(vector.value) == str(scalar.value)
    ends = traj.eval_array(np.array([t[0], t[-1]]))
    assert ends[0] == traj.x[0] and ends[-1] == traj.x[-1]


def test_eval_array_matches_scalar_evaluation():
    traj = integrate(lambda t, x: math.cos(t) - 0.3 * x, 0.0, 0.2, -15.0)
    times = np.concatenate((traj.t, np.linspace(traj.t[0], traj.t[-1], 501)))
    assert [float(v) for v in traj.eval_array(times)] == [traj(s) for s in times]


def test_eval_array_keeps_a_negative_zero_at_a_node():
    # the Hermite formula at a node adds +0.0 to the node value, which turns
    # -0.0 into 0.0; traj(t) returns the node value itself
    bufs = [array("d", v) for v in ((0.0, 1.0, 2.0), (-0.0, 1.0, -0.0), (1.0, 0.0, -1.0))]
    traj = Trajectory("forward", *map(_view, bufs), "completed", None, *bufs)
    for t in (0.0, 1.0, 2.0):
        want = traj(t)
        got = traj.eval_array(np.array([t, 0.5, t]))
        assert got[0].hex() == got[2].hex() == want.hex()


# ---------------------------------------------------------------------------
# a run that stops after a time short of its end
# ---------------------------------------------------------------------------

def _stop_cases():
    cubic = make_model("allee-multiplicative-cubic", {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0})
    # the pulse stays short of the fold at -2/(3*sqrt(3)), so both ways stay bounded
    pulse = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.2, b=0.05)
    return {"frozen": cubic.frozen_rhs(0.2),
            "transition": cubic.transition_rhs(ConstantRate(pulse, 1.0))}


def _rhs(kind):
    """The pasted right-hand sides by name, and the frozen one called."""
    cases = _stop_cases()
    return cases.get(kind) or (lambda t, x: cases["frozen"](t, x))


@pytest.mark.parametrize("kind", ["frozen", "transition"])
@pytest.mark.parametrize("t_start, x0, t_end, stop", [(-60.0, 0.9, 90.0, 20.0),
                                                       (60.0, 0.1, -90.0, -20.0)],
                         ids=["forward", "backward"])
def test_stop_after_gives_a_prefix_of_the_full_run(kind, t_start, x0, t_end, stop):
    rhs = _stop_cases()[kind]
    full = integrate(rhs, t_start, x0, t_end)
    short = integrate(rhs, t_start, x0, t_end, stop_after=stop)
    n = len(short.t)
    assert short.status == "completed" and n < len(full.t)
    backward = t_end < t_start
    # the nodes from the start, in the direction of integration
    part = slice(len(full.t) - n, None) if backward else slice(0, n)
    for mine, theirs in ((short.t, full.t), (short.x, full.x), (short.f, full.f)):
        assert mine.tobytes() == theirs[part].tobytes()
    # the last node lies strictly past stop_after and the one before does not
    last, before = (short.t[0], short.t[1]) if backward else (short.t[-1], short.t[-2])
    assert (last < stop <= before) if backward else (before <= stop < last)


def test_stop_after_keeps_a_blow_up_before_it():
    full = integrate(lambda t, x: x * x, 0.0, 1.0, 2.0)
    short = integrate(lambda t, x: x * x, 0.0, 1.0, 2.0, stop_after=1.5)
    assert short.status == full.status == "blow-up"
    assert short.t_blow == full.t_blow
    assert short.t.tobytes() == full.t.tobytes() and short.x.tobytes() == full.x.tobytes()


@pytest.mark.parametrize("t_end, stop", [
    (5.0, math.nan), (5.0, math.inf), (5.0, -math.inf),
    (5.0, 0.0), (5.0, 5.0), (5.0, 6.0), (5.0, -1.0),
    (-5.0, 0.0), (-5.0, -5.0), (-5.0, 1.0), (-5.0, -6.0),
])
def test_stop_after_must_lie_strictly_inside_the_span(t_end, stop):
    with pytest.raises(IntegrationError, match="stop_after") as err:
        integrate(lambda t, x: -x, 0.0, 1.0, t_end, stop_after=stop)
    assert repr(stop) in str(err.value)


# ---------------------------------------------------------------------------
# a completed run, continued
# ---------------------------------------------------------------------------

def _bits(traj):
    return (traj.direction, traj.status, traj.t_blow, traj.steps,
            traj.t.tobytes(), traj.x.tobytes(), traj.f.tobytes())


def _continued(run, times):
    """The bits of run continued at each time in turn, pieces joined, and
    the pieces. A piece starts on the last node of the one before, bit for
    bit."""
    pieces = [run]
    for time in times:
        pieces.append(pieces[-1].continued(time))
    backward = run.direction == "backward"
    for piece, before in zip(pieces[1:], pieces):
        i, j = (-1, 0) if backward else (0, -1)
        assert ([float(a[i]).hex() for a in (piece.t, piece.x, piece.f)]
                == [float(a[j]).hex() for a in (before.t, before.x, before.f)])
    order = pieces[::-1] if backward else pieces
    last = pieces[-1]
    arrays = [np.concatenate([getattr(order[0], k)] + [getattr(p, k)[1:] for p in order[1:]])
              for k in "txf"]
    return (run.direction, last.status, last.t_blow, last.steps,
            *(a.tobytes() for a in arrays)), pieces


@pytest.mark.parametrize("continuations", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["frozen", "transition", "called"])
@pytest.mark.parametrize("t_start, x0, t_end, stops", [
    (-60.0, 0.9, 90.0, (-50.0, -10.0, 20.0, 60.0)),
    (60.0, 0.1, -90.0, (50.0, 10.0, -20.0, -60.0)),
], ids=["forward", "backward"])
def test_a_continued_run_is_the_uninterrupted_run(t_start, x0, t_end, stops, kind,
                                                  continuations):
    # the last continuation runs to the end
    rhs = _rhs(kind)
    full = integrate(rhs, t_start, x0, t_end)
    run = integrate(rhs, t_start, x0, t_end, stop_after=stops[0])
    bits, _ = _continued(run, (*stops[1:continuations], t_end))
    assert bits == _bits(full)


@pytest.mark.parametrize("stopped", [False, True], ids=["finished", "stopped"])
@pytest.mark.parametrize("kind", ["frozen", "transition", "called"])
@pytest.mark.parametrize("t_start, x0, t_end, stop, later", [
    (-60.0, 0.9, 90.0, 20.0, (120.0, 150.0)),
    (60.0, 0.1, -90.0, -20.0, (-120.0, -150.0)),
], ids=["forward", "backward"])
def test_a_run_continued_past_its_end_ends_on_the_time(t_start, x0, t_end, stop, later,
                                                       kind, stopped):
    # past the planned end the end moves to the time asked for: each piece
    # starts on the last node, ends on that time and adds its trial steps
    rhs = _rhs(kind)
    run = integrate(rhs, t_start, x0, t_end, stop_after=stop if stopped else None)
    _, pieces = _continued(run, later)
    for piece, before, time in zip(pieces[1:], pieces, later):
        assert piece.status == "completed" and piece.t_end == time
        assert piece.steps >= before.steps + len(piece.t) - 1 > before.steps
    # the cubic attracts both ways here, so the end agrees with a run to it
    direct = integrate(rhs, t_start, x0, later[-1])
    assert pieces[-1](later[-1]) == pytest.approx(direct(later[-1]), abs=1e-9)
    for time in (later[-1], later[0], t_end, math.nan, math.copysign(math.inf, t_end)):
        with pytest.raises(IntegrationError, match="past the last node"):
            pieces[-1].continued(time)


@pytest.mark.parametrize("kind, t_start, x0, t_end, stops", [
    ("called", 0.0, 0.1, 20.0, (2.0, 5.0)),
    ("pasted", 0.0, 1.5, -10.0, (-0.1, -0.2)),
], ids=["forward", "backward"])
def test_a_continued_run_blows_up_as_the_uninterrupted_run(kind, t_start, x0, t_end, stops):
    cubic = make_model("allee-multiplicative-cubic", {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0})
    rhs = (lambda t, x: x * x) if kind == "called" else cubic.frozen_rhs(0.2)
    full = integrate(rhs, t_start, x0, t_end)
    # the blow-up lies past the last stop, in the direction of the run
    assert full.status == "blow-up" and (full.t_blow - stops[1]) * (t_end - t_start) > 0
    run = integrate(rhs, t_start, x0, t_end, stop_after=stops[0])
    bits, pieces = _continued(run, (stops[1], t_end))
    assert bits == _bits(full)
    with pytest.raises(IntegrationError, match="only a completed run"):
        pieces[-1].continued(2.0 * t_end)


@pytest.mark.parametrize("t_end, stop, behind", [(50.0, 10.0, 5.0), (-50.0, -10.0, -5.0)])
def test_a_continued_run_counts_its_calls_and_steps(t_end, stop, behind):
    # a called rhs that never raises nor blows up: 6 calls per trial step,
    # rejected ones included, and 1 at the start and at each continuation
    calls = []

    def rhs(t, x):
        calls.append(t)
        return math.cos(40.0 * t)

    run = integrate(rhs, 0.0, 0.0, t_end, stop_after=stop)
    assert len(calls) == 6 * run.steps + 1 and run.steps > len(run.t) - 1
    with pytest.raises(IntegrationError, match="past the last node"):
        run.continued(behind)
    run = run.continued(2.0 * stop).continued(t_end)
    assert len(calls) == 6 * run.steps + 3
    # and on past the end
    steps = run.steps
    run = run.continued(2.0 * t_end)
    assert len(calls) == 6 * run.steps + 4 and run.steps > steps
    assert steps == integrate(rhs, 0.0, 0.0, t_end).steps
    # a shifted run solves another equation: it cannot be continued
    with pytest.raises(IntegrationError, match="only a completed run of integrate"):
        integrate(rhs, 0.0, 0.0, t_end, stop_after=stop).shifted(1.0).continued(t_end)


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
