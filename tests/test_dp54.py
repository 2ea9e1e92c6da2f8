"""The generated DP54 loop against the former loop, bit for bit.

``tests/dp54_reference.py`` keeps the loop as it was before it was generated
per right-hand side, with a step controller built on ``min``, ``max``,
``abs`` and ``math.isfinite``. ``integrate`` must return the same nodes,
slopes, status and blow-up time, or raise the same error with the same
message, on runs that drive every branch of the controller: a clipped last
step, rejected steps, an error estimate of exactly 0, a stage that raises or
returns inf or nan, both blow-up branches, step-size underflow and an
exhausted step budget, in both directions, from -0.0 and on spans with |t|
below and above 1. The reference names its integration clock s = -t in
the error messages of a backward run; integrate names t, so the comparison
reads the reference's clock back as t. The structure of a run (which rhs
kinds, which direction) also fixes how often its loop source is assembled:
once.
"""

import math
import random
import re

import numpy as np
import pytest

import dp54_reference as ref
from tiplab import _codegen, integrator
from tiplab.integrator import IntegratorConfig, integrate
from tiplab.models import make_model
from tiplab.transitions import ConstantRate, make_profile


def _bits(v):
    return None if v is None else float(v).hex()


def _outcome(run, rhs, t0, x0, t1, config=integrator.DEFAULT_CONFIG):
    """What run (integrate or the reference) gives: the trajectory's bits,
    or the error's type and message."""
    try:
        traj = run(rhs, t0, x0, t1, config)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return (traj.direction, traj.status, _bits(traj.t_blow),
            traj.t.tobytes(), traj.x.tobytes(), traj.f.tobytes())


class Counted:
    """rhs, counting its calls, raises and non-finite slopes."""

    def __init__(self, rhs):
        self.rhs = rhs
        self.calls = self.raises = self.non_finite = 0

    def __call__(self, t, x):
        self.calls += 1
        try:
            v = self.rhs(t, x)
        except (ValueError, ArithmeticError):
            self.raises += 1
            raise
        if not math.isfinite(v):
            self.non_finite += 1
        return v


def _original_clock(message):
    """An error message of the reference's backward run, with each time it
    names in the clock s = -t read back as t."""
    return re.sub(r"(at t=|at start \()([^,\s)]+)",
                  lambda m: f"{m[1]}{-float(m[2])}", message)


def same_run(rhs, t0, x0, t1, config=integrator.DEFAULT_CONFIG, pasted=None):
    """The reference's outcome, after checking that integrate gives it too
    (pasted, when given, is a generated twin of rhs that integrate pastes
    into its stages). Returns (outcome, the counted reference rhs)."""
    counted = Counted(rhs)
    want = _outcome(ref.integrate, counted, t0, x0, t1, config)
    if t1 < t0 and len(want) == 2:
        want = (want[0], _original_clock(want[1]))
    assert _outcome(integrate, pasted or rhs, t0, x0, t1, config) == want
    return want, counted


def _trials(counted):
    """Trial steps of a run that raised nowhere: 6 calls each, 1 to start."""
    trials, rest = divmod(counted.calls - 1, 6)
    assert rest == 0
    return trials


# the step before the end is clipped to t1 - t, and t + (t1 - t) misses t1
# by an ulp on these spans
@pytest.mark.parametrize("rate, t0, x0, t1", [
    (-1e-3, -13.744969837743398, 5000.0, 0.009223327641657505),
    (-1.0, -49.07370222314418, 1.0, 0.002720523327191292),
])
def test_clipped_last_step(rate, t0, x0, t1):
    # forward, and backward on the mirrored span
    for a, b, r in ((t0, t1, rate), (-t0, -t1, -rate)):
        (_, status, *_), _ = same_run(lambda t, x: r * x, a, x0, b)
        assert status == "completed"
    assert integrate(lambda t, x: rate * x, t0, x0, t1).t[-1] == t1


@pytest.mark.parametrize("t1", [50.0, -50.0, 0.5, -0.5])
def test_rejected_steps(t1):
    out, counted = same_run(lambda t, x: math.cos(40.0 * t) - 0.1 * x, 0.0, 0.3, t1)
    nodes = len(out[3]) // 8
    assert out[1] == "completed" and _trials(counted) > nodes - 1


@pytest.mark.parametrize("t1", [100.0, -100.0])
def test_zero_error_estimate_grows_the_step_tenfold(t1):
    # x' = 0: every slope is 0.0, so the error estimate is exactly 0 and the
    # step grows by 10 until max_step clips it. (x' = 1 leaves h*2.1e-17:
    # the E weights do not sum to 0 in floating point.)
    out, counted = same_run(lambda t, x: 0.0, 0.0, -0.0, t1)
    t = np.frombuffer(out[3])
    steps = np.diff(t) if t1 > 0 else np.diff(t)[::-1]
    assert list(steps[:3]) == pytest.approx([0.1, 1.0, 10.0])
    assert _trials(counted) == len(t) - 1
    # the first step starts from x = -0.0, where abs would give 0.0
    x = np.frombuffer(out[4])
    assert np.signbit(x[0 if t1 > 0 else -1])


def test_a_stage_raising_domain_error_at_the_rational_pole(dmodel, dprof):
    # forward from far above the box a trial stage lands below the pole
    # (DomainError) and the step is retried; backward toward the pole the
    # step size underflows after many retries
    for gamma, x0, t1, want in ((0.5, 1.0e4, 10.0, "completed"),
                                (1.5, -1.4, -10.0, "step size underflow")):
        rhs = dmodel.frozen_rhs(gamma)
        out, counted = same_run(rhs.__call__, 0.0, x0, t1, pasted=rhs)
        assert out[1].startswith(want) and counted.raises > 0
    rhs = dmodel.transition_rhs(ConstantRate(dprof, 1.0))
    out, counted = same_run(rhs.__call__, -20.0, 1.0e5, 20.0, pasted=rhs)
    assert out[1] == "completed" and counted.raises > 0


def test_a_backward_error_names_the_original_time(dmodel):
    # the d-concave rational model's pole stalls the backward run from
    # x0 = -1.4 near t = -1.199, a two-step budget runs out before t = 0,
    # and a slope that is not finite at the start names t0 = 3
    with pytest.raises(integrator.IntegrationError,
                       match=r"^step size underflow at t=-1\.1986\d*$"):
        integrate(dmodel.frozen_rhs(1.5), 0.0, -1.4, -10.0)
    with pytest.raises(integrator.IntegrationError, match="budget") as info:
        integrate(lambda t, x: math.sin(t) - x, 0.0, 1.0, -30.0,
                  IntegratorConfig(max_steps=2))
    assert -30.0 < float(str(info.value).rpartition("=")[2]) < 0.0
    with pytest.raises(integrator.IntegrationError,
                       match=r"^right-hand side not finite at start \(3\.0, 1\.0\)$"):
        integrate(lambda t, x: math.inf, 3.0, 1.0, -30.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("backward", [False, True])
def test_a_stage_returning_a_non_finite_slope(bad, backward):
    # the slope is not finite past x = 1.5, which x' = 1 reaches at t = 1.5:
    # the trial steps there are cut until the step size underflows
    sign = -1.0 if backward else 1.0
    rhs = lambda t, x: bad if x > 1.5 else sign
    out, counted = same_run(rhs, 0.0, 0.0, 3.0 * sign)
    assert out[0] is integrator.IntegrationError and "underflow" in out[1]
    assert counted.non_finite > 0
    # x' = -x never reaches x < 0, but trial stages of long steps do
    rhs = lambda t, x: bad if x < 0.0 else -sign * x
    out, counted = same_run(rhs, 0.0, 1.0, 3000.0 * sign)
    assert out[1] == "completed" and counted.non_finite > 0


@pytest.mark.parametrize("rhs, x0, t1", [
    (lambda t, x: x * x, 1.0, 2.0),
    (lambda t, x: -x * x, 1.0, -2.0),
    (lambda t, x: -x * x, -1.0, 2.0),
    (lambda t, x: x * x * x, 1.0, 2.0),
])
def test_a_located_blow_up(rhs, x0, t1):
    out, _ = same_run(rhs, 0.0, x0, t1)
    assert out[1] == "blow-up" and out[2] is not None


def _log_pole(t, x):
    return 1.0 / (1.0 - t)


def test_the_stall_blow_up():
    # x' = x**2 escapes at t = 1; with x_max = 1e14 the step size underflows
    # past 1e-3*x_max before a step reaches x_max, and the blow-up is
    # recorded at the stall point. x' = 1/(1 - t) from 2000 stalls past
    # 1e-3*x_max at the default x_max.
    config = IntegratorConfig(x_max=1.0e14)
    for rhs, x0, t1, cfg in ((lambda t, x: x * x, 1.0, 2.0, config),
                             (lambda t, x: -x * x, 1.0, -2.0, config),
                             (_log_pole, 2000.0, 2.0, integrator.DEFAULT_CONFIG)):
        out, _ = same_run(rhs, 0.0, x0, t1, cfg)
        t, x = np.frombuffer(out[3]), np.frombuffer(out[4])
        tip = -1 if t1 > 0 else 0
        assert out[1] == "blow-up" and float.fromhex(out[2]) == t[tip]
        assert 1e-3 * cfg.x_max <= abs(x[tip]) < cfg.x_max


def test_step_size_underflow():
    # the pole at t = 5 underflows where the per-step bound 1e-14*|t|
    # exceeds the one at the start
    runs = ((_log_pole, 0.0, 2.0), (_log_pole, -0.5, 3.0),
            (lambda t, x: 1.0 / (1.0 + t), 0.0, -2.0),
            (lambda t, x: 1.0 / (5.0 - t), 0.0, 10.0),
            (lambda t, x: 1.0 / (5.0 + t), 0.0, -10.0))
    for rhs, t0, t1 in runs:
        out, _ = same_run(rhs, t0, 0.0, t1)
        assert out[0] is integrator.IntegrationError and "underflow" in out[1]


@pytest.mark.parametrize("max_steps", [1, 2, 7])
def test_step_budget_exhausted(max_steps):
    config = IntegratorConfig(max_steps=max_steps)
    for t1 in (30.0, -30.0):
        out, _ = same_run(lambda t, x: math.sin(t) - x, 0.0, 1.0, t1, config)
        assert out[0] is integrator.IntegrationError and "budget" in out[1]


def test_random_runs_in_both_directions():
    # spans with |t| below and above 1, either direction, x0 of either sign
    # and -0.0, tolerances and step limits off their defaults
    rng = random.Random(16)
    fields = (
        lambda t, x: -x + math.sin(t),
        lambda t, x: x - x ** 3 + 0.3 * math.cos(2.0 * t),
        lambda t, x: math.cos(40.0 * t) * x,
        lambda t, x: 0.5 * x * x,
        lambda t, x: math.sqrt(2.0 - x) - 0.1,
    )
    for i in range(200):
        scale = rng.choice((1e-3, 0.5, 1.0, 20.0, 1e4))
        t0 = rng.uniform(-scale, scale)
        t1 = t0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 3.0) * min(scale, 20.0)
        x0 = rng.choice((-0.0, 0.0, rng.uniform(-1.5, 1.5)))
        config = IntegratorConfig(rtol=rng.choice((1e-10, 1e-6, 1e-3)),
                                  atol=rng.choice((1e-12, 1e-8)),
                                  max_step=rng.choice((10.0, 0.3)),
                                  x_max=rng.choice((1e6, 1e14)),
                                  max_steps=rng.choice((20_000_000, 50)))
        same_run(fields[i % len(fields)], t0, x0, t1, config)


def test_generated_models_in_both_directions(dmodel, dprof, hmodel, hprof, cmodel, gam):
    for model, prof in ((dmodel, dprof), (hmodel, hprof), (cmodel, gam)):
        lo, hi = model.state_box
        for rate in (0.5, 1.0):
            rhs = model.transition_rhs(ConstantRate(prof, rate))
            for t0, t1 in ((-30.0, 30.0), (30.0, -30.0), (-0.4, 0.7), (0.7, -0.4)):
                for x0 in (lo + 0.75 * (hi - lo), hi + 5.0):
                    same_run(rhs.__call__, t0, x0, t1, pasted=rhs)


def test_the_loop_is_assembled_once_per_structure(monkeypatch):
    # two models of one structure with different numbers: their loop source
    # is formatted once per direction, and each run is still its own
    monkeypatch.setattr(integrator, "_LOOPS", {})
    sources = []
    inner = _codegen.Emitter.source

    def counted(self, name, signature, result):
        sources.append(name)
        return inner(self, name, signature, result)

    monkeypatch.setattr(_codegen.Emitter, "source", counted)
    runs = []
    for omega, r in ((0.3, 1.0), (0.7, 2.5)):
        model = make_model("concave-logistic-migration", {
            "r": r, "I": {"kind": "sin2", "offset": 0.2, "amplitude": 0.5, "omega": omega}})
        profile = make_profile("arctan", amplitude=2.0 / math.pi, scale=omega)
        rhs = model.transition_rhs(ConstantRate(profile, r))
        for t1 in (20.0, -20.0):
            traj = integrate(rhs, 0.0, 1.0, t1)
            runs.append(traj.x.tobytes())
            assert _outcome(integrate, rhs, 0.0, 1.0, t1) == \
                _outcome(ref.integrate, rhs.__call__, 0.0, 1.0, t1)
    assert sources.count("dp54") == 2
    assert len(set(runs)) == 4
    # a called right-hand side shares one loop per direction with every other
    for rhs in (lambda t, x: -x, lambda t, x: math.sin(t)):
        for t1 in (1.0, -1.0):
            integrate(rhs, 0.0, 1.0, t1)
    assert sources.count("dp54") == 4
