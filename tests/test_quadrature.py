"""The FTLE and Lyapunov quadratures against the per-node reference.

``gauss3_interval_integrals`` reads the solution by one walk over the
trajectory's nodes and calls a generated f_x; ``quadrature_reference`` keeps
the former reads (a bisect per Gauss node) and the former closures over
``model.fx``. They must agree bit for bit and raise the same error at the
same Gauss node: on every study model, along forward, backward, blown-up,
shifted and transition trajectories, and on windows whose Gauss nodes fall
exactly on a node or on the last node.
"""

import math
import types
from dataclasses import replace

import numpy as np
import pytest

import quadrature_reference as ref
from tiplab.attractors import (
    DEFAULT_NUMERICS,
    AttractorError,
    HyperbolicEstimate,
    PullbackSolution,
    estimate_lyapunov,
    gauss3_interval_integrals,
)
from tiplab.ews import EwsError, ftle_series
from tiplab.integrator import IntegrationError, integrate
from tiplab.models import DomainError, _fx_along
from tiplab.transitions import ConstantRate, Phase, TimeDependentRate, make_profile

NUM = DEFAULT_NUMERICS
SPAN = 40.0


def outcome(fn, *args):
    """The result's bytes, or the error's type and message."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError, IntegrationError) as exc:
        return (type(exc).__name__, str(exc))
    return out.tobytes() if isinstance(out, np.ndarray) else out


def same_quadrature(model, traj, a, h, n, gamma=None, mechanism=None):
    """The walk and the reference agree on one window; returns the outcome."""
    if mechanism is None:
        fn, g = _fx_along(model, gamma=gamma), ref.frozen_integrand(model, gamma, traj)
    else:
        fn, g = (_fx_along(model, mechanism=mechanism),
                 ref.path_integrand(model, mechanism, traj))
    got = outcome(gauss3_interval_integrals, fn, traj, a, h, n)
    want = outcome(ref.gauss3_interval_integrals, g, a, h, n)
    assert got == want, (a, h, n)
    return want


def on_node(a_guess, h, target):
    """A start a near a_guess whose first centre node a + 0.5*h is target."""
    a = a_guess
    for _ in range(64):
        m = a + 0.5 * h
        if m == target:
            return a
        a = math.nextafter(a, -math.inf if m > target else math.inf)
    raise AssertionError(f"no start puts a Gauss node on {target!r}")


def ending_on(t_end, h, n):
    """A start a whose last Gauss node (a + (n - 0.5)*h) + off is t_end."""
    off = ref._G3_OFF * 0.5 * h
    a = t_end - n * h + 0.5 * h - off
    for _ in range(64):
        last = (a + (n - 1 + 0.5) * h) + off
        if last == t_end:
            return a
        a = math.nextafter(a, -math.inf if last > t_end else math.inf)
    raise AssertionError(f"no start puts the last Gauss node on {t_end!r}")


def windows(traj):
    """(a, h, n) windows of a trajectory: inside the span, across it, with a
    centre node on an interior node, and past either end."""
    t = traj.t
    lo, hi = float(t[0]), float(t[-1])
    width = hi - lo
    k = len(t) // 2
    return [
        (lo + 0.1 * width, 0.37, int(0.5 * width / 0.37)),
        (lo, width / 97, 97),
        (on_node(float(t[k]) - 0.125, 0.25, float(t[k])), 0.25, 9),
        (on_node(float(t[1]) - 0.5, 1.0, float(t[1])), 1.0, 1),
        (hi - 2.6, 1.0, 3),                 # the last interval leaves the span
        (lo - 0.2, 0.5, 4),                 # the first node precedes it
    ]


def study(cubic, dmodel, dprof, hmodel, hprof, cmodel, gam):
    """(model, frozen gamma, mechanism, attracted x, x that escapes, escape
    direction) for every study model."""
    rate = make_profile("arctan", offset=19.5, amplitude=-1.0 / math.pi, scale=0.1)
    pulse = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)
    return [
        (cubic, 0.0, ConstantRate(pulse, 1.0), 0.9, 3.0, -1),
        (dmodel, 1.5, ConstantRate(dprof, 1.0), 60.0, 400.0, -1),
        (hmodel, 0.0, TimeDependentRate(hprof, rate, 1.0), 70.0, 600.0, -1),
        (cmodel, 0.0, Phase(gam, 0.25, 0.0), 1.0, -5.0, 1),
    ]


@pytest.fixture(scope="module")
def cases(cubic, dmodel, dprof, hmodel, hprof, cmodel, gam):
    out = []
    for model, gamma, mech, x_in, x_out, way in study(cubic, dmodel, dprof, hmodel,
                                                      hprof, cmodel, gam):
        frozen = model.frozen_rhs(gamma)
        forward = integrate(frozen, -SPAN, x_in, SPAN, NUM.integ)
        blown = integrate(frozen, -way * SPAN, x_out, way * SPAN, NUM.integ)
        assert blown.status == "blow-up"
        trajs = {
            "forward": forward,
            "backward": integrate(frozen, SPAN, x_in, -SPAN, NUM.integ),
            "blow-up": blown,
            "shifted": forward.shifted(0.25),
            "transition": integrate(model.transition_rhs(mech), -SPAN, x_in, SPAN, NUM.integ),
        }
        out.append((model, gamma, mech, trajs))
    return out


def test_walk_matches_per_node_reads_on_every_study_model(cases):
    kinds = set()
    for model, gamma, mech, trajs in cases:
        for kind, traj in trajs.items():
            for a, h, n in windows(traj):
                for how in ({"gamma": gamma}, {"mechanism": mech}):
                    got = same_quadrature(model, traj, a, h, n, **how)
                    kinds.add((kind, type(got).__name__))
    # every trajectory kind gave values, and the windows past the span errors
    for kind in ("forward", "backward", "blow-up", "shifted", "transition"):
        assert {(kind, "bytes"), (kind, "tuple")} <= kinds


def test_gauss_nodes_on_a_node_and_on_the_last_node(cases):
    model, gamma, mech, trajs = cases[2]
    for traj in (trajs["forward"], trajs["backward"]):
        tl = traj.t
        # a centre node on every tenth interior node
        for k in range(1, len(tl) - 1, max(1, len(tl) // 10)):
            a = on_node(float(tl[k]) - 0.05, 0.1, float(tl[k]))
            same_quadrature(model, traj, a, 0.1, 3, gamma=gamma)
        # the last Gauss node on the last node: the last value, no error
        for h, n in ((0.1, 5), (1.0, 7), (2.5, 3)):
            a = ending_on(float(tl[-1]), h, n)
            assert isinstance(same_quadrature(model, traj, a, h, n, mechanism=mech), bytes)


def test_domain_error_at_the_same_gauss_node(hmodel):
    # shifted down, the solution crosses the pole at x = -b midway; both
    # quadratures must stop at the same Gauss node with the same message
    traj = integrate(hmodel.frozen_rhs(0.0), -SPAN, 70.0, SPAN, NUM.integ)
    dx = -10.0 - float(np.median(traj.x))
    low = traj.shifted(dx)
    calls = {"walk": 0, "reference": 0}

    def counted(fn, key):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    fn = counted(_fx_along(hmodel, gamma=0.0), "walk")
    g = counted(ref.frozen_integrand(hmodel, 0.0, low), "reference")
    a, h, n = -SPAN, 0.5, int(2 * SPAN / 0.5)
    got = outcome(gauss3_interval_integrals, fn, low, a, h, n)
    want = outcome(ref.gauss3_interval_integrals, g, a, h, n)
    assert got == want
    assert want[0] == DomainError.__name__
    assert calls["walk"] == calls["reference"] < 3 * n


def test_window_past_the_span_raises_the_trajectory_error():
    traj = integrate(lambda t, x: -x, 0.0, 1.0, 5.0)
    fn = lambda t, x: x
    h = 1.0
    for a, first_out in ((4.0 - 0.3, (4.0 - 0.3) + 1.5 * h),          # past the end
                         (-0.3, (-0.3 + 0.5 * h) - ref._G3_OFF * 0.5 * h)):   # before
        with pytest.raises(IntegrationError) as walk:
            gauss3_interval_integrals(fn, traj, a, h, 2)
        with pytest.raises(IntegrationError) as read:
            traj(first_out)
        assert str(walk.value) == str(read.value)


def test_step_must_be_positive():
    traj = integrate(lambda t, x: -x, 0.0, 1.0, 5.0)
    for h in (0.0, -0.5, math.nan):
        with pytest.raises(AttractorError, match="quadrature step must be positive"):
            gauss3_interval_integrals(lambda t, x: x, traj, 1.0, h, 2)


def test_exponent_and_series_match_the_reference(cases):
    for model, gamma, mech, trajs in cases:
        forward, transition = trajs["forward"], trajs["transition"]
        est = HyperbolicEstimate("attractive", gamma, forward, (-SPAN, SPAN), 0.0, 0.0)
        got = estimate_lyapunov(model, gamma, est, 60.0, NUM)
        want = ref.estimate_lyapunov(model, gamma, est, 60.0, NUM)
        assert [v.hex() for v in (got.value, got.sensitivity, got.quad_gap)] == [
            v.hex() for v in (want.value, want.sensitivity, want.quad_gap)]
        sol = PullbackSolution("attractive", transition, None, SPAN, (-1e9, 1e9))
        # unclipped, the series starts at a numpy scalar, t[0] + T - T
        for clip in ((-20.0, 30.0), (None, None)):
            got, want = (f(model, mech, sol, 10.0, NUM, *clip)
                         for f in (ftle_series, ref.ftle_series))
            assert got.t.tobytes() == want.t.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
            assert got.quad_gap.hex() == want.quad_gap.hex()


def test_ftle_series_on_a_stub_model_matches_the_reference():
    # a model that is not a VectorFieldModel: fx is called through a closure
    model = types.SimpleNamespace(fx=lambda t, x, g: math.cos(t) * x - g * g)
    mech = ConstantRate(make_profile("arctan", amplitude=1.0, scale=0.5), 1.0)
    traj = integrate(lambda t, x: math.sin(t) - 0.1 * x, -30.0, 0.5, 30.0)
    sol = PullbackSolution("attractive", traj, None, 30.0, (-1e9, 1e9))
    got, want = (f(model, mech, sol, 5.0, NUM) for f in (ftle_series, ref.ftle_series))
    assert got.t.tobytes() == want.t.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.quad_gap.hex() == want.quad_gap.hex()


def test_ftle_refinement_stall_raises_ews_error():
    # a fast integrand at a step of the whole window: four halvings do not
    # bring two passes within quad_tol
    model = types.SimpleNamespace(fx=lambda t, x, g: math.sin(5.0 * t))
    mech = ConstantRate(make_profile("constant", value=0.0), 1.0)
    traj = integrate(lambda t, x: 0.0, -30.0, 0.0, 30.0)
    sol = PullbackSolution("attractive", traj, None, 30.0, (-1.0, 1.0))
    with pytest.raises(EwsError, match="quadrature refinement stalled at gap"):
        ftle_series(model, mech, sol, 10.0, replace(NUM, quad_h=10.0))
