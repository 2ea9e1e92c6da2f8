"""Generated right-hand sides against the composed-closure reference.

The compiled functions, the quadratures' f_x with gamma frozen or along a
path included, must return bitwise what the closures return and raise the
same errors at the same points, for every family, coefficient kind and
mechanism kind, tilted or not. Whole integrations, where the integrator
pastes the compiled statements into its stages and calls the closures from
the same stages, must give bitwise identical trajectories or the same error:
for the study models, for every family and mechanism kind in both
directions, for a step retried at a pole and for both blow-up branches.
"""

import importlib
import math
import random
import re
import sys

import pytest

import closure_reference as ref
from tiplab.integrator import IntegrationError, IntegratorConfig, integrate
from tiplab.models import FAMILY_NAMES, _FAMILIES, _fx_along, make_coefficient, make_model
from tiplab.transitions import (
    ConstantRate,
    Phase,
    Reaction,
    Size,
    Switching,
    TimeDependentPhase,
    TimeDependentRate,
    make_profile,
)

# sum() adds floats with compensation from Python 3.12 on; the reference
# closures then stop matching the left-to-right order the compiled code keeps
SUM_IS_LEFT_TO_RIGHT = sys.version_info < (3, 12)

# positive coefficient specs, one per kind; sin and sin2 alternate between
# two frequencies so that some sin(omega*t) terms are shared and some not
def coefficient_spec(kind: str, i: int) -> dict:
    omega = 0.7 if i % 2 else math.sqrt(5.0) / 16
    return {
        "constant": {"kind": "constant", "value": 1.3 + 0.1 * i},
        "sin": {"kind": "sin", "offset": 2.0, "amplitude": 0.5 + 0.1 * i, "omega": omega},
        "sin2": {"kind": "sin2", "offset": 1.5, "amplitude": 1.0, "omega": omega},
        "rational-dip": {"kind": "rational-dip", "offset": 2.0, "amplitude": -3.0,
                         "width": 10.0 + i},
        "arctan": {"kind": "arctan", "offset": 2.0, "amplitude": 0.3, "scale": 0.1,
                   "center": 1.0 - i},
        "sigmoid-blend": {"kind": "sigmoid-blend", "left": 1.0, "right": 2.5 + i,
                          "rate": 0.5, "center": -1.0},
        "sum": {"kind": "sum", "offset": 2.0, "terms": [
            {"kind": "sin", "amplitude": 0.4, "omega": omega},
            {"kind": "sin2", "amplitude": 0.3, "omega": omega},
            {"kind": "constant", "value": 0.25}]},
    }[kind]


COEFF_KINDS = ("constant", "sin", "sin2", "rational-dip", "arctan",
               "sigmoid-blend", "sum")


def family_model(family: str, kind: str, tilt: float | None):
    spec = _FAMILIES[family]
    names = (*spec["required"], *spec["optional"])
    model = make_model(family, {n: coefficient_spec(kind, i) for i, n in enumerate(names)})
    return model.tilted(tilt) if tilt is not None else model


CAUCHY = make_profile("cauchy-pulse", gamma_plus=1.5, gamma_star=0.8, b=0.02386)
RAMP = make_profile("arctan-ramp", offset=0.5, amplitude=1.0, scale=0.5)
BLEND = make_profile("sigmoid-blend", left=-0.5, right=1.0, rate=0.3)
DIP = make_profile("rational-dip", offset=1.0, amplitude=-5.0, width=10.0)
RATE = make_profile("arctan", offset=19.5, amplitude=-1.0 / math.pi, scale=0.1)
FLAT = make_profile("constant", value=0.7)

MECHANISMS = {
    "constant-rate": ConstantRate(CAUCHY, 1.3),
    "phase": Phase(RAMP, 0.8, -2.5),
    "size": Size(DIP, 0.5),
    "time-dependent-rate": TimeDependentRate(BLEND, RATE, 0.7),
    "time-dependent-phase": TimeDependentPhase(CAUCHY, 0.9, BLEND, 0.1),
    "time-dependent-phase-plus": TimeDependentPhase(RAMP, 0.9, DIP, 0.2, "plus"),
    "switching": Switching(ConstantRate(BLEND, 0.4), Phase(FLAT, 1.0, 0.0), 1.5),
    "reaction": Reaction(DIP, RATE, 2.0, 1.0, 3.0),
}


def outcome(fn, *args):
    """The value, or the error's type and message."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError, IntegrationError) as exc:
        return (type(exc).__name__, str(exc))


def sample_points(model, n: int, seed: int):
    """Random (t, x, gamma), x reaching past the domain's lower end."""
    rng = random.Random(seed)
    lo, hi = model.state_box
    x_lo = max(lo, model.domain[0]) - 0.5 * (hi - lo) - 1.0
    pts = [(rng.uniform(-600.0, 600.0), rng.uniform(x_lo, hi), rng.uniform(-1.0, 2.0))
           for _ in range(n)]
    if model.domain[0] > -math.inf:
        pts.append((0.25, model.domain[0], 0.5))     # on the pole
    return pts


def same(a, b) -> bool:
    """Bitwise equality of floats (signed zeros apart, NaN equal to NaN);
    plain equality of error outcomes."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and a == b


def assert_same(got, want, what):
    assert same(got, want), f"{what}: {got!r} != {want!r}"


@pytest.mark.parametrize("tilt", [None, 0.0, -0.35])
@pytest.mark.parametrize("kind", COEFF_KINDS)
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_compiled_field_matches_closures(family, kind, tilt):
    if kind == "sum" and not SUM_IS_LEFT_TO_RIGHT:
        pytest.skip("reference sum() is compensated on this Python")
    model = family_model(family, kind, tilt)
    twin = ref.Model(model)
    assert (model.domain, model.translation_invariant) == (
        twin.domain, twin.translation_invariant)
    seed = 10 * FAMILY_NAMES.index(family) + COEFF_KINDS.index(kind)
    rhss = [(name, model.transition_rhs(mech), twin.transition_rhs(mech))
            for name, mech in MECHANISMS.items()]
    fxs = [(name, _fx_along(model, mechanism=mech), ref.path_closure(mech))
           for name, mech in MECHANISMS.items()]
    errors = 0
    for t, x, g in sample_points(model, 60, seed):
        for name in ("f", "fx"):
            got = outcome(getattr(model, name), t, x, g)
            assert_same(got, outcome(getattr(twin, name), t, x, g),
                        f"{name}({t!r}, {x!r}, {g!r})")
            errors += isinstance(got, tuple)
        assert_same(outcome(model.frozen_rhs(g), t, x), outcome(twin.frozen_rhs(g), t, x),
                    f"frozen_rhs({g!r})({t!r}, {x!r})")
        for name, rhs, want in rhss:
            assert_same(outcome(rhs, t, x), outcome(want, t, x),
                        f"{name} transition_rhs({t!r}, {x!r})")
        # the generated f_x of the quadratures, frozen and along each path
        assert_same(outcome(_fx_along(model, gamma=g), t, x), outcome(twin.fx, t, x, g),
                    f"frozen fx({g!r})({t!r}, {x!r})")
        for name, fx, path in fxs:
            assert_same(outcome(fx, t, x), outcome(twin.fx, t, x, path(t)),
                        f"{name} fx along the path({t!r}, {x!r})")
    if model.domain[0] > -math.inf:
        assert errors > 0, "no sample reached the domain guard"


def test_transition_rhs_over_every_mechanism_and_tilt():
    # one model, dense in t, every mechanism: the path fragments inlined in
    # the right-hand side agree with the path lambdas everywhere
    model = family_model("allee-multiplicative-rational", "sin2", None)
    rng = random.Random(3)
    for tilt in (None, 0.25):
        m = model.tilted(tilt) if tilt is not None else model
        twin = ref.Model(m)
        for mname, mech in MECHANISMS.items():
            rhs, want = m.transition_rhs(mech), twin.transition_rhs(mech)
            for _ in range(300):
                t, x = rng.uniform(-80.0, 80.0), rng.uniform(1.0, 90.0)
                assert same(rhs(t, x), want(t, x)), (mname, t, x)


def test_paths_profiles_and_coefficients_match_closures():
    rng = random.Random(11)
    ts = [rng.uniform(-900.0, 900.0) for _ in range(400)] + [0.0, -0.0, 1.5]
    for name, mech in MECHANISMS.items():
        want = ref.path_closure(mech)
        assert all(same(mech.path(t), want(t)) for t in ts), name
        assert all(same(mech(t), want(t)) for t in ts), name
    for prof in (CAUCHY, RAMP, BLEND, DIP, RATE, FLAT):
        want = ref.profile_closure(prof)
        assert all(same(prof(t), want(t)) for t in ts), prof.kind
    for kind in COEFF_KINDS:
        if kind == "sum" and not SUM_IS_LEFT_TO_RIGHT:
            continue
        coef = make_coefficient(coefficient_spec(kind, 1))
        want = ref.Coefficient(coef)
        assert all(same(coef(t), want.closure(t)) for t in ts), kind
        assert coef.bounds() == want.bounds(), kind


def test_shared_frequencies_are_computed_once(dmodel):
    # r/mu and K/nu share their frequency: three sin calls, not five
    from tiplab._codegen import Emitter

    e = Emitter()
    dmodel._emit(e, "f")
    assert sum(line.count("sin(") for line in e.lines) == 3


def test_shared_squared_sines_are_computed_once(dmodel, dprof):
    # all five coefficients of criterion 2 are sin2 kinds: their three
    # frequencies give three squares, not five
    src, _, result = dmodel.transition_rhs(ConstantRate(dprof, 1.0)).emitted
    assert sum(line.count("** 2") for line in (*src.lines, result)) == 3


def test_stage_7_reuses_the_time_terms_of_stage_6(dmodel, dprof):
    # criterion 2's transition rhs has three sin terms (the test above). A
    # trial step takes stages 2 to 7, and stage 7 is at the same t + h as
    # stage 6, so each sin runs 5 times per trial step, not 6. The slopes at
    # the start and at a blow-up point call the rhs.
    from tiplab.integrator import _dp54

    rhs = dmodel.transition_rhs(ConstantRate(dprof, 1.0))
    assert sum(line.count("sin(") for line in rhs.emitted[0].lines) == 3
    for backward in (False, True):
        src = "\n".join(_dp54(rhs, backward).emitted[0].lines)
        trial = src[src.index("\n    try:\n"):src.index("\n    except (ValueError")]
        # backward, each stage writes t = -s and negates its slope in place;
        # stage 7 sets no t of its own
        negated = re.findall(r"(\w+) = -\(", trial)
        assert negated == (["t", "_k2", "t", "_k3", "t", "_k4", "t", "_k5", "t", "_k6", "_k7"]
                           if backward else [])
        assert trial.count("sin(") == src.count("sin(") == 5 * 3


def test_source_is_shared_across_values():
    from tiplab._codegen import Emitter

    a = ConstantRate(CAUCHY, 1.0)
    b = ConstantRate(make_profile("cauchy-pulse", gamma_plus=0.1, gamma_star=2.0, b=3.0), 7.0)
    ea, eb = Emitter(), Emitter()
    sa = ea.source("path", "t", a.emit_path(ea))
    sb = eb.source("path", "t", b.emit_path(eb))
    assert sa == sb
    assert ea.values != eb.values


# ---------------------------------------------------------------------------
# whole integrations of the study models
# ---------------------------------------------------------------------------

def assert_same_trajectory(a, b):
    assert (a.direction, a.status) == (b.direction, b.status)
    assert same(a.t_blow, b.t_blow) if a.t_blow is not None else b.t_blow is None
    for name in ("t", "x", "f"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def assert_same_run(rhs, twin_rhs, *args):
    """integrate gives bitwise the same trajectory, or the same error, with
    the compiled rhs (its statements pasted into the stages) and with the
    closure reference (called from the stages)."""
    got, want = (outcome(integrate, f, *args) for f in (rhs, twin_rhs))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_trajectory(got, want)
    return want


def study_cases(dmodel, dprof, cmodel, gam, hmodel, hprof):
    rate = make_profile("arctan", offset=19.5, amplitude=-1.0 / math.pi, scale=0.1)
    return [
        (dmodel, ConstantRate(dprof, 1.0), 60.0, 30.0),
        (cmodel.tilted(0.1), Phase(gam, 1.0, -2.5), 1.0, -0.5),
        (cmodel, Phase(gam, 0.25, 0.0), 1.0, -1.0),
        (hmodel, TimeDependentRate(hprof, rate, 1.0), 70.0, 20.0),
        (hmodel, Reaction(hprof, rate, 2.0, 1.0, -5.0), 70.0, 20.0),
    ]


def test_study_pullbacks_are_bitwise_identical(dmodel, dprof, cmodel, gam, hmodel, hprof, num):
    H = 400.0
    for model, mech, x_fwd, x_bwd in study_cases(dmodel, dprof, cmodel, gam, hmodel, hprof):
        twin = ref.Model(model)
        for t0, x0, t1 in ((-H, x_fwd, H), (H, x_bwd, -H)):
            assert_same_run(model.transition_rhs(mech), twin.transition_rhs(mech),
                            t0, x0, t1, num.integ)
        assert_same_run(model.frozen_rhs(mech.gamma_minus), twin.frozen_rhs(mech.gamma_minus),
                        -H, x_fwd, H, num.integ)


@pytest.mark.parametrize("tilt", [None, -0.35])
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_every_mechanism_integrates_bitwise_as_the_closures(family, tilt):
    # the coefficient kind varies with the family, so the pasted statements
    # include sin terms (shared or not), walrus temporaries and blends
    kind = ("sin", "sin2", "rational-dip", "arctan", "sigmoid-blend")[
        FAMILY_NAMES.index(family) % 5]
    model = family_model(family, kind, tilt)
    twin = ref.Model(model)
    lo, hi = model.state_box
    x0 = lo + 0.75 * (hi - lo)
    rhss = [(model.transition_rhs(mech), twin.transition_rhs(mech))
            for mech in MECHANISMS.values()]
    rhss.append((model.frozen_rhs(0.5), twin.frozen_rhs(0.5)))
    for rhs, twin_rhs in rhss:
        for t0, t1 in ((-30.0, 30.0), (30.0, -30.0)):
            assert_same_run(rhs, twin_rhs, t0, x0, t1)


def test_pole_retries_and_blow_ups_integrate_bitwise_as_the_closures():
    # the rational family's pole: forward from far above the box a trial
    # stage lands below the pole and the step is retried; backward toward the
    # pole the step size underflows after many retries
    model = family_model("allee-multiplicative-rational", "sin2", None)
    twin = ref.Model(model)
    raises = 0

    def counted(t, x):
        nonlocal raises
        try:
            return twin.frozen_rhs(0.5)(t, x)
        except ValueError:
            raises += 1
            raise

    traj = assert_same_run(model.frozen_rhs(0.5), counted, 0.0, 1.0e3, 10.0)
    assert traj.status == "completed" and raises > 0
    raises = 0
    error = assert_same_run(model.frozen_rhs(0.5), counted, 0.0, -1.4, -10.0)
    assert error[0] == "IntegrationError" and "underflow" in error[1] and raises > 0
    # x' = -r*(x - g)**2 + I escapes to -inf forward and to +inf backward;
    # with x_max = 1e14 the step size underflows at about 1e12, past
    # 1e-3*x_max, and the blow-up is recorded at the stall point
    model = family_model("concave-logistic-migration", "sin", None)
    twin = ref.Model(model)
    for config in (IntegratorConfig(), IntegratorConfig(x_max=1.0e14)):
        for x0, t1 in ((-5.0, 10.0), (5.0, -10.0)):
            traj = assert_same_run(model.frozen_rhs(0.5), twin.frozen_rhs(0.5),
                                   0.0, x0, t1, config)
            tip = traj.x[-1] if traj.direction == "forward" else traj.x[0]
            assert traj.status == "blow-up"
            assert (abs(tip) >= config.x_max) == (config.x_max == 1.0e6)


# ---------------------------------------------------------------------------
# tilt
# ---------------------------------------------------------------------------

def test_tilt_adds_to_f_only(cmodel):
    tilted = cmodel.tilted(0.3)
    assert cmodel.tilt is None and tilted.tilt == 0.3
    assert tilted.translation_invariant and tilted.state_box == cmodel.state_box
    for t, x, g in ((0.0, 0.5, 0.1), (-3.0, 2.0, -1.0)):
        assert tilted.f(t, x, g) == cmodel.f(t, x, g) + 0.3
        assert tilted.fx(t, x, g) == cmodel.fx(t, x, g)
    assert tilted.describe()["tilt"] == 0.3
    assert "tilt" not in cmodel.describe()


# ---------------------------------------------------------------------------
# the unreacted problem is classified once per sweep
# ---------------------------------------------------------------------------

def test_reaction_region_classifies_unreacted_problem_once(cubic, monkeypatch):
    from tiplab.attractors import DEFAULT_NUMERICS
    from tiplab.ews import reaction_region

    classify_module = importlib.import_module("tiplab.classify")
    inner = classify_module.classify
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(classify_module, "classify", counted)
    pulse = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)
    delta = make_profile("sigmoid-blend", left=5.0, right=3.0, rate=0.05)
    grid = reaction_region(cubic, pulse, delta, [0.0, 1.0, 2.0, 3.0], [0.0],
                           1.0, 10.0, -2.0, DEFAULT_NUMERICS)
    # the threshold kappa*L = 0 is never reached: every cell is unwarned
    assert [cell for _, _, cell in grid.rows()] == ["A"] * 4
    assert len(calls) == 1
