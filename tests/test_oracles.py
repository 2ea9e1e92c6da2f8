"""An independent integrator as oracle for the DP54 integrator.

scipy's DOP853 at rtol 1e-12 / atol 1e-14 solves the frozen and the
transition right-hand side of every study model, forward and backward, and
its dense output is compared with ``integrate`` at each accepted node and at
each midpoint between nodes (where ``integrate`` answers by cubic Hermite
interpolation). scipy is a test-only dependency.

Backward runs start between the attractors, where backward time pulls them
toward the repulsive solution; a start elsewhere escapes backward and the
comparison would measure the escape, not the integrator.

sympy differentiates each family's f formula, as an oracle for the
generated fx and fxx; scipy's brentq checks the two root finders of the
warning machinery. sympy is a test-only dependency too.
"""

from string import Template

import numpy as np
import pytest

from tiplab.ews import EwsConfig, FtleSeries, _first_root, warning_time
from tiplab.integrator import integrate
from tiplab.models import _FAMILIES, _PLACEHOLDER, CONCAVE, ModelError, make_model
from tiplab.transitions import (
    ConstantRate,
    TimeDependentPhase,
    TimeDependentRate,
    make_profile,
)

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
brentq = pytest.importorskip("scipy.optimize").brentq

SPAN = 20.0
NODE_TOL = 1.0e-6      # relative to max(1, |x|); observed up to 4e-8
MIDPOINT_TOL = 1.0e-5  # Hermite interpolation error; observed up to 8e-7

PULSE = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)

# model fixture, frozen parameter, backward start
FROZEN = [("cubic", 0.0, 0.3), ("dmodel", 1.5, 20.0),
          ("hmodel", 0.0, 10.0), ("cmodel", 0.0, 0.5)]


def _study_mechanisms(request):
    gam = request.getfixturevalue("gam")
    return {
        "cubic-rate": ("cubic", ConstantRate(PULSE, 5.0), 0.3),
        "dconcave-rate": ("dmodel", ConstantRate(request.getfixturevalue("dprof"), 1.0), 20.0),
        "holling-rate": ("hmodel", ConstantRate(request.getfixturevalue("hprof"), 20.0), 10.0),
        "concave-time-dependent-rate": (
            "cmodel",
            TimeDependentRate(gam, make_profile("sigmoid-blend", left=0.25, right=0.74), 3.0),
            0.5),
        "concave-time-dependent-phase": (
            "cmodel",
            TimeDependentPhase(gam, 1.0, make_profile("sigmoid-blend", left=-5.0, right=10.0),
                               0.19),
            0.5),
    }


def _relative(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def _compare(rhs, t0, x0, t1):
    traj = integrate(rhs, t0, x0, t1)
    ref = solve_ivp(lambda t, y: [rhs(t, y[0])], (t0, t1), [x0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    assert ref.success and traj.status == "completed"
    assert traj.t_start == t0 and traj.t_end == t1
    assert _relative(traj.x, ref.sol(traj.t)[0]) < NODE_TOL
    mids = 0.5 * (traj.t[1:] + traj.t[:-1])
    assert _relative(traj.eval_array(mids), ref.sol(mids)[0]) < MIDPOINT_TOL


@pytest.mark.parametrize("name, gamma, x_back", FROZEN)
def test_frozen_rhs_matches_dop853(name, gamma, x_back, request):
    model = request.getfixturevalue(name)
    rhs = model.frozen_rhs(gamma)
    _compare(rhs, -SPAN, model.seeds()[1], SPAN)
    _compare(rhs, SPAN, x_back, -SPAN)


@pytest.mark.parametrize("case", ["cubic-rate", "dconcave-rate", "holling-rate",
                                  "concave-time-dependent-rate",
                                  "concave-time-dependent-phase"])
def test_transition_rhs_matches_dop853(case, request):
    name, mech, x_back = _study_mechanisms(request)[case]
    model = request.getfixturevalue(name)
    rhs = model.transition_rhs(mech)
    assert mech.path_scale(SPAN) > 0.1     # the parameter moves on the span
    _compare(rhs, -SPAN, model.seeds()[1], SPAN)
    _compare(rhs, SPAN, x_back, -SPAN)


# ---------------------------------------------------------------------------
# sympy derivatives of every family's f
# ---------------------------------------------------------------------------

# coefficients per family, time-dependent where the family allows it
FAMILY_COEFFICIENTS = {
    "concave-logistic-migration": {
        "r": {"kind": "sin2", "offset": 1.0, "amplitude": 0.5, "omega": 0.3},
        "I": {"kind": "sin", "offset": 0.9, "amplitude": -1.0, "omega": 0.5}},
    "gompertz": {"r": {"kind": "sin2", "offset": 1.0, "amplitude": 0.5, "omega": 0.3},
                 "K": 2.0, "phi": 1.5},
    "beverton-holt": {"r": 2.0, "alpha": {"kind": "sin2", "offset": 1.0,
                                          "amplitude": 0.5, "omega": 0.7}},
    "allee-multiplicative-cubic": {
        "r": 1.0, "K": 2.0, "phi": 0.7,
        "S": {"kind": "sin", "offset": -1.0, "amplitude": 0.5, "omega": 0.4}},
    "allee-multiplicative-rational": {
        "r": 1.5, "K": {"kind": "sin2", "offset": 40.0, "amplitude": 40.0, "omega": 0.14},
        "mu": 30.0, "nu": {"kind": "sin2", "offset": 40.0, "amplitude": 40.0, "omega": 0.14}},
    "allee-holling2": {"r": 1.0, "K": 10.0, "a": 2.0,
                       "b": {"kind": "sin2", "offset": 1.0, "amplitude": 0.5, "omega": 0.2}},
    "holling-predation-linear-gamma": {
        "r": {"kind": "sin", "offset": 2.0, "amplitude": 1.0, "omega": 1.0},
        "K": 90.0, "b": 10.0},
}
DERIVATIVE_TOL = 1.0e-9   # relative to max(1, |value|)


def _sympy_f(sympy, family):
    """f of a family as a sympy expression in x, g and one symbol c_<name>
    per coefficient or constant: the formula's assignments are replayed on
    symbols and its domain checks skipped."""
    src = _FAMILIES[family]["f"]
    code = Template(src).substitute({n: f"c_{n}" for n in _PLACEHOLDER.findall(src)})
    env = {"x": sympy.Symbol("x"), "g": sympy.Symbol("g"), "log": sympy.log}
    for line in code.split("\n"):
        if line.startswith("return "):
            return sympy.parse_expr(line.removeprefix("return "), local_dict=env)
        if not line.startswith(("if ", " ")):
            name, expr = line.split(" = ")
            env[name] = sympy.parse_expr(expr, local_dict=env)
    raise AssertionError(f"{family}: no return line")


def test_every_family_has_derivative_oracle_coefficients():
    assert set(FAMILY_COEFFICIENTS) == set(_FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILY_COEFFICIENTS))
def test_derivatives_match_sympy(family):
    sympy = pytest.importorskip("sympy")
    model = make_model(family, FAMILY_COEFFICIENTS[family])
    f = _sympy_f(sympy, family)
    x, g = sympy.Symbol("x"), sympy.Symbol("g")
    names = sorted(set(_PLACEHOLDER.findall(_FAMILIES[family]["f"])))
    args = [x, g, *(sympy.Symbol(f"c_{n}") for n in names)]
    exprs = {"f": f, "fx": sympy.diff(f, x), "fxx": sympy.diff(f, x, 2)}
    oracle = {k: sympy.lambdify(args, e, "math") for k, e in exprs.items()}
    generated = {"f": model.f, "fx": model.fx, "fxx": model.fxx}
    if model.concavity == CONCAVE:
        del generated["fxx"]
        with pytest.raises(ModelError, match="not exposed"):
            model.fxx(0.0, model.state_box[1], 0.0)
    lo, hi = model.state_box
    for t in (0.0, 1.3, 7.7):
        values = [model.coefficients[n](t) if n in model.coefficients
                  else model.constants[n] for n in names]
        for gam in (-0.5, 0.0, 0.8):
            for xv in np.linspace(lo, hi, 9):
                for k, fn in generated.items():
                    want = oracle[k](xv, gam, *values)
                    got = fn(t, xv, gam)
                    assert abs(got - want) <= DERIVATIVE_TOL * max(1.0, abs(want)), (
                        k, t, xv, gam, got, want)


# ---------------------------------------------------------------------------
# brentq against the root finders of the warning machinery
# ---------------------------------------------------------------------------

def test_first_root_matches_brentq():
    # criterion 5's left rate curve 35 - 300/(10 + t^2) at its critical rate
    delta = make_profile("rational-dip", offset=35.0, amplitude=-300.0, width=10.0)
    c0 = 19.6523
    s1 = _first_root(delta, c0, -400.0, 400.0)
    ref = brentq(lambda t: delta(t) - c0, -400.0, 0.0, xtol=1e-14)
    assert s1 == pytest.approx(-3.0898, abs=1e-4)
    assert abs(s1 - ref) <= 1e-8


def test_warning_time_matches_brentq():
    t = np.linspace(0.0, 10.0, 101)
    v = -2.0 + 1.9 * np.exp(-((t - 5.0) ** 2))
    series = FtleSeries("upper-attractive", 1.0, t, v, 0.0)
    for kappa in (0.5, 0.8):
        cfg = EwsConfig(kappa, -2.0)
        wt = warning_time(series, cfg, refine_tol=1e-12)
        # warning_time refines on the linear interpolant between nodes
        ref = brentq(lambda s: np.interp(s, t, v) - cfg.threshold, 0.0, 5.0, xtol=1e-14)
        assert abs(wt - ref) <= 1e-10
