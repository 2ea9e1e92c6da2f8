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
generated fx and for the concavity class the family declares: f_xx < 0
(concave) or f_xxx < 0 (d-concave) on its state box. sympy is a test-only
dependency too. scipy's brentq checks the two root finders of the warning
machinery, and DOP853 started from the cubic's polynomial roots confirms
the labels of its mirrored critical-rate brackets. The fold of the concave
study model, where its limit sets lose their hyperbolic solutions, comes
from the spectrum of its Riccati linearisation: scipy's eigh_tridiagonal
on a long interval, and numpy's eigvalsh over one period for the periodic
model of the bifurcation-map golden. Every lambda* cell of criterion 6
classifies as C 1e-3 above that fold, so its lambda* lies above it, and
its lambda_star bracket holds the bottom of the spectrum of the path's own
linearisation.
"""

import csv
import json
import math
from string import Template

import numpy as np
import pytest

from conftest import LAMBDA_STAR_CELLS, cubic_roots
from test_bitwise_pins import GOLDEN
from tiplab.attractors import limit_hyperbolic_solutions
from tiplab.classify import classify, resolve_horizon
from tiplab.ews import EwsConfig, FtleSeries, _first_root, warning_time
from tiplab.integrator import integrate
from tiplab.models import _FAMILIES, _PLACEHOLDER, CONCAVE, make_model
from tiplab.transitions import (
    ConstantRate,
    Phase,
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


def _names(family):
    """The coefficients and constants of a family's f, sorted."""
    return sorted(set(_PLACEHOLDER.findall(_FAMILIES[family]["f"])))


def _derivative(sympy, family, order, module):
    """The order-th x-derivative of a family's f, lambdified over x, g and
    the values of _names(family) in that order."""
    x, g = sympy.Symbol("x"), sympy.Symbol("g")
    args = [x, g, *(sympy.Symbol(f"c_{n}") for n in _names(family))]
    return sympy.lambdify(args, sympy.diff(_sympy_f(sympy, family), x, order), module)


def test_every_family_has_derivative_oracle_coefficients():
    assert set(FAMILY_COEFFICIENTS) == set(_FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILY_COEFFICIENTS))
def test_derivatives_match_sympy(family):
    sympy = pytest.importorskip("sympy")
    model = make_model(family, FAMILY_COEFFICIENTS[family])
    oracle = {"f": _derivative(sympy, family, 0, "math"),
              "fx": _derivative(sympy, family, 1, "math")}
    generated = {"f": model.f, "fx": model.fx}
    lo, hi = model.state_box
    for t in (0.0, 1.3, 7.7):
        values = [model.coefficients[n](t) if n in model.coefficients
                  else model.constants[n] for n in _names(family)]
        for gam in (-0.5, 0.0, 0.8):
            for xv in np.linspace(lo, hi, 9):
                for k, fn in generated.items():
                    want = oracle[k](xv, gam, *values)
                    got = fn(t, xv, gam)
                    assert abs(got - want) <= DERIVATIVE_TOL * max(1.0, abs(want)), (
                        k, t, xv, gam, got, want)


# ---------------------------------------------------------------------------
# the concavity class of every family and study model, by sympy
# ---------------------------------------------------------------------------

CURVATURE_T = np.linspace(-60.0, 60.0, 121)
# each study fixture and the range of the parameter its runs sweep: the
# cubic's pulse to -0.6 and its mirror to +0.6, dprof, hprof, and gam for
# the concave model (whose tilts leave f_xx as it is)
STUDY_GAMMAS = {"cubic": (-0.6, 0.6), "dmodel": (0.8, 1.5), "hmodel": (-0.55, 0.0),
                "cmodel": (-1.0, 1.0)}


def _worst_curvature(model, gammas) -> float:
    """Largest f_xx (concave class) or f_xxx (d-concave class) of a model,
    by sympy, over 201 points of its state box, CURVATURE_T and 21 points of
    the closed range gammas."""
    sympy = pytest.importorskip("sympy")
    order = 2 if model.concavity == CONCAVE else 3
    curvature = _derivative(sympy, model.family, order, "numpy")
    x = np.linspace(*model.state_box, 201)[:, None, None]
    g = np.linspace(*gammas, 21)[None, None, :]
    values = [np.array([model.coefficients[n](t) for t in CURVATURE_T])[None, :, None]
              if n in model.coefficients else model.constants[n]
              for n in _names(model.family)]
    return float(np.max(curvature(x, g, *values)))


@pytest.mark.parametrize("family", sorted(FAMILY_COEFFICIENTS))
def test_every_family_is_of_its_concavity_class(family):
    model = make_model(family, FAMILY_COEFFICIENTS[family])
    assert _worst_curvature(model, (-1.0, 1.0)) < 0.0


@pytest.mark.parametrize("name", sorted(STUDY_GAMMAS))
def test_the_study_models_are_of_their_concavity_class(name, request):
    assert _worst_curvature(request.getfixturevalue(name), STUDY_GAMMAS[name]) < 0.0


def test_the_holling_family_is_d_concave_only_below_gamma_4():
    # the oracle is not vacuous: with p0 = 52 and p1 = 13 the predation
    # term gives f_xxx = 78 b (g - 4)/(b + x)^4, positive once g > 4 and
    # largest at the box's lower edge x = -b/2, so 78 * 10 * 0.5 / 5^4 at
    # b = 10 and g = 4.5
    sympy = pytest.importorskip("sympy")
    family = "holling-predation-linear-gamma"
    x, g, b, p0, p1 = (sympy.Symbol(n) for n in ("x", "g", "c_b", "c_p0", "c_p1"))
    fxxx = sympy.diff(_sympy_f(sympy, family), x, 3).subs({p0: 52, p1: 13})
    assert sympy.simplify(fxxx - 78 * b * (g - 4) / (b + x) ** 4) == 0
    model = make_model(family, FAMILY_COEFFICIENTS[family])
    assert _worst_curvature(model, (4.5, 4.5)) == pytest.approx(0.624, rel=1.0e-12)


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


# ---------------------------------------------------------------------------
# DOP853 from the cubic's roots confirms the mirrored critical-rate labels
# ---------------------------------------------------------------------------

# the bracket that test_classify.py pins for both pulses, at the horizon
# its bisection ended on
MIRROR_BRACKET = (2.1921779334545133, 2.1921785235404965)
MIRROR_H = 1600.0
ESCAPE = 1.0e6
ROOT_TOL = 1.0e-3


def _dop853_end(rhs, t0, x0, t1) -> float:
    """x(t1) of the solution with x(t0) = x0, by DOP853 at rtol 1e-13, or
    inf once |x| reaches ESCAPE."""
    def escape(t, y):
        return abs(y[0]) - ESCAPE
    escape.terminal = True
    sol = solve_ivp(lambda t, y: [rhs(t, y[0])], (t0, t1), [x0], method="DOP853",
                    rtol=1e-13, atol=1e-15, events=escape)
    assert sol.success
    return math.inf if sol.status == 1 else float(sol.y[0, -1])


@pytest.mark.parametrize("gamma_star, tipped", [(-0.6, "C2"), (0.6, "C1")])
def test_dop853_from_the_roots_confirms_the_mirrored_labels(cubic, gamma_star, tipped):
    # the pulse leaves g = 0 at both ends, where the frozen hyperbolic
    # solutions are the roots -1 < 0 < 1 of x^3 - x: u and l start on the
    # outer roots at -H and m on the middle one at +H, and the labels follow
    # the d-concave rules of classify, with the roots as the attractors
    prof = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=gamma_star, b=0.05)
    low, mid, up = cubic_roots(0.0)
    labels, middles = [], []
    for c in MIRROR_BRACKET:
        rhs = cubic.transition_rhs(ConstantRate(prof, c))
        u = _dop853_end(rhs, -MIRROR_H, up, MIRROR_H)
        lo = _dop853_end(rhs, -MIRROR_H, low, MIRROR_H)
        m = _dop853_end(rhs, MIRROR_H, mid, -MIRROR_H)
        middles.append(m)
        if abs(u - up) < ROOT_TOL and abs(lo - low) < ROOT_TOL and abs(m - mid) < ROOT_TOL:
            labels.append("A")
        elif abs(u - low) < ROOT_TOL:
            labels.append("C2")
        elif abs(lo - up) < ROOT_TOL:
            labels.append("C1")
        else:
            labels.append("indeterminate")
    assert labels == [tipped, "A"]
    # below the bracket m escapes backward; above it m ends on the past
    # middle root, -g(-H) = 9.8e-7 away from 0
    assert middles[0] == math.inf and abs(middles[1]) < 1.0e-6


# ---------------------------------------------------------------------------
# the fold of the concave study models, from their Riccati linearisation
# ---------------------------------------------------------------------------

def _ground_state(h: float, half: float = 1000.0, c: float = 0.0, s: float = 0.0) -> float:
    """Lowest eigenvalue of -u'' + (I(t) - g'(t)) u on [-half, half] with
    Dirichlet ends, by second differences with step h; I is criterion 6's
    migration term 0.895 - sin(t/2) - sin(sqrt(5) t) and g(t) =
    (2/pi) atan(c (t - s)) its cell's path, both written out here (c = 0:
    the frozen equation)."""
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    t = np.arange(1, round(2.0 * half / h)) * h - half
    bump = 2.0 / math.pi * c / (1.0 + (c * (t - s)) ** 2)
    diagonal = 2.0 / h ** 2 + 0.895 - np.sin(0.5 * t) - np.sin(np.sqrt(5.0) * t) - bump
    off = np.full(t.size - 1, -1.0 / h ** 2)
    return eigh_tridiagonal(diagonal, off, eigvals_only=True,
                            select="i", select_range=(0, 0))[0]


@pytest.fixture(scope="module")
def study_fold():
    # With y = x - g the tilted field I(t) - (x - g)^2 + lam reads
    # y' = -y^2 + I + lam, and y = u'/u turns it into u'' = (I + lam) u. A
    # solution bounded on the whole line exists iff that equation has a
    # positive solution, i.e. iff -d^2/dt^2 + I + lam >= 0: the fold is
    # lam = -E0, E0 the bottom of the spectrum of -d^2/dt^2 + I (Nunez &
    # Obaya, DCDS-B 9, 2008). Dirichlet eigenvalues on a long interval
    # approach E0, and one Richardson step removes the O(h^2) error of the
    # second differences.
    coarse, fine = _ground_state(0.04), _ground_state(0.02)
    return -(4.0 * fine - coarse) / 3.0


def test_the_concave_study_model_loses_its_limit_set_at_the_fold(cmodel, study_fold):
    assert study_fold == pytest.approx(-0.09243, abs=1.0e-5)
    _assert_limit_sets_end_at(cmodel, study_fold)


def test_every_lambda_star_cell_tips_just_above_the_fold(cmodel, gam, study_fold):
    # The tilt lifts f, so by comparison the pullback attractive solution of
    # a higher tilt stays above that of a lower one, and a label is C below
    # any tilt labelled C. Each cell classifies as lambda_star's label_at
    # does, at its horizon; C at fold + 1e-3 (where the limit sets are
    # complete, above) puts the cell's lambda* above the fold.
    tilted = cmodel.tilted(study_fold + 1.0e-3)
    for c, s in LAMBDA_STAR_CELLS:
        mech = Phase(gam, c, -s)
        label = classify(tilted, mech, horizon=resolve_horizon(mech))
        assert label.label == "C", (c, s, label.evidence)


# lambda* = -E0 of each of criterion 6's cells, to 7 digits
SPECTRAL = {(0.25, 0.0): -0.0024978, (0.74, 0.0): -0.0001177, (0.495, 0.0): 0.0043570,
            (1.0, -5.0): -0.0898664, (1.0, 2.5): 0.2534234, (1.0, 10.0): -0.0844684}


@pytest.mark.acceptance   # shares criterion 6's lambda_star_map, built once per session
@pytest.mark.parametrize("cell", LAMBDA_STAR_CELLS, ids=lambda cell: "c{}-s{}".format(*cell))
def test_lambda_star_brackets_the_bottom_of_its_spectrum(lambda_star_map, cell):
    # Along the path, y = x - g(t) turns the tilted field into
    # y' = -y^2 + I + lam - g'(t), and y = u'/u into u'' = (I + lam - g') u,
    # so as at the fold lambda* = -E0 (r = 1), E0 now the bottom of the
    # spectrum of -d^2/dt^2 + I - g' (Coppel, Disconjugacy, LNM 220, 1971).
    # The bump -g' pulls E0 below the frozen one. [-400, 400] gives the same
    # 9 digits as [-800, 800]. Every one of criterion 6's brackets (tol
    # 1e-3) holds its cell's value.
    coarse, fine = (_ground_state(h, 400.0, *cell) for h in (0.01, 0.005))
    value = -(4.0 * fine - coarse) / 3.0
    assert value == pytest.approx(SPECTRAL[cell], abs=1.0e-6)
    res = lambda_star_map[cell]
    assert res.lower <= value <= res.upper, (res, value)


def _assert_limit_sets_end_at(model, fold):
    """The limit set of the concave model tilted 1e-3 above the fold is
    complete, and 1e-3 below it holds no estimate. The model is translation
    invariant in g: one frozen g stands for all."""
    above = limit_hyperbolic_solutions(model.tilted(fold + 1.0e-3), 0.0)
    assert above.complete and above.roles == ("attractive", "repulsive")
    below = limit_hyperbolic_solutions(model.tilted(fold - 1.0e-3), 0.0)
    assert below.roles == () and not below.complete


def _periodic_ground_state(n: int) -> float:
    """Lowest eigenvalue of -u'' + I(t) u with period 4 pi, by periodic
    second differences on n points; I is the bifurcation-map golden's
    migration term 0.895 - sin(t/2), written out here."""
    h = 4.0 * math.pi / n
    i = np.arange(n)
    a = np.diag(2.0 / h ** 2 + 0.895 - np.sin(0.5 * h * i))
    a[i, (i + 1) % n] = a[(i + 1) % n, i] = -1.0 / h ** 2
    return np.linalg.eigvalsh(a)[0]


def test_the_periodic_golden_model_loses_its_limit_set_below_its_lambda_star():
    # As above, with a 4 pi-periodic I: the bottom of the spectrum of Hill's
    # operator on the line is its lowest periodic eigenvalue over one period
    # (Magnus & Winkler, Hill's Equation, 1966), so one period suffices.
    manifest = json.loads((GOLDEN / "manifests" / "bifurcation-map.json").read_text())
    block = manifest["config"]["model"]
    assert block["coefficients"] == {
        "r": {"kind": "constant", "value": 1.0},
        "I": {"kind": "sin", "offset": 0.895, "amplitude": -1.0, "omega": 0.5}}
    model = make_model(**block)
    coarse, fine = _periodic_ground_state(800), _periodic_ground_state(1600)
    fold = -(4.0 * fine - coarse) / 3.0
    assert fold == pytest.approx(-0.23208, abs=1.0e-5)
    _assert_limit_sets_end_at(model, fold)
    # every tilt below the fold is C, so each lambda* lies above it
    with open(GOLDEN / "bifurcation-map" / "region.csv", newline="") as fh:
        stars = [float(row["lambda_star"]) for row in csv.DictReader(fh)]
    assert stars and min(stars) > fold
