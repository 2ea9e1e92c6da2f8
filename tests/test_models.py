"""Model catalog: coefficient evaluation, field formulas, domain guards."""

import math

import numpy as np
import pytest

from tiplab._codegen import Emitter
from tiplab.models import (
    Curve,
    DomainError,
    ModelError,
    check_concavity_class,
    make_coefficient,
    make_model,
)
from tiplab.transitions import TransitionError, make_profile


def test_unknown_family():
    with pytest.raises(ModelError, match="unknown family"):
        make_model("lotka-volterra", {})


def test_missing_coefficient():
    with pytest.raises(ModelError, match="requires coefficient"):
        make_model("allee-multiplicative-cubic", {"r": 1.0, "K": 1.0})


def test_unexpected_coefficient():
    with pytest.raises(ModelError, match="does not take"):
        make_model("concave-logistic-migration", {"r": 1.0, "I": 0.0, "K": 2.0})


def test_unknown_constant():
    with pytest.raises(ModelError, match="does not take constant"):
        make_model("holling-predation-linear-gamma",
                   {"r": 2.0, "K": 90.0, "b": 10.0}, constants={"q7": 1.0})


def test_state_box_must_sit_in_domain():
    # gompertz domain is (0, inf)
    with pytest.raises(ModelError, match="state box"):
        make_model("gompertz", {"r": 1.0, "K": 1.0, "phi": 1.0},
                   state_box=(-1.0, 2.0))


@pytest.mark.parametrize("box", [(1.0,), (0.0, 1.0, 2.0), (2.0, 1.0), ("a", "b"), ()])
def test_state_box_must_be_two_increasing_numbers(box):
    with pytest.raises(ModelError, match="state_box must be two increasing numbers"):
        make_model("allee-multiplicative-cubic",
                   {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0}, state_box=box)


@pytest.mark.parametrize("spec,expected", [
    ({"kind": "constant", "value": 3.5}, lambda t: 3.5),
    ({"kind": "sin", "offset": 2.0, "amplitude": 1.0, "omega": 1.0},
     lambda t: 2.0 + math.sin(t)),
    ({"kind": "sin2", "offset": 40.0, "amplitude": 40.0, "omega": 0.25},
     lambda t: 40.0 + 40.0 * math.sin(0.25 * t) ** 2),
    ({"kind": "rational-dip", "offset": 35.0, "amplitude": -300.0, "width": 10.0},
     lambda t: 35.0 - 300.0 / (10.0 + t * t)),
    ({"kind": "arctan", "offset": 19.5, "amplitude": -1.0 / math.pi, "scale": 0.1},
     lambda t: 19.5 - math.atan(0.1 * t) / math.pi),
    ({"kind": "sigmoid-blend", "left": -5.0, "right": 10.0},
     lambda t: -5.0 + 15.0 / (1.0 + math.exp(-t))),
])
def test_coefficient_kinds(spec, expected):
    coef = make_coefficient(spec)
    for t in (-37.5, -1.0, 0.0, 0.3, 12.0, 250.0):
        assert coef(t) == pytest.approx(expected(t), rel=1e-14, abs=1e-14)


def test_sum_coefficient():
    coef = make_coefficient({"kind": "sum", "offset": 0.895, "terms": [
        {"kind": "sin", "amplitude": -1.0, "omega": 0.5},
        {"kind": "sin", "amplitude": -1.0, "omega": math.sqrt(5.0)},
    ]})
    for t in (-10.0, 0.0, 7.25):
        want = 0.895 - math.sin(0.5 * t) - math.sin(math.sqrt(5.0) * t)
        assert coef(t) == pytest.approx(want, abs=1e-14)
    lo, hi = coef.bounds()
    assert lo == pytest.approx(0.895 - 2.0)
    assert hi == pytest.approx(0.895 + 2.0)


def test_scalar_coefficient_shorthand():
    coef = make_coefficient(2.5)
    assert coef(123.0) == 2.5
    assert coef.bounds() == (2.5, 2.5)


def test_cubic_closed_form(cubic):
    # r=K=phi=1, S=-1: f = x(1-x)(x+1) + gamma = x - x^3 + gamma
    for t in (0.0, 3.0):
        for x in (-0.7, 0.0, 0.3, 1.2):
            for g in (-0.2, 0.0, 0.5):
                assert cubic.f(t, x, g) == pytest.approx(x - x ** 3 + g, abs=1e-13)
                assert cubic.fx(t, x, g) == pytest.approx(1.0 - 3.0 * x * x, abs=1e-13)
                assert cubic.fxx(t, x, g) == pytest.approx(-6.0 * x, abs=1e-13)


def test_logistic_migration_closed_form(cmodel):
    # f = -r(t) (x - gamma)^2 + I(t)
    I = cmodel.coefficients["I"]
    for t in (-2.0, 0.0, 5.5):
        for x, g in ((0.4, 0.1), (-1.0, 2.0)):
            assert cmodel.f(t, x, g) == pytest.approx(-(x - g) ** 2 + I(t), abs=1e-13)
            assert cmodel.fx(t, x, g) == pytest.approx(-2.0 * (x - g), abs=1e-13)
    assert cmodel.translation_invariant


def test_holling_field_and_domain(hmodel):
    # predation term (p0 - p1*gamma) x / (x + b) with p0=52, p1=13
    r = hmodel.coefficients["r"]
    K = hmodel.coefficients["K"]
    t, x, g = 1.0, 20.0, 2.0
    logistic = r(t) * x * (1.0 - x / K(t))
    predation = (52.0 - 13.0 * g) * x / (x + 10.0)
    assert hmodel.f(t, x, g) == pytest.approx(logistic - predation, rel=1e-13)
    with pytest.raises(DomainError):
        hmodel.f(0.0, -10.0, 0.0)


def test_gompertz_domain():
    m = make_model("gompertz", {"r": 1.0, "K": 1.0, "phi": 1.0})
    with pytest.raises(DomainError):
        m.f(0.0, -0.5, 0.0)


def test_positive_coefficient_guard():
    # K must stay positive; sin with amplitude > offset dips below zero
    with pytest.raises(ModelError, match="positive"):
        make_model("allee-multiplicative-cubic", {
            "r": 1.0, "S": -1.0, "phi": 1.0,
            "K": {"kind": "sin", "offset": 0.5, "amplitude": 1.0, "omega": 1.0},
        })


def test_positive_guard_sees_the_whole_time_axis():
    # K >= 0.5 for t >= 0, but K -> 0.5 - pi/2 < 0 as t -> -inf
    with pytest.raises(ModelError, match="positive"):
        make_model("gompertz", {"r": 1.0, "K": {
            "kind": "arctan", "offset": 0.5, "amplitude": 1.0, "scale": 1.0}})


def test_positive_guard_samples_sums_with_loose_bounds():
    # the terms cancel: bound 0.5 - 2 < 0, value 0.5 everywhere
    ok = make_coefficient({"kind": "sum", "offset": 0.5, "terms": [
        {"kind": "sin", "amplitude": 1.0, "omega": 1.0},
        {"kind": "sin", "amplitude": -1.0, "omega": 1.0},
    ]})
    assert ok.bounds()[0] < 0.0
    assert ok.check_positive() == 0.5
    # positive for t >= 0 only
    bad = make_coefficient({"kind": "sum", "offset": 0.5, "terms": [
        {"kind": "arctan", "amplitude": 1.0, "scale": 1.0}]})
    with pytest.raises(ModelError, match="positive"):
        bad.check_positive()


def test_concavity_labels(cubic, cmodel, hmodel, dmodel):
    assert cubic.concavity == "d-concave"
    assert cmodel.concavity == "concave"
    assert hmodel.concavity == "d-concave"
    for model in (cubic, cmodel, dmodel):
        rep = check_concavity_class(model)
        assert rep.passed, f"{model.family}: worst quotient {rep.worst}"
        assert rep.delta > 0.0


def test_describe_roundtrip(dmodel):
    spec = dmodel.describe()
    clone = make_model(spec["family"], spec["coefficients"],
                       constants=spec["constants"],
                       state_box=tuple(spec["state_box"]))
    rng = np.random.default_rng(7)
    for _ in range(25):
        t = float(rng.uniform(-50, 50))
        x = float(rng.uniform(*dmodel.state_box))
        g = float(rng.uniform(0.5, 2.0))
        assert clone.f(t, x, g) == dmodel.f(t, x, g)
        assert clone.fx(t, x, g) == dmodel.fx(t, x, g)


def test_seeds_bracket_state_box(cubic, hmodel):
    lo, hi = cubic.seeds(margin=10.0)
    assert lo <= cubic.state_box[0] and hi >= cubic.state_box[1]
    # clamped into the open domain (holling pole at x = -b)
    lo_h, _ = hmodel.seeds(margin=1000.0)
    assert lo_h > hmodel.domain[0]


# ---------------------------------------------------------------------------
# one curve catalog for coefficients and profiles
# ---------------------------------------------------------------------------

def test_arctan_ramp_is_read_as_arctan():
    ramp = make_profile("arctan-ramp", offset=0.5, amplitude=1.0, scale=0.5)
    arctan = make_profile("arctan", offset=0.5, amplitude=1.0, scale=0.5)
    assert ramp.kind == arctan.kind == "arctan"
    assert ramp(1.7) == arctan(1.7)
    assert (ramp.limit_minus, ramp.limit_plus) == (arctan.limit_minus, arctan.limit_plus)


def test_center_is_emitted_only_when_given():
    def source(curve):
        return curve.emit(Emitter(), "t")

    assert source(Curve("arctan", amplitude=1.0, scale=2.0)) == "k0 + k1 * atan(k2 * t)"
    assert (source(Curve("arctan", amplitude=1.0, scale=2.0, center=0.0))
            == "k0 + k1 * atan(k2 * (t - k3))")
    plain = Curve("sigmoid-blend", left=1.0, right=2.0, rate=0.5)
    shifted = Curve("sigmoid-blend", left=1.0, right=2.0, rate=0.5, center=3.0)
    assert "- k" not in source(plain) and "(t - k1)" in source(shifted)
    # a center moves the curve, not its limits
    assert shifted(3.0) == plain(0.0) == 1.5
    assert (shifted.limit_minus, shifted.limit_plus) == (1.0, 2.0)
    # with center 0 the value is bitwise the uncentered one, -0.0 included
    zero = Curve("arctan", amplitude=1.0, scale=2.0, center=0.0)
    bare = Curve("arctan", amplitude=1.0, scale=2.0)
    for t in (-0.0, 0.0, 1e-300, -3.7, 1e12):
        assert zero(t).hex() == bare(t).hex()


def test_curve_limits_and_bounds():
    # a falling arctan: limits in time order, bounds sorted
    fall = Curve("arctan", offset=19.5, amplitude=-1.0 / math.pi, scale=0.1)
    assert fall.limit_minus.hex() == (19.5 - (-1.0 / math.pi) * math.pi / 2.0).hex()
    assert fall.limit_plus.hex() == (19.5 + (-1.0 / math.pi) * math.pi / 2.0).hex()
    assert fall.bounds() == (fall.limit_plus, fall.limit_minus)
    pulse = Curve("cauchy-pulse", gamma_plus=1.5, gamma_star=0.8, b=0.02386)
    assert pulse.bounds() == (0.8, 1.5) and pulse.limit_minus == pulse.limit_plus == 1.5
    for kind, params in (("sin", {"amplitude": 1.0, "omega": 1.0}),
                         ("sin2", {"amplitude": 1.0, "omega": 1.0})):
        assert Curve(kind, **params).limit_minus is None


def test_profiles_are_the_curves_with_limits():
    for kind in ("sin", "sin2"):
        with pytest.raises(TransitionError, match="no limits"):
            make_profile(kind, amplitude=1.0, omega=1.0)
    with pytest.raises(TransitionError, match="no limits"):
        make_profile("sum", terms=[Curve("constant", value=1.0)])
    with pytest.raises(TransitionError, match="scale > 0"):
        make_profile("arctan", amplitude=1.0, scale=0.0)
    with pytest.raises(ModelError, match="unknown curve kind"):
        make_coefficient({"kind": "step", "value": 1.0})
    # a profile serves as a coefficient as it is
    pulse = make_profile("cauchy-pulse", gamma_plus=1.5, gamma_star=0.8, b=0.02386)
    assert make_coefficient(pulse) is pulse


def test_unknown_curve_parameters_raise():
    # a misspelt center would otherwise build the uncentred curve
    with pytest.raises(TransitionError, match=r"unknown 'arctan' curve parameters \['centre'\]"):
        make_profile("arctan", amplitude=1.0, scale=1.0, centre=5.0)
    with pytest.raises(ModelError, match=r"\['amplitude'\]"):
        make_coefficient({"kind": "constant", "value": 2.0, "amplitude": 9})
    # center is read by arctan and sigmoid-blend only
    with pytest.raises(ModelError, match="center"):
        Curve("rational-dip", amplitude=1.0, width=2.0, center=1.0)
    with pytest.raises(ModelError, match="unknown"):
        make_model("gompertz", {"r": {"kind": "sin", "offset": 2.0, "amplitude": 1.0,
                                      "omega": 1.0, "phase": 0.5}, "K": 1.0})
    assert make_profile("arctan", amplitude=1.0, scale=1.0, center=5.0)(5.0) == 0.0


def test_curve_parameters_are_not_nested_under_params():
    # a curve spec has one spelling: its parameters beside its kind
    with pytest.raises(ModelError, match=r"\['params'\]"):
        make_coefficient({"kind": "sin", "params": {"offset": 2.0, "amplitude": 1.0,
                                                    "omega": 1.0}})
