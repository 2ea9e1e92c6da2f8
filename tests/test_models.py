"""Model catalog: coefficient evaluation, field formulas, domain guards."""

import math

import numpy as np
import pytest

from tiplab._codegen import Emitter
from tiplab.models import (
    Curve,
    DomainError,
    ModelError,
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


def test_logistic_migration_closed_form(cmodel):
    # f = -r(t) (x - gamma)^2 + I(t)
    I = cmodel.coefficients["I"]
    for t in (-2.0, 0.0, 5.5):
        for x, g in ((0.4, 0.1), (-1.0, 2.0)):
            assert cmodel.f(t, x, g) == pytest.approx(-(x - g) ** 2 + I(t), abs=1e-13)
            assert cmodel.fx(t, x, g) == pytest.approx(-2.0 * (x - g), abs=1e-13)
    assert cmodel.translation_invariant


def test_tilts_add():
    # f(0, 1, 0) = -r + I = -0.75: the tilts 0.5 and 0.25 bring it to 0
    m = make_model("concave-logistic-migration", {"r": 1.0, "I": 0.25})
    twice, once = m.tilted(0.5).tilted(0.25), m.tilted(0.75)
    assert m.f(0.0, 1.0, 0.0) == -0.75 and twice.f(0.0, 1.0, 0.0) == 0.0
    for t, x, g in ((0.0, 1.0, 0.0), (-3.0, 0.4, 1.5), (2.0, -2.0, -0.5)):
        assert twice.f(t, x, g).hex() == once.f(t, x, g).hex()
    assert twice.describe() == once.describe() and twice.describe()["tilt"] == 0.75


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


def test_positive_guard_refuses_sums_with_loose_bounds():
    # the terms cancel: value 0.5 everywhere, but the closed-form bound
    # 0.5 - 2 decides
    cancelling = make_coefficient({"kind": "sum", "offset": 0.5, "terms": [
        {"kind": "sin", "amplitude": 1.0, "omega": 1.0},
        {"kind": "sin", "amplitude": -1.0, "omega": 1.0},
    ]})
    assert cancelling.bounds()[0] < 0.0
    with pytest.raises(ModelError, match="positive"):
        cancelling.check_positive()
    # positive for t >= 0 only
    bad = make_coefficient({"kind": "sum", "offset": 0.5, "terms": [
        {"kind": "arctan", "amplitude": 1.0, "scale": 1.0}]})
    with pytest.raises(ModelError, match="positive"):
        bad.check_positive()


def test_positive_guard_refuses_a_sum_whose_infimum_no_sample_shows():
    # 1 - 1e-7 - (sin t + sin(sqrt(5) t))/2: the frequencies are rationally
    # independent, so both sines come arbitrarily close to 1 together and
    # the infimum is -1e-7, which is the closed-form bound; a sample of t
    # in [-1e4, 1e4] finds no value below 6e-7
    curve = make_coefficient({"kind": "sum", "offset": 0.9999999, "terms": [
        {"kind": "sin", "amplitude": -0.5, "omega": 1.0},
        {"kind": "sin", "amplitude": -0.5, "omega": math.sqrt(5.0)},
    ]})
    assert curve.bounds()[0] == pytest.approx(-1.0e-7, rel=1e-6)
    with pytest.raises(ModelError, match="positive"):
        curve.check_positive()
    with pytest.raises(ModelError, match="positive"):
        make_model("gompertz", {"r": 1.0, "K": curve.describe()})


def test_nan_and_infinite_numbers_are_refused_in_curves_and_constants():
    # a NaN compares false, so it would pass every range guard downstream
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelError, match="'constant' curve parameter 'value' must be finite"):
            Curve("constant", value=value)
    with pytest.raises(ModelError, match="'arctan' curve parameter 'scale' must be finite"):
        Curve("arctan", amplitude=1.0, scale=math.inf)
    with pytest.raises(ModelError, match="'value' must be finite"):
        make_model("allee-multiplicative-cubic", {"r": math.nan, "K": 1.0, "S": -1.0})
    with pytest.raises(ModelError, match="constant 'p0' must be finite, got nan"):
        make_model("holling-predation-linear-gamma",
                   {"r": 2.0, "K": 90.0, "b": 10.0}, constants={"p0": math.nan})


def test_positive_guard_refuses_a_nan_lower_bound():
    # finite terms whose bounds overflow: 1e308 + 1e308 - inf is NaN
    curve = make_coefficient({"kind": "sum", "terms": [
        {"kind": "constant", "value": 1.0e308},
        {"kind": "constant", "value": 1.0e308},
        {"kind": "sin", "offset": -1.0e308, "amplitude": 1.0e308, "omega": 1.0},
    ]})
    assert math.isnan(curve.bounds()[0])
    with pytest.raises(ModelError, match=r"positive.*lower bound nan"):
        curve.check_positive()


def test_concavity_labels(cubic, cmodel, hmodel, dmodel):
    assert cubic.concavity == "d-concave"
    assert cmodel.concavity == "concave"
    assert hmodel.concavity == "d-concave"
    assert dmodel.concavity == "d-concave"


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


def test_missing_curve_parameter_names_kind_and_parameter():
    with pytest.raises(ModelError, match="'arctan' curve needs parameter 'scale'"):
        make_coefficient({"kind": "arctan", "amplitude": 1.0})
    with pytest.raises(TransitionError, match="'cauchy-pulse' curve needs parameter 'b'"):
        make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6)
    # a null counts as missing
    with pytest.raises(ModelError, match="'constant' curve needs parameter 'value'"):
        Curve("constant", value=None)
    # offset and rate have defaults; describe() keeps the parameters as given
    blend = Curve("sigmoid-blend", left=1.0, right=2.0)
    assert blend.describe() == {"kind": "sigmoid-blend", "left": 1.0, "right": 2.0}
    assert blend(0.0) == Curve("sigmoid-blend", left=1.0, right=2.0, rate=1.0)(0.0)
    assert Curve("sin", amplitude=1.0, omega=1.0).bounds() == (-1.0, 1.0)


def test_booleans_are_not_numbers_in_curves_coefficients_or_constants():
    with pytest.raises(ModelError, match="'cauchy-pulse' curve parameter 'b' must be a number"):
        Curve("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=True)
    with pytest.raises(ModelError, match="'sin' curve parameter 'omega' must be a number"):
        Curve("sin", amplitude=1.0, omega="fast")
    with pytest.raises(ModelError, match="cannot interpret coefficient spec True"):
        make_coefficient(True)
    with pytest.raises(ModelError, match="constant 'p0' must be a number, got False"):
        make_model("holling-predation-linear-gamma",
                   {"r": 2.0, "K": 90.0, "b": 10.0}, constants={"p0": False})


def test_curve_parameters_are_not_nested_under_params():
    # a curve spec has one spelling: its parameters beside its kind
    with pytest.raises(ModelError, match=r"\['params'\]"):
        make_coefficient({"kind": "sin", "params": {"offset": 2.0, "amplitude": 1.0,
                                                    "omega": 1.0}})
