"""classify against its former rules, which integrated every pullback.

``tests/classify_reference.py`` keeps the two case rules as they were
before classify stopped at the first pullback that decides its label.
Across the criterion-2 flip of the d-concave rate family (C2 below, A
above) and across lambda*(1, 2.5) of the criterion-6 concave tilt family
(C from a blow-up of a below, A above), classify must give the reference's
label, and every evidence key that both report must hold the same value.
A C2 label and a C from a's blow-up integrate one pullback and no more,
and an A label frees each pullback before the next one integrates.
"""

import math
import weakref

import pytest

import classify_reference as ref
from tiplab import attractors
from tiplab.classify import LimitCache, classify, resolve_horizon
from tiplab.models import make_model
from tiplab.transitions import ConstantRate, Phase, make_profile


def _bits(v):
    return float(v).hex() if isinstance(v, float) else v


def same_as_reference(model, mech, num, rule):
    """classify's label, after checking it and the shared evidence against
    the reference rule on the same limit sets and horizon."""
    H = resolve_horizon(mech, num)
    cache = LimitCache(model, num)
    want = rule(model, mech, cache.get(mech.gamma_minus, H),
                cache.get(mech.gamma_plus, H), H, num)
    got = classify(model, mech, num, horizon=H)
    assert (got.label, got.concavity, got.horizon) == (want.label, want.concavity, want.horizon)
    assert set(got.evidence) <= set(want.evidence)
    assert {k: _bits(v) for k, v in got.evidence.items()} == {
        k: _bits(want.evidence[k]) for k in got.evidence}
    return got


@pytest.mark.parametrize("c, label", [(0.99, "C2"), (0.9999990, "C2"),
                                      (0.9999995, "A"), (1.01, "A")])
def test_dconcave_rates_across_the_criterion_2_flip(dmodel, dprof, num, c, label):
    got = same_as_reference(dmodel, ConstantRate(dprof, c), num, ref._classify_dconcave)
    assert got.label == label
    if label == "C2":
        assert set(got.evidence) == {"u_to_upper", "u_to_lower", "u_status", "track_tol"}
    else:
        assert len(got.evidence) == 10


@pytest.mark.parametrize("lam, label", [(0.2, "C"), (0.25, "C"), (0.26, "A")])
def test_concave_tilts_across_lambda_star(cmodel, gam, num, lam, label):
    # lambda*(1, 2.5) = 0.2534 on the criterion-6 model
    got = same_as_reference(cmodel.tilted(lam), Phase(gam, 1.0, -2.5), num,
                            ref._classify_concave)
    assert got.label == label
    if label == "C":
        assert got.evidence["a_status"] == "blow-up"
        assert set(got.evidence) == {"a_to_attractive", "a_status", "a_blow",
                                     "a_band_exit", "track_tol"}
    else:
        assert len(got.evidence) == 8


@pytest.fixture
def counted_integrations(monkeypatch):
    """The (start, end) of every integration the attractors module makes
    from here on."""
    calls = []
    integrate = attractors.integrate

    def counting(*args, **kw):
        calls.append(args[1:4:2])
        return integrate(*args, **kw)

    monkeypatch.setattr(attractors, "integrate", counting)
    return calls


def _warm(model, mech, num, counted):
    """The horizon, with both limit sets already computed and their
    integrations left out of the count."""
    H = resolve_horizon(mech, num)
    cache = LimitCache(model, num)
    cache.get(mech.gamma_minus, H)
    cache.get(mech.gamma_plus, H)
    counted.clear()
    return H


def test_c2_integrates_u_alone(cubic, num, counted_integrations):
    pulse = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)
    mech = ConstantRate(pulse, 0.05)
    H = _warm(cubic, mech, num, counted_integrations)
    assert classify(cubic, mech, num, horizon=H).label == "C2"
    assert counted_integrations == [(-H, H)]


def test_concave_c_from_a_blow_up_integrates_a_alone(num, counted_integrations):
    cquad = make_model("concave-logistic-migration", {"r": 1.0, "I": 0.25})
    deep = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-3.0, b=0.5)
    mech = ConstantRate(deep, 5.0)
    H = _warm(cquad, mech, num, counted_integrations)
    out = classify(cquad, mech, num, horizon=H)
    assert out.label == "C" and out.evidence["a_status"] == "blow-up"
    assert counted_integrations == [(-H, H)]
    assert math.isfinite(out.evidence["a_blow"])


def _alive_at_start(monkeypatch):
    """Per integration the attractors module makes from here on: how many
    of the earlier ones are still alive when it starts."""
    runs, alive = [], []
    integrate = attractors.integrate

    def recorded(*args, **kw):
        alive.append(sum(ref() is not None for ref in runs))
        traj = integrate(*args, **kw)
        runs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(attractors, "integrate", recorded)
    return alive


@pytest.mark.parametrize("case", ["concave", "d-concave"])
def test_an_a_label_frees_each_pullback_before_the_next_integrates(cubic, num, monkeypatch,
                                                                   case):
    # concave: a is freed before r; d-concave: u before l and l before m.
    # The evidence holds every key, in this order, with the former rule's values
    if case == "concave":
        model = make_model("concave-logistic-migration", {"r": 1.0, "I": 0.25})
        mech = ConstantRate(make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.3,
                                         b=0.5), 1.0)
        rule, runs, keys = ref._classify_concave, 2, [
            "a_to_attractive", "a_status", "a_blow", "a_band_exit", "track_tol",
            "r_status", "r_blow", "r_band_exit"]
    else:
        model = cubic
        mech = ConstantRate(make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6,
                                         b=0.05), 5.0)
        rule, runs, keys = ref._classify_dconcave, 3, [
            "u_to_upper", "u_to_lower", "u_status", "track_tol", "l_to_upper", "l_to_lower",
            "m_bounded", "m_band_exit", "l_status", "m_status"]
    H = _warm(model, mech, num, [])
    alive = _alive_at_start(monkeypatch)
    out = classify(model, mech, num, horizon=H)
    assert out.label == "A" and list(out.evidence) == keys
    assert alive == [0] * runs
    cache = LimitCache(model, num)
    want = rule(model, mech, cache.get(mech.gamma_minus, H), cache.get(mech.gamma_plus, H),
                H, num)
    assert {k: _bits(v) for k, v in out.evidence.items()} == {
        k: _bits(want.evidence[k]) for k in keys}
