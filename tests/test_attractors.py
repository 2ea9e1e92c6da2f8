"""Hyperbolic limit solutions, pullback solutions, Lyapunov exponents.

The constant-coefficient cubic x' = x - x^3 + gamma and gompertz fields give
closed-form oracles (polynomial roots) for every estimate.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from tiplab.attractors import (
    DEFAULT_NUMERICS,
    AttractorError,
    _role_for,
    check_anchor_insensitivity,
    estimate_lyapunov,
    gauss3_interval_integrals,
    limit_hyperbolic_solutions,
    pullback_attractive,
    pullback_repulsive,
)
from tiplab.classify import resolve_horizon
from tiplab.models import make_model
from tiplab.transitions import ConstantRate, make_profile

WINDOW = (-50.0, 50.0)


def cubic_roots(gamma: float) -> np.ndarray:
    """Real equilibria of x - x^3 + gamma, ascending."""
    roots = np.roots([-1.0, 0.0, 1.0, gamma])
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    return real


@pytest.fixture(scope="module")
def cubic_pulse():
    # dips below the saddle-node at -2/(3 sqrt 3) ~ -0.385
    return make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)


def test_cubic_limit_set_roles(cubic):
    ls = limit_hyperbolic_solutions(cubic, 0.0, WINDOW)
    assert ls.complete
    assert sorted(ls.estimates) == [
        "lower-attractive", "middle-repulsive", "upper-attractive"]
    for t in (-30.0, 0.0, 17.5):
        assert ls["lower-attractive"](t) == pytest.approx(-1.0, abs=1e-8)
        assert ls["middle-repulsive"](t) == pytest.approx(0.0, abs=1e-8)
        assert ls["upper-attractive"](t) == pytest.approx(1.0, abs=1e-8)
    assert ls.separation == pytest.approx(1.0, abs=1e-8)


def test_cubic_limit_set_against_polynomial_roots(cubic):
    for gamma in (-0.3, -0.15, 0.0, 0.2, 0.35):
        ls = limit_hyperbolic_solutions(cubic, gamma, WINDOW)
        want = cubic_roots(gamma)
        assert want.size == 3
        got = np.array([ls["lower-attractive"](0.0),
                        ls["middle-repulsive"](0.0),
                        ls["upper-attractive"](0.0)])
        assert got == pytest.approx(want, abs=1e-7)


def test_cubic_gamma_monotonicity(cubic):
    # d-concave frozen family: upper and lower increase with gamma, the
    # middle repeller decreases
    gammas = [-0.3, -0.15, 0.0, 0.15, 0.3]
    sets = [limit_hyperbolic_solutions(cubic, g, WINDOW) for g in gammas]
    ts = np.linspace(-40.0, 40.0, 10)
    for t in ts:
        upper = [ls["upper-attractive"](t) for ls in sets]
        lower = [ls["lower-attractive"](t) for ls in sets]
        middle = [ls["middle-repulsive"](t) for ls in sets]
        assert np.all(np.diff(upper) > 0)
        assert np.all(np.diff(lower) > 0)
        assert np.all(np.diff(middle) < 0)


def test_cubic_loses_bistability(cubic):
    ls = limit_hyperbolic_solutions(cubic, 1.0, WINDOW)
    assert not ls.complete
    assert ls.notes
    # the single surviving attractor is near the only real root
    want = cubic_roots(1.0)
    assert want.size == 1
    assert ls["attractive"](0.0) == pytest.approx(want[0], abs=1e-7)


def test_missing_role_raises(cubic):
    ls = limit_hyperbolic_solutions(cubic, 1.0, WINDOW)
    with pytest.raises(AttractorError, match="middle-repulsive"):
        ls["middle-repulsive"]


def gompertz_root(gamma: float, lo: float, hi: float) -> float:
    # root of x ln x = gamma on [lo, hi] (r = K = phi = 1)
    f = lambda x: x * math.log(x) - gamma
    a, b = lo, hi
    for _ in range(200):
        m = 0.5 * (a + b)
        if f(a) * f(m) <= 0.0:
            b = m
        else:
            a = m
    return 0.5 * (a + b)


def test_gompertz_concave_roles_and_monotonicity():
    gom = make_model("gompertz", {"r": 1.0, "K": 1.0, "phi": 1.0})
    e = 1.0 / math.e
    gammas = [-0.3, -0.25, -0.2, -0.15, -0.1]   # bistable for gamma in (-1/e, 0)
    prev_a, prev_r = -math.inf, math.inf
    for g in gammas:
        ls = limit_hyperbolic_solutions(gom, g, WINDOW)
        assert ls.complete
        a = ls["attractive"](0.0)
        r = ls["repulsive"](0.0)
        assert a == pytest.approx(gompertz_root(g, e, 1.0), abs=1e-7)
        assert r == pytest.approx(gompertz_root(g, 1e-12, e), abs=1e-7)
        # concave monotonicity: attractive grows, repulsive shrinks
        assert a > prev_a and r < prev_r
        prev_a, prev_r = a, r


def test_convergence_gap_below_tolerance(cubic, num):
    ls = limit_hyperbolic_solutions(cubic, 0.1, WINDOW)
    for role in ls.estimates:
        est = ls[role]
        scale = max(1.0, float(np.abs(est.trajectory.x).max()))
        assert est.convergence_gap < num.conv_tol * scale


def test_pullback_attractive_tracks_then_tips(cubic, cubic_pulse, num):
    # slow passage through the saddle-node dip lands on the lower branch
    mech = ConstantRate(cubic_pulse, 0.05)
    H = resolve_horizon(mech, num)
    assert H > num.horizon    # slow pulse forces horizon doubling
    past = limit_hyperbolic_solutions(cubic, 0.0, (-H, H), num)
    u = pullback_attractive(cubic, mech, past["upper-attractive"], H, num)
    assert u.bounded
    assert u(-H) == pytest.approx(1.0, abs=1e-5)
    assert u(H) == pytest.approx(-1.0, abs=1e-3)

    # fast pulse: the state has no time to leave the upper basin
    fast = ConstantRate(cubic_pulse, 5.0)
    Hf = resolve_horizon(fast, num)
    past_f = limit_hyperbolic_solutions(cubic, 0.0, (-Hf, Hf), num)
    uf = pullback_attractive(cubic, fast, past_f["upper-attractive"], Hf, num)
    assert uf.bounded
    assert uf(Hf) == pytest.approx(1.0, abs=1e-3)


def test_pullback_repulsive_blow_up_is_reported_not_raised(cubic, cubic_pulse, num):
    # backward continuation of the repeller escapes during the monostable dip
    mech = ConstantRate(cubic_pulse, 0.05)
    H = resolve_horizon(mech, num)
    past = limit_hyperbolic_solutions(cubic, 0.0, (-H, H), num)
    m = pullback_repulsive(cubic, mech, past["middle-repulsive"], H, num)
    assert m.status == "blow-up"
    assert not m.bounded


def test_anchor_insensitivity(cubic, cubic_pulse, num):
    mech = ConstantRate(cubic_pulse, 0.05)
    H = resolve_horizon(mech, num)
    past = limit_hyperbolic_solutions(cubic, 0.0, (-H, H), num)
    u = pullback_attractive(cubic, mech, past["upper-attractive"], H, num)
    worst = check_anchor_insensitivity(cubic, mech, u, num)
    assert worst < num.anchor_tol


def test_lyapunov_exact_on_cubic(cubic):
    # fx(+-1) = 1 - 3 = -2 exactly for the frozen field at gamma = 0
    ls = limit_hyperbolic_solutions(cubic, 0.0, (-600.0, 600.0))
    est = estimate_lyapunov(cubic, 0.0, ls["upper-attractive"], 1000.0)
    assert est.value == pytest.approx(-2.0, abs=1e-7)
    assert abs(est.sensitivity) < 1e-7
    assert est.quad_gap < 1e-6
    est_m = estimate_lyapunov(cubic, 0.0, ls["middle-repulsive"], 1000.0)
    assert est_m.value == pytest.approx(1.0, abs=1e-7)


def test_gauss3_interval_integrals():
    n, h = 64, math.pi / 64.0
    parts = gauss3_interval_integrals(math.sin, 0.0, h, n)
    assert float(parts.sum()) == pytest.approx(2.0, abs=1e-12)
    want = [math.cos(i * h) - math.cos((i + 1) * h) for i in range(n)]
    assert parts == pytest.approx(want, abs=1e-13)


def test_role_for_maps_d_concave_roles(cubic):
    concave = make_model("concave-logistic-migration", {"r": 1.0, "I": 0.25})
    for role in ("upper-attractive", "lower-attractive", "middle-repulsive"):
        assert _role_for(cubic, role) == role
    assert _role_for(concave, "upper-attractive") == "attractive"
    assert _role_for(concave, "lower-attractive") == "attractive"
    assert _role_for(concave, "middle-repulsive") == "repulsive"


def test_notes_name_their_role_once(cubic):
    # near the saddle-node the lower burn-in does not settle
    ls = limit_hyperbolic_solutions(cubic, 0.3849, (-30.0, 30.0))
    assert ls.notes == [ls.notes[0], "single attractive estimate"]
    assert ls.notes[0].startswith("lower-attractive: burn-in doubling did not converge")
    assert ls.notes[0].count("attractive") == 1


def test_burn_in_without_doublings_is_not_certified(cubic, num):
    ls = limit_hyperbolic_solutions(cubic, 0.0, WINDOW, replace(num, max_burn_doublings=0))
    assert ls.roles == ()
    assert ls.notes == ["upper-attractive: burn-in doubling did not converge (last gap inf)",
                        "lower-attractive: burn-in doubling did not converge (last gap inf)"]


def test_pullbacks_check_their_anchor(cubic, cubic_pulse, num):
    mech = ConstantRate(cubic_pulse, 5.0)
    ls = limit_hyperbolic_solutions(cubic, 0.0, (-40.0, 40.0), num)
    with pytest.raises(AttractorError, match="the anchor is not repulsive"):
        pullback_repulsive(cubic, mech, ls["upper-attractive"], 30.0, num)
    with pytest.raises(AttractorError, match="the anchor is not attractive"):
        pullback_attractive(cubic, mech, ls["middle-repulsive"], 30.0, num)
    # the estimates reach one certified burn-in beyond the window
    with pytest.raises(AttractorError, match="does not cover 2000.0"):
        pullback_repulsive(cubic, mech, ls["middle-repulsive"], 2000.0, num)
    with pytest.raises(AttractorError, match="does not cover -2000.0"):
        pullback_attractive(cubic, mech, ls["upper-attractive"], 2000.0, num)
