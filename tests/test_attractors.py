"""Hyperbolic limit solutions, pullback solutions, Lyapunov exponents.

The constant-coefficient cubic x' = x - x^3 + gamma and gompertz fields give
closed-form oracles (polynomial roots) for every estimate.
"""

import gc
import math
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import check_anchor_insensitivity, cubic_roots
from tiplab.attractors import (
    DEFAULT_NUMERICS,
    QUAD_H,
    QUAD_TOL,
    WINDOW_SAMPLES,
    AttractorError,
    HyperbolicEstimate,
    NonConvergentError,
    _role_for,
    estimate_lyapunov,
    gauss3_interval_integrals,
    limit_hyperbolic_solutions,
    pullback_attractive,
    pullback_repulsive,
)
from tiplab.classify import resolve_horizon
from tiplab.integrator import integrate
from tiplab.models import make_model
from tiplab.transitions import ConstantRate, make_profile

WINDOW = (-50.0, 50.0)


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


# the gammas where burn-in 1 600 certifies the middle seed, whose point
# w1 + 1 600 lies past the attractive pair's reach w1 + 2*burn_in
NEAR_FOLD = (-0.38484700520833337, 0.38484700520833337)


def test_cubic_limit_set_against_polynomial_roots(cubic):
    # every estimate is its root on the whole window grid, near the fold too
    roles = ("lower-attractive", "middle-repulsive", "upper-attractive")
    for window in ((-30.0, 30.0), (-400.0, 400.0)):
        grid = np.linspace(*window, WINDOW_SAMPLES)
        for gamma in (-0.3, -0.15, 0.0, 0.2, 0.35, *NEAR_FOLD):
            ls = limit_hyperbolic_solutions(cubic, gamma, window)
            assert ls.complete
            for role, root in zip(roles, cubic_roots(gamma), strict=True):
                assert np.max(np.abs(ls[role].eval_array(grid) - root)) <= 1e-9


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


def test_a_middle_solution_outside_the_state_band_is_not_bistable():
    # the cubic's frozen solutions at gamma = 0 are -1, 0 and 1; with the
    # state box (1.5, 3) the middle one lies below the band (0.5, 4)
    model = make_model("allee-multiplicative-cubic",
                       {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0}, state_box=(1.5, 3.0))
    ls = limit_hyperbolic_solutions(model, 0.0, (-30.0, 30.0))
    assert not ls.complete and ls.separation is None
    assert ls.notes == ["middle-repulsive leaves the state band; not bistable"]
    assert ls.roles == ("upper-attractive", "lower-attractive")


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
    assert worst < 1.0e-6


def test_lyapunov_exact_on_cubic(cubic):
    # fx(+-1) = 1 - 3 = -2 exactly for the frozen field at gamma = 0
    ls = limit_hyperbolic_solutions(cubic, 0.0, (-600.0, 600.0))
    est = estimate_lyapunov(cubic, 0.0, ls["upper-attractive"], 1000.0)
    assert est.value == pytest.approx(-2.0, abs=1e-7)
    assert abs(est.sensitivity) < 1e-7
    assert est.quad_gap < 1e-6
    est_m = estimate_lyapunov(cubic, 0.0, ls["middle-repulsive"], 1000.0)
    assert est_m.value == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("length", [0.0, -10.0, math.nan])
def test_lyapunov_refuses_a_window_length_that_is_not_positive(cubic, length):
    upper = limit_hyperbolic_solutions(cubic, 0.0, WINDOW)["upper-attractive"]
    with pytest.raises(AttractorError, match="window_length must be positive"):
        estimate_lyapunov(cubic, 0.0, upper, length)


def test_lyapunov_refines_until_two_passes_agree():
    # the average of cos(100 t) over [-50, 50]: the passes at QUAD_H / 2^k,
    # k = 0..3, differ by 2.3e-4, 5.2e-6 and 3.0e-8, so the value is the
    # pass at QUAD_H / 8, two halvings past the first comparison
    traj = integrate(lambda t, x: 0.0, -60.0, 0.0, 60.0)
    est = HyperbolicEstimate("attractive", 0.0, traj, (-50.0, 50.0), 0.0, 0.0)

    def exponent(omega):
        model = types.SimpleNamespace(fx=lambda t, x, g: math.cos(omega * t))
        return estimate_lyapunov(model, 0.0, est, 100.0)

    def average(k):
        n = int(math.ceil(100.0 / (QUAD_H * 0.5 ** k)))
        fn = lambda t, x: math.cos(100.0 * t)
        return float(np.sum(gauss3_interval_integrals(fn, traj, -50.0, 100.0 / n, n))) / 100.0

    passes = [average(k) for k in range(4)]
    assert abs(passes[1] - passes[2]) > QUAD_TOL
    got = exponent(100.0)
    assert got.value == passes[3]
    assert got.quad_gap == abs(passes[2] - passes[3]) <= QUAD_TOL
    assert got.value == pytest.approx(math.sin(5000.0) / 5000.0, abs=1e-9)
    # cos(1000 t) is too fast for four halvings
    with pytest.raises(NonConvergentError, match="quadrature refinement stalled at gap"):
        exponent(1000.0)


def test_lyapunov_refuses_an_estimate_of_another_gamma():
    # x' = 1/4 - (x - gamma)^2 has the attractor gamma + 1/2 with exponent
    # -1; f_x read at gamma = 0.2 along the gamma = 0 attractor would give
    # a plausible -0.6
    model = make_model("concave-logistic-migration", {"r": 1.0, "I": 0.25})
    attractive = limit_hyperbolic_solutions(model, 0.0, WINDOW)["attractive"]
    assert estimate_lyapunov(model, 0.0, attractive, 50.0).value == pytest.approx(-1.0)
    with pytest.raises(AttractorError, match=r"estimate is of gamma=0\.0, not gamma=0\.2"):
        estimate_lyapunov(model, 0.2, attractive, 50.0)


def test_gauss3_interval_integrals():
    n, h = 64, math.pi / 64.0
    # any trajectory covering [0, pi] carries an integrand of t alone
    traj = integrate(lambda t, x: 0.0, 0.0, 0.0, 4.0)
    parts = gauss3_interval_integrals(lambda t, x: math.sin(t), traj, 0.0, h, n)
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


# ---------------------------------------------------------------------------
# the repulsive run is made on the first read that needs it
# ---------------------------------------------------------------------------

@pytest.fixture
def runs(monkeypatch):
    """The direction of every integration attractors makes, in call order."""
    import tiplab.attractors as attractors

    inner = attractors.integrate
    made = []

    def counted(rhs, t0, x0, t1, *args, **kwargs):
        made.append("backward" if t1 < t0 else "forward")
        return inner(rhs, t0, x0, t1, *args, **kwargs)

    monkeypatch.setattr(attractors, "integrate", counted)
    return made


@pytest.mark.parametrize("family, coefficients, chain", [
    ("allee-multiplicative-cubic", {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0},
     ("upper-attractive", "middle-repulsive", "lower-attractive")),
    ("concave-logistic-migration", {"r": 1.0, "I": 1.0}, ("attractive", "repulsive")),
])
def test_attractive_read_makes_no_repulsive_run(runs, family, coefficients, chain):
    ls = limit_hyperbolic_solutions(make_model(family, coefficients), 0.0, WINDOW)
    first = ls[chain[0]]
    forward = len(runs)
    assert forward >= 2 and runs == ["forward"] * forward
    assert ls.complete
    assert "backward" in runs[forward:]
    made = len(runs)
    # the chain keeps its order, and the repulsive phase runs once
    assert ls.roles == chain
    assert ls[chain[0]] is first and ls.estimates[chain[0]] is first
    assert ls.notes == [] and len(runs) == made


def test_every_forward_burn_in_run_stops_after_the_window(monkeypatch, cubic):
    # nothing reads a held attractive estimate past the window; the middle
    # seed carries the pair on in runs of its own, and a held run carried
    # on to its end gives the uninterrupted run's remaining nodes
    import tiplab.attractors as attractors

    inner = attractors.integrate
    made = []

    def recorded(rhs, t0, x0, t1, *args, **kwargs):
        traj = inner(rhs, t0, x0, t1, *args, **kwargs)
        made.append((t0 < t1, kwargs.get("stop_after"), traj))
        return traj

    monkeypatch.setattr(attractors, "integrate", recorded)
    ls = limit_hyperbolic_solutions(cubic, 0.0, WINDOW)
    w1, end = WINDOW[1], WINDOW[1] + 2.0 * DEFAULT_NUMERICS.burn_in
    forward = [(stop, traj) for ahead, stop, traj in made if ahead]
    assert len(forward) >= 4 and all(stop == w1 for stop, _ in forward)
    assert all(traj.t[-2] <= w1 < traj.t[-1] for _, traj in forward)
    assert ls.complete
    for role in ("upper-attractive", "lower-attractive"):
        held = ls[role].trajectory
        assert held.t[-2] <= w1 < held.t[-1]
        full = inner(cubic.frozen_rhs(0.0), held.t[0], held.x[0], end)
        rest = held.continued(end)
        n = len(held.t)
        assert held.t.tobytes() == full.t[:n].tobytes()
        assert rest.t.tobytes() == full.t[n - 1:].tobytes()
        assert rest.x.tobytes() == full.x[n - 1:].tobytes()


def test_the_middle_seed_continues_the_pair_past_its_reach(monkeypatch, cubic):
    # burn-in 1 600 puts the middle seed point past the pair's reach
    # w1 + 2*burn_in; the pending phase continues the pair there and makes
    # only the backward middle runs, no forward run from w0 - B
    import tiplab.attractors as attractors

    inner = attractors.integrate
    made = []

    def recorded(rhs, t0, x0, t1, *args, **kwargs):
        made.append((t0, t1))
        return inner(rhs, t0, x0, t1, *args, **kwargs)

    monkeypatch.setattr(attractors, "integrate", recorded)
    w0, w1 = window = (-30.0, 30.0)
    ls = limit_hyperbolic_solutions(cubic, NEAR_FOLD[0], window)
    held = len(made)
    assert ls.complete and ls["middle-repulsive"].burn_in == 1600.0
    assert made[held:] == [(w1 + b, w0) for b in (200.0, 400.0, 800.0, 1600.0)]


def test_an_unread_limit_set_is_freed_by_reference_counting(cubic):
    gc.disable()
    try:
        ls = limit_hyperbolic_solutions(cubic, 0.0, WINDOW)
        ls["upper-attractive"]
        ref = weakref.ref(ls)
        del ls
        assert ref() is None
    finally:
        gc.enable()


def test_a_burn_in_run_starts_with_the_earlier_runs_of_its_role_freed(monkeypatch, cubic):
    # the doubling keeps the previous run's window values, not the run; near
    # the fold the middle role takes five runs
    import tiplab.attractors as attractors

    inner_certified, inner_integrate = attractors._certified_run, attractors.integrate
    role_runs = []     # weak references to the runs of the role being certified
    alive = []         # per run: the earlier runs of its role alive at its start

    def certified(*args):
        role_runs.clear()
        return inner_certified(*args)

    def recorded(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in role_runs))
        traj = inner_integrate(*args, **kwargs)
        role_runs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(attractors, "_certified_run", certified)
    monkeypatch.setattr(attractors, "integrate", recorded)
    ls = limit_hyperbolic_solutions(cubic, NEAR_FOLD[0], (-30.0, 30.0))
    assert ls.complete and ls["middle-repulsive"].burn_in == 1600.0
    assert len(alive) >= 9 and alive == [0] * len(alive)


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
