"""Acceptance runs: every numbered criterion of the project checklist.

Each test evaluates one criterion at its stated tolerance and records a
single PASS/FAIL line (echoed in the terminal summary by conftest), so a
full run doubles as the release checklist. Expensive intermediate results
(Lyapunov exponents, critical-rate brackets) are computed once and shared
through a module-level store in file order.
"""

import json
import math
import time
import types

import numpy as np
import pytest

import conftest

from tiplab import cli
from tiplab.attractors import (
    DEFAULT_NUMERICS,
    PullbackSolution,
    check_anchor_insensitivity,
    estimate_lyapunov,
    limit_hyperbolic_solutions,
    pullback_attractive,
)
from tiplab.classify import (
    LimitCache,
    classify,
    critical_value,
    lambda_star,
    resolve_horizon,
    switching_classify,
)
from tiplab.ews import (
    EwsConfig,
    FtleSeries,
    crossover_time,
    ftle_series,
    reaction_region,
    safe_no_return,
    warning_time,
)
from tiplab.integrator import integrate
from tiplab.models import make_model
from tiplab.transitions import (
    ConstantRate,
    Phase,
    TimeDependentPhase,
    TimeDependentRate,
    make_profile,
)

pytestmark = pytest.mark.acceptance

NUM = DEFAULT_NUMERICS
SHARED: dict = {}


def record(number, description, checks):
    """checks: list of (ok, detail); one summary line per criterion."""
    ok = all(c[0] for c in checks)
    details = "; ".join(d for _, d in checks)
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}"
    if details:
        line += f" [{details}]"
    conftest.CRITERION_LINES.append(line)
    assert ok, line


def mark(ok, detail):
    return ok, ("" if ok else "FAIL: ") + detail


def dconcave_lyapunov(dmodel):
    if "dL" not in SHARED:
        ls = limit_hyperbolic_solutions(dmodel, 1.5, (-1100.0, 1100.0), NUM)
        SHARED["dL"] = estimate_lyapunov(dmodel, 1.5, ls["upper-attractive"],
                                         2000.0, NUM)
    return SHARED["dL"]


def dconcave_bracket(dmodel, dprof):
    if "dcrit" not in SHARED:
        SHARED["dcrit"] = critical_value(
            dmodel, lambda c: ConstantRate(dprof, c), 0.5, 2.0, 1.0e-6, NUM)
    return SHARED["dcrit"]


# ---------------------------------------------------------------------------

def test_criterion_1_lyapunov_exponent(dmodel):
    t0 = time.perf_counter()
    est = dconcave_lyapunov(dmodel)
    elapsed = time.perf_counter() - t0
    record(1, "Lyapunov exponent of the d-concave upper attractor", [
        mark(abs(est.value - (-0.4134)) <= 5e-3,
             f"L={est.value:.6f} vs -0.4134 +- 0.005"),
        mark(est.window >= 2000.0, f"window span {est.window}"),
        mark(elapsed < 60.0, f"runtime {elapsed:.1f}s < 60s"),
    ])


def test_criterion_2_critical_rate_bracket(dmodel, dprof):
    res = dconcave_bracket(dmodel, dprof)
    record(2, "critical rate of the d-concave family", [
        mark(res.width <= 1.0e-6 + 1e-12, f"width {res.width:.3g}"),
        mark(abs(res.midpoint - 0.9999993) <= 1.0e-3,
             f"midpoint {res.midpoint:.9f} within 1e-3 of 0.9999993"),
        mark(abs(res.midpoint - 0.999999267212) <= 1.0e-6,
             "6 leading digits"),
        mark((res.label_lower, res.label_upper) == ("C2", "A"),
             f"flip {res.label_lower}->{res.label_upper}"),
    ])


def test_criterion_3_case_table_and_warnings(dmodel, dprof):
    L = dconcave_lyapunov(dmodel).value
    cache = LimitCache(dmodel, NUM)
    checks = []
    for c, want in ((0.98, "C2"), (0.99, "C2"), (1.01, "A")):
        mech = ConstantRate(dprof, c)
        H = resolve_horizon(mech, NUM)
        past = cache.get(mech.gamma_minus, H)
        lab = classify(dmodel, mech, NUM, horizon=H)
        checks.append(mark(lab.label == want, f"c={c}: {lab.label}"))
        u = pullback_attractive(dmodel, mech, past["upper-attractive"], H, NUM)
        series = ftle_series(dmodel, mech, u, 50.0, NUM)
        wt = warning_time(series, EwsConfig(0.6, L))
        checks.append(mark(wt is not None, f"c={c}: finite warning {wt}"))
        if want == "C2":
            xo = crossover_time(u, cache.get(mech.gamma_plus, H), NUM)
            checks.append(mark(xo is not None and wt is not None and wt < xo,
                               f"c={c}: warning {wt} < crossover {xo}"))
    record(3, "case table with warnings before extinction", checks)


def test_criterion_4_window_study_near_critical(dmodel, dprof):
    L = dconcave_lyapunov(dmodel).value
    c_mid = dconcave_bracket(dmodel, dprof).midpoint
    mech = ConstantRate(dprof, c_mid)
    H = resolve_horizon(mech, NUM)
    past = LimitCache(dmodel, NUM).get(mech.gamma_minus, H)
    u = pullback_attractive(dmodel, mech, past["upper-attractive"], H, NUM)
    checks = []
    plateau = None
    for T in (25.0, 50.0, 75.0, 100.0):
        series = ftle_series(dmodel, mech, u, T, NUM)
        m = series.max_value
        if T < 100.0:
            checks.append(mark(m > 0.0, f"T={T:g}: max {m:+.4f} > 0"))
        else:
            checks.append(mark(m <= 0.0, f"T={T:g}: max {m:+.4f} <= 0"))
        if T == 50.0:
            plateau = float(series.restricted(-300.0, -150.0).values.mean())
    checks.append(mark(plateau is not None and abs(plateau - L) <= 0.02,
                       f"far-past plateau {plateau:+.4f} within 0.02 of L"))
    record(4, "FTLE window study at the re-derived critical rate", checks)


def test_criterion_5_holling_certificates(hmodel, hprof):
    res = critical_value(hmodel, lambda c: ConstantRate(hprof, c),
                         10.0, 30.0, 1.0e-4, NUM)
    SHARED["hcrit"] = res
    left = make_profile("rational-dip", offset=35.0, amplitude=-300.0,
                        width=10.0)
    right = make_profile("rational-dip", offset=30.0, amplitude=-36.75,
                         width=1.5)
    rep_l = safe_no_return(hmodel, hprof, left, res.midpoint, 0.0,
                           np.linspace(0.0, 5.0, 11), num=NUM)
    rep_r = safe_no_return(hmodel, hprof, right, res.midpoint, 0.0,
                           np.linspace(1.2, 5.0, 9), num=NUM)
    record(5, "predation model: critical rate and certificates", [
        mark(abs(res.midpoint - 19.6523) <= 1.0e-2,
             f"bracket midpoint {res.midpoint:.6f}"),
        mark(rep_l.s1 is not None and abs(rep_l.s1 - (-24.34)) <= 0.5,
             f"warning point s1={rep_l.s1}"),
        mark(rep_l.flags[0] == "no-return" and rep_l.conclusion == "tipping",
             f"left delta at t=0: {rep_l.flags[0]} ({rep_l.conclusion})"),
        mark(set(rep_r.flags) == {"safe"} and rep_r.conclusion == "tracking",
             f"right delta: {sorted(set(rep_r.flags))} ({rep_r.conclusion})"),
    ])


def test_criterion_6_bifurcation_map_signs(cmodel):
    gam = make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0)
    points = [(0.25, 0.0, -1), (0.74, 0.0, -1), (0.495, 0.0, +1),
              (1.0, -5.0, -1), (1.0, 2.5, +1), (1.0, 10.0, -1)]
    checks = []
    for c, s, sign in points:
        res = lambda_star(cmodel, gam, c, s, num=NUM)
        ok = (res.value < 0.0) if sign < 0 else (res.value > 0.0)
        checks.append(mark(ok, f"lambda*({c},{s})={res.value:+.5f} "
                               f"want {'<' if sign < 0 else '>'}0"))
    record(6, "concave bifurcation map signs", checks)


def test_criterion_7_rate_phase_switching(cmodel):
    gam = make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0)
    checks = []
    delta_r = make_profile("sigmoid-blend", left=0.25, right=0.74)
    for d, want in ((1.5, "C"), (3.0, "A")):
        lab = classify(cmodel, TimeDependentRate(gam, delta_r, d), NUM)
        checks.append(mark(lab.label == want,
                           f"rate d={d}: {lab.label} want {want}"))
    delta_p = make_profile("sigmoid-blend", left=-5.0, right=10.0)
    for d, want in ((0.095, "C"), (0.19, "A")):
        mech = TimeDependentPhase(gam, 1.0, delta_p, d=d, convention="minus")
        lab = classify(cmodel, mech, NUM)
        checks.append(mark(lab.label == want,
                           f"phase d={d}: {lab.label} want {want}"))
    sw_rate = switching_classify(cmodel, Phase(gam, 0.25, 0.0),
                                 Phase(gam, 0.74, 0.0), t0=0.0, num=NUM)
    checks.append(mark(
        sw_rate.label == "A"
        and sw_rate.evidence["a_at_t0"] > sw_rate.evidence["r_at_t0"],
        f"rate switch: a(0)={sw_rate.evidence['a_at_t0']:.4f} > "
        f"r(0)={sw_rate.evidence['r_at_t0']:.4f}"))
    sw_phase = switching_classify(cmodel, Phase(gam, 1.0, 5.0),
                                  Phase(gam, 1.0, -10.0), t0=0.0, num=NUM)
    checks.append(mark(
        sw_phase.label == "A"
        and sw_phase.evidence["a_at_t0"] > sw_phase.evidence["r_at_t0"],
        f"phase switch: a(0)={sw_phase.evidence['a_at_t0']:.4f} > "
        f"r(0)={sw_phase.evidence['r_at_t0']:.4f}"))
    record(7, "time-dependent rate, phase, and switching cases", checks)


def test_criterion_8_reaction_region(hmodel, hprof):
    if "hL" not in SHARED:
        ls = limit_hyperbolic_solutions(hmodel, 0.0, (-1100.0, 1100.0), NUM)
        SHARED["hL"] = estimate_lyapunov(hmodel, 0.0, ls["upper-attractive"],
                                         2000.0, NUM).value
    hL = SHARED["hL"]
    delta = make_profile("arctan", offset=19.5, amplitude=-1.0 / math.pi,
                         scale=0.1)
    rs = [0.5 * i for i in range(10)]
    kappas = [0.1 * j for j in range(10)]
    grid = reaction_region(hmodel, hprof, delta, rs, kappas, 1.0, 50.0, hL,
                           NUM)
    out = grid.outcomes
    unreacted_row_c2 = all(cell == "C2" for cell in out[0])
    monotone = all(
        out[i][j] != "A"
        or ((i + 1 == len(rs) or out[i + 1][j] == "A")
            and (j + 1 == len(kappas) or out[i][j + 1] == "A"))
        for i in range(len(rs)) for j in range(len(kappas)))
    big_a = out[-1][-1] == "A"
    record(8, "reaction region over (r, kappa)", [
        mark(unreacted_row_c2, "r=0 row all C2"),
        mark(monotone, "tracking set up-right monotone"),
        mark(big_a, f"large r, large kappa cell: {out[-1][-1]}"),
        mark(grid.notes == {}, f"{len(grid.notes)} failed cells"),
    ])


# ---------------------------------------------------------------------------
# criterion 9: compact deterministic versions of the randomized suites
# ---------------------------------------------------------------------------

def stencil_fx(f, t, x, g, h=1e-3):
    return (f(t, x - 2 * h, g) - 8 * f(t, x - h, g)
            + 8 * f(t, x + h, g) - f(t, x + 2 * h, g)) / (12 * h)


def derivative_worst(model, box, n, rng):
    (t0, t1), (x0, x1), (g0, g1) = box
    worst = 0.0
    for _ in range(n):
        t = rng.uniform(t0, t1)
        x = rng.uniform(x0, x1)
        g = rng.uniform(g0, g1)
        want = stencil_fx(model.f, t, x, g)
        err = abs(model.fx(t, x, g) - want) / max(1.0, abs(want))
        worst = max(worst, err)
    return worst


def test_criterion_9_property_suites(cubic, cmodel, hmodel, tmp_path):
    rng = np.random.default_rng(0)
    checks = []

    boxes = [(cubic, ((-50, 50), (-2, 2), (-0.6, 0.6))),
             (cmodel, ((-50, 50), (-3, 3), (-2, 2))),
             (hmodel, ((-20, 20), (1, 80), (0, 3)))]
    worst = max(derivative_worst(m, b, 40, rng) for m, b in boxes)
    checks.append(mark(worst <= 1e-6, f"derivative consistency {worst:.2e}"))

    pulse = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6,
                         b=0.05)
    order_ok = rhs_ok = True
    for _ in range(100):
        x1 = rng.uniform(-2.0, 2.0)
        gap = rng.uniform(1e-3, 1.0)
        c = rng.uniform(0.1, 5.0)
        rhs = cubic.transition_rhs(ConstantRate(pulse, c))
        lo = integrate(rhs, 0.0, x1, 2.0, NUM.integ)
        hi = integrate(rhs, 0.0, x1 + gap, 2.0, NUM.integ)
        order_ok &= hi(2.0) > lo(2.0) - 1e-9
        g1 = rng.uniform(-0.5, 0.5)
        g2 = g1 + rng.uniform(1e-3, 0.5)
        a = integrate(cubic.transition_rhs(
            ConstantRate(make_profile("constant", value=g1), 1.0)),
            0.0, x1, 2.0, NUM.integ)
        b = integrate(cubic.transition_rhs(
            ConstantRate(make_profile("constant", value=g2), 1.0)),
            0.0, x1, 2.0, NUM.integ)
        rhs_ok &= b(2.0) > a(2.0) - 1e-9
    checks.append(mark(order_ok, "order preservation, 100 draws"))
    checks.append(mark(rhs_ok, "rhs comparison, 100 draws"))

    dual_ok = True
    for _ in range(20):
        a_, b_ = rng.uniform(-1, 1), rng.uniform(0.05, 0.5)
        x0, T = rng.uniform(-1, 1), rng.uniform(1.0, 5.0)
        fwd = integrate(lambda t, x: a_ * math.cos(t) - b_ * x, 0.0, x0, T,
                        NUM.integ)
        back = integrate(lambda s, y: -(a_ * math.cos(-s) - b_ * y), -T,
                         fwd(T), 0.0, NUM.integ)
        dual_ok &= abs(back(0.0) - x0) < 1e-8
    checks.append(mark(dual_ok, "time-reversal duality"))

    mono_ok = True
    for _ in range(50):
        g1 = rng.uniform(-0.36, 0.3)
        g2 = g1 + rng.uniform(5e-3, min(0.2, 0.36 - g1))
        r1 = np.sort(np.roots([-1.0, 0.0, 1.0, g1]).real)
        r2 = np.sort(np.roots([-1.0, 0.0, 1.0, g2]).real)
        mono_ok &= r2[0] > r1[0] and r2[1] < r1[1] and r2[2] > r1[2]
    for g in (-0.2, 0.2):
        ls = limit_hyperbolic_solutions(cubic, g, (-60.0, 60.0), NUM)
        root = np.sort(np.roots([-1.0, 0.0, 1.0, g]).real)
        mono_ok &= abs(ls["upper-attractive"](0.0) - root[2]) < 1e-6
    checks.append(mark(mono_ok, "gamma-monotone hyperbolic estimates"))

    anchor_ok = True
    cache = LimitCache(cubic, NUM)
    for c in (1.0, 5.0):
        mech = ConstantRate(pulse, c)
        H = resolve_horizon(mech, NUM)
        sol = pullback_attractive(cubic, mech,
                                  cache.get(0.0, H)["upper-attractive"],
                                  H, NUM)
        anchor_ok &= check_anchor_insensitivity(cubic, mech, sol,
                                                NUM) < NUM.anchor_tol
    checks.append(mark(anchor_ok, "anchor insensitivity"))

    stub = types.SimpleNamespace(fx=lambda t, x, g: math.sin(t) + 0.3)
    zero = PullbackSolution(role="attractive",
                            trajectory=integrate(lambda t, x: 0.0,
                                                 -60.0, 0.0, 60.0),
                            anchor=None, horizon=60.0, band=(-1.0, 1.0))
    ser = ftle_series(stub, ConstantRate(make_profile("constant", value=0.0),
                                         1.0), zero, 10.0, NUM)
    exact = 0.3 + (np.cos(ser.t - 10.0) - np.cos(ser.t)) / 10.0
    ftle_err = float(np.abs(ser.values - exact).max())
    checks.append(mark(ftle_err < 1e-8, f"FTLE exactness {ftle_err:.2e}"))

    t = np.linspace(0.0, 10.0, 201)
    bump = FtleSeries("upper-attractive", 1.0, t,
                      -2.0 + 1.9 * np.exp(-((t - 5.0) ** 2)), 0.0)
    wts = [warning_time(bump, EwsConfig(k, -2.0))
           for k in (0.3, 0.5, 0.7, 0.9)]
    finite = [w for w in wts if w is not None]
    warn_ok = (all(b2 <= b1 + 2e-3 for b1, b2 in zip(finite, finite[1:]))
               and wts[-1] is not None)
    checks.append(mark(warn_ok, "warning time monotone in kappa"))

    cfg = {"model": {"family": "allee-multiplicative-cubic",
                     "coefficients": {"r": 1.0, "K": 1.0, "S": -1.0,
                                      "phi": 1.0}},
           "mechanism": {"kind": "constant-rate",
                         "profile": {"kind": "cauchy-pulse",
                                     "gamma_plus": 0.0, "gamma_star": -0.6,
                                     "b": 0.05},
                         "c": 5.0},
           "numerics": {}, "experiment": {}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc1 = cli.main(["classify", "--config", str(cfg_path),
                    "--out", str(tmp_path / "a")])
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    man_path = tmp_path / "manifest.json"
    man_path.write_text(json.dumps(manifest))
    rc2 = cli.main(["classify", "--config", str(man_path),
                    "--out", str(tmp_path / "b")])
    same = ((tmp_path / "a" / "case.json").read_bytes()
            == (tmp_path / "b" / "case.json").read_bytes())
    checks.append(mark(rc1 == rc2 == 0 and same, "manifest re-run identical"))

    record(9, "structural property suites", checks)
