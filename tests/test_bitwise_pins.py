"""Pinned bits: CLI result files and the bisection call sites that the
benchmark's reference answers do not reach.

Each subcommand runs one small config; every result file but manifest.json
(which holds wall times and the environment) must be byte-equal to the
golden copy under tests/golden/<subcommand>/. The float.hex pins cover the
bistability edges, the crossover time, the warning point s1 and warning
times at non-default refinement tolerances.

No config uses a ``sum`` coefficient: Python 3.12's compensated ``sum()``
changes its bits. To rewrite the goldens after an intended change of the
numbers, run ``PYTHONPATH=src python tests/test_bitwise_pins.py``.
"""

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from tiplab import cli
from tiplab.attractors import DEFAULT_NUMERICS, pullback_attractive
from tiplab.classify import LimitCache, gamma_interval, resolve_horizon
from tiplab.ews import (
    EwsConfig,
    crossover_time,
    ftle_series,
    safe_no_return,
    warning_time,
)
from tiplab.models import make_model
from tiplab.transitions import ConstantRate, make_profile

GOLDEN = Path(__file__).parent / "golden"
NUM = DEFAULT_NUMERICS

CUBIC = {"family": "allee-multiplicative-cubic",
         "coefficients": {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0}}
# one coefficient of each kind but sum; K's arctan has no center
HOLLING2 = {"family": "allee-holling2", "coefficients": {
    "r": {"kind": "sigmoid-blend", "left": 1.0, "right": 1.5, "rate": 0.2, "center": 2.0},
    "K": {"kind": "arctan", "offset": 10.0, "amplitude": 1.0, "scale": 0.3},
    "a": {"kind": "rational-dip", "offset": 2.0, "amplitude": -3.0, "width": 10.0},
    "b": {"kind": "sin2", "offset": 1.0, "amplitude": 0.5, "omega": 0.3},
    "phi": {"kind": "sin", "offset": 1.0, "amplitude": 0.2, "omega": 0.7}}}
PULSE = {"kind": "cauchy-pulse", "gamma_plus": 0.0, "gamma_star": -0.6, "b": 0.05}
RATE = {"kind": "arctan", "offset": 3.0, "amplitude": -1.0 / math.pi, "scale": 0.1}

CONFIGS = {
    "simulate": {
        "model": HOLLING2,
        "mechanism": {"kind": "time-dependent-phase", "c": 0.8, "d": 0.2,
                      "convention": "plus",
                      "profile": {"kind": "arctan-ramp", "offset": 0.5,
                                  "amplitude": 0.3, "scale": 0.5},
                      "delta": {"kind": "sigmoid-blend", "left": -0.5,
                                "right": 1.0, "rate": 0.3}},
        "experiment": {"t_start": -20.0, "x0": 5.0, "t_end": 20.0},
    },
    "attractors": {
        "model": HOLLING2,
        "mechanism": {"kind": "constant-rate", "c": 5.0,
                      "profile": {"kind": "sigmoid-blend", "left": -0.5,
                                  "right": 0.3, "rate": 0.3}},
        "numerics": {"horizon": 30.0, "burn_in": 30.0},
        "experiment": {"window": [-20.0, 20.0]},
    },
    "classify": {
        "model": CUBIC,
        "mechanism": {"kind": "phase", "profile": PULSE, "c": 5.0, "offset": 1.5},
    },
    "critical-rate": {
        "model": CUBIC,
        "mechanism": {"kind": "constant-rate", "profile": PULSE},
        "experiment": {"lower": 0.05, "upper": 5.0, "tol": 0.05},
    },
    "lyapunov": {
        "model": CUBIC,
        "numerics": {"horizon": 100.0, "burn_in": 50.0},
        "experiment": {"gamma": 0.1, "window_length": 100.0},
    },
    "ftle": {
        "model": CUBIC,
        "mechanism": {"kind": "constant-rate", "profile": PULSE, "c": 0.05},
        "experiment": {"T": 10.0, "kappa": 0.5, "L": -2.0,
                       "t_min": -150.0, "t_max": 50.0},
    },
    "ews-region": {
        "model": CUBIC,
        "mechanism": {"kind": "constant-rate", "profile": PULSE},
        "experiment": {"kappas": [0.3, 0.6], "cs": [0.05, 5.0], "T": 10.0,
                       "L": -2.0, "search": [-50.0, 50.0]},
    },
    "bifurcation-map": {
        "model": {"family": "concave-logistic-migration", "coefficients": {
            "r": 1.0,
            "I": {"kind": "sin", "offset": 0.895, "amplitude": -1.0, "omega": 0.5}}},
        "mechanism": {"profile": {"kind": "arctan", "amplitude": 2.0 / math.pi,
                                  "scale": 1.0}},
        "experiment": {"cs": [1.0], "ss": [0.0], "bracket": [-0.6, 0.6], "tol": 0.4},
    },
    "safe-points": {
        "model": CUBIC,
        "mechanism": {"kind": "time-dependent-rate", "profile": PULSE, "delta": RATE},
        "experiment": {"c0": 2.9, "t0": 0.0, "grid": [-5.0, 0.0, 5.0]},
    },
    "reaction-region": {
        "model": CUBIC,
        "mechanism": {"kind": "time-dependent-rate", "profile": PULSE,
                      "delta": {"kind": "sigmoid-blend", "left": 0.05,
                                "right": 0.05, "rate": 0.05}},
        "experiment": {"rs": [0.0, 3.0], "kappas": [0.3, 0.6], "b": 1.0,
                       "T": 10.0, "L": -2.0},
    },
}


def run_subcommand(subcommand: str, workdir: Path) -> tuple[int, Path]:
    cfg_path = workdir / f"{subcommand}.json"
    cfg_path.write_text(json.dumps(CONFIGS[subcommand]))
    out = workdir / subcommand
    rc = cli.main([subcommand, "--config", str(cfg_path), "--out", str(out)])
    return rc, out


def result_files(out: Path) -> list[str]:
    return sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
def test_cli_result_files_match_goldens(subcommand, tmp_path):
    rc, out = run_subcommand(subcommand, tmp_path)
    assert rc == 0
    want = GOLDEN / subcommand
    assert result_files(out) == result_files(want)
    for name in result_files(out):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


# ---------------------------------------------------------------------------
# float.hex pins
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cubic():
    return make_model(CUBIC["family"], CUBIC["coefficients"])


@pytest.fixture(scope="module")
def slow_run(cubic):
    """The tipping pulse at c = 0.05: future limits and the upper pullback
    attractive solution."""
    mech = ConstantRate(make_profile(**PULSE), 0.05)
    H = resolve_horizon(mech, NUM)
    cache = LimitCache(cubic, NUM)
    past = cache.get(mech.gamma_minus, H)
    u = pullback_attractive(cubic, mech, past["upper-attractive"], H, NUM)
    return mech, cache.get(mech.gamma_plus, H), u


def test_gamma_interval_edges_are_pinned(cubic):
    res = gamma_interval(cubic, (-1.0, 1.0), 1.0e-3, NUM, window=(-30.0, 30.0))
    assert [v.hex() for v in res.lower] == ["-0x1.8aaaaaaaaaaabp-2", "-0x1.8a00000000000p-2"]
    assert [v.hex() for v in res.upper] == ["0x1.89fffffffffffp-2", "0x1.8aaaaaaaaaaaap-2"]
    assert res.evaluations == 26


def test_crossover_time_is_pinned(slow_run):
    _, future, u = slow_run
    assert float(crossover_time(u, future)).hex() == "0x1.10a8e22600000p+10"


def test_warning_times_are_pinned(cubic, slow_run):
    mech, _, u = slow_run
    series = ftle_series(cubic, mech, u, 10.0, NUM)
    cfg = EwsConfig(0.5, -2.0)
    assert warning_time(series, cfg, refine_tol=0.25).hex() == "-0x1.70cccccccccc0p+6"
    assert warning_time(series, cfg, refine_tol=1.0e-6).hex() == "-0x1.711b85cccccc6p+6"


@pytest.mark.parametrize("d, s1_hex", [(1.0, "0x1.9fe5afa2666a7p+1"),
                                       (0.5, "0x1.9fe5afa200000p+2")])
def test_warning_point_is_pinned(cubic, d, s1_hex):
    report = safe_no_return(cubic, make_profile(**PULSE), make_profile(**RATE),
                            2.9, 0.0, [0.0], d=d, num=NUM)
    assert float(report.s1).hex() == s1_hex


if __name__ == "__main__":
    # rewrite the goldens from the current source
    scratch = GOLDEN.parent / "_golden_run"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        for sub in sorted(CONFIGS):
            rc, out = run_subcommand(sub, scratch)
            if rc != 0:
                sys.exit(f"{sub} exited with {rc}")
            shutil.rmtree(GOLDEN / sub, ignore_errors=True)
            (GOLDEN / sub).mkdir(parents=True)
            for name in result_files(out):
                shutil.copyfile(out / name, GOLDEN / sub / name)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
