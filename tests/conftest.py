"""Shared fixtures: the study models and their transition profiles.

The expensive d-concave and Holling fixtures are session-scoped so the
classification, warning and acceptance modules reuse one instance.
"""

import json
import math

import numpy as np
import pytest

from tiplab import cli
from tiplab.attractors import ANCHOR_DELTA, DEFAULT_NUMERICS
from tiplab.classify import lambda_star
from tiplab.integrator import integrate
from tiplab.models import make_model
from tiplab.transitions import make_profile

SQ5 = math.sqrt(5.0)


def cubic_roots(gamma: float) -> np.ndarray:
    """The real roots of x^3 - x - gamma, ascending: the constant hyperbolic
    solutions of the cubic fixture's frozen equation x' = x - x^3 + gamma,
    an oracle that uses neither the integrator nor the burn-in."""
    roots = np.roots([1.0, 0.0, -1.0, -gamma])
    return np.sort(roots[roots.imag == 0.0].real)


def check_anchor_insensitivity(model, mechanism, solution, num=DEFAULT_NUMERICS) -> float:
    """Re-run the pullback integration from the anchor value moved by
    +-ANCHOR_DELTA and report the largest deviation from the solution at the
    half horizon."""
    H = solution.horizon
    rhs = model.transition_rhs(mechanism)
    backward = solution.trajectory.direction == "backward"
    t_from = H if backward else -H
    t_probe = 0.5 * H if backward else -0.5 * H
    base = solution(t_probe)
    worst = 0.0
    for sgn in (1.0, -1.0):
        x0 = solution.anchor(t_from) + sgn * ANCHOR_DELTA
        traj = integrate(rhs, t_from, x0, t_probe, num.integrator)
        worst = max(worst, abs(traj(t_probe) - base))
    return worst


def run_cli(tmp_path, subcommand, config, *extra, out_name="out"):
    """Write config to tmp_path and run the CLI subcommand on it with the
    extra arguments; returns the exit code and the output directory."""
    cfg_path = tmp_path / f"{subcommand}.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / out_name
    return cli.main([subcommand, "--config", str(cfg_path), "--out", str(out), *extra]), out


# one line per criterion, echoed after the run so the acceptance suite
# doubles as a checklist even under captured stdout
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def num():
    return DEFAULT_NUMERICS


@pytest.fixture(scope="session")
def cubic():
    # x' = x - x^3 + gamma: saddle-nodes at gamma = -+2/(3*sqrt(3))
    return make_model("allee-multiplicative-cubic",
                      {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0})


@pytest.fixture(scope="session")
def dmodel():
    return make_model("allee-multiplicative-rational", {
        "r":   {"kind": "sin2", "offset": 1.5,  "amplitude": 1.0,  "omega": 0.25},
        "K":   {"kind": "sin2", "offset": 40.0, "amplitude": 40.0, "omega": SQ5 / 16},
        "mu":  {"kind": "sin2", "offset": 30.0, "amplitude": 30.0, "omega": 0.25},
        "nu":  {"kind": "sin2", "offset": 40.0, "amplitude": 40.0, "omega": SQ5 / 16},
        "phi": {"kind": "sin2", "offset": 0.75, "amplitude": 0.5,  "omega": SQ5 / 2},
    })


@pytest.fixture(scope="session")
def dprof():
    return make_profile("cauchy-pulse", gamma_plus=1.5, gamma_star=0.8, b=0.02386)


@pytest.fixture(scope="session")
def hmodel():
    return make_model("holling-predation-linear-gamma", {
        "r": {"kind": "sin", "offset": 2.0, "amplitude": 1.0, "omega": 1.0},
        "K": {"kind": "sin2", "offset": 90.0, "amplitude": 18.0, "omega": SQ5 / 2},
        "b": 10.0,
    })


@pytest.fixture(scope="session")
def hprof():
    return make_profile("rational-dip", amplitude=-550.0, width=1000.0)


@pytest.fixture(scope="session")
def cmodel():
    return make_model("concave-logistic-migration", {
        "r": 1.0,
        "I": {"kind": "sum", "offset": 0.895, "terms": [
            {"kind": "sin", "amplitude": -1.0, "omega": 0.5},
            {"kind": "sin", "amplitude": -1.0, "omega": SQ5},
        ]},
    })


@pytest.fixture(scope="session")
def gam():
    return make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0)


# criterion 6's (c, s) cells
LAMBDA_STAR_CELLS = [(0.25, 0.0), (0.74, 0.0), (0.495, 0.0), (1.0, -5.0), (1.0, 2.5), (1.0, 10.0)]


@pytest.fixture(scope="session")
def lambda_star_map(cmodel, gam):
    """lambda_star of the concave study model at each of criterion 6's
    cells, at its default bracket and tolerance; criterion 6 and the
    spectral oracle read the same results."""
    return {cell: lambda_star(cmodel, gam, *cell) for cell in LAMBDA_STAR_CELLS}
