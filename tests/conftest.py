"""Shared fixtures: the study models and their transition profiles.

The expensive d-concave and Holling fixtures are session-scoped so the
classification, warning and acceptance modules reuse one instance.
"""

import math

import numpy as np
import pytest

from tiplab.attractors import ANCHOR_DELTA, DEFAULT_NUMERICS
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
