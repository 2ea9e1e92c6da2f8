"""An independent integrator as oracle for the DP54 integrator.

scipy's DOP853 at rtol 1e-12 / atol 1e-14 solves the frozen and the
transition right-hand side of every study model, forward and backward, and
its dense output is compared with ``integrate`` at each accepted node and at
each midpoint between nodes (where ``integrate`` answers by cubic Hermite
interpolation). scipy is a test-only dependency.

Backward runs start between the attractors, where backward time pulls them
toward the repulsive solution; a start elsewhere escapes backward and the
comparison would measure the escape, not the integrator.
"""

import numpy as np
import pytest

from tiplab.integrator import integrate
from tiplab.transitions import (
    ConstantRate,
    TimeDependentPhase,
    TimeDependentRate,
    make_profile,
)

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

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
