"""Pinned bits of ``limit_hyperbolic_solutions``.

Six frozen equations on the window (-30, 30) reach every branch of the
limit-set assembly: the complete d-concave and concave structures, a single
attractive estimate (one burn-in does not converge), colliding attractive
estimates, escape of both concave runs and a step-size underflow. For each,
the sorted roles, ``complete``, ``separation``, the number of notes and, per
estimate, the burn-in, the convergence gap and the values at t = -30, 0, 30
are pinned with ``float.hex``. The note texts are not pinned.
"""

import pytest

from tiplab.attractors import limit_hyperbolic_solutions
from tiplab.models import make_model

WINDOW = (-30.0, 30.0)
TIMES = (-30.0, 0.0, 30.0)
CUBIC = ("allee-multiplicative-cubic", {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0})

# name: ((family, coefficients), gamma)
CASES = {
    "cubic-0": (CUBIC, 0.0),
    "cubic-0.3849": (CUBIC, 0.3849),
    "cubic-0.6": (CUBIC, 0.6),
    "logistic-I=1": (("concave-logistic-migration", {"r": 1.0, "I": 1.0}), 0.0),
    "logistic-I=-0.5": (("concave-logistic-migration", {"r": 1.0, "I": -0.5}), 0.0),
    "gompertz-0.5": (("gompertz", {"r": 1.0, "K": 10.0}), 0.5),
}

# estimates: role -> (burn_in, convergence_gap.hex(), values at TIMES as hex)
PINS = {
    "cubic-0": {
        "roles": ["lower-attractive", "middle-repulsive", "upper-attractive"],
        "complete": True, "separation": "0x1.000000002321bp+0", "notes": 0,
        "estimates": {
            "lower-attractive": (400.0, "0x1.92a8400000000p-34", (
                "-0x1.000000003cb72p+0", "-0x1.000000006a6a1p+0", "-0x1.00000000605bbp+0")),
            "middle-repulsive": (400.0, "0x1.9661886bbbac8p-40", (
                "0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
            "upper-attractive": (400.0, "0x1.92aa000000000p-34", (
                "0x1.000000003cb71p+0", "0x1.000000006a6a1p+0", "0x1.00000000605bap+0")),
        },
    },
    "cubic-0.3849": {
        "roles": ["attractive"], "complete": False, "separation": None, "notes": 2,
        "estimates": {
            "attractive": (400.0, "0x1.b725800000000p-34", (
                "0x1.279a73585ad81p+0", "0x1.279a7358568a0p+0", "0x1.279a73584d235p+0")),
        },
    },
    "cubic-0.6": {
        "roles": ["attractive"], "complete": False, "separation": None, "notes": 1,
        "estimates": {
            "attractive": (400.0, "0x1.83a1000000000p-34", (
                "0x1.38a058955bf7cp+0", "0x1.38a058959e13bp+0", "0x1.38a058954ff27p+0")),
        },
    },
    "logistic-I=1": {
        "roles": ["attractive", "repulsive"],
        "complete": True, "separation": "0x1.0000000020eb2p+1", "notes": 0,
        "estimates": {
            "attractive": (400.0, "0x1.3f8f800000000p-34", (
                "0x1.000000003812ep+0", "0x1.0000000061cfbp+0", "0x1.000000004fc4bp+0")),
            "repulsive": (400.0, "0x1.5191c00000000p-34", (
                "-0x1.0000000009c36p+0", "-0x1.000000005d6e2p+0", "-0x1.0000000035aa6p+0")),
        },
    },
    "logistic-I=-0.5": {
        "roles": [], "complete": False, "separation": None, "notes": 2,
        "estimates": {},
    },
    "gompertz-0.5": {
        "roles": ["attractive"], "complete": False, "separation": None, "notes": 1,
        "estimates": {
            "attractive": (400.0, "0x1.4468000000000p-30", (
                "0x1.4f9fe6779f758p+3", "0x1.4f9fe677d7b93p+3", "0x1.4f9fe6777738dp+3")),
        },
    },
}


@pytest.mark.parametrize("name", list(CASES))
def test_limit_set_bits(name):
    (family, coefficients), gamma = CASES[name]
    ls = limit_hyperbolic_solutions(make_model(family, coefficients), gamma, WINDOW)
    pin = PINS[name]
    assert sorted(ls.roles) == pin["roles"]
    assert ls.complete is pin["complete"]
    sep = None if ls.separation is None else ls.separation.hex()
    assert sep == pin["separation"]
    assert len(ls.notes) == pin["notes"]
    for role, (burn_in, gap, values) in pin["estimates"].items():
        est = ls[role]
        assert est.role == role
        assert est.burn_in == burn_in
        assert est.convergence_gap.hex() == gap
        assert tuple(est(t).hex() for t in TIMES) == values
