"""Limit sets are computed once per model.

A model keeps its tilted copies (up to models._TILTS_HELD of them) and, per
Numerics, the limit sets of its frozen equations, so the lambda* map and
every other entry point share them. Neither store refers back to the model,
so dropping the model frees them without the cyclic collector.
"""

import gc
import importlib
import math
import weakref

import pytest

from conftest import SQ5
from tiplab.attractors import Numerics
from tiplab.classify import LimitCache, classify, lambda_star
from tiplab.models import _TILTS_HELD, make_model
from tiplab.transitions import ConstantRate, make_profile

CONCAVE = ("concave-logistic-migration", {
    "r": 1.0,
    "I": {"kind": "sum", "offset": 0.895, "terms": [
        {"kind": "sin", "amplitude": -1.0, "omega": 0.5},
        {"kind": "sin", "amplitude": -1.0, "omega": SQ5},
    ]},
})
CUBIC = ("allee-multiplicative-cubic", {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0})
PULSE = make_profile("cauchy-pulse", gamma_plus=0.0, gamma_star=-0.6, b=0.05)
SHORT = Numerics(horizon=30.0, burn_in=30.0)
# the module; tiplab.classify is the function the package re-exports
CLASSIFY = importlib.import_module("tiplab.classify")


@pytest.fixture
def limit_calls(monkeypatch):
    """Counts the limit sets LimitCache computes."""
    calls = []
    inner = CLASSIFY.limit_hyperbolic_solutions

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(CLASSIFY, "limit_hyperbolic_solutions", counted)
    return calls


def test_lambda_star_cells_share_the_tilted_limit_sets(limit_calls):
    # both cells visit the tilts 0.3, -0.3 and 0 of one model: three limit
    # sets in all, where a fresh cache per visit computed six
    gam = make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0)
    cells = [(0.25, 0.0), (1.0, 2.5)]

    def run(model, order):
        return {cell: lambda_star(model, gam, *cell, bracket=(-0.3, 0.3), tol=0.4)
                for cell in order}

    # on each fresh model the first cell runs cold and the second warm
    forward = run(make_model(*CONCAVE), cells)
    assert len(limit_calls) == 3
    backward = run(make_model(*CONCAVE), cells[::-1])
    assert len(limit_calls) == 6
    assert forward == backward
    assert forward[(0.25, 0.0)].value < 0.0 < forward[(1.0, 2.5)].value


def test_tilted_copies_are_kept_per_exact_tilt():
    model = make_model(*CUBIC)
    assert model.tilted(0.3) is model.tilted(0.3)
    # the tilt is part of the rhs, so 0.0 and -0.0 are different models
    plus, minus = model.tilted(0.0), model.tilted(-0.0)
    assert plus is not minus
    assert math.copysign(1.0, plus.tilt) == 1.0 and math.copysign(1.0, minus.tilt) == -1.0
    assert model.tilted(0.3).limit_sets(SHORT) is not model.limit_sets(SHORT)


def test_tilts_beyond_the_bound_are_not_kept():
    model = make_model(*CUBIC)
    kept = [model.tilted(0.01 * i) for i in range(_TILTS_HELD)]
    extra = model.tilted(0.5)
    assert extra.tilt == 0.5 and model.tilted(0.5) is not extra
    assert all(model.tilted(0.01 * i) is m for i, m in enumerate(kept))


def test_numerics_do_not_share_limit_sets(limit_calls):
    model = make_model(*CUBIC)
    other = Numerics(horizon=30.0, burn_in=30.0, conv_tol=1.0e-8)
    assert model.limit_sets(SHORT) is model.limit_sets(Numerics(horizon=30.0, burn_in=30.0))
    assert model.limit_sets(SHORT) is not model.limit_sets(other)
    mech = ConstantRate(PULSE, 5.0)
    labels = [classify(model, mech, num) for num in (SHORT, other, SHORT, other)]
    # past and future share gamma = 0, so one set per numerics
    assert limit_calls == [0.0, 0.0]
    assert len({lab.label for lab in labels}) == 1


def test_dropping_a_model_frees_its_limit_sets():
    gc.disable()
    try:
        model = make_model(*CUBIC)
        classify(model, ConstantRate(PULSE, 5.0), SHORT)
        tilted = model.tilted(0.1)
        LimitCache(tilted, SHORT).get(0.0, 30.0)
        refs = [weakref.ref(obj) for obj in (
            model, tilted, *model.limit_sets(SHORT).values(),
            *tilted.limit_sets(SHORT).values())]
        assert len(refs) == 4
        del model, tilted
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()
