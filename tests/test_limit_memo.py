"""Limit sets are computed once per model.

A model keeps its tilted copies (up to models._TILTS_HELD of them) and, per
Numerics, the limit sets of its frozen equations, so the lambda* map and
every other entry point share them. A translation-invariant model keeps
only its gamma = 0 sets and shifts them on each read. Each stored set
holds its estimates over its window only, and reads there as the full
set does, bit for bit. Neither store refers back to the model, so
dropping the model frees them without the cyclic collector.
"""

import gc
import importlib
import math
import weakref

import numpy as np
import pytest

from conftest import SQ5
from tiplab.attractors import (
    AttractorError,
    Numerics,
    WINDOW_SAMPLES,
    limit_hyperbolic_solutions,
)
from tiplab.classify import LimitCache, classify, lambda_star
from tiplab.models import _TILTS_HELD, make_model
from tiplab.transitions import ConstantRate, Phase, make_profile

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
    # the untilted label decides one end of each cell: the negative cell
    # (0.25, 0) visits the tilts 0 and -0.3, the positive one (1, 2.5) 0 and
    # 0.3, of one model: three limit sets in all, where a fresh cache per
    # visit would compute four
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


def test_an_incomplete_set_names_the_gamma_asked_for(limit_calls):
    # tilted by -1 the concave field has no bounded solution: the shifted
    # copies of the incomplete base set raise at their own gamma
    cache = LimitCache(make_model(*CONCAVE).tilted(-1.0), SHORT)
    for gamma in (1.0, -1.0, 0.0, 1.0):
        with pytest.raises(AttractorError,
                           match=rf"^incomplete hyperbolic structure at gamma={gamma}: "):
            cache.get(gamma, 30.0)
    assert limit_calls == [0.0]


def test_a_translation_invariant_model_keeps_only_its_base_sets(limit_calls):
    model = make_model(*CONCAVE)
    mech = Phase(make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0), 1.0, 0.0)
    assert (mech.gamma_minus, mech.gamma_plus) == (-1.0, 1.0)
    classify(model, mech, SHORT, horizon=30.0)
    assert list(model.limit_sets(SHORT)) == [(0.0, 30.0)] and limit_calls == [0.0]
    # each read shifts the base anew, bit for bit the same; t and f are shared
    base = model.limit_sets(SHORT)[(0.0, 30.0)]
    cache = LimitCache(model, SHORT)
    first, second = cache.get(1.0, 30.0), cache.get(1.0, 30.0)
    assert first is not second and first.roles == base.roles == ("attractive", "repulsive")
    for role in base.roles:
        x = (base[role].trajectory.x + 1.0).tobytes()
        assert first[role].trajectory.x.tobytes() == second[role].trajectory.x.tobytes() == x
        assert first[role].trajectory.t is base[role].trajectory.t
    assert list(model.limit_sets(SHORT)) == [(0.0, 30.0)] and limit_calls == [0.0]


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


def _held_floats(a) -> int:
    """The number of floats in the buffer that a holds."""
    while a.base is not None:
        a = a.base
    return memoryview(a).nbytes // 8


@pytest.mark.parametrize("spec, gamma", [(CUBIC, 0.2), (CONCAVE, 1.0)])
def test_the_store_holds_each_set_over_its_window_only(spec, gamma):
    # the concave model is translation invariant: its set at gamma = 1 is
    # the stored base shifted, so the full set it is held to is shifted too
    model, H = make_model(*spec), 30.0
    assert model.translation_invariant == (spec is CONCAVE)
    if model.translation_invariant:
        full = limit_hyperbolic_solutions(model, 0.0, (-H, H), SHORT).shifted(gamma)
    else:
        full = limit_hyperbolic_solutions(model, gamma, (-H, H), SHORT)
    held = LimitCache(model, SHORT).get(gamma, H)
    assert held.roles == full.roles and len(held.roles) == (3 if spec is CUBIC else 2)
    times = np.concatenate(([-H, H], np.linspace(-H, H, WINDOW_SAMPLES)))
    for role in full.roles:
        whole, kept = full[role].trajectory, held[role].trajectory
        # from the last node at or before -H to the first at or after +H
        first = int(np.nonzero(whole.t <= -H)[0][-1])
        last = int(np.nonzero(whole.t >= H)[0][0])
        assert len(kept.t) == last - first + 1 < len(whole.t)
        for name in ("t", "x", "f"):
            a = getattr(kept, name)
            assert a.tobytes() == getattr(whole, name)[first:last + 1].tobytes()
            assert _held_floats(a) == a.size
        assert held[role].eval_array(times).tobytes() == full[role].eval_array(times).tobytes()
        assert [held[role](t) for t in (-H, H)] == [full[role](t) for t in (-H, H)]
