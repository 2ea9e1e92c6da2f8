"""lambda_star against the plain search of tests/classify_reference.py.

The plain search classifies every tilt it asks: the upper end of the
bracket until it is A, the lower end until it is C, then each bisection
midpoint. lambda_star answers a tilt that an earlier label decides by
monotonicity, and classifies the first midpoint before either end, so that
its label decides one end. With monotone labels it must return the plain
result bit for bit from no more classify calls, and one fewer when neither
end moves and the bracket is wider than tol. A search whose upper end
gives up may make one call more: the early midpoint's label decided a
lower end that the plain search never reached. An error at that early
midpoint is raised only if the plain search asks it too.
"""

import importlib
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import classify_reference as ref
from tiplab.classify import CaseLabel, lambda_star
from tiplab.integrator import IntegrationError
from tiplab.models import CONCAVE
from tiplab.transitions import make_profile

# the module; tiplab.classify is the function the package re-exports
CLASSIFY = importlib.import_module("tiplab.classify")
RAMP = make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0)
# stands in for a concave model: classify below reads only its tilt
TILTABLE = SimpleNamespace(concavity=CONCAVE, tilted=lambda lam: SimpleNamespace(tilt=lam))


def _bits(res):
    return {k: v.hex() if isinstance(v, float) else v for k, v in res.to_dict().items()}


def _outcome(search, monkeypatch, label_of, *args, **kwargs):
    """(bitwise result or (error type, message), classify calls) of one
    search, with classify answering label_of(tilt) for every tilted model."""
    calls = []

    def stand_in(model, mechanism, num, horizon=None):
        calls.append(model.tilt)
        label = label_of(model.tilt)
        if isinstance(label, Exception):
            raise label
        return CaseLabel(label, CONCAVE, horizon)

    monkeypatch.setattr(CLASSIFY, "classify", stand_in)
    try:
        out = _bits(search(TILTABLE, RAMP, 1.0, 0.0, *args, **kwargs))
    except Exception as exc:
        out = (type(exc), str(exc))
    return out, calls


def _threshold(at):
    return lambda lam: "A" if lam >= at else "C"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(at=st.floats(-3.0, 3.0), lo=st.floats(-1.0, 1.0), width=st.floats(1e-3, 1.0),
       tol=st.floats(0.0, 1.0))
def test_a_threshold_label_gives_the_plain_result_from_fewer_calls(at, lo, width, tol):
    hi = lo + width
    with pytest.MonkeyPatch.context() as mp:
        want, plain = _outcome(ref.lambda_star, mp, _threshold(at), (lo, hi), tol)
        got, calls = _outcome(lambda_star, mp, _threshold(at), (lo, hi), tol)
    assert got == want
    if isinstance(want, tuple) and want[1].startswith("no Case A tilt found up to "):
        # the upper end gave up before the plain search asked the lower end
        # that the early midpoint decided
        assert len(calls) <= len(plain) + 1
    elif lo < at <= hi and hi - lo > tol:     # neither end moves
        assert len(calls) == len(plain) - 1
    else:
        assert len(calls) <= len(plain)


@pytest.mark.parametrize("error", [
    CaseLabel("indeterminate", CONCAVE, 0.0),
    IntegrationError("step size underflow"),
], ids=["indeterminate", "raised"])
@pytest.mark.parametrize("at, asked", [(0.5, False), (0.1, True)],
                         ids=["ends-move", "plain-asks-it"])
def test_an_error_at_the_early_midpoint_is_raised_only_where_the_plain_search_asks(
        monkeypatch, error, at, asked):
    # bracket (-0.3, 0.3): its first midpoint is 0.0. A threshold at 0.5
    # moves the upper end to 0.9, so the plain search bisects (-0.3, 0.9)
    # from 0.3 up and never asks 0.0; at 0.1 neither end moves
    def label_of(lam):
        if lam == 0.0:
            return error if isinstance(error, Exception) else error.label
        return _threshold(at)(lam)

    want, _ = _outcome(ref.lambda_star, monkeypatch, label_of, (-0.3, 0.3), 0.05)
    got, calls = _outcome(lambda_star, monkeypatch, label_of, (-0.3, 0.3), 0.05)
    assert got == want
    assert calls[0] == 0.0
    assert isinstance(got, tuple) == asked
    if asked:
        assert got[0] is (CLASSIFY.IndeterminateError if isinstance(error, CaseLabel)
                          else IntegrationError)


@pytest.mark.parametrize("cell, sign", [((0.25, 0.0), -1), ((1.0, 2.5), +1)],
                         ids=["negative", "positive"])
def test_a_lambda_star_cell_at_tol_0_4_classifies_twice(cmodel, gam, monkeypatch, cell, sign):
    # one bisection step from (-0.3, 0.3): the plain search classifies both
    # ends and 0; the untilted label decides one end, so 0 and the other end
    calls = []
    inner = CLASSIFY.classify

    def counted(model, *args, **kwargs):
        if kwargs.get("_allow_doubling", True):    # a retry at 2H is no call of lambda_star
            calls.append(model.tilt)
        return inner(model, *args, **kwargs)

    monkeypatch.setattr(CLASSIFY, "classify", counted)
    want = ref.lambda_star(cmodel, gam, *cell, bracket=(-0.3, 0.3), tol=0.4)
    assert calls == [0.3, -0.3, 0.0]
    del calls[:]
    got = lambda_star(cmodel, gam, *cell, bracket=(-0.3, 0.3), tol=0.4)
    assert _bits(got) == _bits(want)
    assert calls == [0.0, 0.3 if sign > 0 else -0.3]
    assert (got.value > 0.0) == (sign > 0)
