"""Transition profiles and the mechanisms that turn them into parameter paths.

A profile is a curve of the catalog in ``models`` with finite limits at -inf
and +inf; it can play the role of the transition itself (gamma values) or of
a time-dependent rate or phase. A mechanism composes a profile into the
effective parameter path t -> gamma(t) that drives the nonautonomous
equation.
"""

from __future__ import annotations

import inspect
from typing import Callable

from ._codegen import Emitter, paren
from .models import CURVE_KINDS, Curve, ModelError


class TransitionError(ValueError):
    """Invalid profile or mechanism construction."""


def make_profile(kind: str, **params) -> Curve:
    """A curve with finite limits at -inf and +inf: every curve kind but
    sin, sin2 and sum."""
    if kind not in CURVE_KINDS:
        raise TransitionError(f"unknown profile kind {kind!r}")
    try:
        curve = Curve(kind, **params)
    except ModelError as exc:
        raise TransitionError(f"invalid {kind!r} profile: {exc}") from exc
    if curve.limit_minus is None:
        raise TransitionError(f"a {kind!r} curve has no limits at -inf and +inf; "
                              "it cannot serve as a profile")
    return curve


def _require_positive_rate(delta: Curve) -> None:
    try:
        delta.check_positive()
    except ModelError as exc:
        raise TransitionError(f"the rate curve must stay strictly positive: {exc}") from exc


# ---------------------------------------------------------------------------
# mechanisms
# ---------------------------------------------------------------------------

_PATH_SAMPLES = 401     # samples behind Mechanism.path_scale


class Mechanism:
    """Parameter path t -> gamma(t) with known limits at -inf/+inf.

    Each mechanism emits its path as a single-expression source fragment in
    t (``emit_path``); ``path`` is that fragment compiled on its own, and
    ``VectorFieldModel.transition_rhs`` inlines it into the field.

    A kind's constructor is its only declaration: its parameters are the
    fields of the kind's config block, with their annotated types and
    defaults, and each is kept as the attribute of the same name.
    ``sweep`` names the field a sweep varies when none is given (None: the
    kind has no default sweep field).
    """

    kind: str = "?"
    sweep: str | None = None
    gamma_minus: float
    gamma_plus: float
    _path = None

    @property
    def path(self) -> Callable[[float], float]:
        if self._path is None:
            e = Emitter()
            self._path = e.compile("path", "t", self.emit_path(e))
        return self._path

    def emit_path(self, e: Emitter) -> str:
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return self.path(t)

    def tail_gap(self, horizon: float) -> float:
        """How far the path still is from its limits at -+horizon."""
        p = self.path
        return max(abs(p(-horizon) - self.gamma_minus), abs(p(horizon) - self.gamma_plus))

    def path_scale(self, horizon: float) -> float:
        """Spread of the path over [-horizon, horizon], sampled at
        _PATH_SAMPLES points; 0 for constant paths."""
        p = self.path
        n = _PATH_SAMPLES
        vals = [p(-horizon + 2.0 * horizon * i / (n - 1)) for i in range(n)]
        return max(vals) - min(vals)

    def describe(self) -> dict:
        """The kind and every constructor field; curves and nested
        mechanisms as their own descriptions."""
        d = {"kind": self.kind}
        for name in inspect.signature(type(self)).parameters:
            value = getattr(self, name)
            d[name] = value.describe() if isinstance(value, (Curve, Mechanism)) else value
        return d


class ConstantRate(Mechanism):
    """gamma(t) = Gamma(c*t) for a fixed rate c > 0."""

    kind = "constant-rate"
    sweep = "c"

    def __init__(self, profile: Curve, c: float):
        if not c > 0.0:
            raise TransitionError(f"rate must be positive, got {c}")
        self.profile = profile
        self.c = float(c)
        self.gamma_minus = profile.limit_minus
        self.gamma_plus = profile.limit_plus

    def emit_path(self, e: Emitter) -> str:
        return self.profile.emit(e, f"{e.num(self.c)} * t")


class Phase(Mechanism):
    """gamma(t) = Gamma(c*(t + offset))."""

    kind = "phase"
    sweep = "c"

    def __init__(self, profile: Curve, c: float, offset: float):
        if not c > 0.0:
            raise TransitionError(f"rate must be positive, got {c}")
        self.profile = profile
        self.c = float(c)
        self.offset = float(offset)
        self.gamma_minus = profile.limit_minus
        self.gamma_plus = profile.limit_plus

    def emit_path(self, e: Emitter) -> str:
        return self.profile.emit(e, f"{e.num(self.c)} * (t + {e.num(self.offset)})")


class Size(Mechanism):
    """gamma(t) = c*Gamma(t); only meaningful for models where gamma acts by
    translation of the state variable."""

    kind = "size"
    sweep = "c"

    def __init__(self, profile: Curve, c: float):
        if not c > 0.0:
            raise TransitionError(f"size factor must be positive, got {c}")
        self.profile = profile
        self.c = float(c)
        self.gamma_minus = self.c * profile.limit_minus
        self.gamma_plus = self.c * profile.limit_plus

    def emit_path(self, e: Emitter) -> str:
        return f"{e.num(self.c)} * {paren(self.profile.emit(e, 't'))}"


class TimeDependentRate(Mechanism):
    """gamma(t) = Gamma(Delta(d*t) * t) for a strictly positive rate curve Delta."""

    kind = "time-dependent-rate"
    sweep = "d"

    def __init__(self, profile: Curve, delta: Curve, d: float = 1.0):
        if not d > 0.0:
            raise TransitionError(f"rate-curve speed d must be positive, got {d}")
        _require_positive_rate(delta)
        self.profile = profile
        self.delta = delta
        self.d = float(d)
        self.gamma_minus = profile.limit_minus
        self.gamma_plus = profile.limit_plus

    def emit_path(self, e: Emitter) -> str:
        rate = self.delta.emit(e, f"{e.num(self.d)} * t")
        return self.profile.emit(e, f"{paren(rate)} * t")


class TimeDependentPhase(Mechanism):
    """gamma(t) = Gamma(c*(t - Delta(d*t))) (convention "minus", the default)
    or Gamma(c*(t + Delta(d*t))) (convention "plus")."""

    kind = "time-dependent-phase"
    sweep = "c"

    def __init__(self, profile: Curve, c: float, delta: Curve, d: float = 1.0,
                 convention: str = "minus"):
        if not c > 0.0:
            raise TransitionError(f"rate must be positive, got {c}")
        if not d > 0.0:
            raise TransitionError(f"phase-curve speed d must be positive, got {d}")
        if convention not in ("minus", "plus"):
            raise TransitionError(f"convention must be 'minus' or 'plus', got {convention!r}")
        self.profile = profile
        self.delta = delta
        self.c = float(c)
        self.d = float(d)
        self.convention = convention
        self.gamma_minus = profile.limit_minus
        self.gamma_plus = profile.limit_plus

    def emit_path(self, e: Emitter) -> str:
        c = e.num(self.c)
        phase = self.delta.emit(e, f"{e.num(self.d)} * t")
        sign = "-" if self.convention == "minus" else "+"
        return self.profile.emit(e, f"{c} * (t {sign} {paren(phase)})")


class Switching(Mechanism):
    """Follows the left mechanism's path for t < t0 and the right one after."""

    kind = "switching"

    def __init__(self, left: Mechanism, right: Mechanism, t0: float = 0.0):
        self.left = left
        self.right = right
        self.t0 = float(t0)
        self.gamma_minus = left.gamma_minus
        self.gamma_plus = right.gamma_plus

    def emit_path(self, e: Emitter) -> str:
        left, right = self.left.emit_path(e), self.right.emit_path(e)
        return f"{paren(left)} if t < {e.num(self.t0)} else {paren(right)}"


class Reaction(Mechanism):
    """gamma(t) = Gamma((Delta(t) + r*tanh(b*(t - t1))) * t).

    Models a reaction of strength r >= 0 and sharpness b > 0 applied to the
    rate curve from the reaction time t1 on; r = 0 reduces to the plain
    time-dependent rate mechanism.
    """

    kind = "reaction"

    def __init__(self, profile: Curve, delta: Curve, r: float, b: float, t1: float):
        if not r >= 0.0:
            raise TransitionError(f"reaction strength must be >= 0, got {r}")
        if not b > 0.0:
            raise TransitionError(f"reaction sharpness must be positive, got {b}")
        _require_positive_rate(delta)
        self.profile = profile
        self.delta = delta
        self.r = float(r)
        self.b = float(b)
        self.t1 = float(t1)
        # asymptotic speed of the profile argument decides which limit is reached
        past = delta.limit_minus - self.r
        self.gamma_minus = profile.limit_minus if past > 0.0 else profile.limit_plus
        self.gamma_plus = profile.limit_plus   # delta.limit_plus + r > 0 always

    def emit_path(self, e: Emitter) -> str:
        rate = self.delta.emit(e, "t")
        boost = f"{e.num(self.r)} * tanh({e.num(self.b)} * (t - {e.num(self.t1)}))"
        return self.profile.emit(e, f"({paren(rate)} + {boost}) * t")


# kind -> class; each class's constructor declares the kind's config fields
MECHANISMS = {cls.kind: cls for cls in (ConstantRate, Phase, Size, TimeDependentRate,
                                       TimeDependentPhase, Switching, Reaction)}
