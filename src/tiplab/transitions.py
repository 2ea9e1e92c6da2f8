"""Transition profiles and the mechanisms that turn them into parameter paths.

A profile is a bounded closed-form curve with limits at -inf and +inf; it can
play the role of the transition itself (gamma values) or of a time-dependent
rate or phase. A mechanism composes a profile into the effective parameter
path t -> gamma(t) that drives the nonautonomous equation.
"""

from __future__ import annotations

import math
from typing import Callable

from ._codegen import Emitter, paren


class TransitionError(ValueError):
    """Invalid profile or mechanism construction."""


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

_PROFILE_KINDS = ("constant", "cauchy-pulse", "arctan-ramp", "sigmoid-blend", "rational-dip", "arctan")


class Profile:
    """Closed-form curve with finite limits at t -> -inf and t -> +inf.

    Kinds and parameters:

    - ``constant``:      value
    - ``cauchy-pulse``:  gamma_plus + (gamma_star - gamma_plus)/(1 + b*t**2); equal
                         limits gamma_plus, extremum gamma_star at t = 0, b > 0
    - ``arctan-ramp``:   offset + amplitude*atan(scale*t); limits offset -+ amplitude*pi/2
    - ``sigmoid-blend``: left/(1+exp(rate*t)) + right/(1+exp(-rate*t)); limits left, right
    - ``rational-dip``:  offset + amplitude/(width + t**2); equal limits offset
    - ``arctan``:        offset + amplitude*atan(scale*t); alias of arctan-ramp for
                         rate curves written around a nonzero offset

    Each kind emits its formula as a single-expression source fragment
    (``emit``); calling the profile runs the fragment compiled on its own.
    """

    __slots__ = ("kind", "params", "_p", "_fn", "limit_minus", "limit_plus", "_lo", "_hi",
                 "monotone_after")

    def __init__(self, kind: str, **params):
        if kind not in _PROFILE_KINDS:
            raise TransitionError(f"unknown profile kind {kind!r}")
        self.kind = kind
        self.params = dict(params)
        (self._p, self.limit_minus, self.limit_plus,
         self._lo, self._hi, self.monotone_after) = _profile_numbers(kind, params)
        e = Emitter()
        self._fn = e.compile("profile", "t", self.emit(e, "t"))

    def __call__(self, t: float) -> float:
        return self._fn(t)

    def emit(self, e: Emitter, arg: str) -> str:
        """Expression for the value at ``arg``, evaluating arg at most once;
        a single expression, so it can sit in a branch of a conditional."""
        p, kind = self._p, self.kind
        if kind == "constant":
            return e.num(p["value"])
        if kind == "cauchy-pulse":
            first, again = e.once(arg)
            return (f"{e.num(p['gamma_plus'])} + {e.num(p['amp'])} / "
                    f"(1.0 + {e.num(p['b'])} * {first} * {again})")
        if kind == "sigmoid-blend":
            u = f"{e.num(p['rate'])} * {paren(arg)}"
            return e.sigmoid_blend(e.num(p["left"]), e.num(p["right"]), u)
        off, a = e.num(p["offset"]), e.num(p["amplitude"])
        if kind == "rational-dip":
            first, again = e.once(arg)
            return f"{off} + {a} / ({e.num(p['width'])} + {first} * {again})"
        # arctan-ramp, arctan
        return f"{off} + {a} * atan({e.num(p['scale'])} * {paren(arg)})"

    def range_bounds(self) -> tuple[float, float]:
        return (self._lo, self._hi)

    def require_positive(self, label: str = "rate") -> None:
        if self._lo <= 0.0:
            raise TransitionError(
                f"profile {self.kind!r} must stay strictly positive to act as a {label} "
                f"(range bound {self._lo:.6g})"
            )

    def describe(self) -> dict:
        return {"kind": self.kind, **self.params}

    def __repr__(self) -> str:  # pragma: no cover
        return f"Profile({self.kind}, {self.params})"


def _profile_numbers(kind, p):
    """Validated float parameters, then limit_minus, limit_plus, range_lo,
    range_hi and monotone_after."""
    if kind == "constant":
        v = float(p["value"])
        return {"value": v}, v, v, v, v, -math.inf
    if kind == "cauchy-pulse":
        gp = float(p["gamma_plus"])
        gs = float(p["gamma_star"])
        b = float(p["b"])
        if b <= 0.0:
            raise TransitionError("cauchy-pulse needs b > 0")
        lo, hi = sorted((gp, gs))
        # monotone toward the limit after the extremum at 0
        return {"gamma_plus": gp, "amp": gs - gp, "b": b}, gp, gp, lo, hi, 0.0
    if kind in ("arctan-ramp", "arctan"):
        off = float(p.get("offset", 0.0))
        a = float(p["amplitude"])
        sc = float(p["scale"])
        if sc <= 0.0:
            raise TransitionError("arctan profile needs scale > 0")
        half = a * math.pi / 2.0
        lo, hi = sorted((off - half, off + half))
        return ({"offset": off, "amplitude": a, "scale": sc},
                off - half, off + half, lo, hi, -math.inf)
    if kind == "sigmoid-blend":
        left = float(p["left"])
        right = float(p["right"])
        rate = float(p.get("rate", 1.0))
        if rate <= 0.0:
            raise TransitionError("sigmoid-blend needs rate > 0")
        lo, hi = sorted((left, right))
        return ({"left": left, "right": right, "rate": rate},
                left, right, lo, hi, -math.inf)
    if kind == "rational-dip":
        off = float(p.get("offset", 0.0))
        a = float(p["amplitude"])
        wd = float(p["width"])
        if wd <= 0.0:
            raise TransitionError("rational-dip needs width > 0")
        lo, hi = sorted((off, off + a / wd))
        mono = 0.0 if a < 0.0 else -math.inf if a == 0.0 else 0.0
        return {"offset": off, "amplitude": a, "width": wd}, off, off, lo, hi, mono
    raise TransitionError(f"unknown profile kind {kind!r}")


def make_profile(kind: str, **params) -> Profile:
    return Profile(kind, **params)


# ---------------------------------------------------------------------------
# mechanisms
# ---------------------------------------------------------------------------

class Mechanism:
    """Parameter path t -> gamma(t) with known limits at -inf/+inf.

    Each mechanism emits its path as a single-expression source fragment in
    t (``emit_path``); ``path`` is that fragment compiled on its own, and
    ``VectorFieldModel.transition_rhs`` inlines it into the field.
    """

    kind: str = "?"
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

    @property
    def gamma_minus(self) -> float:
        return self._gamma_minus

    @property
    def gamma_plus(self) -> float:
        return self._gamma_plus

    def tail_gap(self, horizon: float) -> float:
        """How far the path still is from its limits at -+horizon."""
        p = self.path
        return max(abs(p(-horizon) - self._gamma_minus), abs(p(horizon) - self._gamma_plus))

    def path_scale(self, horizon: float = 400.0, samples: int = 401) -> float:
        """Spread of the path over [-horizon, horizon]; 0 for constant paths."""
        p = self.path
        vals = [p(-horizon + 2.0 * horizon * i / (samples - 1)) for i in range(samples)]
        return max(vals) - min(vals)

    def describe(self) -> dict:
        raise NotImplementedError


class ConstantRate(Mechanism):
    """gamma(t) = Gamma(c*t) for a fixed rate c > 0."""

    kind = "constant-rate"

    def __init__(self, profile: Profile, c: float):
        if c <= 0.0:
            raise TransitionError(f"rate must be positive, got {c}")
        self.profile = profile
        self.c = float(c)
        self._gamma_minus = profile.limit_minus
        self._gamma_plus = profile.limit_plus

    def emit_path(self, e: Emitter) -> str:
        return self.profile.emit(e, f"{e.num(self.c)} * t")

    def describe(self):
        return {"kind": self.kind, "profile": self.profile.describe(), "c": self.c}


class Phase(Mechanism):
    """gamma(t) = Gamma(c*(t + offset))."""

    kind = "phase"

    def __init__(self, profile: Profile, c: float, offset: float):
        if c <= 0.0:
            raise TransitionError(f"rate must be positive, got {c}")
        self.profile = profile
        self.c = float(c)
        self.offset = float(offset)
        self._gamma_minus = profile.limit_minus
        self._gamma_plus = profile.limit_plus

    def emit_path(self, e: Emitter) -> str:
        return self.profile.emit(e, f"{e.num(self.c)} * (t + {e.num(self.offset)})")

    def describe(self):
        return {"kind": self.kind, "profile": self.profile.describe(),
                "c": self.c, "offset": self.offset}


class Size(Mechanism):
    """gamma(t) = c*Gamma(t); only meaningful for models where gamma acts by
    translation of the state variable."""

    kind = "size"

    def __init__(self, profile: Profile, c: float):
        if c <= 0.0:
            raise TransitionError(f"size factor must be positive, got {c}")
        self.profile = profile
        self.c = float(c)
        self._gamma_minus = self.c * profile.limit_minus
        self._gamma_plus = self.c * profile.limit_plus

    def emit_path(self, e: Emitter) -> str:
        return f"{e.num(self.c)} * {paren(self.profile.emit(e, 't'))}"

    def describe(self):
        return {"kind": self.kind, "profile": self.profile.describe(), "c": self.c}


class TimeDependentRate(Mechanism):
    """gamma(t) = Gamma(Delta(d*t) * t) for a strictly positive rate curve Delta."""

    kind = "time-dependent-rate"

    def __init__(self, profile: Profile, delta: Profile, d: float = 1.0):
        if d <= 0.0:
            raise TransitionError(f"rate-curve speed d must be positive, got {d}")
        delta.require_positive("rate")
        self.profile = profile
        self.delta = delta
        self.d = float(d)
        self._gamma_minus = profile.limit_minus
        self._gamma_plus = profile.limit_plus

    def emit_path(self, e: Emitter) -> str:
        rate = self.delta.emit(e, f"{e.num(self.d)} * t")
        return self.profile.emit(e, f"{paren(rate)} * t")

    def describe(self):
        return {"kind": self.kind, "profile": self.profile.describe(),
                "delta": self.delta.describe(), "d": self.d}


class TimeDependentPhase(Mechanism):
    """gamma(t) = Gamma(c*(t - Delta(d*t))) (convention "minus", the default)
    or Gamma(c*(t + Delta(d*t))) (convention "plus")."""

    kind = "time-dependent-phase"

    def __init__(self, profile: Profile, c: float, delta: Profile, d: float = 1.0,
                 convention: str = "minus"):
        if c <= 0.0:
            raise TransitionError(f"rate must be positive, got {c}")
        if d <= 0.0:
            raise TransitionError(f"phase-curve speed d must be positive, got {d}")
        if convention not in ("minus", "plus"):
            raise TransitionError(f"convention must be 'minus' or 'plus', got {convention!r}")
        self.profile = profile
        self.delta = delta
        self.c = float(c)
        self.d = float(d)
        self.convention = convention
        self._gamma_minus = profile.limit_minus
        self._gamma_plus = profile.limit_plus

    def emit_path(self, e: Emitter) -> str:
        c = e.num(self.c)
        phase = self.delta.emit(e, f"{e.num(self.d)} * t")
        sign = "-" if self.convention == "minus" else "+"
        return self.profile.emit(e, f"{c} * (t {sign} {paren(phase)})")

    def describe(self):
        return {"kind": self.kind, "profile": self.profile.describe(),
                "delta": self.delta.describe(), "c": self.c, "d": self.d,
                "convention": self.convention}


class Switching(Mechanism):
    """Follows the left mechanism's path for t < t0 and the right one after."""

    kind = "switching"

    def __init__(self, left: Mechanism, right: Mechanism, t0: float = 0.0):
        self.left = left
        self.right = right
        self.t0 = float(t0)
        self._gamma_minus = left.gamma_minus
        self._gamma_plus = right.gamma_plus

    def emit_path(self, e: Emitter) -> str:
        left, right = self.left.emit_path(e), self.right.emit_path(e)
        return f"{paren(left)} if t < {e.num(self.t0)} else {paren(right)}"

    def describe(self):
        return {"kind": self.kind, "left": self.left.describe(),
                "right": self.right.describe(), "t0": self.t0}


class Reaction(Mechanism):
    """gamma(t) = Gamma((Delta(t) + r*tanh(b*(t - t1))) * t).

    Models a reaction of strength r >= 0 and sharpness b > 0 applied to the
    rate curve from the reaction time t1 on; r = 0 reduces to the plain
    time-dependent rate mechanism.
    """

    kind = "reaction"

    def __init__(self, profile: Profile, delta: Profile, r: float, b: float, t1: float):
        if r < 0.0:
            raise TransitionError(f"reaction strength must be >= 0, got {r}")
        if b <= 0.0:
            raise TransitionError(f"reaction sharpness must be positive, got {b}")
        delta.require_positive("rate")
        self.profile = profile
        self.delta = delta
        self.r = float(r)
        self.b = float(b)
        self.t1 = float(t1)
        # asymptotic speed of the profile argument decides which limit is reached
        past = delta.limit_minus - self.r
        self._gamma_minus = profile.limit_minus if past > 0.0 else profile.limit_plus
        self._gamma_plus = profile.limit_plus   # delta.limit_plus + r > 0 always

    def emit_path(self, e: Emitter) -> str:
        rate = self.delta.emit(e, "t")
        boost = f"{e.num(self.r)} * tanh({e.num(self.b)} * (t - {e.num(self.t1)}))"
        return self.profile.emit(e, f"({paren(rate)} + {boost}) * t")

    def describe(self):
        return {"kind": self.kind, "profile": self.profile.describe(),
                "delta": self.delta.describe(), "r": self.r, "b": self.b, "t1": self.t1}
