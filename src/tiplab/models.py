"""Scalar population models with time-dependent coefficients.

Every model in the catalog is a scalar field f(t, x, gamma) that is either
concave or concave-derivative ("d-concave") in x on its declared state box.
Coefficients are drawn from a closed catalog of bounded closed forms (the
curves, which also serve as transition profiles), so ranges and positivity
can be checked without numerics on the model itself.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from string import Template
from typing import Callable

from ._codegen import Emitter, paren


class ModelError(ValueError):
    """Invalid model construction or use."""


class DomainError(ModelError):
    """Evaluation at or beyond a pole of the vector field."""


# ---------------------------------------------------------------------------
# curve catalog: coefficients, transition profiles and rate curves
# ---------------------------------------------------------------------------

# each curve kind's parameters and their defaults: ... marks a required one,
# None an optional one whose absence changes the formula (without a center,
# arctan and sigmoid-blend read t for t - center)
_CURVE_PARAMS = {
    "constant": {"value": ...},
    "sin": {"offset": 0.0, "amplitude": ..., "omega": ...},
    "sin2": {"offset": 0.0, "amplitude": ..., "omega": ...},
    "rational-dip": {"offset": 0.0, "amplitude": ..., "width": ...},
    "arctan": {"offset": 0.0, "amplitude": ..., "scale": ..., "center": None},
    "sigmoid-blend": {"left": ..., "right": ..., "rate": 1.0, "center": None},
    "cauchy-pulse": {"gamma_plus": ..., "gamma_star": ..., "b": ...},
    "sum": {"offset": 0.0, "terms": ...},
}
# "arctan-ramp" is read as "arctan"
CURVE_KINDS = (*_CURVE_PARAMS, "arctan-ramp")


class Curve:
    """Bounded closed-form scalar function of time.

    Kinds and parameters:

    - ``constant``:      value
    - ``sin``:           offset + amplitude*sin(omega*t)
    - ``sin2``:          offset + amplitude*sin(omega*t)**2
    - ``rational-dip``:  offset + amplitude/(width + t**2), width > 0
    - ``arctan``:        offset + amplitude*atan(scale*(t - center)), scale > 0;
                         ``arctan-ramp`` is read as ``arctan``
    - ``sigmoid-blend``: left/(1+exp(rate*(t-center))) + right/(1+exp(-rate*(t-center))),
                         rate > 0
    - ``cauchy-pulse``:  gamma_plus + (gamma_star - gamma_plus)/(1 + b*t**2), b > 0
    - ``sum``:           offset + sum of nested curve terms

    ``offset`` defaults to 0 and ``rate`` to 1; ``center`` is optional
    (arctan and sigmoid-blend only), and without it the formula reads t for
    t - center. A missing parameter without a default, a value that is not a
    finite number (a boolean included) or any other parameter name raises.
    ``bounds()`` holds closed-form range bounds. Every kind but sin, sin2 and
    sum has finite limits at -inf and +inf (``limit_minus``, ``limit_plus``,
    else None), so it can serve as a transition profile or a rate curve.
    Each kind emits its formula as a source fragment (``emit``); calling the
    curve runs the fragment compiled on its own.
    """

    __slots__ = ("kind", "params", "_p", "_fn", "_lo", "_hi", "limit_minus", "limit_plus")

    def __init__(self, kind: str, **params):
        if kind not in CURVE_KINDS:
            raise ModelError(f"unknown curve kind {kind!r}")
        self.kind = "arctan" if kind == "arctan-ramp" else kind
        declared = _CURVE_PARAMS[self.kind]
        stray = sorted(set(params) - set(declared))
        if stray:
            raise ModelError(f"unknown {self.kind!r} curve parameters {stray}")
        self.params = dict(params)
        self._p = {}
        for name, default in declared.items():
            value = default if params.get(name) is None else params[name]
            if value is ...:
                raise ModelError(f"{self.kind!r} curve needs parameter {name!r}")
            if value is not None:
                self._p[name] = (tuple(value) if name == "terms" else
                                 _number(f"{self.kind!r} curve parameter {name!r}", value))
        ((self._lo, self._hi),
         (self.limit_minus, self.limit_plus)) = _curve_range(self.kind, self._p)
        e = Emitter()
        self._fn = e.compile("curve", "t", self.emit(e, "t"))

    def __call__(self, t: float) -> float:
        return self._fn(t)

    def emit(self, e: Emitter, arg: str) -> str:
        """Expression for the value at ``arg``; sin(omega*arg) terms are
        shared with every other curve emitted into ``e``. The kinds with
        limits emit a single expression that evaluates arg once, so it can
        sit in a branch of a conditional."""
        p, kind = self._p, self.kind
        if kind == "constant":
            return e.num(p["value"])
        if kind == "sum":
            terms = " + ".join(paren(c.emit(e, arg)) for c in p["terms"])
            # sum() of the terms, left to right; its start 0 is written
            # 0.0, the same IEEE sums without an int + float add
            return f"{e.num(p['offset'])} + (0.0 + {terms})"
        if kind == "cauchy-pulse":
            first, again = e.once(arg)
            return (f"{e.num(p['gamma_plus'])} + {e.num(p['gamma_star'] - p['gamma_plus'])} / "
                    f"(1.0 + {e.num(p['b'])} * {first} * {again})")
        if kind == "sigmoid-blend":
            u = f"{e.num(p['rate'])} * {self._centered(e, arg)}"
            return e.sigmoid_blend(e.num(p["left"]), e.num(p["right"]), u)
        off, a = e.num(p["offset"]), e.num(p["amplitude"])
        if kind == "sin":
            return f"{off} + {a} * {e.sin(p['omega'], arg)}"
        if kind == "sin2":
            return f"{off} + {a} * {e.sin(p['omega'], arg, squared=True)}"
        if kind == "rational-dip":
            first, again = e.once(arg)
            return f"{off} + {a} / ({e.num(p['width'])} + {first} * {again})"
        # arctan
        return f"{off} + {a} * atan({e.num(p['scale'])} * {self._centered(e, arg)})"

    def _centered(self, e: Emitter, arg: str) -> str:
        """arg - center as an operand, or arg alone when no center was given
        (whether one was given is structure, so the source still depends
        only on the structure)."""
        if "center" not in self._p:
            return paren(arg)
        return f"({paren(arg)} - {e.num(self._p['center'])})"

    def bounds(self) -> tuple[float, float]:
        """Closed-form range bounds (lo, hi); the range lies inside them."""
        return (self._lo, self._hi)

    def check_positive(self) -> float:
        """The closed-form lower bound of the curve over all t; raises when
        it is not positive, NaN included. A ``sum`` is bounded below by the
        sum of its terms' bounds, so one whose terms cancel is refused too:
        no sample of its values can show an infimum."""
        m = self._lo
        if not m > 0.0:
            raise ModelError(
                f"curve {self.kind!r} is not positively bounded below "
                f"(lower bound {m:.6g})"
            )
        return m

    def describe(self) -> dict:
        d = {"kind": self.kind, **self.params}
        if self.kind == "sum":
            d["terms"] = [c.describe() for c in self.params["terms"]]
        return d

    def __repr__(self) -> str:  # pragma: no cover
        return f"Curve({self.kind}, {self.params})"


def _number(what: str, value) -> float:
    """value as a finite float; a boolean, a value float() refuses, a NaN or
    an infinity raises a ModelError that names what."""
    if not isinstance(value, bool):
        try:
            if math.isfinite(number := float(value)):
                return number
        except (TypeError, ValueError):
            pass
        else:
            raise ModelError(f"{what} must be finite, got {number!r}")
    raise ModelError(f"{what} must be a number, got {value!r}")


def _curve_range(kind, p):
    """Range bounds (lo, hi) of a curve with the numbers p, and its limits at
    -inf and +inf ((None, None) when it has none)."""
    none = (None, None)
    if kind == "constant":
        v = p["value"]
        return (v, v), (v, v)
    if kind == "sum":
        off, terms = p["offset"], p["terms"]
        if not terms or not all(isinstance(c, Curve) for c in terms):
            raise ModelError("sum terms must be Curve instances")
        lo = off + sum(c.bounds()[0] for c in terms)
        hi = off + sum(c.bounds()[1] for c in terms)
        return (lo, hi), none
    if kind == "cauchy-pulse":
        gp = p["gamma_plus"]
        if not p["b"] > 0.0:
            raise ModelError("cauchy-pulse needs b > 0")
        return sorted((gp, p["gamma_star"])), (gp, gp)
    if kind == "sigmoid-blend":
        left, right = p["left"], p["right"]
        if not p["rate"] > 0.0:
            raise ModelError("sigmoid-blend needs rate > 0")
        return sorted((left, right)), (left, right)
    off, a = p["offset"], p["amplitude"]
    if kind in ("sin", "sin2"):
        return ((off - abs(a), off + abs(a)) if kind == "sin" else sorted((off, off + a))), none
    if kind == "rational-dip":
        if not p["width"] > 0.0:
            raise ModelError("rational-dip needs width > 0")
        return sorted((off, off + a / p["width"])), (off, off)
    # arctan: off -+ |a|*pi/2 equals off -+ a*pi/2 bit for bit when a >= 0,
    # and off +- a*pi/2 when a < 0
    if not p["scale"] > 0.0:
        raise ModelError("arctan needs scale > 0")
    half = abs(a) * math.pi / 2.0
    lo, hi = off - half, off + half
    return (lo, hi), ((lo, hi) if a >= 0.0 else (hi, lo))


def make_coefficient(spec) -> Curve:
    """Build a Curve from a number, a Curve, or a {kind, ...params} dict."""
    if isinstance(spec, Curve):
        return spec
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return Curve("constant", value=float(spec))
    if isinstance(spec, dict):
        kind = spec.get("kind")
        params = {k: v for k, v in spec.items() if k != "kind"}
        if kind == "sum":
            params["terms"] = [make_coefficient(s) for s in params.get("terms", [])]
        return Curve(kind, **params)
    raise ModelError(f"cannot interpret coefficient spec {spec!r}")


# ---------------------------------------------------------------------------
# model catalog
# ---------------------------------------------------------------------------

CONCAVE = "concave"
DCONCAVE = "d-concave"

# tilted copies a model keeps (VectorFieldModel.tilted); once this many are
# held, further tilts are built anew on every call
_TILTS_HELD = 8


@dataclass
class VectorFieldModel:
    """Scalar vector field f(t, x, gamma) from the closed family catalog.

    The state box bounds the region where the hyperbolic solutions of
    interest live; seeds are taken relative to it.
    The domain is the open x-interval on which the field is defined
    (poles of rational terms lie outside it). A tilt, when set, is a
    constant added to f (not to its x-derivatives).

    f, its x-derivative and the right-hand sides are generated from the
    family's formulas and the coefficients' fragments, and compiled into one
    function each.

    The model keeps what it computes once for all callers: its tilted
    copies (``tilted``) and, per ``Numerics``, the limit sets of its frozen
    equations (``limit_sets``). Neither refers back to the model, so they
    are freed with it.
    """

    family: str
    concavity: str
    coefficients: dict[str, Curve]
    constants: dict[str, float]
    state_box: tuple[float, float]
    domain: tuple[float, float]
    translation_invariant: bool = False
    tilt: float | None = None
    _f: Callable = field(init=False, repr=False, compare=False)
    _fx: Callable = field(init=False, repr=False, compare=False)
    _tilts: dict = field(init=False, repr=False, compare=False)
    _limit_sets: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._tilts = {}
        self._limit_sets = {}
        self._f = self._compile("f", "t, x, g")
        self._fx = self._compile("fx", "t, x, g")

    def _emit(self, e: Emitter, which: str) -> str:
        """Emit the statements of the family formula ``which`` into e and
        return its result expression, in terms of t, x and g."""
        src = _FAMILIES[self.family][which]
        names = {}
        for name in _PLACEHOLDER.findall(src):
            if name in names:
                continue
            if name in self.coefficients:
                names[name] = e.let(self.coefficients[name].emit(e, "t"))
            else:
                names[name] = e.num(self.constants[name])
        if "DomainError" in src:
            e.bind("DomainError", DomainError)
        *stmts, last = Template(src).substitute(names).split("\n")
        e.t_only = len(e.lines)     # the coefficient and path statements
        e.lines.extend(stmts)
        result = last.removeprefix("return ")
        if which == "f" and self.tilt is not None:
            result = f"({result}) + {e.num(self.tilt)}"
        return result

    def _compile(self, which: str, signature: str):
        e = Emitter()
        return e.compile(which, signature, self._emit(e, which))

    def f(self, t: float, x: float, gamma: float) -> float:
        return self._f(t, x, gamma)

    def fx(self, t: float, x: float, gamma: float) -> float:
        return self._fx(t, x, gamma)

    def frozen_rhs(self, gamma: float) -> Callable[[float, float], float]:
        """Right-hand side t, x -> f(t, x, gamma) with gamma frozen."""
        return self._along("f", gamma=gamma)

    def transition_rhs(self, mechanism) -> Callable[[float, float], float]:
        """Right-hand side t, x -> f(t, x, path(t)) along a parameter path."""
        return self._along("f", mechanism=mechanism)

    def _along(self, which: str, gamma: float | None = None, mechanism=None):
        """t, x -> the family formula ``which`` (f or fx) with g = gamma
        frozen, or with g = the mechanism's path at t, emitted first."""
        e = Emitter()
        if mechanism is None:
            e.bind("g", gamma)
        else:
            e.lines.append(f"g = {mechanism.emit_path(e)}")
        kind = "frozen" if mechanism is None else "transition"
        return e.compile(f"{kind}_{which}", "t, x", self._emit(e, which))

    def tilted(self, lam: float) -> "VectorFieldModel":
        """The same model with field f(t, x, gamma) + lam; on a tilted
        model the tilts add.

        The same lam gives the same copy, so its limit sets are shared; 0.0
        and -0.0 are kept apart, since the tilt is part of the rhs. Only the
        first _TILTS_HELD tilts are kept.
        """
        lam = float(lam)
        key = lam.hex()
        model = self._tilts.get(key)
        if model is None:
            model = replace(self, tilt=lam if self.tilt is None else self.tilt + lam)
            if len(self._tilts) < _TILTS_HELD:
                self._tilts[key] = model
        return model

    def limit_sets(self, num) -> dict:
        """The limit sets kept for the numerics num, each finished and
        trimmed to its window (classify.LimitCache fills it); they live as
        long as the model."""
        return self._limit_sets.setdefault(num, {})

    def seeds(self, margin: float = 10.0) -> tuple[float, float]:
        """Burn-in seeds outside the state box, clamped into the domain."""
        lo, hi = self.state_box
        width = hi - lo
        dlo, dhi = self.domain
        s_lo = lo - margin
        if dlo != -math.inf:
            s_lo = max(s_lo, dlo + 0.01 * width)
        s_hi = hi + margin
        if dhi != math.inf:
            s_hi = min(s_hi, dhi - 0.01 * width)
        return (s_lo, s_hi)

    def describe(self) -> dict:
        d = {
            "family": self.family,
            "coefficients": {k: c.describe() for k, c in self.coefficients.items()},
            "constants": dict(self.constants),
            "state_box": list(self.state_box),
        }
        if self.tilt is not None:
            d["tilt"] = self.tilt
        return d


def _fx_along(model, gamma: float | None = None, mechanism=None):
    """t, x -> model.fx(t, x, g) with g = gamma frozen, or g = the
    mechanism's path at t: generated like the right-hand sides for a
    VectorFieldModel, a closure over model.fx for any other model."""
    if isinstance(model, VectorFieldModel):
        return model._along("fx", gamma, mechanism)
    if mechanism is None:
        return lambda t, x: model.fx(t, x, gamma)
    path = mechanism.path
    return lambda t, x: model.fx(t, x, path(t))


# Family formulas. ``$name`` stands for a coefficient's value at t or for a
# family constant; g is the parameter. The last line returns the value. The
# operations and their order are part of the results: keep them when
# editing, or every stored answer changes in its last bits.
_PLACEHOLDER = re.compile(r"\$(\w+)")


def _domain_check(family: str, cond: str, tail: str = "") -> str:
    return (f"if {cond} <= 0.0:\n"
            f"    raise DomainError(f\"{family} undefined at x={{x!r}}{tail}\")")


def _pole_layout(pole: str, below: float, above: float):
    # domain above the pole at x = -inf(pole); box from near the pole to above K
    def layout(c, consts):
        p_lo = c[pole].bounds()[0]
        k_hi = c["K"].bounds()[1]
        return (-p_lo, math.inf), (-below * p_lo, above * k_hi)
    return layout


def _gompertz_layout(c, consts):
    k_lo, k_hi = c["K"].bounds()
    return (0.0, math.inf), (0.005 * k_lo, 3.0 * k_hi)


def _beverton_holt_layout(c, consts):
    a_lo, a_hi = c["alpha"].bounds()
    r_hi = c["r"].bounds()[1]
    domain_lo = -1.0 / a_hi
    return (domain_lo, math.inf), (0.5 * domain_lo, 3.0 * r_hi / a_lo + 10.0)


def _cubic_layout(c, consts):
    k_hi = c["K"].bounds()[1]
    s_abs = max(abs(b) for b in c["S"].bounds())
    half = 1.5 * k_hi + s_abs + 1.0
    return (-math.inf, math.inf), (-half, half)


_GOMPERTZ_CHECK = _domain_check("gompertz field", "x", " <= 0")
_BH_CHECK = "den = 1.0 + $alpha * x\n" + _domain_check("beverton-holt field", "den")
_RATIONAL_CHECK = "d = $nu + x\n" + _domain_check("allee-multiplicative-rational", "d")
_RATIONAL_N = ("N = $r * (x * x - $mu * x - (x ** 3 - $mu * x * x) / $K)\n"
               "Np = $r * (2.0 * x - $mu - (3.0 * x * x - 2.0 * $mu * x) / $K)\n")
_HOLLING2_CHECK = "d = x + $b\n" + _domain_check("allee-holling2", "d")
_LINEAR_CHECK = "d = x + $b\n" + _domain_check("holling-predation-linear-gamma", "d")

# family name -> concavity (f_xx < 0 for a concave family, f_xxx < 0 for a
# d-concave one), required coefficients, optional coefficients w/ defaults,
# required positive, constants w/ defaults, the f/fx formulas, the (domain,
# default state box) layout and translation invariance in gamma
_FAMILIES: dict[str, dict] = {
    "concave-logistic-migration": {
        "concavity": CONCAVE,
        "required": ("r", "I"),
        "optional": {},
        "positive": ("r",),
        "constants": {},
        "f": "d = x - g\nreturn $I - $r * d * d",
        "fx": "return -2.0 * $r * (x - g)",
        "layout": lambda c, consts: ((-math.inf, math.inf), (-20.0, 20.0)),
        "translation": True,
    },
    "gompertz": {
        "concavity": CONCAVE,
        "required": ("r", "K"),
        "optional": {"phi": 1.0},
        "positive": ("r", "K", "phi"),
        "constants": {},
        "f": _GOMPERTZ_CHECK + "\nreturn -$r * x * log(x / $K) + g * $phi",
        "fx": _GOMPERTZ_CHECK + "\nreturn -$r * (log(x / $K) + 1.0)",
        "layout": _gompertz_layout,
        "translation": False,
    },
    "beverton-holt": {
        "concavity": CONCAVE,
        "required": ("r", "alpha"),
        "optional": {"phi": 1.0},
        "positive": ("r", "alpha", "phi"),
        "constants": {},
        "f": _BH_CHECK + "\nreturn x * ((1.0 + $r) / den - 1.0) + g * $phi",
        "fx": _BH_CHECK + "\nreturn (1.0 + $r) / (den * den) - 1.0",
        "layout": _beverton_holt_layout,
        "translation": False,
    },
    "allee-multiplicative-cubic": {
        "concavity": DCONCAVE,
        "required": ("r", "K", "S"),
        "optional": {"phi": 1.0},
        "positive": ("r", "K", "phi"),
        "constants": {},
        "f": "return $r * x * (1.0 - x / $K) * (x - $S) / $K + g * $phi",
        "fx": "return $r / $K * (2.0 * x - $S - (3.0 * x * x - 2.0 * $S * x) / $K)",
        "layout": _cubic_layout,
        "translation": False,
    },
    "allee-multiplicative-rational": {
        "concavity": DCONCAVE,
        "required": ("r", "K", "mu", "nu"),
        "optional": {"phi": 1.0},
        "positive": ("r", "K", "mu", "nu", "phi"),
        "constants": {},
        "f": _RATIONAL_CHECK + "\nreturn $r * x * (1.0 - x / $K) * (x - $mu) / d + g * $phi",
        "fx": _RATIONAL_CHECK + "\n" + _RATIONAL_N + "return (Np * d - N) / (d * d)",
        "layout": _pole_layout("nu", 0.1, 1.6),
        "translation": False,
    },
    "allee-holling2": {
        "concavity": DCONCAVE,
        "required": ("r", "K", "a", "b"),
        "optional": {"phi": 1.0},
        "positive": ("r", "K", "a", "b", "phi"),
        "constants": {},
        "f": _HOLLING2_CHECK + "\nreturn $r * x * (1.0 - x / $K) - $a * x / d + g * $phi",
        "fx": _HOLLING2_CHECK + "\nreturn $r * (1.0 - 2.0 * x / $K) - $a * $b / (d * d)",
        "layout": _pole_layout("b", 0.5, 1.5),
        "translation": False,
    },
    "holling-predation-linear-gamma": {
        "concavity": DCONCAVE,
        "required": ("r", "K", "b"),
        "optional": {},
        "positive": ("r", "K", "b"),
        "constants": {"p0": 52.0, "p1": 13.0},
        "f": _LINEAR_CHECK + "\nreturn $r * x * (1.0 - x / $K) - ($p0 - $p1 * g) * x / d",
        "fx": (_LINEAR_CHECK
               + "\nreturn $r * (1.0 - 2.0 * x / $K) - ($p0 - $p1 * g) * $b / (d * d)"),
        "layout": _pole_layout("b", 0.5, 1.5),
        "translation": False,
    },
}

FAMILY_NAMES = tuple(_FAMILIES)


def make_model(
    family: str,
    coefficients: dict,
    constants: dict = None,
    state_box: tuple = None,
) -> VectorFieldModel:
    """Build a catalog model.

    Coefficient values may be numbers, Curve objects, or spec dicts.
    The coefficients the family requires positive must have a positive
    lower bound over all t (see ``Curve.check_positive``). The annotations
    convert the fields of a config's model block (``tiplab.cli``).
    """
    if family not in _FAMILIES:
        raise ModelError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    spec = _FAMILIES[family]
    coeffs: dict[str, Curve] = {}
    for name in spec["required"]:
        if name not in coefficients:
            raise ModelError(f"family {family!r} requires coefficient {name!r}")
        coeffs[name] = make_coefficient(coefficients[name])
    for name, default in spec["optional"].items():
        coeffs[name] = make_coefficient(coefficients.get(name, default))
    unknown = set(coefficients) - set(coeffs)
    if unknown:
        raise ModelError(f"family {family!r} does not take coefficients {sorted(unknown)}")
    consts = dict(spec["constants"])
    for k, v in (constants or {}).items():
        if k not in consts:
            raise ModelError(f"family {family!r} does not take constant {k!r}")
        consts[k] = _number(f"family {family!r} constant {k!r}", v)
    for name in spec["positive"]:
        coeffs[name].check_positive()

    domain, default_box = spec["layout"](coeffs, consts)
    try:
        box = tuple(float(v) for v in (state_box if state_box is not None else default_box))
    except (TypeError, ValueError):
        box = ()
    if len(box) != 2 or not box[0] < box[1]:
        raise ModelError(f"state_box must be two increasing numbers, got {state_box!r}")
    if not (domain[0] < box[0] < box[1] < domain[1]):
        raise ModelError(f"state box {box} must sit strictly inside the domain {domain}")
    return VectorFieldModel(
        family=family,
        concavity=spec["concavity"],
        coefficients=coeffs,
        constants=consts,
        state_box=box,
        domain=domain,
        translation_invariant=spec["translation"],
    )

