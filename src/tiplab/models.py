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

# the parameter names each curve kind reads
_CURVE_PARAMS = {
    "constant": {"value"},
    "sin": {"offset", "amplitude", "omega"},
    "sin2": {"offset", "amplitude", "omega"},
    "rational-dip": {"offset", "amplitude", "width"},
    "arctan": {"offset", "amplitude", "scale", "center"},
    "sigmoid-blend": {"left", "right", "rate", "center"},
    "cauchy-pulse": {"gamma_plus", "gamma_star", "b"},
    "sum": {"offset", "terms"},
}
# "arctan-ramp" is read as "arctan"
CURVE_KINDS = (*_CURVE_PARAMS, "arctan-ramp")
# grid on which Curve.check_positive samples a loose ``sum`` bound
_POSITIVE_T_MAX, _POSITIVE_STEP = 1.0e4, 0.25


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

    ``center`` is optional (arctan and sigmoid-blend only); without it the
    formula reads t for t - center. Any other parameter name raises.
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
        stray = sorted(set(params) - _CURVE_PARAMS[self.kind])
        if stray:
            raise ModelError(f"unknown {self.kind!r} curve parameters {stray}")
        self.params = dict(params)
        (self._p, (self._lo, self._hi),
         (self.limit_minus, self.limit_plus)) = _curve_numbers(self.kind, params)
        if "center" in params:      # read by arctan and sigmoid-blend
            self._p["center"] = float(params["center"])
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
            # sum() adds left to right from the integer 0
            return f"{e.num(p['offset'])} + (0 + {terms})"
        if kind == "cauchy-pulse":
            first, again = e.once(arg)
            return (f"{e.num(p['gamma_plus'])} + {e.num(p['amp'])} / "
                    f"(1.0 + {e.num(p['b'])} * {first} * {again})")
        if kind == "sigmoid-blend":
            u = f"{e.num(p['rate'])} * {self._centered(e, arg)}"
            return e.sigmoid_blend(e.num(p["left"]), e.num(p["right"]), u)
        off, a = e.num(p["offset"]), e.num(p["amplitude"])
        if kind == "sin":
            return f"{off} + {a} * {e.sin(p['omega'], arg)}"
        if kind == "sin2":
            return f"{off} + {a} * {e.sin(p['omega'], arg)} ** 2"
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
        """Positive lower bound of the curve over all t; raises if there is
        none.

        The closed-form bound decides for every kind but ``sum``, whose bound
        (the sum of its terms' bounds) may be loose: when it is not positive,
        the minimum is sampled on a _POSITIVE_STEP grid over
        [-_POSITIVE_T_MAX, _POSITIVE_T_MAX] instead.
        """
        m = self._lo
        if m <= 0.0 and self.kind == "sum":
            fn = self._fn
            n = int(_POSITIVE_T_MAX / _POSITIVE_STEP)
            m = min(fn(i * _POSITIVE_STEP) for i in range(-n, n + 1))
        if m <= 0.0:
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


def _curve_numbers(kind, p):
    """Validated float parameters of a curve, its range bounds (lo, hi) and
    its limits at -inf and +inf ((None, None) when it has none)."""
    none = (None, None)
    if kind == "constant":
        v = float(p["value"])
        return {"value": v}, (v, v), (v, v)
    if kind == "sum":
        off = float(p.get("offset", 0.0))
        terms = p["terms"]
        if not terms or not all(isinstance(c, Curve) for c in terms):
            raise ModelError("sum terms must be Curve instances")
        lo = off + sum(c.bounds()[0] for c in terms)
        hi = off + sum(c.bounds()[1] for c in terms)
        return {"offset": off, "terms": tuple(terms)}, (lo, hi), none
    if kind == "cauchy-pulse":
        gp = float(p["gamma_plus"])
        gs = float(p["gamma_star"])
        b = float(p["b"])
        if b <= 0.0:
            raise ModelError("cauchy-pulse needs b > 0")
        return {"gamma_plus": gp, "amp": gs - gp, "b": b}, sorted((gp, gs)), (gp, gp)
    if kind == "sigmoid-blend":
        left = float(p["left"])
        right = float(p["right"])
        rate = float(p.get("rate", 1.0))
        if rate <= 0.0:
            raise ModelError("sigmoid-blend needs rate > 0")
        return {"left": left, "right": right, "rate": rate}, sorted((left, right)), (left, right)
    off = float(p.get("offset", 0.0))
    a = float(p["amplitude"])
    if kind in ("sin", "sin2"):
        w = float(p["omega"])
        bounds = (off - abs(a), off + abs(a)) if kind == "sin" else sorted((off, off + a))
        return {"offset": off, "amplitude": a, "omega": w}, bounds, none
    if kind == "rational-dip":
        wd = float(p["width"])
        if wd <= 0.0:
            raise ModelError("rational-dip needs width > 0")
        return ({"offset": off, "amplitude": a, "width": wd},
                sorted((off, off + a / wd)), (off, off))
    # arctan: off -+ |a|*pi/2 equals off -+ a*pi/2 bit for bit when a >= 0,
    # and off +- a*pi/2 when a < 0
    sc = float(p["scale"])
    if sc <= 0.0:
        raise ModelError("arctan needs scale > 0")
    half = abs(a) * math.pi / 2.0
    lo, hi = off - half, off + half
    return ({"offset": off, "amplitude": a, "scale": sc},
            (lo, hi), (lo, hi) if a >= 0.0 else (hi, lo))


def make_coefficient(spec) -> Curve:
    """Build a Curve from a number, a Curve, or a {kind, ...params} dict."""
    if isinstance(spec, Curve):
        return spec
    if isinstance(spec, (int, float)):
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
    interest live; seeds and concavity checks are taken relative to it.
    The domain is the open x-interval on which the field is defined
    (poles of rational terms lie outside it). A tilt, when set, is a
    constant added to f (not to its x-derivatives).

    f, its x-derivatives and the right-hand sides are generated from the
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
    _fxx: Callable | None = field(init=False, repr=False, compare=False)
    _tilts: dict = field(init=False, repr=False, compare=False)
    _limit_sets: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._tilts = {}
        self._limit_sets = {}
        self._f = self._compile("f", "t, x, g")
        self._fx = self._compile("fx", "t, x, g")
        self._fxx = (self._compile("fxx", "t, x, g")
                     if _FAMILIES[self.family]["fxx"] else None)

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

    def fxx(self, t: float, x: float, gamma: float) -> float:
        if self._fxx is None:
            raise ModelError(
                f"second x-derivative is not exposed for concave family {self.family!r}"
            )
        return self._fxx(t, x, gamma)

    def frozen_rhs(self, gamma: float) -> Callable[[float, float], float]:
        """Right-hand side t, x -> f(t, x, gamma) with gamma frozen."""
        e = Emitter()
        e.bind("g", gamma)
        return e.compile("frozen_rhs", "t, x", self._emit(e, "f"))

    def transition_rhs(self, mechanism) -> Callable[[float, float], float]:
        """Right-hand side t, x -> f(t, x, path(t)) along a parameter path."""
        e = Emitter()
        e.lines.append(f"g = {mechanism.emit_path(e)}")
        return e.compile("transition_rhs", "t, x", self._emit(e, "f"))

    def tilted(self, lam: float) -> "VectorFieldModel":
        """The same model with field f(t, x, gamma) + lam.

        The same lam gives the same copy, so its limit sets are shared; 0.0
        and -0.0 are kept apart, since the tilt is part of the rhs. Only the
        first _TILTS_HELD tilts are kept.
        """
        lam = float(lam)
        key = lam.hex()
        model = self._tilts.get(key)
        if model is None:
            model = replace(self, tilt=lam)
            if len(self._tilts) < _TILTS_HELD:
                self._tilts[key] = model
        return model

    def limit_sets(self, num) -> dict:
        """The limit sets kept for the numerics num (classify.LimitCache
        fills it); they live as long as the model."""
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

# family name -> concavity, required coefficients, optional coefficients
# w/ defaults, required positive, constants w/ defaults, the f/fx/fxx
# formulas (fxx None for concave families), the (domain, default state box)
# layout and translation invariance in gamma
_FAMILIES: dict[str, dict] = {
    "concave-logistic-migration": {
        "concavity": CONCAVE,
        "required": ("r", "I"),
        "optional": {},
        "positive": ("r",),
        "constants": {},
        "f": "d = x - g\nreturn -$r * d * d + $I",
        "fx": "return -2.0 * $r * (x - g)",
        "fxx": None,
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
        "fxx": None,
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
        "fxx": None,
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
        "fxx": "return $r / $K * (2.0 - (6.0 * x - 2.0 * $S) / $K)",
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
        "fxx": (_RATIONAL_CHECK + "\n" + _RATIONAL_N
                + "Npp = $r * (2.0 - (6.0 * x - 2.0 * $mu) / $K)\n"
                + "return (Npp * d * d - 2.0 * Np * d + 2.0 * N) / (d ** 3)"),
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
        "fxx": _HOLLING2_CHECK + "\nreturn -2.0 * $r / $K + 2.0 * $a * $b / (d ** 3)",
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
        "fxx": (_LINEAR_CHECK
                + "\nreturn -2.0 * $r / $K + 2.0 * ($p0 - $p1 * g) * $b / (d ** 3)"),
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
        consts[k] = float(v)
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


# ---------------------------------------------------------------------------
# concavity verification
# ---------------------------------------------------------------------------

@dataclass
class ConcavityReport:
    concavity: str
    passed: bool
    delta: float          # margin: second differences are <= -delta
    worst: float          # largest sampled second difference quotient
    samples: int


# the sample grid of check_concavity_class: t on [0, 60], x across the state
# box, three frozen parameters, and the difference step as a box fraction
_CONCAVITY_T_SPAN, _CONCAVITY_T_SAMPLES, _CONCAVITY_X_SAMPLES = (0.0, 60.0), 31, 41
_CONCAVITY_GAMMAS, _CONCAVITY_STEP = (-1.0, 0.0, 1.0), 1.0e-3


def check_concavity_class(model) -> ConcavityReport:
    """Verify strict concavity of f (concave class) or of f_x (d-concave class)
    by sampled second difference quotients in x over the state box.

    Passes when every sampled quotient is <= -delta for the reported delta > 0.
    """
    lo, hi = model.state_box
    h = (hi - lo) * _CONCAVITY_STEP
    nx, nt = _CONCAVITY_X_SAMPLES, _CONCAVITY_T_SAMPLES
    t0, t1 = _CONCAVITY_T_SPAN
    # keep x +- h inside the sampled box
    xs = [lo + h + (hi - lo - 2 * h) * i / (nx - 1) for i in range(nx)]
    ts = [t0 + (t1 - t0) * i / (nt - 1) for i in range(nt)]
    if model.concavity == CONCAVE:
        g = model.f
    else:
        g = model.fx
    worst = -math.inf
    n = 0
    for gam in _CONCAVITY_GAMMAS:
        for t in ts:
            for x in xs:
                d2 = (g(t, x + h, gam) - 2.0 * g(t, x, gam) + g(t, x - h, gam)) / (h * h)
                if d2 > worst:
                    worst = d2
                n += 1
    passed = worst < 0.0
    return ConcavityReport(
        concavity=model.concavity,
        passed=passed,
        delta=-worst if passed else 0.0,
        worst=worst,
        samples=n,
    )
