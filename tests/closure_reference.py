"""Reference right-hand sides built from composed closures.

These are the closure builders tiplab used before its right-hand sides were
generated as source: one closure per coefficient and profile, one lambda per
mechanism path, one closure per family formula, and an outer lambda for the
additive tilt. The builders below are kept verbatim; only the glue that feeds
them tiplab objects is new. The compiled functions must agree with them bit
for bit, and raise DomainError at the same points.
"""

from __future__ import annotations

import math

from tiplab.models import DomainError, ModelError
from tiplab.transitions import TransitionError


# ---------------------------------------------------------------------------
# coefficients (verbatim)
# ---------------------------------------------------------------------------

def _stable_sigmoid(u: float) -> float:
    # logistic function without overflow for large |u|
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def _build_coefficient(kind, p):
    if kind == "constant":
        v = float(p["value"])
        return (lambda t, v=v: v), v, v
    if kind == "sin":
        off = float(p.get("offset", 0.0))
        a = float(p["amplitude"])
        w = float(p["omega"])
        sin = math.sin
        return (lambda t: off + a * sin(w * t)), off - abs(a), off + abs(a)
    if kind == "sin2":
        off = float(p.get("offset", 0.0))
        a = float(p["amplitude"])
        w = float(p["omega"])
        sin = math.sin
        lo, hi = sorted((off, off + a))
        return (lambda t: off + a * sin(w * t) ** 2), lo, hi
    if kind == "rational-dip":
        off = float(p.get("offset", 0.0))
        a = float(p["amplitude"])
        wd = float(p["width"])
        if wd <= 0.0:
            raise ModelError("rational-dip needs width > 0")
        lo, hi = sorted((off, off + a / wd))
        return (lambda t: off + a / (wd + t * t)), lo, hi
    if kind == "arctan":
        off = float(p.get("offset", 0.0))
        a = float(p["amplitude"])
        sc = float(p["scale"])
        ce = float(p.get("center", 0.0))
        if sc <= 0.0:
            raise ModelError("arctan needs scale > 0")
        atan = math.atan
        half = abs(a) * math.pi / 2.0
        return (lambda t: off + a * atan(sc * (t - ce))), off - half, off + half
    if kind == "sigmoid-blend":
        left = float(p["left"])
        right = float(p["right"])
        rate = float(p.get("rate", 1.0))
        ce = float(p.get("center", 0.0))
        if rate <= 0.0:
            raise ModelError("sigmoid-blend needs rate > 0")
        lo, hi = sorted((left, right))

        def fn(t, left=left, right=right, rate=rate, ce=ce):
            s = _stable_sigmoid(rate * (t - ce))
            return left * (1.0 - s) + right * s

        return fn, lo, hi
    if kind == "sum":
        off = float(p.get("offset", 0.0))
        terms = p["terms"]
        if not terms or not all(isinstance(c, Coefficient) for c in terms):
            raise ModelError("sum terms must be Coefficient instances")
        fns = tuple(c.closure for c in terms)
        lo = off + sum(c.bounds()[0] for c in terms)
        hi = off + sum(c.bounds()[1] for c in terms)
        return (lambda t: off + sum(f(t) for f in fns)), lo, hi
    raise ModelError(f"unknown coefficient kind {kind!r}")


class Coefficient:
    """Closure-built twin of a tiplab coefficient (glue)."""

    def __init__(self, coef):
        params = dict(coef.params)
        if coef.kind == "sum":
            params["terms"] = [Coefficient(c) for c in params["terms"]]
        self.closure, self._lo, self._hi = _build_coefficient(coef.kind, params)

    def bounds(self):
        return (self._lo, self._hi)


# ---------------------------------------------------------------------------
# families (verbatim)
# ---------------------------------------------------------------------------

def _build_logistic_migration(c, consts):
    r, I = c["r"].closure, c["I"].closure

    def f(t, x, g):
        d = x - g
        return -r(t) * d * d + I(t)

    def fx(t, x, g):
        return -2.0 * r(t) * (x - g)

    inf = math.inf
    return f, fx, None, (-inf, inf), (-20.0, 20.0), True


def _build_gompertz(c, consts):
    r, K, phi = c["r"].closure, c["K"].closure, c["phi"].closure
    log = math.log

    def f(t, x, g):
        if x <= 0.0:
            raise DomainError(f"gompertz field undefined at x={x!r} <= 0")
        return -r(t) * x * log(x / K(t)) + g * phi(t)

    def fx(t, x, g):
        if x <= 0.0:
            raise DomainError(f"gompertz field undefined at x={x!r} <= 0")
        return -r(t) * (log(x / K(t)) + 1.0)

    k_lo, k_hi = c["K"].bounds()
    return f, fx, None, (0.0, math.inf), (0.005 * k_lo, 3.0 * k_hi), False


def _build_beverton_holt(c, consts):
    r, alpha, phi = c["r"].closure, c["alpha"].closure, c["phi"].closure

    def f(t, x, g):
        den = 1.0 + alpha(t) * x
        if den <= 0.0:
            raise DomainError(f"beverton-holt field undefined at x={x!r}")
        return x * ((1.0 + r(t)) / den - 1.0) + g * phi(t)

    def fx(t, x, g):
        den = 1.0 + alpha(t) * x
        if den <= 0.0:
            raise DomainError(f"beverton-holt field undefined at x={x!r}")
        return (1.0 + r(t)) / (den * den) - 1.0

    a_lo, a_hi = c["alpha"].bounds()
    r_lo, r_hi = c["r"].bounds()
    domain_lo = -1.0 / a_hi
    box = (0.5 * domain_lo, 3.0 * r_hi / a_lo + 10.0)
    return f, fx, None, (domain_lo, math.inf), box, False


def _build_allee_cubic(c, consts):
    r, K, S, phi = c["r"].closure, c["K"].closure, c["S"].closure, c["phi"].closure

    def f(t, x, g):
        Kt = K(t)
        return r(t) * x * (1.0 - x / Kt) * (x - S(t)) / Kt + g * phi(t)

    def fx(t, x, g):
        Kt = K(t)
        St = S(t)
        return r(t) / Kt * (2.0 * x - St - (3.0 * x * x - 2.0 * St * x) / Kt)

    def fxx(t, x, g):
        Kt = K(t)
        return r(t) / Kt * (2.0 - (6.0 * x - 2.0 * S(t)) / Kt)

    k_hi = c["K"].bounds()[1]
    s_abs = max(abs(b) for b in c["S"].bounds())
    half = 1.5 * k_hi + s_abs + 1.0
    inf = math.inf
    return f, fx, fxx, (-inf, inf), (-half, half), False


def _build_allee_rational(c, consts):
    r, K, mu, nu = c["r"].closure, c["K"].closure, c["mu"].closure, c["nu"].closure
    phi = c["phi"].closure

    def f(t, x, g):
        nut = nu(t)
        if nut + x <= 0.0:
            raise DomainError(f"allee-multiplicative-rational undefined at x={x!r}")
        return r(t) * x * (1.0 - x / K(t)) * (x - mu(t)) / (nut + x) + g * phi(t)

    def fx(t, x, g):
        Kt = K(t)
        mut = mu(t)
        rt = r(t)
        d = nu(t) + x
        if d <= 0.0:
            raise DomainError(f"allee-multiplicative-rational undefined at x={x!r}")
        N = rt * (x * x - mut * x - (x ** 3 - mut * x * x) / Kt)
        Np = rt * (2.0 * x - mut - (3.0 * x * x - 2.0 * mut * x) / Kt)
        return (Np * d - N) / (d * d)

    def fxx(t, x, g):
        Kt = K(t)
        mut = mu(t)
        rt = r(t)
        d = nu(t) + x
        if d <= 0.0:
            raise DomainError(f"allee-multiplicative-rational undefined at x={x!r}")
        N = rt * (x * x - mut * x - (x ** 3 - mut * x * x) / Kt)
        Np = rt * (2.0 * x - mut - (3.0 * x * x - 2.0 * mut * x) / Kt)
        Npp = rt * (2.0 - (6.0 * x - 2.0 * mut) / Kt)
        return (Npp * d * d - 2.0 * Np * d + 2.0 * N) / (d ** 3)

    nu_lo = c["nu"].bounds()[0]
    k_hi = c["K"].bounds()[1]
    return f, fx, fxx, (-nu_lo, math.inf), (-0.1 * nu_lo, 1.6 * k_hi), False


def _build_allee_holling2(c, consts):
    r, K, a, b = c["r"].closure, c["K"].closure, c["a"].closure, c["b"].closure
    phi = c["phi"].closure

    def f(t, x, g):
        bt = b(t)
        if x + bt <= 0.0:
            raise DomainError(f"allee-holling2 undefined at x={x!r}")
        return r(t) * x * (1.0 - x / K(t)) - a(t) * x / (x + bt) + g * phi(t)

    def fx(t, x, g):
        bt = b(t)
        d = x + bt
        if d <= 0.0:
            raise DomainError(f"allee-holling2 undefined at x={x!r}")
        return r(t) * (1.0 - 2.0 * x / K(t)) - a(t) * bt / (d * d)

    def fxx(t, x, g):
        bt = b(t)
        d = x + bt
        if d <= 0.0:
            raise DomainError(f"allee-holling2 undefined at x={x!r}")
        return -2.0 * r(t) / K(t) + 2.0 * a(t) * bt / (d ** 3)

    b_lo = c["b"].bounds()[0]
    k_hi = c["K"].bounds()[1]
    return f, fx, fxx, (-b_lo, math.inf), (-0.5 * b_lo, 1.5 * k_hi), False


def _build_holling_linear(c, consts):
    r, K, b = c["r"].closure, c["K"].closure, c["b"].closure
    p0, p1 = consts["p0"], consts["p1"]

    def f(t, x, g):
        bt = b(t)
        if x + bt <= 0.0:
            raise DomainError(f"holling-predation-linear-gamma undefined at x={x!r}")
        return r(t) * x * (1.0 - x / K(t)) - (p0 - p1 * g) * x / (x + bt)

    def fx(t, x, g):
        bt = b(t)
        d = x + bt
        if d <= 0.0:
            raise DomainError(f"holling-predation-linear-gamma undefined at x={x!r}")
        return r(t) * (1.0 - 2.0 * x / K(t)) - (p0 - p1 * g) * bt / (d * d)

    def fxx(t, x, g):
        bt = b(t)
        d = x + bt
        if d <= 0.0:
            raise DomainError(f"holling-predation-linear-gamma undefined at x={x!r}")
        return -2.0 * r(t) / K(t) + 2.0 * (p0 - p1 * g) * bt / (d ** 3)

    b_lo = c["b"].bounds()[0]
    k_hi = c["K"].bounds()[1]
    return f, fx, fxx, (-b_lo, math.inf), (-0.5 * b_lo, 1.5 * k_hi), False


_BUILDERS = {
    "concave-logistic-migration": _build_logistic_migration,
    "gompertz": _build_gompertz,
    "beverton-holt": _build_beverton_holt,
    "allee-multiplicative-cubic": _build_allee_cubic,
    "allee-multiplicative-rational": _build_allee_rational,
    "allee-holling2": _build_allee_holling2,
    "holling-predation-linear-gamma": _build_holling_linear,
}


class Model:
    """Closure-built twin of a tiplab model (glue), tilt included."""

    def __init__(self, model):
        c = {name: Coefficient(coef) for name, coef in model.coefficients.items()}
        (self.f, self.fx, self.fxx, self.domain, self.default_box,
         self.translation_invariant) = _BUILDERS[model.family](c, model.constants)
        if model.tilt is not None:
            # the additive tilt, as the former tilted-model wrapper built it
            bf = self.f
            lam = float(model.tilt)
            self.f = lambda t, x, g: bf(t, x, g) + lam

    def frozen_rhs(self, gamma):
        f = self.f
        return lambda t, x: f(t, x, gamma)

    def transition_rhs(self, mechanism):
        f = self.f
        path = path_closure(mechanism)
        return lambda t, x: f(t, x, path(t))


# ---------------------------------------------------------------------------
# profiles (verbatim)
# ---------------------------------------------------------------------------

def _build_profile(kind, p):
    # returns (fn, limit_minus, limit_plus, range_lo, range_hi, monotone_after)
    if kind == "constant":
        v = float(p["value"])
        return (lambda t, v=v: v), v, v, v, v, -math.inf
    if kind == "cauchy-pulse":
        gp = float(p["gamma_plus"])
        gs = float(p["gamma_star"])
        b = float(p["b"])
        if b <= 0.0:
            raise TransitionError("cauchy-pulse needs b > 0")
        amp = gs - gp
        lo, hi = sorted((gp, gs))

        def fn(t, gp=gp, amp=amp, b=b):
            return gp + amp / (1.0 + b * t * t)

        # monotone toward the limit after the extremum at 0
        return fn, gp, gp, lo, hi, 0.0
    if kind in ("arctan-ramp", "arctan"):
        off = float(p.get("offset", 0.0))
        a = float(p["amplitude"])
        sc = float(p["scale"])
        if sc <= 0.0:
            raise TransitionError("arctan profile needs scale > 0")
        atan = math.atan
        half = a * math.pi / 2.0
        lo, hi = sorted((off - half, off + half))
        return (lambda t: off + a * atan(sc * t)), off - half, off + half, lo, hi, -math.inf
    if kind == "sigmoid-blend":
        left = float(p["left"])
        right = float(p["right"])
        rate = float(p.get("rate", 1.0))
        if rate <= 0.0:
            raise TransitionError("sigmoid-blend needs rate > 0")
        lo, hi = sorted((left, right))

        def fn(t, left=left, right=right, rate=rate):
            u = rate * t
            if u >= 0.0:
                s = 1.0 / (1.0 + math.exp(-u))
            else:
                e = math.exp(u)
                s = e / (1.0 + e)
            return left * (1.0 - s) + right * s

        return fn, left, right, lo, hi, -math.inf
    if kind == "rational-dip":
        off = float(p.get("offset", 0.0))
        a = float(p["amplitude"])
        wd = float(p["width"])
        if wd <= 0.0:
            raise TransitionError("rational-dip needs width > 0")
        lo, hi = sorted((off, off + a / wd))
        mono = 0.0 if a < 0.0 else -math.inf if a == 0.0 else 0.0
        return (lambda t: off + a / (wd + t * t)), off, off, lo, hi, mono
    raise TransitionError(f"unknown profile kind {kind!r}")


def profile_closure(profile):
    return _build_profile(profile.kind, profile.params)[0]


# ---------------------------------------------------------------------------
# mechanism paths (the lambdas verbatim, dispatched on the kind)
# ---------------------------------------------------------------------------

def path_closure(mech):
    kind = mech.kind
    if kind == "switching":
        pl, pr, t0 = path_closure(mech.left), path_closure(mech.right), mech.t0
        return lambda t: pl(t) if t < t0 else pr(t)
    G = profile_closure(mech.profile)
    if kind == "constant-rate":
        c = mech.c
        return lambda t: G(c * t)
    if kind == "phase":
        c, s = mech.c, mech.offset
        return lambda t: G(c * (t + s))
    if kind == "size":
        c = mech.c
        return lambda t: c * G(t)
    D = profile_closure(mech.delta)
    if kind == "time-dependent-rate":
        d = mech.d
        return lambda t: G(D(d * t) * t)
    if kind == "time-dependent-phase":
        c, d = mech.c, mech.d
        if mech.convention == "minus":
            return lambda t: G(c * (t - D(d * t)))
        return lambda t: G(c * (t + D(d * t)))
    if kind == "reaction":
        r, b, t1 = mech.r, mech.b, mech.t1
        tanh = math.tanh
        return lambda t: G((D(t) + r * tanh(b * (t - t1))) * t)
    raise ValueError(f"unknown mechanism kind {kind!r}")
