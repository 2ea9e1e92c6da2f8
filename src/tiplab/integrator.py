"""Scalar ODE integration, dense output, blow-up detection and bisection.

The method is the Dormand-Prince embedded Runge-Kutta 5(4) pair with FSAL
and standard step-size control. Between accepted nodes the solution is
evaluated by cubic Hermite interpolation on the stored values and slopes.
Backward integration is realized by the substitution s = -t, so one forward
stepper serves both directions. Nodes are collected in flat ``array('d')``
buffers, which the trajectory reads as numpy arrays without a copy.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass, field, is_dataclass

import numpy as np


class IntegrationError(RuntimeError):
    """Step-size underflow, step budget exhausted, or invalid setup."""


def _check_ranges(config, what: str, least: dict, error: type) -> None:
    """Raise error, naming the field, on the first number field of a config
    dataclass that is below its value in least, or not positive where least
    has none. A nested config block is left to its own check."""
    for name, value in vars(config).items():
        low = least.get(name)
        if not is_dataclass(value) and not (value > 0 if low is None else value >= low):
            rule = "positive" if low is None else f"at least {low}"
            raise error(f"{what} field {name!r} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1.0e-10
    atol: float = 1.0e-12
    max_step: float = 10.0
    x_max: float = 1.0e6           # |x| >= x_max counts as blow-up
    max_steps: int = 20_000_000

    def __post_init__(self):
        _check_ranges(self, "integrator", {"max_steps": 1}, IntegrationError)


DEFAULT_CONFIG = IntegratorConfig()

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# difference between 5th and 4th order weights
_E1 = 35 / 384 - 5179 / 57600
_E3 = 500 / 1113 - 7571 / 16695
_E4 = 125 / 192 - 393 / 640
_E5 = -2187 / 6784 + 92097 / 339200
_E6 = 11 / 84 - 187 / 2100
_E7 = -1 / 40


@dataclass
class Trajectory:
    """Accepted integration nodes (t ascending) with values and slopes.

    status is "completed" or "blow-up"; in the latter case t_blow marks where
    |x| reached the blow-up bound and no samples exist beyond it in the
    direction of integration. t, x and f are read-only: limit sets are
    shared between callers, so an in-place write would change later answers.
    """

    direction: str                 # "forward" | "backward"
    t: np.ndarray
    x: np.ndarray
    f: np.ndarray
    status: str
    t_blow: float | None
    _tl: array = field(repr=False)  # the buffer t views, for bisect in __call__

    @property
    def t_start(self) -> float:
        return self.t[0] if self.direction == "forward" else self.t[-1]

    @property
    def t_end(self) -> float:
        return self.t[-1] if self.direction == "forward" else self.t[0]

    @property
    def span(self) -> tuple[float, float]:
        return (self.t[0], self.t[-1])

    def covers(self, a: float, b: float | None = None) -> bool:
        lo, hi = self.t[0], self.t[-1]
        if b is None:
            b = a
        return lo <= min(a, b) and max(a, b) <= hi

    def __call__(self, time: float) -> float:
        """Cubic Hermite evaluation; exact at nodes."""
        tl = self._tl
        if not tl[0] <= time <= tl[-1]:
            raise IntegrationError(
                f"evaluation time {time} outside trajectory span [{tl[0]}, {tl[-1]}]"
            )
        i = bisect.bisect_right(tl, time) - 1
        if i >= len(tl) - 1:
            return float(self.x[-1])
        if time == tl[i]:
            return float(self.x[i])
        return float(_hermite(tl[i], self.x[i], self.f[i],
                              tl[i + 1], self.x[i + 1], self.f[i + 1], time))

    def eval_array(self, times: np.ndarray) -> np.ndarray:
        """Vectorized Hermite evaluation; every time must lie in the span."""
        times = np.asarray(times, dtype=float)
        t = self.t
        if times.size and (times.min() < t[0] or times.max() > t[-1]):
            raise IntegrationError(
                f"evaluation times outside trajectory span [{t[0]}, {t[-1]}]")
        i = np.clip(np.searchsorted(t, times, side="right") - 1, 0, len(t) - 2)
        return _hermite(t[i], self.x[i], self.f[i],
                        t[i + 1], self.x[i + 1], self.f[i + 1], times)

    def shifted(self, dx: float) -> "Trajectory":
        """Trajectory of x + dx; valid when the shifted curve solves the
        correspondingly translated equation (slopes are unchanged)."""
        return Trajectory(self.direction, self.t, _read_only(self.x + dx), self.f,
                          self.status, self.t_blow, _tl=self._tl)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _view(buf: array) -> np.ndarray:
    """Read-only float array over the buffer, without a copy."""
    return _read_only(np.frombuffer(buf, dtype=float))


def _hermite(t0, x0, f0, t1, x1, f1, time):
    h = t1 - t0
    s = (time - t0) / h
    m = 1.0 - s
    return (m * m * (1.0 + 2.0 * s) * x0 + s * m * m * h * f0
            + s * s * (3.0 - 2.0 * s) * x1 - s * s * m * h * f1)


def _bisect(pred, a: float, b: float, tol: float) -> tuple[float, float, int]:
    """Bisect between a, where pred is false, and b, where it holds (a may
    lie on either side of b): the midpoint m replaces b when pred(m) holds
    and a otherwise. Stops once |b - a| <= tol, or when m no longer falls
    strictly between a and b (adjacent floats), so tol = 0 terminates.
    Returns (a, b, steps)."""
    steps = 0
    while abs(b - a) > tol:
        m = 0.5 * (a + b)
        if not (a < m < b or b < m < a):
            break
        if pred(m):
            b = m
        else:
            a = m
        steps += 1
    return a, b, steps


def _first_hit(pred, grid, tol: float) -> tuple[float, float] | None:
    """Bracket the first grid point where pred holds: (t, t) when it is the
    first one, else _bisect's (a, b) against the point before it; None when
    pred holds nowhere on the grid."""
    prev = None
    for t in grid:
        if pred(t):
            return (t, t) if prev is None else _bisect(pred, prev, t, tol)[:2]
        prev = t
    return None


def _locate_blow(t0, x0, f0, t1, x1, f1, x_max):
    """First float in (t0, t1] at which the Hermite interpolant of the step
    reaches x_max on the side of x1."""
    side = 1.0 if x1 >= 0 else -1.0
    beyond = lambda t: side * _hermite(t0, x0, f0, t1, x1, f1, t) >= x_max
    return _bisect(beyond, t0, t1, 0.0)[1]


def _step_dopri(rhs, t, x, h, k1):
    k2 = rhs(t + _C2 * h, x + h * (_A21 * k1))
    k3 = rhs(t + _C3 * h, x + h * (_A31 * k1 + _A32 * k2))
    k4 = rhs(t + _C4 * h, x + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = rhs(t + _C5 * h, x + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = rhs(t + h, x + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
    x_new = x + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    k7 = rhs(t + h, x_new)
    err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    return x_new, k7, err


def _integrate_forward(rhs, t0, x0, t1, cfg):
    ts = array("d", (t0,))
    xs = array("d", (x0,))
    k1 = rhs(t0, x0)
    if not math.isfinite(k1):
        raise IntegrationError(f"right-hand side not finite at start ({t0}, {x0})")
    fs = array("d", (k1,))
    status, t_blow = "completed", None
    span = t1 - t0
    h = min(cfg.max_step, max(1e-6, 1e-3 * span), span)
    t, x = t0, x0
    isfinite = math.isfinite
    rtol, atol, x_max = cfg.rtol, cfg.atol, cfg.x_max
    steps = 0
    while t < t1:
        if steps >= cfg.max_steps:
            raise IntegrationError(f"step budget exhausted at t={t}")
        steps += 1
        h = min(h, cfg.max_step, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            if abs(x) >= 1e-3 * x_max:
                # the controller stalls on a solution that is already huge
                # and still growing: an escape whose asymptote sits just
                # short of x_max; record the blow-up at the stall point
                status = "blow-up"
                t_blow = t
                break
            raise IntegrationError(f"step size underflow at t={t}")
        try:
            x_new, k7, err = _step_dopri(rhs, t, x, h, k1)
        except (ValueError, ArithmeticError):
            # a trial stage left the rhs domain; treat as a failed step
            h *= 0.25
            continue
        if not (isfinite(x_new) and isfinite(k7) and isfinite(err)):
            h *= 0.25
            continue
        sc = atol + rtol * max(abs(x), abs(x_new))
        aerr = abs(err)
        if aerr <= sc:
            # t + (t1 - t) can miss t1 by an ulp; the clipped step ends on t1
            t_next = t1 if h == t1 - t else t + h
            if abs(x_new) >= x_max:
                tb = _locate_blow(t, x, k1, t_next, x_new, k7, x_max)
                xb = _hermite(t, x, k1, t_next, x_new, k7, tb)
                ts.append(tb)
                xs.append(xb)
                try:
                    fb = rhs(tb, xb)
                except (ValueError, ArithmeticError):
                    fb = math.nan
                fs.append(fb if isfinite(fb) else 0.0)
                status = "blow-up"
                t_blow = tb
                break
            t, x, k1 = t_next, x_new, k7
            ts.append(t)
            xs.append(x)
            fs.append(k1)
            factor = 10.0 if aerr == 0.0 else min(10.0, max(0.2, 0.9 * (sc / aerr) ** 0.2))
            h *= factor
        else:
            h *= max(0.2, 0.9 * (sc / aerr) ** 0.2)
    return ts, xs, fs, status, t_blow


def integrate(rhs, t_start: float, x0: float, t_end: float,
              config: IntegratorConfig = DEFAULT_CONFIG) -> Trajectory:
    """Integrate x' = rhs(t, x) from (t_start, x0) to t_end.

    t_end < t_start integrates backward via the substitution s = -t; the
    returned samples are always stored with ascending t.
    """
    t_start, x0, t_end = float(t_start), float(x0), float(t_end)
    if t_end == t_start:
        raise IntegrationError("empty integration span")
    if abs(x0) >= config.x_max:
        raise IntegrationError(f"initial value {x0} already beyond the blow-up bound")
    if t_end > t_start:
        ts, xs, fs, status, t_blow = _integrate_forward(
            rhs, t_start, x0, t_end, config)
        return Trajectory("forward", _view(ts), _view(xs), _view(fs),
                          status, t_blow, _tl=ts)
    rev = lambda s, y: -rhs(-s, y)
    ts, xs, fs, status, t_blow = _integrate_forward(
        rev, -t_start, x0, -t_end, config)
    # back to the original clock: t = -s ascending, slopes dx/dt = -dy/ds
    for buf in (ts, xs, fs):
        buf.reverse()
    for buf in (ts, fs):
        v = np.frombuffer(buf, dtype=float)
        np.negative(v, out=v)
    return Trajectory("backward", _view(ts), _view(xs), _view(fs),
                      status, (-t_blow if t_blow is not None else None), _tl=ts)
