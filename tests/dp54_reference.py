"""The DP54 step loop as it was before it was generated per right-hand side.

``integrate`` called ``_step_dopri`` once per trial step, and that called
the right-hand side at every stage; the step controller called ``min``,
``max``, ``abs`` and ``math.isfinite``. The tableau, ``_step_dopri``,
``_integrate_forward`` and ``integrate`` (with its backward wrapper) below
are kept verbatim. The only glue is that the returned ``Trajectory`` also
gets its ``x`` and ``f`` buffers, which it keeps now. The generated loop must
agree with this one bit for bit: the same nodes, slopes, status and blow-up
time, or the same error with the same message.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from tiplab.integrator import (
    DEFAULT_CONFIG,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    _hermite,
    _locate_blow,
    _view,
)

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
                          status, t_blow)
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
                      status, (-t_blow if t_blow is not None else None))
