"""Reference quadratures built from per-node reads.

These are the quadratures tiplab ran before its FTLE and Lyapunov
integrands were read by one walk over the trajectory's nodes: a bisect and
a Hermite evaluation per Gauss node (the former ``Trajectory.__call__``),
the integrand as a closure over ``model.fx`` (g(s) = fx(s, traj(s), gamma)
for the Lyapunov exponent, fx(s, traj(s), path(s)) for the FTLE series),
and the former ``gauss3_interval_integrals`` loop over g. The code below is
kept verbatim; only the glue that feeds it tiplab objects is new. The walk
must agree with it bit for bit and raise the same errors at the same Gauss
node.
"""

from __future__ import annotations

import bisect
import math
from types import SimpleNamespace

import numpy as np

from tiplab.attractors import QUAD_H, QUAD_TOL, AttractorError, LyapunovEstimate
from tiplab.ews import EwsError, FtleSeries
from tiplab.integrator import IntegrationError


# ---------------------------------------------------------------------------
# dense output (verbatim, as a function of the trajectory)
# ---------------------------------------------------------------------------

def _hermite(t0, x0, f0, t1, x1, f1, time):
    h = t1 - t0
    s = (time - t0) / h
    m = 1.0 - s
    return (m * m * (1.0 + 2.0 * s) * x0 + s * m * m * h * f0
            + s * s * (3.0 - 2.0 * s) * x1 - s * s * m * h * f1)


def trajectory_at(self, time: float) -> float:
    """Cubic Hermite evaluation; exact at nodes."""
    tl = self.t
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


# ---------------------------------------------------------------------------
# quadrature (verbatim)
# ---------------------------------------------------------------------------

_G3_OFF = math.sqrt(3.0 / 5.0)   # Gauss-Legendre 3-point nodes at +-off, 0
_G3_W = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


def gauss3_interval_integrals(g, a: float, h: float, n: int) -> np.ndarray:
    """Integrals of g over the n intervals [a + i*h, a + (i+1)*h]."""
    w1, w2, w3 = _G3_W
    off = _G3_OFF * 0.5 * h
    half = 0.5 * h
    out = np.empty(n)
    for i in range(n):
        m = a + (i + 0.5) * h
        out[i] = half * (w1 * g(m - off) + w2 * g(m) + w3 * g(m + off))
    return out


# ---------------------------------------------------------------------------
# the integrands (verbatim closures; glue: traj reads through trajectory_at)
# ---------------------------------------------------------------------------

def _reader(trajectory):
    return lambda s: trajectory_at(trajectory, s)


def frozen_integrand(model, gamma, trajectory):
    traj = _reader(trajectory)
    fx = model.fx

    def g(s):
        return fx(s, traj(s), gamma)

    return g


def path_integrand(model, mechanism, trajectory):
    traj = _reader(trajectory)
    path = mechanism.path
    fx = model.fx

    def g(s: float) -> float:
        return fx(s, traj(s), path(s))

    return g


# ---------------------------------------------------------------------------
# the exponent and the series (verbatim; glue: the integrands above, and
# QUADRATURE_NUM for their num)
# ---------------------------------------------------------------------------

# the quadrature settings the code below reads from num, which are the
# attractors constants now
QUADRATURE_NUM = SimpleNamespace(quad_h=QUAD_H, quad_tol=QUAD_TOL)


def estimate_lyapunov(model, gamma, solution, window_length, num):
    w0, w1 = solution.window
    c = 0.5 * (w0 + w1)
    a, b = c - 0.5 * window_length, c + 0.5 * window_length
    if a < w0 - 1e-9 or b > w1 + 1e-9:
        raise AttractorError(
            f"averaging window {window_length} exceeds the estimate window {solution.window}"
        )
    g = frozen_integrand(model, gamma, solution.trajectory)

    def average(lo, hi, h_target):
        n = max(1, int(math.ceil((hi - lo) / h_target)))
        h = (hi - lo) / n
        return float(np.sum(gauss3_interval_integrals(g, lo, h, n))) / (hi - lo)

    val = average(a, b, num.quad_h)
    val_fine = average(a, b, 0.5 * num.quad_h)
    quad_gap = abs(val - val_fine)
    if quad_gap > num.quad_tol:
        val_fine2 = average(a, b, 0.25 * num.quad_h)
        quad_gap = abs(val_fine - val_fine2)
        val_fine = val_fine2
    half = average(c - 0.25 * window_length, c + 0.25 * window_length, num.quad_h)
    return LyapunovEstimate(
        value=val_fine, window=window_length,
        sensitivity=abs(val_fine - half), quad_gap=quad_gap,
    )


_FTLE_MAX_HALVINGS = 4     # step halvings of the FTLE quadrature


def _series_on_step(g, a0: float, h: float, n: int, m: int) -> np.ndarray:
    parts = gauss3_interval_integrals(g, a0, h, n)
    cum = np.concatenate(([0.0], np.cumsum(parts)))
    return (cum[m:] - cum[:-m]) / (m * h)


def ftle_series(model, mechanism, traj, T, num, t_min=None, t_max=None):
    if T <= 0.0:
        raise EwsError("window length must be positive")
    lo_feasible = traj.t[0] + T
    hi_feasible = traj.t[-1]
    if lo_feasible > hi_feasible:
        raise EwsError(f"solution span {traj.span} shorter than the window {T}")
    t1 = min(t_max, hi_feasible) if t_max is not None else hi_feasible
    t0 = max(t_min, lo_feasible) if t_min is not None else lo_feasible
    if t0 > t1:
        raise EwsError("empty time range after clipping to the solution span")

    g = path_integrand(model, mechanism, traj)

    m = max(1, round(T / num.quad_h))
    h = T / m
    a0 = t0 - T
    n = m + max(1, int(math.ceil((t1 - t0) / h - 1e-12)))
    while a0 + n * h > traj.t[-1] + 1e-12:
        n -= 1
    if n < m:
        raise EwsError("no full window fits in the solution span")

    vals = _series_on_step(g, a0, h, n, m)
    gap = math.inf
    for _ in range(_FTLE_MAX_HALVINGS):
        h2, n2, m2 = h / 2.0, 2 * n, 2 * m
        vals2 = _series_on_step(g, a0, h2, n2, m2)
        gap = float(np.abs(vals2[::2] - vals).max())
        if gap <= num.quad_tol:
            break
        h, n, m, vals = h2, n2, m2, vals2
    else:
        raise EwsError(f"quadrature refinement stalled at gap {gap:.3e}")
    times = a0 + h * np.arange(m, n + 1)
    return FtleSeries(T, times, vals, gap)
