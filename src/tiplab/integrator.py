"""Scalar ODE integration, dense output, blow-up detection and bisection.

The method is the Dormand-Prince embedded Runge-Kutta 5(4) pair with FSAL
(Hairer, Norsett & Wanner, Solving ODEs I, II.5) and standard step-size
control. Between accepted nodes the solution is evaluated by cubic Hermite
interpolation on the stored values and slopes. Backward integration is
realized by the substitution s = -t. Nodes are collected in flat
``array('d')`` buffers, which the trajectory reads as numpy arrays without
a copy.

The step loop exists once, as source (``_DP54``), and is generated per
right-hand side and direction through ``_codegen`` (``_dp54``). The
statements of a generated right-hand side are pasted into the stages of a
trial step, in their own order; any other callable is called from the same
stages. Each operation keeps its operands and its order, and negation is
exact, so the nodes are bitwise those of calling the right-hand side. The
loop source is formatted on each integration and compiled once per source
text, through the one cache in ``_codegen``.

The step-size rule is the standard one (Hairer, Norsett & Wanner, II.4),
written so that a step calls no builtin and picks the same floats as the
builtin calls would; the comment on ``_DP54`` has the argument.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from ._codegen import Emitter


class IntegrationError(RuntimeError):
    """Step-size underflow, step budget exhausted, or invalid setup."""


def _check_ranges(config, what: str, least: dict, error: type) -> None:
    """Raise error, naming the field, on the first number field of a config
    dataclass that is a boolean, not an int where an int is declared, below
    its value in least, or not positive where least has none; a nested
    config block is left to its own check."""
    for f in fields(config):
        value, low, whole = getattr(config, f.name), least.get(f.name), f.type == "int"
        if is_dataclass(value):
            continue
        if isinstance(value, bool) or not isinstance(value, int if whole else (int, float)):
            rule = "a whole number" if whole else "a number"
        elif not (value > 0 if low is None else value >= low):
            rule = "positive" if low is None else f"at least {low}"
        else:
            continue
        raise error(f"{what} field {f.name!r} must be {rule}, got {value!r}")


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

# Dormand-Prince 5(4) tableau. Stage i = 2..6 takes the slope at
# t + C[i]*h (t + h for stage 6) and x + h*(sum of A[i][j]*k_j); stage 7
# takes it at t + h and the 5th-order solution. B (5th order) and E (5th
# minus 4th order) have no k2 term and are kept as (j, weight) pairs.
_C = {2: 1 / 5, 3: 3 / 10, 4: 4 / 5, 5: 8 / 9}
_A = {
    2: (1 / 5,),
    3: (3 / 40, 9 / 40),
    4: (44 / 45, -56 / 15, 32 / 9),
    5: (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    6: (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
}
_B = ((1, 35 / 384), (3, 500 / 1113), (4, 125 / 192), (5, -2187 / 6784), (6, 11 / 84))
_E = ((1, 35 / 384 - 5179 / 57600), (3, 500 / 1113 - 7571 / 16695),
      (4, 125 / 192 - 393 / 640), (5, -2187 / 6784 + 92097 / 339200),
      (6, 11 / 84 - 187 / 2100), (7, -1 / 40))


@dataclass
class Trajectory:
    """Accepted integration nodes (t ascending) with values and slopes.

    status is "completed" or "blow-up"; in the latter case t_blow marks where
    |x| reached the blow-up bound and no samples exist beyond it in the
    direction of integration. t, x and f are read-only: limit sets are
    shared between callers, so an in-place write would change later answers.
    They view the buffers the loop filled, without a copy. steps counts the
    trial steps, rejected ones included, of the run from its start, and
    len(t) - 1 steps are accepted here; a completed run can be carried on
    (``continued``), a run that blew up cannot.
    """

    direction: str                 # "forward" | "backward"
    t: np.ndarray
    x: np.ndarray
    f: np.ndarray
    status: str
    t_blow: float | None
    steps: int = 0
    # (rhs, t_end in the integration clock, config, next trial step) of a
    # completed run, else None
    _resume: tuple | None = field(default=None, repr=False)

    @property
    def t_start(self) -> float:
        return self.t[0] if self.direction == "forward" else self.t[-1]

    @property
    def t_end(self) -> float:
        return self.t[-1] if self.direction == "forward" else self.t[0]

    @property
    def span(self) -> tuple[float, float]:
        return (self.t[0], self.t[-1])

    def covers(self, time: float) -> bool:
        return self.t[0] <= time <= self.t[-1]

    def __call__(self, time: float) -> float:
        """Cubic Hermite evaluation; exact at nodes."""
        return float(self.eval_array(time))

    def eval_array(self, times: np.ndarray) -> np.ndarray:
        """Cubic Hermite evaluation at every time, exact at nodes; every time
        must lie in the span."""
        times = np.asarray(times, dtype=float)
        t, x, f = self.t, self.x, self.f
        outside = ~((times >= t[0]) & (times <= t[-1]))
        if outside.any():
            raise _span_error(t, float(times[outside].flat[0]))
        k = np.searchsorted(t, times, side="right") - 1   # the node at or before
        i = np.minimum(k, len(t) - 2)
        v = _hermite(t[i], x[i], f[i], t[i + 1], x[i + 1], f[i + 1], times)
        return np.where(times == t[k], x[k], v)   # a node's own value: -0.0 stays

    def shifted(self, dx: float) -> "Trajectory":
        """Trajectory of x + dx; valid when the shifted curve solves the
        correspondingly translated equation (slopes are unchanged)."""
        return Trajectory(self.direction, self.t, _read_only(self.x + dx), self.f,
                          self.status, self.t_blow, steps=self.steps)

    def continued(self, time: float) -> "Trajectory":
        """The completed run carried on from its last node: toward its end
        it steps as the uninterrupted run, bit for bit, and ends after its
        first node past time; past its end, the end moves to time and the
        run ends on time. The next trial step and steps carry over. The new
        trajectory holds the new nodes only, from that last node on, so a
        reader past the end of a shared run copies nothing."""
        if self._resume is None:
            raise IntegrationError("only a completed run of integrate can be continued")
        rhs, t1, config, h = self._resume
        backward = self.direction == "backward"
        i = 0 if backward else -1    # the last node in the run's direction
        t0, x0 = float(self.t[i]), float(self.x[i])
        t0, stop = (-t0, -float(time)) if backward else (t0, float(time))
        if not t0 < stop < math.inf:
            raise IntegrationError(
                f"continue time must be finite and past the last node, got {time!r}")
        return _run(rhs, backward, t0, x0, max(t1, stop), config, stop, h, self.steps)


def _span_error(t: np.ndarray, time) -> IntegrationError:
    """The error of evaluating a trajectory with nodes t outside its span."""
    return IntegrationError(
        f"evaluation time {time} outside trajectory span [{t[0]}, {t[-1]}]")


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


# The DP54 loop in the integration clock (s = -t for a backward run, where
# {sign} is "-"); _dp54 fills {trial} with the stages of a trial step. Its
# error messages name the original time, {sign}_t. The names the loop owns
# start with "_" but not with "_v", so they stay apart from the statements
# of a right-hand side, whose names are t, x, g, the family's locals, k<n>
# and _v<n>.
#
# Beyond its last node a run's only state is its next trial step _h (and
# the trial steps _steps it has made, which the step budget counts), so the
# loop takes both as arguments and returns them: a run continues from its
# last node, toward its _t1 bit for bit, or toward a later one. Its k1
# there is a call of the right-hand side, which the pasted stage 7 equals
# bit for bit (see _dp54).
#
# A step calls no builtin. Each call of the standard controller (Hairer,
# Norsett & Wanner, II.4) is written out so that it picks the same float:
# - min(h, max_step, t1 - t) is the two compares below: min keeps the
#   first of equal arguments, and h > 0 stays apart from -0.0. t1 - t is
#   kept as _left, which the clipped-end test compares with h as before.
# - max(abs(x), abs(xn)), abs(err) and min(10, max(0.2, q)) are
#   conditionals that keep the first of equal arguments. They give -0.0
#   where abs gives 0.0, but -0.0 only ever scales _rtol, and
#   atol + rtol*(-0.0) == atol + rtol*0.0 bit for bit since atol > 0, or
#   meets "== 0.0" and "<= _sc", which read both zeros alike.
# - isfinite(v) is v - v == 0.0: inf - inf and nan - nan are nan, and
#   v - v is 0.0 for every finite float.
# - The underflow test h < 1e-14*max(1, |t|) runs only below the per-run
#   floor 1e-14*max(1, |t0|, |t1|). Inside the loop t0 <= t < t1, so the
#   floor is at least the per-step bound (rounding is monotone), and a step
#   at or above the floor passes both tests. A continued run starts at a
#   later t0 and ends at its own t1, so the same holds.
_DP54 = """\
_ts = _array("d", (_t0,))
_xs = _array("d", (_x0,))
_k1 = {sign}_rhs({sign}_t0, _x0)
if not _isfinite(_k1):
    raise _IntegrationError(f"right-hand side not finite at start ({{{sign}_t0}}, {{_x0}})")
_fs = _array("d", (_k1,))
_ts_append, _xs_append, _fs_append = _ts.append, _xs.append, _fs.append
_status, _t_blow = "completed", None
_max_step = _cfg.max_step
_t, _x = _t0, _x0
_rtol, _atol, _x_max = _cfg.rtol, _cfg.atol, _cfg.x_max
_max_steps = _cfg.max_steps
_floor = 1e-14 * max(1.0, abs(_t0), abs(_t1))
while _t < _t1 and _t <= _stop:
    if _steps >= _max_steps:
        raise _IntegrationError(f"step budget exhausted at t={{{sign}_t}}")
    _steps += 1
    if _max_step < _h:
        _h = _max_step
    _left = _t1 - _t
    if _left < _h:
        _h = _left
    if _h < _floor and _h < 1e-14 * max(1.0, abs(_t)):
        if abs(_x) >= 1e-3 * _x_max:
            # the controller stalls on a solution that is already huge
            # and still growing: an escape whose asymptote sits just
            # short of x_max; record the blow-up at the stall point
            _status = "blow-up"
            _t_blow = _t
            break
        raise _IntegrationError(f"step size underflow at t={{{sign}_t}}")
    try:
{trial}
    except (ValueError, ArithmeticError):
        # a trial stage left the rhs domain; treat as a failed step
        _h *= 0.25
        continue
    if not (_xn - _xn == 0.0 and _k7 - _k7 == 0.0 and _err - _err == 0.0):
        _h *= 0.25
        continue
    _ax = _x if _x >= 0.0 else -_x
    _axn = _xn if _xn >= 0.0 else -_xn
    _sc = _atol + _rtol * (_axn if _axn > _ax else _ax)
    _aerr = _err if _err >= 0.0 else -_err
    if _aerr <= _sc:
        # t + (t1 - t) can miss t1 by an ulp; the clipped step ends on t1
        _t_next = _t1 if _h == _left else _t + _h
        if _axn >= _x_max:
            _tb = _locate_blow(_t, _x, _k1, _t_next, _xn, _k7, _x_max)
            _xb = _hermite(_t, _x, _k1, _t_next, _xn, _k7, _tb)
            _ts_append(_tb)
            _xs_append(_xb)
            try:
                _fb = {sign}_rhs({sign}_tb, _xb)
            except (ValueError, ArithmeticError):
                _fb = _nan
            _fs_append(_fb if _isfinite(_fb) else 0.0)
            _status = "blow-up"
            _t_blow = _tb
            break
        _t, _x, _k1 = _t_next, _xn, _k7
        _ts_append(_t)
        _xs_append(_x)
        _fs_append(_k1)
        if _aerr == 0.0:
            _h *= 10.0
        else:
            _q = 0.9 * (_sc / _aerr) ** 0.2
            _h *= 10.0 if _q >= 10.0 else _q if _q > 0.2 else 0.2
    else:
        _q = 0.9 * (_sc / _aerr) ** 0.2
        _h *= _q if _q > 0.2 else 0.2"""


def _weighted(pairs) -> str:
    """sum of weight*k_j, left to right, with the weights as literals."""
    return " + ".join(f"{w!r} * _k{j}" for j, w in pairs)


def _stage(body, t: str, x: str, k: str, backward: bool, same_t: bool = False) -> str:
    """Statements of a trial step that set k to the slope at (t, x). body is
    (time statements, state statements, result) of the right-hand side.
    Backward, t is the clock s and the slope is -rhs(-s, x), the
    substitution s = -t. With same_t the time statements of the stage
    before, taken at the same t, are reused."""
    t_lines, x_lines, result = body
    lines = [] if same_t else [f"t = -({t})" if backward else f"t = {t}", *t_lines]
    lines += [f"x = {x}", *x_lines, f"{k} = -({result})" if backward else f"{k} = {result}"]
    return "\n".join("        " + ln for stmt in lines for ln in stmt.split("\n"))


# The values every loop is bound to, ahead of the right-hand side's
_LOOP_VALUES = {"_array": array, "_isfinite": math.isfinite,
                "_IntegrationError": IntegrationError, "_nan": math.nan,
                "_locate_blow": _locate_blow, "_hermite": _hermite}


def _dp54(rhs, backward: bool):
    """The DP54 loop for rhs in one direction, as one generated function
    (t0, x0, t1, cfg, stop, h, steps) -> (ts, xs, fs, status, t_blow, h, steps),
    ending after a node past stop; h is the first trial step, steps the
    trial steps already made, and the function returns both as they stand.

    The slopes at the start and at a blow-up point come from calling rhs.
    A right-hand side compiled by an Emitter with the signature (t, x) has
    its statements pasted into the stages of a trial step, and stage 7
    reuses the time statements of stage 6, since both are taken at t + h.
    Any other callable is called from the same stages, so 6 times per trial
    step. Every operation keeps its operands and order, so the nodes are
    bitwise those of calling rhs at every stage.

    The loop is formatted on each call and compiled once per source text,
    like every other generated function (Emitter.compile)."""
    e = Emitter()
    for name, value in _LOOP_VALUES.items():
        e.bind(name, value)
    e.bind("_rhs", rhs)
    emitted = getattr(rhs, "emitted", None)
    if emitted is None or emitted[1] != "t, x":
        body = ((), (), "_rhs(t, x)")
    else:
        src, _, result = emitted
        for name, value in zip(src.names, src.values):
            e.bind(name, value)
        body = (src.lines[:src.t_only], src.lines[src.t_only:], result)
    trial = []
    for i, a in _A.items():
        t = f"_t + {_C[i]!r} * _h" if i in _C else "_t + _h"
        x = f"_x + _h * ({_weighted(enumerate(a, 1))})"
        trial.append(_stage(body, t, x, f"_k{i}", backward))
    trial.append(f"        _xn = _x + _h * ({_weighted(_B)})")
    trial.append(_stage(body, "_t + _h", "_xn", "_k7", backward, same_t=True))
    trial.append(f"        _err = _h * ({_weighted(_E)})")
    e.lines.append(_DP54.format(sign="-" if backward else "", trial="\n".join(trial)))
    return e.compile("dp54", "_t0, _x0, _t1, _cfg, _stop, _h, _steps",
                     "_ts, _xs, _fs, _status, _t_blow, _h, _steps")


def integrate(rhs, t_start: float, x0: float, t_end: float,
              config: IntegratorConfig = DEFAULT_CONFIG, *,
              stop_after: float | None = None) -> Trajectory:
    """Integrate x' = rhs(t, x) from (t_start, x0) to t_end.

    t_end < t_start integrates backward via the substitution s = -t; the
    returned samples are always stored with ascending t. A t_start, x0 or
    t_end that is not finite raises IntegrationError.

    A run given stop_after steps as the run to t_end and ends after its
    first node past stop_after: its nodes are a bitwise prefix of that run's.
    ``Trajectory.continued`` carries on any completed run.
    """
    t_start, x0, t_end = float(t_start), float(x0), float(t_end)
    for name, value in (("t_start", t_start), ("x0", x0), ("t_end", t_end)):
        if not math.isfinite(value):
            raise IntegrationError(f"{name} must be finite, got {value!r}")
    if t_end == t_start:
        raise IntegrationError("empty integration span")
    if abs(x0) >= config.x_max:
        raise IntegrationError(f"initial value {x0} already beyond the blow-up bound")
    stop = t_end if stop_after is None else float(stop_after)
    if stop_after is not None and not min(t_start, t_end) < stop < max(t_start, t_end):
        raise IntegrationError(f"stop_after must lie strictly inside the span, got {stop!r}")
    backward = t_end < t_start
    t0, t1, stop = (-t_start, -t_end, -stop) if backward else (t_start, t_end, stop)
    span = t1 - t0
    h = min(config.max_step, max(1e-6, 1e-3 * span), span)
    return _run(rhs, backward, t0, x0, t1, config, stop, h, 0)


def _run(rhs, backward: bool, t0, x0, t1, config, stop, h, steps) -> Trajectory:
    """The loop from (t0, x0) toward t1 in the integration clock, as a
    trajectory in t. A completed run keeps what continues it."""
    ts, xs, fs, status, t_blow, h, steps = _dp54(rhs, backward)(t0, x0, t1, config, stop, h, steps)
    resume = (rhs, t1, config, h) if status == "completed" else None
    if backward:
        # back to the original clock: t = -s ascending, slopes dx/dt = -dy/ds
        for buf in (ts, xs, fs):
            buf.reverse()
        for buf in (ts, fs):
            v = np.frombuffer(buf, dtype=float)
            np.negative(v, out=v)
        if t_blow is not None:
            t_blow = -t_blow
    return Trajectory("backward" if backward else "forward", _view(ts), _view(xs), _view(fs),
                      status, t_blow, steps=steps, _resume=resume)
