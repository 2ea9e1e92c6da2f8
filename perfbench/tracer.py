"""Outside-in tracing of tiplab: spans and counters recorded by wrappers the
benchmark installs around each module's public functions, and replay
micro-measures of the model and transition closures.

Nothing inside the package is changed. ``from .integrator import integrate``
binds the name in every importing module, so a wrapper replaces the
original in every ``tiplab`` namespace that holds it. Modules are reached
through ``sys.modules`` because ``tiplab/__init__.py`` re-exports the
``classify`` function over the ``tiplab.classify`` submodule attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("integrator", "models", "transitions", "attractors", "classify",
          "ews", "cli")
SPAN_LAYERS = ("integrator", "attractors", "classify", "ews", "cli")

LIMIT = "attractors.limit_hyperbolic_solutions"
PULLBACKS = ("attractors.pullback_attractive", "attractors.pullback_repulsive")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("integrator.calls", "count"), ("integrator.s", "s"),
    ("integrator.self_s", "s"), ("integrator.rhs_calls", "count"),
    ("integrator.steps_accepted", "count"), ("integrator.rhs_per_step", "calls/step"),
    ("integrator.rhs_raises", "count"), ("integrator.blowups", "count"),
    ("integrator.errors", "count"), ("integrator.dense_evals", "count"),
    ("models.rhs_ns", "ns"), ("models.frozen_rhs_ns", "ns"), ("models.fx_ns", "ns"),
    ("models.fx_calls", "count"), ("transitions.path_ns", "ns"),
    ("attractors.limit_sets", "count"), ("attractors.limit_set_s", "s"),
    ("attractors.burn_in_steps", "count"), ("attractors.pullbacks", "count"),
    ("attractors.pullback_s", "s"), ("attractors.pullback_steps", "count"),
    ("attractors.nonconvergent", "count"), ("attractors.lyapunov_s", "s"),
    ("attractors.self_s", "s"),
    ("classify.calls", "count"), ("classify.horizon_doublings", "count"),
    ("classify.s", "s"), ("classify.self_s", "s"), ("classify.cache_gets", "count"),
    ("classify.cache_misses", "count"), ("classify.cache_hit_ratio", "1"),
    ("classify.indeterminate", "count"), ("classify.bisection_steps", "count"),
    ("classify.calls_per_answer", "calls/answer"),
    ("ews.ftle_series", "count"), ("ews.ftle_s", "s"), ("ews.warning_times", "count"),
    ("ews.reaction_runs", "count"), ("ews.reaction_s", "s"),
    ("ews.unreacted_classify", "count"), ("ews.cells_failed", "count"),
    ("ews.self_s", "s"),
    ("cli.main_s", "s"), ("cli.overhead_s", "s"), ("cli.bytes_written", "B"),
    ("cli.self_s", "s"),
    ("trace.answer_s", "s"), ("trace.overhead_s", "s"),
)

# Counters that must repeat exactly across two traced runs of one seed.
# cli.bytes_written is left out: manifest.json records the wall time, whose
# printed length varies from run to run.
DETERMINISTIC = tuple(name for name, unit in PER_LAYER
                      if unit in ("count", "calls/step", "1", "calls/answer")
                      and name != "cli.bytes_written")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs", "error")

    def __init__(self, name, start, parent, run):
        self.name, self.start, self.end = name, start, start
        self.parent, self.run = parent, run
        self.attrs = {}
        self.error = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self, sid: int) -> dict:
        return {"id": sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "error": self.error,
                **self.attrs}


class Tracer:
    """Spans kept in memory, one list per traced answer (``run``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run = 0
        self.counts = Counter()
        self.samples: dict[str, tuple] = {}     # replay inputs
        self._patches: list[tuple[object, str, object]] = []
        self._context: dict[int, tuple] = {}    # span id -> (model, mechanism|gamma)

    # -- span bookkeeping -------------------------------------------------
    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.run))
        self.stack.append(sid)
        return sid

    def _exit(self, sid: int, error: BaseException | None = None) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self.stack.pop()

    def _spanned(self, name: str, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._enter(name)
            if before is not None:
                before(sid, args)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(sid, exc)
                raise
            if after is not None:
                after(sid, args, out)
            tracer._exit(sid)
            return out

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-function hooks -----------------------------------------------
    def _integrate(self, fn):
        tracer = self

        def run(rhs, *args, **kwargs):
            calls = raises = 0

            def counted(t, x):
                nonlocal calls, raises
                calls += 1
                try:
                    return rhs(t, x)
                except (ValueError, ArithmeticError):
                    raises += 1
                    raise

            span = tracer.spans[tracer.stack[-1]]
            try:
                traj = fn(counted, *args, **kwargs)
            finally:
                span.attrs.update(rhs_calls=calls, rhs_raises=raises)
            span.attrs.update(steps=len(traj.t) - 1, status=traj.status)
            tracer._keep_sample(span, traj)
            return traj

        return self._spanned("integrator.integrate", run)

    def _keep_sample(self, span: Span, traj) -> None:
        """Remember the longest completed frozen and transition trajectory
        of the answer, with the closures' inputs, for the replay."""
        if span.parent is None or traj.status != "completed":
            return
        ctx = self._context.get(span.parent)
        if ctx is None:
            return
        kind = "frozen" if self.spans[span.parent].name == LIMIT else "transition"
        have = self.samples.get(kind)
        if have is None or len(traj.t) > len(have[2]):
            self.samples[kind] = (*ctx, traj.t.tolist(), traj.x.tolist())

    def _remember(self, sid, args):
        self._context[sid] = (args[0], args[1])

    def _limit_after(self, sid, args, out):
        self.spans[sid].attrs["complete"] = bool(out.complete)

    def _classify_after(self, sid, args, out):
        self.spans[sid].attrs["label"] = out.label

    def _iterations_after(self, sid, args, out):
        self.spans[sid].attrs["iterations"] = out.iterations

    def _region_after(self, sid, args, out):
        self.spans[sid].attrs["cells_failed"] = sum(
            1 for _, _, o in out.rows() if o in ("error", "indeterminate"))

    def _main_after(self, sid, args, out):
        argv = list(args[0]) if args else []
        if "--out" in argv:
            outdir = Path(argv[argv.index("--out") + 1])
            self.spans[sid].attrs["bytes_written"] = sum(
                p.stat().st_size for p in outdir.iterdir() if p.is_file())

    def _wrapper_for(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        if full == "integrator.integrate":
            return self._integrate(fn)
        hooks = {
            LIMIT: dict(before=self._remember, after=self._limit_after),
            "attractors.pullback_attractive": dict(before=self._remember),
            "attractors.pullback_repulsive": dict(before=self._remember),
            "classify.classify": dict(after=self._classify_after),
            "classify.critical_value": dict(after=self._iterations_after),
            "classify.lambda_star": dict(after=self._iterations_after),
            "ews.reaction_region": dict(after=self._region_after),
            "cli.main": dict(after=self._main_after),
        }.get(full, {})
        return self._spanned(full, fn, **hooks)

    # -- install / restore ------------------------------------------------
    def install(self) -> None:
        """Wrap every public function of each layer in every tiplab
        namespace holding it, plus the public methods that carry counts."""
        for layer in LAYERS:
            importlib.import_module(f"tiplab.{layer}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tiplab" or n.startswith("tiplab.")]
        for layer in LAYERS:
            mod = sys.modules[f"tiplab.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrapper_for(layer, name, obj)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, attr, wrapper)
        integrator = sys.modules["tiplab.integrator"]
        models = sys.modules["tiplab.models"]
        classify = sys.modules["tiplab.classify"]
        self._patch(integrator.Trajectory, "__call__",
                    self._counted("dense_evals", integrator.Trajectory.__call__))
        self._patch(models.VectorFieldModel, "fx",
                    self._counted("fx_calls", models.VectorFieldModel.fx))
        self._patch(classify.LimitCache, "get",
                    self._spanned("classify.LimitCache.get", classify.LimitCache.get))

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        ok = all(getattr(h, a) is o for h, a, o in self._patches)
        self._patches.clear()
        return ok

    @property
    def patched(self) -> int:
        return len(self._patches)

    # -- output -----------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(sid)) + "\n")


# ---------------------------------------------------------------------------
# metrics from the spans of one traced answer
# ---------------------------------------------------------------------------

def _ancestors(spans: list[Span], sid: int):
    p = spans[sid].parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent


def layer_metrics(tracer: Tracer, run: int, counts: Counter) -> dict:
    """Per-layer metrics of one traced run, which is one answer."""
    spans = tracer.spans
    ids = [i for i, s in enumerate(spans) if s.run == run]

    def named(name):
        return [i for i in ids if spans[i].name == name]

    def under(i, names):
        return any(a.name in names for a in _ancestors(spans, i))

    child_time = Counter()
    for i in ids:
        if spans[i].parent is not None:
            child_time[spans[i].parent] += spans[i].seconds
    self_time = Counter()
    for i in ids:
        self_time[spans[i].layer] += spans[i].seconds - child_time[i]

    m = {}
    integ = named("integrator.integrate")
    att = lambda i, k: spans[i].attrs.get(k, 0)
    m["integrator.calls"] = len(integ)
    m["integrator.s"] = sum(spans[i].seconds for i in integ)
    m["integrator.rhs_calls"] = sum(att(i, "rhs_calls") for i in integ)
    m["integrator.steps_accepted"] = sum(att(i, "steps") for i in integ)
    m["integrator.rhs_per_step"] = (m["integrator.rhs_calls"] / m["integrator.steps_accepted"]
                                    if m["integrator.steps_accepted"] else 0.0)
    m["integrator.rhs_raises"] = sum(att(i, "rhs_raises") for i in integ)
    m["integrator.blowups"] = sum(1 for i in integ if att(i, "status") == "blow-up")
    m["integrator.errors"] = sum(1 for i in integ if spans[i].error)
    m["integrator.dense_evals"] = counts["dense_evals"]
    m["models.fx_calls"] = counts["fx_calls"]

    limits = named(LIMIT)
    pulls = [i for i in ids if spans[i].name in PULLBACKS]
    m["attractors.limit_sets"] = len(limits)
    m["attractors.limit_set_s"] = sum(spans[i].seconds for i in limits)
    m["attractors.burn_in_steps"] = sum(att(i, "steps") for i in integ if under(i, (LIMIT,)))
    m["attractors.pullbacks"] = len(pulls)
    m["attractors.pullback_s"] = sum(spans[i].seconds for i in pulls)
    m["attractors.pullback_steps"] = sum(att(i, "steps") for i in integ if under(i, PULLBACKS))
    m["attractors.nonconvergent"] = sum(1 for i in limits
                                        if spans[i].error or not att(i, "complete"))
    m["attractors.lyapunov_s"] = sum(spans[i].seconds
                                     for i in named("attractors.estimate_lyapunov"))

    cls = named("classify.classify")
    top = [i for i in cls if not under(i, ("classify.classify",))]
    gets = named("classify.LimitCache.get")
    m["classify.calls"] = len(top)
    m["classify.horizon_doublings"] = len(cls) - len(top)
    m["classify.s"] = sum(spans[i].seconds for i in top)
    m["classify.cache_gets"] = len(gets)
    m["classify.cache_misses"] = len({spans[i].parent for i in limits} & set(gets))
    m["classify.cache_hit_ratio"] = (1.0 - m["classify.cache_misses"] / len(gets)
                                     if gets else 0.0)
    m["classify.indeterminate"] = sum(1 for i in top if att(i, "label") == "indeterminate")
    m["classify.bisection_steps"] = sum(
        att(i, "iterations") for i in ids
        if spans[i].name in ("classify.critical_value", "classify.lambda_star"))
    m["classify.calls_per_answer"] = len(top)

    reacts = named("ews.reaction_run")
    m["ews.ftle_series"] = len(named("ews.ftle_series"))
    m["ews.ftle_s"] = sum(spans[i].seconds for i in named("ews.ftle_series"))
    m["ews.warning_times"] = len(named("ews.warning_time"))
    m["ews.reaction_runs"] = len(reacts)
    m["ews.reaction_s"] = sum(spans[i].seconds for i in reacts)
    m["ews.unreacted_classify"] = sum(1 for i in top if under(i, ("ews.reaction_run",)))
    m["ews.cells_failed"] = sum(att(i, "cells_failed") for i in named("ews.reaction_region"))

    mains = named("cli.main")
    main_s = sum(spans[i].seconds for i in mains)
    crit_s = sum(spans[i].seconds for i in named("classify.critical_value")
                 if under(i, ("cli.main",)))
    m["cli.main_s"] = main_s
    m["cli.overhead_s"] = main_s - crit_s
    m["cli.bytes_written"] = sum(att(i, "bytes_written") for i in mains)

    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m


# ---------------------------------------------------------------------------
# replay of the model and transition closures
# ---------------------------------------------------------------------------

def _ns_per_call(loop, n: int, passes: int = 5) -> float:
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / n * 1.0e9


def replay(samples: dict) -> dict:
    """Nanoseconds per call of the public closures, evaluated at the nodes
    of the answer's own longest frozen and transition trajectories (loop
    overhead included, median of five passes)."""
    m = {"models.rhs_ns": 0.0, "models.frozen_rhs_ns": 0.0,
         "models.fx_ns": 0.0, "transitions.path_ns": 0.0}
    if "transition" in samples:
        model, mech, ts, xs = samples["transition"]
        rhs, path, fx = model.transition_rhs(mech), mech.path, model.fx
        gs = [path(t) for t in ts]
        txs = list(zip(ts, xs))
        txgs = list(zip(ts, xs, gs))

        def run_rhs():
            for t, x in txs:
                rhs(t, x)

        def run_path():
            for t in ts:
                path(t)

        def run_fx():
            for t, x, g in txgs:
                fx(t, x, g)

        m["models.rhs_ns"] = _ns_per_call(run_rhs, len(ts))
        m["transitions.path_ns"] = _ns_per_call(run_path, len(ts))
        m["models.fx_ns"] = _ns_per_call(run_fx, len(ts))
    if "frozen" in samples:
        model, gamma, ts, xs = samples["frozen"]
        frozen = model.frozen_rhs(gamma)
        txs = list(zip(ts, xs))

        def run_frozen():
            for t, x in txs:
                frozen(t, x)

        m["models.frozen_rhs_ns"] = _ns_per_call(run_frozen, len(ts))
    return m
