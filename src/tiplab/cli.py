"""Config-driven command line front end.

Every run reads a JSON config with four blocks (model, mechanism, numerics,
experiment), applies optional ``--set`` dotted-path overrides, writes its CSV
outputs into ``--out`` and drops a ``manifest.json`` holding the fully
resolved configuration (every default materialized), the tool version, an
environment stamp and the wall time.  Re-running from a manifest reproduces
the CSVs byte for byte; the manifest file itself is accepted as a config.

Exit codes: 0 on success, 2 when any classification in the run is
indeterminate, 1 on configuration or numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, attractors
from .attractors import (
    AttractorError,
    Numerics,
    _role_for,
    estimate_lyapunov,
    limit_hyperbolic_solutions,
    pullback_attractive,
    pullback_repulsive,
)
from .classify import (
    IndeterminateError,
    classify,
    critical_value,
    lambda_star,
    pullback_of,
    resolve_horizon,
)
from .ews import (
    EwsConfig,
    _check_span,
    ews_region,
    ftle_series,
    reaction_region,
    safe_no_return,
    warning_time,
)
from .integrator import IntegratorConfig, integrate
from .models import Curve, make_model
from .transitions import MECHANISMS, Mechanism, make_profile


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


# ---------------------------------------------------------------------------
# config loading and resolution
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    # a manifest from a previous run is itself a valid config
    if "config" in data and "subcommand" in data:
        data = data["config"]
    return data


def apply_overrides(cfg: dict, pairs: list[str]) -> None:
    """Apply ``--set a.b.c=value`` overrides; values parse as JSON when they
    can, and fall back to plain strings."""
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"--set path {key!r} descends through a leaf")
            node = nxt
        node[parts[-1]] = value


def build_model(cfg: dict):
    block = cfg.get("model")
    if not isinstance(block, dict):
        raise ConfigError("config needs a model block")
    return make_model(**_read_fields(block, _fields(make_model), "model"))


def build_profile(block: dict):
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("profile block needs a kind")
    params = {k: v for k, v in block.items() if k != "kind"}
    return make_profile(block["kind"], **params)


def _mechanism_class(block) -> type[Mechanism]:
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("mechanism block needs a kind")
    cls = MECHANISMS.get(block["kind"])
    if cls is None:
        raise ConfigError(f"unknown mechanism kind {block['kind']!r}")
    return cls


def _fields(build) -> dict:
    """The config fields that build declares: its parameters, by name."""
    return dict(inspect.signature(build, eval_str=True).parameters)


def _number(value) -> float:
    """A float field's value: a number, never a boolean or NaN (+-inf pass)."""
    number = math.nan if isinstance(value, bool) else float(value)
    if math.isnan(number):
        raise ValueError(f"needs a number, got {json.dumps(value)}")
    return number


def _whole(value) -> int:
    """An int field's value: a whole number, never truncated."""
    if not _number(value).is_integer():
        raise ValueError(f"needs a whole number, got {value!r}")
    return int(float(value))


# Keys older manifests list that no run sets any more: ignored whatever they
# hold (_ANY), or when they hold null or the value every run now uses, a
# numerics one the attractors constant of its name in capitals.
_ANY = object()
_REMOVED_NUMERICS = {"anchor_tol": _ANY, **{key: getattr(attractors, key.upper()) for key in (
    "tail_rel_tol", "max_horizon_doublings", "track_tol_factor", "tail_track_factor",
    "band_margin", "window_samples", "sep_tol", "anchor_delta", "quad_h", "quad_tol",
    "warn_refine_tol")}}
_REMOVED_INTEGRATOR = {"fixed_step": _ANY, "method": "dopri54", "first_step": None}


def _read_fields(block: dict, fields: dict, what: str, keys=None, removed={}) -> dict:
    """The fields of a config block, keyed by the parameters that declare
    them. Each value is converted by its parameter's annotation; a curve,
    mechanism or integrator field is read as a block of its own, a float
    field by _number and an int field by _whole. A null field counts as
    missing: a required one raises, an optional one is left out so that its
    default holds. A value its converter refuses, or a key outside keys
    (by default the declared fields), raises a ConfigError that names it,
    and through nested blocks the path. So does a key of removed (key ->
    accepted value) that holds another value."""
    stray = sorted(set(block) - set(fields if keys is None else keys) - set(removed))
    if stray:
        raise ConfigError(f"{what} takes no field {', '.join(map(repr, stray))}")
    for key, want in removed.items():
        value = block.get(key)
        if want is not _ANY and value is not None and (value != want or isinstance(value, bool)):
            raise ConfigError(f"{what} field {key!r} was removed; every run now uses "
                              f"{json.dumps(want)}, not {json.dumps(value)}")
    args = {}
    for name, field in fields.items():
        if block.get(name) is None:
            if field.default is field.empty:
                raise ConfigError(f"{what} needs field {name!r}")
            continue
        convert = {Curve: build_profile, Mechanism: build_mechanism, float: _number,
                   int: _whole, IntegratorConfig: _read_integrator}.get(
            field.annotation, field.annotation)
        try:
            args[name] = convert(block[name])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{what} field {name!r}: {exc}") from exc
    return args


def build_mechanism(block: dict):
    """The mechanism a block describes. Its fields are the parameters of the
    kind's constructor."""
    cls = _mechanism_class(block)
    fields = {k: v for k, v in block.items() if k != "kind"}
    return cls(**_read_fields(fields, _fields(cls), f"mechanism kind {cls.kind!r}"))


def mechanism_family(block: dict, parameter: str):
    """Single-parameter family v -> mechanism with block[parameter] = v."""
    def family(value: float):
        return build_mechanism({**block, parameter: float(value)})
    build_mechanism({parameter: 1.0, **block})  # fail early on malformed blocks
    return family


def _swept(cfg: dict, parameter: str | None) -> tuple[dict, str]:
    """Mechanism block and the parameter a sweep subcommand varies: the
    given one, or else the kind's sweep field."""
    block = cfg.get("mechanism")
    parameter = parameter or _mechanism_class(block).sweep
    if parameter is None:
        raise ConfigError(f"mechanism kind {block['kind']!r} has no sweep parameter; "
                          "set experiment.parameter")
    return block, parameter


def _read_integrator(block: dict) -> IntegratorConfig:
    return IntegratorConfig(**_read_fields(block, _fields(IntegratorConfig), "integrator",
                                           removed=_REMOVED_INTEGRATOR))


def build_numerics(cfg: dict) -> Numerics:
    """The numerics block: the fields of Numerics."""
    return Numerics(**_read_fields(cfg.get("numerics") or {}, _fields(Numerics), "numerics",
                                   removed=_REMOVED_NUMERICS))


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if v is None:
        return ""
    return str(v)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _grid(spec) -> list[float]:
    """A non-empty grid given either as an explicit list or as start/stop/num."""
    if isinstance(spec, dict):
        try:
            spec = np.linspace(_number(spec["start"]), _number(spec["stop"]), _whole(spec["num"]))
        except KeyError as exc:
            raise ValueError(f"grid block needs field {exc}") from None
    elif not isinstance(spec, (list, tuple)):
        raise ValueError("must be a list or a start/stop/num block")
    if len(spec) == 0:
        raise ValueError("grid is empty")
    return [_number(v) for v in spec]


def _pair(spec) -> tuple[float, float]:
    """Two numbers: the ends of a window, a search span or a bracket."""
    if not isinstance(spec, (list, tuple)) or len(spec) != 2:
        raise ValueError(f"needs two numbers, got {spec!r}")
    return _number(spec[0]), _number(spec[1])


# ---------------------------------------------------------------------------
# subcommand runners. The keyword-only parameters declare the experiment
# block: the annotation converts a field, the default is its default, and
# None marks an optional field. Each returns (exit code, the experiment
# fields resolved from other blocks, result).
# ---------------------------------------------------------------------------

def run_simulate(cfg, out, model, num, /, *, t_start: float, x0: float, t_end: float):
    mech = build_mechanism(cfg.get("mechanism"))
    traj = integrate(model.transition_rhs(mech), t_start, x0, t_end, num.integrator)
    write_csv(out / "trajectory.csv", ("t", "x"), zip(traj.t, traj.x))
    result = {"status": traj.status, "t_blow": traj.t_blow,
              "samples": int(len(traj.t))}
    print(f"simulate: status={traj.status} samples={len(traj.t)}")
    return 0, {}, result


def run_attractors(cfg, out, model, num, /, *, window: _pair = None):
    mech = build_mechanism(cfg.get("mechanism"))
    H = resolve_horizon(mech, num)
    window = window or (-H, H)
    result = {"horizon": H, "limits": {}, "pullback": {}}
    sets = {}     # each distinct (gamma, window) computed once: gamma- may equal gamma+

    def limit_set(gamma, w):
        if (gamma, w) not in sets:
            sets[gamma, w] = limit_hyperbolic_solutions(model, gamma, w, num)
        return sets[gamma, w]

    limits = {}
    for tag, gamma in (("minus", mech.gamma_minus), ("plus", mech.gamma_plus)):
        ls = limits[tag] = limit_set(gamma, window)
        for role in sorted(ls.estimates):
            est = ls.estimates[role]
            write_csv(out / f"limit_{tag}_{role}.csv", ("t", "x"),
                      zip(est.trajectory.t, est.trajectory.x))
        result["limits"][tag] = {
            "gamma": gamma,
            "complete": ls.complete,
            "separation": ls.separation,
            "roles": sorted(ls.estimates),
            "notes": list(ls.notes),
        }
    # the pullbacks start at -+H: their anchors are the sets over (-H, H)
    past, future = (limit_set(ls.gamma, (-H, H)) for ls in (limits["minus"], limits["plus"]))
    pullbacks = [(f"attractive_{role}", pullback_attractive(model, mech, past[role], H, num))
                 for role in sorted(past.estimates) if role.endswith("attractive")]
    rep_role = _role_for(model, "middle-repulsive")
    if rep_role in future.estimates:
        pullbacks.append((f"repulsive_{rep_role}",
                          pullback_repulsive(model, mech, future[rep_role], H, num)))
    for name, sol in pullbacks:
        write_csv(out / f"pullback_{name}.csv", ("t", "x"),
                  zip(sol.trajectory.t, sol.trajectory.x))
        result["pullback"][name] = {"status": sol.status, "bounded": sol.bounded,
                                    "band_exit_time": sol.band_exit_time}
    print(f"attractors: past complete={limits['minus'].complete} "
          f"future complete={limits['plus'].complete}")
    return 0, {"window": window}, result


def run_classify(cfg, out, model, num, /, *, horizon: float = None):
    mech = build_mechanism(cfg.get("mechanism"))
    label = classify(model, mech, num, horizon=horizon)
    write_json(out / "case.json", label.to_dict())
    print(f"case={label.label}")
    return 2 if label.indeterminate else 0, {}, label.to_dict()


def run_critical_rate(cfg, out, model, num, /, *, lower: float, upper: float,
                      tol: float = 1.0e-6, parameter: str = None):
    block, parameter = _swept(cfg, parameter)
    family = mechanism_family(block, parameter)
    res = critical_value(model, family, lower, upper, tol, num)
    result = {"parameter": parameter, **res.to_dict(),
              "midpoint": res.midpoint, "width": res.width}
    write_json(out / "critical.json", result)
    print(f"critical {parameter} in [{res.lower:.17g}, {res.upper:.17g}] "
          f"({res.label_lower} -> {res.label_upper})")
    return 0, {"parameter": parameter}, result


def run_lyapunov(cfg, out, model, num, /, *, gamma: float = None,
                 window_length: float = 2000.0, role: str = None, window: _pair = None):
    if gamma is not None:
        if cfg.get("mechanism"):
            raise ConfigError("lyapunov takes experiment.gamma or a mechanism "
                              "block, not both")
    elif cfg.get("mechanism"):
        gamma = build_mechanism(cfg["mechanism"]).gamma_minus
    else:
        raise ConfigError("lyapunov needs experiment.gamma or a mechanism block")
    role = role or _role_for(model, "upper-attractive")
    if not window_length > 0.0:   # before the window it would give
        raise AttractorError(f"window_length must be positive, got {window_length!r}")
    half = window_length / 2.0 + 100.0
    window = window or (-half, half)
    ls = limit_hyperbolic_solutions(model, gamma, window, num)
    est = estimate_lyapunov(model, gamma, ls[role], window_length, num)
    result = {"value": est.value, "window": est.window,
              "sensitivity": est.sensitivity, "quad_gap": est.quad_gap,
              "gamma": gamma, "role": role}
    write_json(out / "lyapunov.json", result)
    print(f"lyapunov={est.value:.17g} (role={role}, gamma={gamma})")
    # a gamma read from the mechanism stays out, so that the manifest re-runs
    return 0, {"role": role, "window": window}, result


def run_ftle(cfg, out, model, num, /, *, T: float, role: str = None,
             t_min: float = None, t_max: float = None,
             kappa: float = None, L: float = None):
    if (kappa is None) != (L is None):
        given, missing = ("kappa", "L") if L is None else ("L", "kappa")
        raise ConfigError(f"ftle experiment needs field {missing!r} "
                          f"with field {given!r}")
    mech = build_mechanism(cfg.get("mechanism"))
    role = role or _role_for(model, "upper-attractive")
    H = resolve_horizon(mech, num)
    _check_span(T, H)
    traj = pullback_of(model, mech, role, num, horizon=H).trajectory
    series = ftle_series(model, mech, traj, T, t_min=t_min, t_max=t_max)
    write_csv(out / "ftle.csv", ("t", "lambda"), zip(series.t, series.values))
    result = {"max": series.max_value, "quad_gap": series.quad_gap,
              "t_range": [float(series.t[0]), float(series.t[-1])]}
    if kappa is not None:
        wt = warning_time(series, EwsConfig(kappa, L))
        result["warning_time"] = wt
        print(f"ftle: max={series.max_value:.6g} warning_time={wt}")
    else:
        print(f"ftle: max={series.max_value:.6g}")
    return 0, {"role": role}, result


def run_ews_region(cfg, out, model, num, /, *, kappas: _grid, cs: _grid,
                   T: float, L: float, search: _pair = (-400.0, 400.0),
                   role: str = None, parameter: str = None):
    block, parameter = _swept(cfg, parameter)
    role = role or _role_for(model, "upper-attractive")
    grid = ews_region(model, mechanism_family(block, parameter), kappas, cs,
                      T, L, num, search=search, role=role)
    write_csv(out / "region.csv", (grid.axis1_name, grid.axis2_name, "outcome"),
              grid.rows())
    detected = sum(1 for _, _, o in grid.rows() if o)
    result = {"detected_cells": detected,
              "total_cells": len(kappas) * len(cs),
              "notes": {str(k): v for k, v in grid.notes.items()}}
    print(f"ews-region: {detected}/{len(kappas) * len(cs)} cells detected")
    return 1 if grid.notes else 0, {"parameter": parameter, "role": role}, result


def run_bifurcation_map(cfg, out, model, num, /, *, cs: _grid, ss: _grid,
                        bracket: _pair = (-0.6, 0.6), tol: float = 1.0e-3):
    block = cfg.get("mechanism")
    if not isinstance(block, dict) or "profile" not in block:
        raise ConfigError("bifurcation-map needs a mechanism block with a profile")
    stray = sorted(set(block) - {"profile"})
    if stray:
        # c and s come from experiment.cs and experiment.ss
        raise ConfigError("bifurcation-map reads only the profile of its mechanism "
                          f"block, not {', '.join(map(repr, stray))}")
    profile = build_profile(block["profile"])
    rows = []
    for c in cs:
        for s in ss:
            res = lambda_star(model, profile, c, s, bracket=bracket, tol=tol, num=num)
            rows.append((c, s, res.value))
    write_csv(out / "region.csv", ("c", "s", "lambda_star"), rows)
    positive = sum(1 for _, _, v in rows if v > 0)
    result = {"points": len(rows), "positive_cells": positive}
    print(f"bifurcation-map: {positive}/{len(rows)} points with lambda*>0")
    return 0, {}, result


def run_safe_points(cfg, out, model, num, /, *, c0: float, grid: _grid,
                    t0: float = 0.0, c_star: float = None):
    mech = build_mechanism(cfg.get("mechanism"))
    if mech.kind != "time-dependent-rate":
        raise ConfigError("safe-points needs a time-dependent-rate mechanism")
    report = safe_no_return(model, mech, c0, t0, grid, c_star=c_star, num=num)
    write_csv(out / "safepoints.csv",
              ("t", "u_delta", "m_frozen", "m_future", "flag"),
              zip(report.grid, report.u_delta, report.m_frozen,
                  report.m_future, report.flags))
    result = {"s1": report.s1, "no_tipping": report.no_tipping,
              "conclusion": report.conclusion, "t0": report.t0,
              "first_safe": report.first("safe"),
              "first_no_return": report.first("no-return")}
    write_json(out / "safepoints.json", result)
    print(f"safe-points: s1={report.s1} conclusion={report.conclusion}")
    return 0, {}, result


def run_reaction_region(cfg, out, model, num, /, *, rs: _grid, kappas: _grid,
                        b: float, T: float, L: float):
    mech = build_mechanism(cfg.get("mechanism"))
    if mech.kind != "time-dependent-rate":
        raise ConfigError("reaction-region needs a time-dependent-rate mechanism "
                          "(the unreacted problem)")
    if mech.d != 1.0:
        raise ConfigError("reaction-region runs the unreacted problem at d=1")
    grid = reaction_region(model, mech.profile, mech.delta, rs, kappas,
                           b, T, L, num)
    write_csv(out / "region.csv", (grid.axis1_name, grid.axis2_name, "outcome"),
              grid.rows())
    outcomes = [o for _, _, o in grid.rows()]
    result = {"counts": {lab: outcomes.count(lab) for lab in sorted(set(outcomes))},
              "notes": {str(k): v for k, v in grid.notes.items()}}
    print(f"reaction-region: {result['counts']}")
    if "error" in outcomes:
        return 1, {}, result
    return 2 if "indeterminate" in outcomes else 0, {}, result


SUBCOMMANDS = {
    "simulate": run_simulate,
    "attractors": run_attractors,
    "classify": run_classify,
    "critical-rate": run_critical_rate,
    "lyapunov": run_lyapunov,
    "ftle": run_ftle,
    "ews-region": run_ews_region,
    "bifurcation-map": run_bifurcation_map,
    "safe-points": run_safe_points,
    "reaction-region": run_reaction_region,
}


# the experiment fields of each subcommand: its runner's keyword-only parameters
_EXPERIMENTS = {sub: {name: p for name, p in _fields(run).items() if p.kind is p.KEYWORD_ONLY}
                for sub, run in SUBCOMMANDS.items()}


def _resolved_mechanism(cfg: dict, swept: str | None):
    """Mechanism block with every default materialized, via the round-trip
    build -> describe. A sweep's block may leave out its swept field, which
    stays out; a block without a kind (bifurcation-map's profile block)
    passes through as given."""
    block = cfg.get("mechanism")
    if not isinstance(block, dict) or "kind" not in block:
        return block
    if swept is None or swept in block:
        return build_mechanism(block).describe()
    described = build_mechanism({**block, swept: 1.0}).describe()
    del described[swept]
    return described


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tiplab",
        description="Critical transitions in scalar nonautonomous ODEs: "
                    "pullback attractors, tipping classification, critical "
                    "rates and early-warning signals.",
    )
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted-path override, e.g. mechanism.c=1.01")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        model = build_model(cfg)
        num = build_numerics(cfg)
        runner = SUBCOMMANDS[args.subcommand]
        fields = _EXPERIMENTS[args.subcommand]
        # one config may serve several subcommands: refuse only a key none declares
        given = _read_fields(cfg.get("experiment") or {}, fields, f"{args.subcommand} experiment",
                             set().union(*_EXPERIMENTS.values()))
        code, resolved, result = runner(cfg, out, model, num, **given)
        experiment = {name: given.get(name, field.default)
                      for name, field in fields.items()} | resolved
        manifest = {
            "tool": "tiplab",
            "version": __version__,
            "subcommand": args.subcommand,
            "config": {
                "model": model.describe(),
                "mechanism": _resolved_mechanism(cfg, experiment.get("parameter")),
                "numerics": dataclasses.asdict(num),
                "experiment": experiment,
            },
            "result": result,
            "exit_code": code,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "platform": platform.platform(),
            },
            "wall_time_s": time.perf_counter() - start,
        }
        write_json(out / "manifest.json", manifest)
        return code
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # config or numerical failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
