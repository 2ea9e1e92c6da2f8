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
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .attractors import (
    DEFAULT_NUMERICS,
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
    if "family" not in block:
        raise ConfigError("model block needs a family")
    box = block.get("state_box")
    return make_model(
        block["family"],
        block.get("coefficients", {}),
        constants=block.get("constants"),
        state_box=tuple(box) if box is not None else None,
    )


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


def build_mechanism(block: dict):
    """The mechanism a block describes. Its fields are the parameters of the
    kind's constructor: a curve field is read as a profile block, a mechanism
    field as a mechanism block, any other converted to its annotated type.
    A missing required field and a field the kind does not take both raise."""
    cls = _mechanism_class(block)
    kind = cls.kind
    fields = inspect.signature(cls, eval_str=True).parameters
    stray = sorted(set(block) - {"kind", *fields})
    if stray:
        raise ConfigError(f"mechanism kind {kind!r} takes no field "
                          f"{', '.join(map(repr, stray))}")
    args = {}
    for name, field in fields.items():
        if name not in block:
            if field.default is field.empty:
                raise ConfigError(f"mechanism kind {kind!r} needs field {name!r}")
            continue
        build = {Curve: build_profile, Mechanism: build_mechanism}.get(
            field.annotation, field.annotation)
        args[name] = build(block[name])
    return cls(**args)


def mechanism_family(block: dict, parameter: str):
    """Single-parameter family v -> mechanism with block[parameter] = v."""
    def family(value: float):
        return build_mechanism({**block, parameter: float(value)})
    # fail early on malformed blocks
    probe = {**block}
    probe.setdefault(parameter, 1.0)
    build_mechanism(probe)
    return family


def _swept(cfg: dict, exp: dict) -> tuple[dict, str]:
    """Mechanism block and the parameter a sweep subcommand varies."""
    block = cfg.get("mechanism")
    parameter = exp.get("parameter") or _mechanism_class(block).sweep
    if parameter is None:
        raise ConfigError(f"mechanism kind {block['kind']!r} has no sweep parameter; "
                          "set experiment.parameter")
    return block, parameter


_NUMERICS_FIELDS = {f.name for f in dataclasses.fields(Numerics)} - {"integ"}
_INTEG_FIELDS = {f.name for f in dataclasses.fields(IntegratorConfig)}


def _drop_removed_integrator_keys(block: dict) -> dict:
    """Older manifests list ``method``, ``first_step`` and ``fixed_step``.
    They are dropped where they hold what the adaptive DP54 integrator does
    anyway, and refused otherwise."""
    block = dict(block)
    method = block.pop("method", "dopri54")
    if method != "dopri54":
        raise ConfigError(f"integrator method {method!r} was removed; "
                          "only the adaptive dopri54 remains")
    block.pop("fixed_step", None)
    if block.pop("first_step", None) is not None:
        raise ConfigError("integrator.first_step was removed; "
                          "the first step always follows from the span")
    return block


def build_numerics(cfg: dict) -> Numerics:
    block = dict(cfg.get("numerics") or {})
    integ_block = block.pop("integrator", None)
    unknown = set(block) - _NUMERICS_FIELDS
    if unknown:
        raise ConfigError(f"unknown numerics keys {sorted(unknown)}")
    if integ_block is not None:
        integ_block = _drop_removed_integrator_keys(integ_block)
        bad = set(integ_block) - _INTEG_FIELDS
        if bad:
            raise ConfigError(f"unknown integrator keys {sorted(bad)}")
        integ = IntegratorConfig(**integ_block)
    else:
        integ = DEFAULT_NUMERICS.integ
    return Numerics(**block, integ=integ)


def resolved_numerics(num: Numerics) -> dict:
    d = dataclasses.asdict(num)
    d["integrator"] = d.pop("integ")
    return d


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return str(v)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )


def _values(spec, name: str) -> list[float]:
    """A grid given either as an explicit list or as start/stop/num."""
    if isinstance(spec, dict):
        try:
            return [float(v) for v in np.linspace(
                float(spec["start"]), float(spec["stop"]), int(spec["num"]))]
        except KeyError as exc:
            raise ConfigError(f"{name} grid block needs field {exc}") from exc
    if isinstance(spec, (list, tuple)):
        return [float(v) for v in spec]
    raise ConfigError(f"{name} must be a list or a start/stop/num block")


def _require(exp: dict, name: str, key: str):
    if key not in exp or exp[key] is None:
        raise ConfigError(f"{name} needs experiment.{key}")
    return exp[key]


# ---------------------------------------------------------------------------
# subcommand runners: each returns (exit code, resolved experiment, result)
# ---------------------------------------------------------------------------

def run_simulate(cfg, out, model, num):
    exp = dict(cfg.get("experiment") or {})
    t_start = float(_require(exp, "simulate", "t_start"))
    x0 = float(_require(exp, "simulate", "x0"))
    t_end = float(_require(exp, "simulate", "t_end"))
    mech = build_mechanism(cfg.get("mechanism"))
    traj = integrate(model.transition_rhs(mech), t_start, x0, t_end, num.integ)
    write_csv(out / "trajectory.csv", ("t", "x"), zip(traj.t, traj.x))
    result = {"status": traj.status, "t_blow": traj.t_blow,
              "samples": int(len(traj.t))}
    print(f"simulate: status={traj.status} samples={len(traj.t)}")
    return 0, {"t_start": t_start, "x0": x0, "t_end": t_end}, result


def run_attractors(cfg, out, model, num):
    exp = dict(cfg.get("experiment") or {})
    mech = build_mechanism(cfg.get("mechanism"))
    H = resolve_horizon(mech, num)
    window = exp.get("window")
    window = (-H, H) if window is None else (float(window[0]), float(window[1]))
    result = {"horizon": H, "limits": {}, "pullback": {}}
    limits = {}
    for tag, gamma in (("minus", mech.gamma_minus), ("plus", mech.gamma_plus)):
        ls = limit_hyperbolic_solutions(model, gamma, window, num)
        limits[tag] = ls
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
    past, future = limits["minus"], limits["plus"]
    for role in sorted(past.estimates):
        if not role.endswith("attractive"):
            continue
        sol = pullback_attractive(model, mech, past[role], H, num)
        write_csv(out / f"pullback_attractive_{role}.csv", ("t", "x"),
                  zip(sol.trajectory.t, sol.trajectory.x))
        result["pullback"][f"attractive_{role}"] = {
            "status": sol.status, "bounded": sol.bounded,
            "band_exit_time": sol.band_exit_time,
        }
    rep_role = _role_for(model, "middle-repulsive")
    if rep_role in future.estimates:
        sol = pullback_repulsive(model, mech, future[rep_role], H, num)
        write_csv(out / f"pullback_repulsive_{rep_role}.csv", ("t", "x"),
                  zip(sol.trajectory.t, sol.trajectory.x))
        result["pullback"][f"repulsive_{rep_role}"] = {
            "status": sol.status, "bounded": sol.bounded,
            "band_exit_time": sol.band_exit_time,
        }
    print(f"attractors: past complete={past.complete} "
          f"future complete={future.complete}")
    return 0, {"window": list(window)}, result


def run_classify(cfg, out, model, num):
    exp = dict(cfg.get("experiment") or {})
    mech = build_mechanism(cfg.get("mechanism"))
    horizon = exp.get("horizon")
    label = classify(model, mech, num,
                     horizon=float(horizon) if horizon is not None else None)
    write_json(out / "case.json", label.to_dict())
    print(f"case={label.label}")
    code = 2 if label.indeterminate else 0
    return code, {"horizon": horizon}, label.to_dict()


def run_critical_rate(cfg, out, model, num):
    exp = dict(cfg.get("experiment") or {})
    block, parameter = _swept(cfg, exp)
    lower = float(_require(exp, "critical-rate", "lower"))
    upper = float(_require(exp, "critical-rate", "upper"))
    tol = float(exp.get("tol", 1.0e-6))
    family = mechanism_family(block, parameter)
    res = critical_value(model, family, lower, upper, tol, num)
    result = {"parameter": parameter, **res.to_dict(),
              "midpoint": res.midpoint, "width": res.width}
    write_json(out / "critical.json", result)
    print(f"critical {parameter} in [{res.lower:.17g}, {res.upper:.17g}] "
          f"({res.label_lower} -> {res.label_upper})")
    resolved = {"parameter": parameter, "lower": lower, "upper": upper, "tol": tol}
    return 0, resolved, result


def run_lyapunov(cfg, out, model, num):
    exp = dict(cfg.get("experiment") or {})
    if exp.get("gamma") is not None:
        if cfg.get("mechanism"):
            raise ConfigError("lyapunov takes experiment.gamma or a mechanism "
                              "block, not both")
        gamma = float(exp["gamma"])
    elif cfg.get("mechanism"):
        gamma = build_mechanism(cfg["mechanism"]).gamma_minus
    else:
        raise ConfigError("lyapunov needs experiment.gamma or a mechanism block")
    window_length = float(exp.get("window_length", 2000.0))
    role = exp.get("role") or _role_for(model, "upper-attractive")
    half = window_length / 2.0 + 100.0
    win = exp.get("window")
    win = (-half, half) if win is None else (float(win[0]), float(win[1]))
    ls = limit_hyperbolic_solutions(model, gamma, win, num)
    est = estimate_lyapunov(model, gamma, ls[role], window_length, num)
    result = {"value": est.value, "window": est.window,
              "sensitivity": est.sensitivity, "quad_gap": est.quad_gap,
              "gamma": gamma, "role": role}
    write_json(out / "lyapunov.json", result)
    print(f"lyapunov={est.value:.17g} (role={role}, gamma={gamma})")
    resolved = {"gamma": gamma, "window_length": window_length, "role": role,
                "window": list(win)}
    return 0, resolved, result


def run_ftle(cfg, out, model, num):
    exp = dict(cfg.get("experiment") or {})
    mech = build_mechanism(cfg.get("mechanism"))
    T = float(_require(exp, "ftle", "T"))
    role = exp.get("role") or _role_for(model, "upper-attractive")
    t_min = exp.get("t_min")
    t_max = exp.get("t_max")
    sol = pullback_of(model, mech, role, num)
    series = ftle_series(model, mech, sol, T, num,
                         t_min=float(t_min) if t_min is not None else None,
                         t_max=float(t_max) if t_max is not None else None)
    write_csv(out / "ftle.csv", ("t", "lambda"), zip(series.t, series.values))
    result = {"max": series.max_value, "quad_gap": series.quad_gap,
              "t_range": [float(series.t[0]), float(series.t[-1])]}
    kappa, L = exp.get("kappa"), exp.get("L")
    if kappa is not None and L is not None:
        wt = warning_time(series, EwsConfig(float(kappa), float(L)),
                          refine_tol=num.warn_refine_tol)
        result["warning_time"] = wt
        print(f"ftle: max={series.max_value:.6g} warning_time={wt}")
    else:
        print(f"ftle: max={series.max_value:.6g}")
    resolved = {"T": T, "role": role, "t_min": t_min, "t_max": t_max,
                "kappa": kappa, "L": L}
    return 0, resolved, result


def run_ews_region(cfg, out, model, num):
    exp = dict(cfg.get("experiment") or {})
    block, parameter = _swept(cfg, exp)
    kappas = _values(_require(exp, "ews-region", "kappas"), "kappas")
    cs = _values(_require(exp, "ews-region", "cs"), "cs")
    T = float(_require(exp, "ews-region", "T"))
    L = float(_require(exp, "ews-region", "L"))
    search = exp.get("search") or (-400.0, 400.0)
    role = exp.get("role") or _role_for(model, "upper-attractive")
    grid = ews_region(model, mechanism_family(block, parameter), kappas, cs,
                      T, L, num, search=(float(search[0]), float(search[1])),
                      role=role)
    write_csv(out / "region.csv", (grid.axis1_name, grid.axis2_name, "outcome"),
              grid.rows())
    detected = sum(1 for _, _, o in grid.rows() if o)
    result = {"detected_cells": detected,
              "total_cells": len(kappas) * len(cs),
              "notes": {str(k): v for k, v in grid.notes.items()}}
    print(f"ews-region: {detected}/{len(kappas) * len(cs)} cells detected")
    resolved = {"parameter": parameter, "kappas": kappas, "cs": cs, "T": T,
                "L": L, "search": [float(search[0]), float(search[1])],
                "role": role}
    code = 1 if grid.notes else 0
    return code, resolved, result


def run_bifurcation_map(cfg, out, model, num):
    exp = dict(cfg.get("experiment") or {})
    block = cfg.get("mechanism")
    if not isinstance(block, dict) or "profile" not in block:
        raise ConfigError("bifurcation-map needs a mechanism block with a profile")
    stray = sorted(set(block) - {"profile"})
    if stray:
        # c and s come from experiment.cs and experiment.ss
        raise ConfigError("bifurcation-map reads only the profile of its mechanism "
                          f"block, not {', '.join(map(repr, stray))}")
    profile = build_profile(block["profile"])
    cs = _values(_require(exp, "bifurcation-map", "cs"), "cs")
    ss = _values(_require(exp, "bifurcation-map", "ss"), "ss")
    bracket = exp.get("bracket") or (-0.6, 0.6)
    tol = float(exp.get("tol", 1.0e-3))
    rows = []
    for c in cs:
        for s in ss:
            res = lambda_star(model, profile, c, s,
                              bracket=(float(bracket[0]), float(bracket[1])),
                              tol=tol, num=num)
            rows.append((c, s, res.value))
    write_csv(out / "region.csv", ("c", "s", "lambda_star"), rows)
    positive = sum(1 for _, _, v in rows if v > 0)
    result = {"points": len(rows), "positive_cells": positive}
    print(f"bifurcation-map: {positive}/{len(rows)} points with lambda*>0")
    resolved = {"cs": cs, "ss": ss,
                "bracket": [float(bracket[0]), float(bracket[1])], "tol": tol}
    return 0, resolved, result


def run_safe_points(cfg, out, model, num):
    exp = dict(cfg.get("experiment") or {})
    block = cfg.get("mechanism")
    if not isinstance(block, dict) or block.get("kind") != "time-dependent-rate":
        raise ConfigError("safe-points needs a time-dependent-rate mechanism")
    mech = build_mechanism(block)
    c0 = float(_require(exp, "safe-points", "c0"))
    t0 = float(exp.get("t0", 0.0))
    grid = _values(_require(exp, "safe-points", "grid"), "grid")
    c_star = exp.get("c_star")
    report = safe_no_return(model, mech.profile, mech.delta, c0, t0, grid,
                            c_star=float(c_star) if c_star is not None else None,
                            d=mech.d, num=num)
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
    resolved = {"c0": c0, "t0": t0, "grid": grid, "c_star": c_star}
    return 0, resolved, result


def run_reaction_region(cfg, out, model, num):
    exp = dict(cfg.get("experiment") or {})
    block = cfg.get("mechanism")
    if not isinstance(block, dict) or block.get("kind") != "time-dependent-rate":
        raise ConfigError("reaction-region needs a time-dependent-rate mechanism "
                          "(the unreacted problem)")
    mech = build_mechanism(block)
    if mech.d != 1.0:
        raise ConfigError("reaction-region runs the unreacted problem at d=1")
    rs = _values(_require(exp, "reaction-region", "rs"), "rs")
    kappas = _values(_require(exp, "reaction-region", "kappas"), "kappas")
    b = float(_require(exp, "reaction-region", "b"))
    T = float(_require(exp, "reaction-region", "T"))
    L = float(_require(exp, "reaction-region", "L"))
    grid = reaction_region(model, mech.profile, mech.delta, rs, kappas,
                           b, T, L, num)
    write_csv(out / "region.csv", (grid.axis1_name, grid.axis2_name, "outcome"),
              grid.rows())
    outcomes = [o for _, _, o in grid.rows()]
    result = {"counts": {lab: outcomes.count(lab) for lab in sorted(set(outcomes))},
              "notes": {str(k): v for k, v in grid.notes.items()}}
    print(f"reaction-region: {result['counts']}")
    resolved = {"rs": rs, "kappas": kappas, "b": b, "T": T, "L": L}
    if any(o == "error" for o in outcomes):
        return 1, resolved, result
    if any(o == "indeterminate" for o in outcomes):
        return 2, resolved, result
    return 0, resolved, result


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
        code, resolved_exp, result = SUBCOMMANDS[args.subcommand](
            cfg, out, model, num)
        manifest = {
            "tool": "tiplab",
            "version": __version__,
            "subcommand": args.subcommand,
            "config": {
                "model": model.describe(),
                "mechanism": _resolved_mechanism(cfg, resolved_exp.get("parameter")),
                "numerics": resolved_numerics(num),
                "experiment": resolved_exp,
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
