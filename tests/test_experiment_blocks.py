"""Experiment config blocks: what each subcommand records in its manifest.

Each subcommand runs a config that gives only the experiment fields it
requires, so the manifest's experiment block shows every default: the
golden configs set most optional fields and pin none of them.
"""

import json

import pytest

from test_bitwise_pins import CONFIGS, CUBIC, PULSE, RATE
from tiplab import cli

NUMERICS = {"horizon": 30.0, "burn_in": 30.0}
RATE_PULSE = {"kind": "constant-rate", "profile": PULSE}
TIME_RATE = {"kind": "time-dependent-rate", "profile": PULSE, "delta": RATE}
REACTION_RATE = {**TIME_RATE, "delta": CONFIGS["reaction-region"]["mechanism"]["delta"]}

# subcommand -> (mechanism, required experiment fields, manifest experiment)
MINIMAL = {
    "simulate": (
        CONFIGS["simulate"]["mechanism"],
        {"t_start": -1.0, "x0": 1.0, "t_end": 1.0},
        {"t_start": -1.0, "x0": 1.0, "t_end": 1.0}),
    "attractors": (
        {**RATE_PULSE, "c": 5.0}, {},
        {"window": [-30.0, 30.0]}),
    "classify": (
        {**RATE_PULSE, "c": 5.0}, {},
        {"horizon": None}),
    "critical-rate": (
        RATE_PULSE, {"lower": 0.05, "upper": 5.0},
        {"lower": 0.05, "upper": 5.0, "tol": 1.0e-6, "parameter": "c"}),
    "lyapunov": (
        None, {"gamma": 0.1},
        {"gamma": 0.1, "window_length": 2000.0, "window": [-1100.0, 1100.0],
         "role": "upper-attractive"}),
    "ftle": (
        {**RATE_PULSE, "c": 0.05}, {"T": 10.0},
        {"T": 10.0, "role": "upper-attractive", "t_min": None, "t_max": None,
         "kappa": None, "L": None}),
    "ews-region": (
        RATE_PULSE, {"kappas": [0.5], "cs": [5.0], "T": 10.0, "L": -2.0},
        {"kappas": [0.5], "cs": [5.0], "T": 10.0, "L": -2.0,
         "search": [-400.0, 400.0], "role": "upper-attractive", "parameter": "c"}),
    "bifurcation-map": (
        CONFIGS["bifurcation-map"]["mechanism"], {"cs": [1.0], "ss": [0.0]},
        {"cs": [1.0], "ss": [0.0], "bracket": [-0.6, 0.6], "tol": 1.0e-3}),
    "safe-points": (
        TIME_RATE, {"c0": 2.9, "grid": [0.0]},
        {"c0": 2.9, "grid": [0.0], "t0": 0.0, "c_star": None}),
    "reaction-region": (
        REACTION_RATE, {"rs": [0.0], "kappas": [0.5], "b": 1.0, "T": 10.0, "L": -2.0},
        {"rs": [0.0], "kappas": [0.5], "b": 1.0, "T": 10.0, "L": -2.0}),
}


def minimal_config(subcommand: str) -> dict:
    mechanism, experiment, _ = MINIMAL[subcommand]
    model = CONFIGS["bifurcation-map"]["model"] if subcommand == "bifurcation-map" else CUBIC
    cfg = {"model": model, "numerics": NUMERICS, "experiment": experiment}
    if mechanism is not None:
        cfg["mechanism"] = mechanism
    return cfg


def run_cli(tmp_path, subcommand, config, *extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return cli.main([subcommand, "--config", str(path), "--out", str(out), *extra]), out


def test_every_subcommand_is_pinned():
    assert sorted(MINIMAL) == sorted(cli.SUBCOMMANDS)


@pytest.mark.parametrize("subcommand", sorted(MINIMAL))
def test_manifest_records_every_experiment_default(subcommand, tmp_path):
    rc, out = run_cli(tmp_path, subcommand, minimal_config(subcommand))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == MINIMAL[subcommand][2]


def test_null_field_takes_its_default(tmp_path):
    cfg = minimal_config("critical-rate")
    cfg["experiment"] = {**cfg["experiment"], "tol": None}
    rc, out = run_cli(tmp_path, "critical-rate", cfg)
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["experiment"]["tol"] == 1.0e-6


@pytest.mark.parametrize("subcommand, change, message", [
    ("critical-rate", ("--set", "experiment.tol=abc"),
     "critical-rate experiment field 'tol': could not convert string to float: 'abc'"),
    ("classify", ("--set", "mechanism.c=abc"),
     "mechanism kind 'constant-rate' field 'c': could not convert string to float: 'abc'"),
    ("ews-region", ("--set", "experiment.search=[1.0]"),
     "ews-region experiment field 'search': needs two numbers, got [1.0]"),
    ("ews-region", ("--set", "experiment.cs=[]"),
     "ews-region experiment field 'cs': grid is empty"),
    ("ftle", ("--set", "experiment.kappa=0.5"),
     "ftle experiment needs field 'L' with field 'kappa'"),
    ("ftle", ("--set", "experiment.L=-2.0"),
     "ftle experiment needs field 'kappa' with field 'L'"),
], ids=["tol-not-a-number", "mechanism-c-not-a-number", "search-one-number",
        "empty-grid", "kappa-without-L", "L-without-kappa"])
def test_bad_field_is_refused_by_name(subcommand, change, message, tmp_path, capsys):
    rc, _ = run_cli(tmp_path, subcommand, minimal_config(subcommand), *change)
    assert rc == 1
    assert f"ConfigError: {message}" in capsys.readouterr().err
