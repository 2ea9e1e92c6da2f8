"""End-to-end checks of the command line driver on the cubic model."""

import json
import re
import subprocess
import sys

import pytest

from conftest import run_cli
from test_bitwise_pins import GOLDEN
from tiplab import cli

CUBIC = {
    "family": "allee-multiplicative-cubic",
    "coefficients": {"r": 1.0, "K": 1.0, "S": -1.0, "phi": 1.0},
}
PULSE = {"kind": "cauchy-pulse", "gamma_plus": 0.0, "gamma_star": -0.6,
         "b": 0.05}


def base_config(c=5.0, experiment=None):
    return {
        "model": CUBIC,
        "mechanism": {"kind": "constant-rate", "profile": dict(PULSE), "c": c},
        "numerics": {},
        "experiment": experiment or {},
    }


def test_classify_fast_rate_tracks(tmp_path, capsys):
    rc, out = run_cli(tmp_path, "classify", base_config(c=5.0))
    assert rc == 0
    assert "case=A" in capsys.readouterr().out
    case = json.loads((out / "case.json").read_text())
    assert case["label"] == "A"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "classify"
    assert manifest["exit_code"] == 0
    assert manifest["result"]["label"] == "A"
    assert manifest["wall_time_s"] >= 0.0


def test_set_override_changes_outcome(tmp_path):
    rc, out = run_cli(tmp_path, "classify", base_config(c=5.0),
                      "--set", "mechanism.c=0.05")
    assert rc == 0
    case = json.loads((out / "case.json").read_text())
    assert case["label"] == "C2"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mechanism"]["c"] == pytest.approx(0.05)


def test_manifest_reruns_identically(tmp_path):
    rc, out = run_cli(tmp_path, "classify", base_config(c=5.0))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    rc2, out2 = run_cli(tmp_path, "classify", manifest, out_name="out2")
    assert rc2 == 0
    assert (out / "case.json").read_bytes() == (out2 / "case.json").read_bytes()


def test_simulate_deterministic(tmp_path):
    cfg = base_config(c=5.0, experiment={"t_start": -5.0, "x0": 0.5,
                                         "t_end": 5.0})
    rc, out = run_cli(tmp_path, "simulate", cfg)
    rc2, out2 = run_cli(tmp_path, "simulate", cfg, out_name="out2")
    assert rc == rc2 == 0
    first = (out / "trajectory.csv").read_bytes()
    assert first == (out2 / "trajectory.csv").read_bytes()
    assert first.splitlines()[0] == b"t,x"


def test_simulate_empty_span_fails(tmp_path, capsys):
    cfg = base_config(experiment={"t_start": 1.0, "x0": 0.5, "t_end": 1.0})
    rc, _ = run_cli(tmp_path, "simulate", cfg)
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_lyapunov_refuses_a_zero_window_length_by_name(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "lyapunov", base_config(),
                    "--set", "experiment.window_length=0")
    assert rc == 1
    assert "AttractorError: window_length must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-300", "0"])
def test_lyapunov_refuses_a_bad_window_length_before_the_window(tmp_path, capsys,
                                                                monkeypatch, value):
    # a NaN or negative length used to fail on the window it gave:
    # "empty window (nan, nan)" or "empty window (50.0, -50.0)"; 0 was
    # refused by name only after the limit set had been computed. A NaN is
    # now refused with the field's name as the experiment block is read
    def no_limit_set(*args):
        raise AssertionError("a limit set was computed")

    monkeypatch.setattr(cli, "limit_hyperbolic_solutions", no_limit_set)
    rc, _ = run_cli(tmp_path, "lyapunov", base_config(),
                    "--set", f"experiment.window_length={value}")
    assert rc == 1
    err = capsys.readouterr().err
    if value == "nan":
        assert "ConfigError: lyapunov experiment field 'window_length': needs a number" in err
    else:
        assert f"AttractorError: window_length must be positive, got {float(value)!r}" in err


def test_a_nan_rate_is_refused_before_any_run(tmp_path, capsys, monkeypatch):
    # JSON reads NaN as a float: the mechanism block refuses it by name
    # before the burn-ins and the pullback (the rate guard of Phase refuses
    # it for library callers, tests/test_transitions.py)
    import tiplab.integrator as integrator

    inner, runs = integrator._run, []
    monkeypatch.setattr(integrator, "_run", lambda *args: runs.append(args) or inner(*args))
    rc = cli.main(["classify", "--config", str(GOLDEN / "manifests" / "classify.json"),
                   "--set", "mechanism.c=NaN", "--out", str(tmp_path / "out")])
    assert rc == 1 and runs == []
    assert "mechanism kind 'phase' field 'c': needs a number, got NaN" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, field", [
    ("classify", "mechanism.offset"),
    ("safe-points", "experiment.c0"),
    ("ftle", "experiment.T"),
], ids=["offset", "c0", "T"])
def test_a_nan_number_field_is_refused_by_name_before_any_run(tmp_path, capsys, monkeypatch,
                                                              subcommand, field):
    # a NaN offset reached the integrator ("right-hand side not finite at
    # start"); a NaN c0 gave s1 null and "tracking"
    import tiplab.integrator as integrator

    inner, runs = integrator._run, []
    monkeypatch.setattr(integrator, "_run", lambda *args: runs.append(args) or inner(*args))
    rc = cli.main([subcommand, "--config", str(GOLDEN / "manifests" / f"{subcommand}.json"),
                   "--set", f"{field}=NaN", "--out", str(tmp_path / "out")])
    assert rc == 1 and runs == []
    name = field.rpartition(".")[2]
    assert f"field {name!r}: needs a number, got NaN" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["ftle", "reaction-region"])
def test_an_ftle_window_longer_than_the_span_is_refused_before_any_run(tmp_path, capsys,
                                                                       monkeypatch, subcommand):
    # the limit sets and the pullback were computed (11 runs) before
    # ftle_series refused the window
    import tiplab.integrator as integrator

    inner, runs = integrator._run, []
    monkeypatch.setattr(integrator, "_run", lambda *args: runs.append(args) or inner(*args))
    rc = cli.main([subcommand, "--config", str(GOLDEN / "manifests" / f"{subcommand}.json"),
                   "--set", "experiment.T=1000000", "--out", str(tmp_path / "out")])
    assert rc == 1 and runs == []
    err = capsys.readouterr().err
    assert re.search(r"EwsError: solution span \(-[0-9.]+, [0-9.]+\) shorter than the "
                     r"window 1000000.0$", err, re.MULTILINE), err


@pytest.mark.parametrize("window, computed", [([-20.0, 20.0], 2), (None, 1)],
                         ids=["window", "horizon"])
def test_attractors_computes_each_distinct_limit_set_once(tmp_path, monkeypatch,
                                                          window, computed):
    # a cauchy pulse starts and ends at gamma_plus, so the past and future
    # sets are one set: over the window, and over (-H, H) for the anchors
    # (the same set when the window is (-H, H))
    inner, sets = cli.limit_hyperbolic_solutions, []

    def counted(model, gamma, window, num):
        sets.append((gamma, window))
        return inner(model, gamma, window, num)

    monkeypatch.setattr(cli, "limit_hyperbolic_solutions", counted)
    pulse = {"kind": "cauchy-pulse", "gamma_plus": -0.5, "gamma_star": 0.3, "b": 0.05}
    out = tmp_path / "out"
    rc = cli.main(["attractors", "--config", str(GOLDEN / "manifests" / "attractors.json"),
                   "--set", f"mechanism.profile={json.dumps(pulse)}",
                   "--set", f"experiment.window={json.dumps(window)}", "--out", str(out)])
    assert rc == 0 and len(sets) == computed == len(set(sets))
    for minus in out.glob("limit_minus_*.csv"):
        plus = out / minus.name.replace("minus", "plus")
        assert plus.read_bytes() == minus.read_bytes()


def test_missing_model_block_fails(tmp_path):
    cfg = base_config()
    del cfg["model"]
    rc, _ = run_cli(tmp_path, "classify", cfg)
    assert rc == 1


def test_unknown_numerics_key_fails(tmp_path):
    cfg = base_config()
    cfg["numerics"] = {"bogus": 1.0}
    rc, _ = run_cli(tmp_path, "classify", cfg)
    assert rc == 1


def test_critical_rate_subcommand(tmp_path):
    cfg = base_config(experiment={"lower": 0.05, "upper": 5.0, "tol": 1e-3})
    rc, out = run_cli(tmp_path, "critical-rate", cfg)
    assert rc == 0
    res = json.loads((out / "critical.json").read_text())
    assert res["parameter"] == "c"
    assert res["lower"] < 2.1922 < res["upper"]
    assert res["width"] <= 1e-3
    assert res["label_lower"] == "C2" and res["label_upper"] == "A"
    assert res["boundary_label"] == "B2"


def test_sweep_without_parameter_asks_for_one(tmp_path, capsys):
    # a switching mechanism has no default sweep parameter
    cfg = base_config(experiment={"kappas": [0.5], "cs": [1.0], "T": 10.0,
                                  "L": -2.0, "lower": 0.05, "upper": 5.0})
    cfg["mechanism"] = {"kind": "switching", "left": dict(cfg["mechanism"]),
                        "right": dict(cfg["mechanism"])}
    for subcommand in ("ews-region", "critical-rate"):
        rc, _ = run_cli(tmp_path, subcommand, cfg)
        assert rc == 1
        err = capsys.readouterr().err
        assert "'switching' has no sweep parameter" in err
        assert "set experiment.parameter" in err


def test_ftle_reports_warning_time(tmp_path):
    cfg = base_config(c=0.05, experiment={"T": 10.0, "kappa": 0.5, "L": -2.0})
    rc, out = run_cli(tmp_path, "ftle", cfg)
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    wt = manifest["result"]["warning_time"]
    assert wt is not None and manifest["result"]["max"] > 0.0
    header = (out / "ftle.csv").read_bytes().splitlines()[0]
    assert header == b"t,lambda"


def test_module_invocation(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(c=5.0)))
    proc = subprocess.run(
        [sys.executable, "-m", "tiplab.cli", "classify",
         "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "case=A" in proc.stdout


def test_ews_region_cell_that_fails_is_false_noted_and_exits_1(tmp_path):
    # a window T longer than the pullback's span: ftle_series fails, and
    # the whole c column reads false with one note
    cfg = base_config(experiment={"kappas": [0.3, 0.6], "cs": [0.05], "T": 1.0e5,
                                  "L": -2.0})
    rc, out = run_cli(tmp_path, "ews-region", cfg)
    assert rc == 1
    rows = (out / "region.csv").read_text().splitlines()
    assert rows == ["kappa,c,outcome", "0.29999999999999999,0.050000000000000003,false",
                    "0.59999999999999998,0.050000000000000003,false"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 1
    (note,) = manifest["result"]["notes"].values()
    assert note.startswith("EwsError: solution span") and "shorter than the window" in note


def test_reaction_region_cell_that_fails_is_an_error_and_exits_1(tmp_path):
    cfg = base_config(experiment={"rs": [-1.0, 0.0], "kappas": [0.5], "b": 1.0, "T": 10.0,
                                  "L": -2.0})
    cfg["mechanism"] = {"kind": "time-dependent-rate", "profile": dict(PULSE),
                        "delta": {"kind": "constant", "value": 0.5}}
    rc, out = run_cli(tmp_path, "reaction-region", cfg)
    assert rc == 1
    rows = (out / "region.csv").read_text().splitlines()
    assert rows == ["r,kappa,outcome", "-1,0.5,error", "0,0.5,C2"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 1
    assert manifest["result"]["counts"] == {"C2": 1, "error": 1}
    assert manifest["result"]["notes"] == {
        "(-1.0, 0.5)": "EwsError: reaction strength must be nonnegative"}
