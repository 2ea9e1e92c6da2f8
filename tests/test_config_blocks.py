"""Model, numerics and integrator config blocks, and manifest re-runs.

These blocks are read like mechanism blocks: their fields are the
parameters of make_model, Numerics and IntegratorConfig, a key that none
of them declares is refused, and a value that does not convert is refused
with a ConfigError that names its field. Out-of-range integrator values,
boolean or fractional grid and pair entries and experiment keys that no
subcommand declares are refused by name too. Numerics and IntegratorConfig
refuse a boolean, or a fraction in an int field, by name themselves. A
manifest written by any subcommand re-runs to the same result files.
"""

import json
import re

import pytest

from conftest import run_cli
from test_bitwise_pins import CUBIC, PULSE, result_files
from test_experiment_blocks import MINIMAL, NUMERICS, minimal_config
from tiplab import cli
from tiplab.attractors import Numerics
from tiplab.integrator import IntegrationError, IntegratorConfig

CLASSIFY = {"model": CUBIC, "numerics": NUMERICS,
            "mechanism": {"kind": "constant-rate", "profile": PULSE, "c": 5.0}}


@pytest.mark.parametrize("change, message", [
    ("model.constans={}", "ConfigError: model takes no field 'constans'"),
    ("model.state-box=[0.0, 2.0]", "ConfigError: model takes no field 'state-box'"),
    ("numerics.horizon=abc",
     "ConfigError: numerics field 'horizon': could not convert string to float: 'abc'"),
    ("numerics.max_burn_doublings=2.5",
     "ConfigError: numerics field 'max_burn_doublings': needs a whole number, got 2.5"),
    ("numerics.integrator.rtol=abc",
     "ConfigError: numerics field 'integrator': integrator field 'rtol': "
     "could not convert string to float: 'abc'"),
    ("numerics.integrator.bogus=1",
     "ConfigError: numerics field 'integrator': integrator takes no field 'bogus'"),
    ("numerics.bogus=1", "ConfigError: numerics takes no field 'bogus'"),
    ("model.state_box=[1.0]",
     "ModelError: state_box must be two increasing numbers, got (1.0,)"),
    ("model.state_box=[0, 1, 2]",
     "ModelError: state_box must be two increasing numbers, got (0, 1, 2)"),
], ids=["model-typo", "model-dashed-key", "horizon-not-a-number", "burn-doublings-fraction",
        "rtol-not-a-number", "integrator-typo", "numerics-typo", "state-box-one-number",
        "state-box-three-numbers"])
def test_bad_model_or_numerics_field_is_refused_by_name(change, message, tmp_path, capsys):
    assert run_cli(tmp_path, "classify", CLASSIFY, "--set", change)[0] == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ("numerics.max_burn_doublings=true",
     "ConfigError: numerics field 'max_burn_doublings': needs a number, got true"),
    ("numerics.conv_tol=true", "ConfigError: numerics field 'conv_tol': needs a number, got true"),
    ("mechanism.c=true",
     "ConfigError: mechanism kind 'constant-rate' field 'c': needs a number, got true"),
    ("mechanism.profile.b=true",
     "ConfigError: mechanism kind 'constant-rate' field 'profile': invalid 'cauchy-pulse' "
     "profile: 'cauchy-pulse' curve parameter 'b' must be a number, got True"),
    ("model.coefficients.r=true", "ModelError: cannot interpret coefficient spec True"),
    ("numerics.conv_tol=-1", "numerics field 'conv_tol' must be positive, got -1.0"),
    ("numerics.horizon=0", "numerics field 'horizon' must be positive, got 0.0"),
    ("numerics.quad_h=0",
     "numerics field 'quad_h' was removed; every run now uses 0.1, not 0"),
    ("numerics.max_burn_doublings=-1",
     "numerics field 'max_burn_doublings' must be at least 0, got -1"),
    ("numerics.warn_refine_tol=-0.5",
     "numerics field 'warn_refine_tol' was removed; every run now uses 0.001, not -0.5"),
    ("numerics.integrator.rtol=-1",
     "IntegrationError: integrator field 'rtol' must be positive, got -1.0"),
    ("numerics.integrator.max_steps=0",
     "IntegrationError: integrator field 'max_steps' must be at least 1, got 0"),
], ids=["burn-doublings-boolean", "conv-tol-boolean", "rate-boolean", "profile-boolean",
        "coefficient-boolean", "negative-conv-tol", "zero-horizon", "zero-quad-step",
        "negative-doublings", "negative-refine-tol", "negative-rtol", "zero-max-steps"])
def test_booleans_and_out_of_range_numerics_are_refused_by_name(change, message, tmp_path,
                                                                 capsys):
    assert run_cli(tmp_path, "classify", CLASSIFY, "--set", change)[0] == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("build, name, value, error, rule", [
    (Numerics, "max_burn_doublings", 2.5, ValueError, "a whole number"),
    (Numerics, "horizon", True, ValueError, "a number"),
    (Numerics, "conv_tol", False, ValueError, "a number"),
    (IntegratorConfig, "max_steps", True, IntegrationError, "a whole number"),
    (IntegratorConfig, "max_steps", 2.0, IntegrationError, "a whole number"),
], ids=["burn-doublings-fraction", "horizon-boolean", "conv-tol-boolean",
        "max-steps-boolean", "max-steps-float"])
def test_config_dataclasses_refuse_booleans_and_fractions_by_name(build, name, value, error,
                                                                  rule):
    # the config reader refuses these before they get here; built in code,
    # a config taking them would fail later or run with a wrong value
    with pytest.raises(error, match=re.escape(f"field {name!r} must be {rule}, got {value!r}")):
        build(**{name: value})


@pytest.mark.parametrize("block, curve, message", [
    ("model", {"kind": "arctan", "amplitude": 1.0},
     "ModelError: 'arctan' curve needs parameter 'scale'"),
    ("mechanism", {"kind": "cauchy-pulse", "gamma_plus": 0.0, "gamma_star": -0.6},
     "ConfigError: mechanism kind 'constant-rate' field 'profile': invalid 'cauchy-pulse' "
     "profile: 'cauchy-pulse' curve needs parameter 'b'"),
], ids=["model-coefficient", "mechanism-profile"])
def test_missing_curve_parameter_is_refused_by_name(block, curve, message, tmp_path, capsys):
    config = json.loads(json.dumps(CLASSIFY))
    if block == "model":
        config["model"]["coefficients"]["r"] = curve
    else:
        config["mechanism"]["profile"] = curve
    assert run_cli(tmp_path, "classify", config)[0] == 1
    assert message in capsys.readouterr().err


def test_numerics_values_are_converted(tmp_path):
    rc, _ = run_cli(tmp_path, "classify", CLASSIFY, "--set", "numerics.horizon=30",
                    "--set", "numerics.max_burn_doublings=5.0")
    assert rc == 0
    numerics = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["numerics"]
    assert repr(numerics["horizon"]) == "30.0"
    assert repr(numerics["max_burn_doublings"]) == "5"


@pytest.mark.parametrize("change", ["experiment.kappas=[1.5, -0.5]", "experiment.L=2.0"])
def test_ews_region_refuses_kappa_and_L_as_ftle_does(change, tmp_path, capsys):
    assert run_cli(tmp_path, "ews-region", minimal_config("ews-region"), "--set", change)[0] == 1
    assert "EwsError" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, change, message", [
    ("ews-region", "experiment.cs=[true]",
     "ConfigError: ews-region experiment field 'cs': needs a number, got true"),
    ("ews-region", "experiment.search=[true, false]",
     "ConfigError: ews-region experiment field 'search': needs a number, got true"),
    ("ews-region", 'experiment.cs={"start": 1, "stop": 2, "num": 2.5}',
     "ConfigError: ews-region experiment field 'cs': needs a whole number, got 2.5"),
    ("critical-rate", "experiment.tols=0.5",
     "ConfigError: critical-rate experiment takes no field 'tols'"),
], ids=["boolean-grid-entry", "boolean-pair-ends", "fractional-grid-num", "experiment-typo"])
def test_bad_experiment_entry_or_key_is_refused_by_name(subcommand, change, message,
                                                        tmp_path, capsys):
    assert run_cli(tmp_path, subcommand, minimal_config(subcommand), "--set", change)[0] == 1
    assert message in capsys.readouterr().err


def test_experiment_key_of_another_subcommand_is_accepted(tmp_path):
    # one config may serve several subcommands: kappas belongs to ews-region
    assert run_cli(tmp_path, "simulate", minimal_config("simulate"),
                   "--set", "experiment.kappas=[0.5]")[0] == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "kappas" not in manifest["config"]["experiment"]


RERUNS = {name: (name, minimal_config(name)) for name in MINIMAL}
# gamma read from the mechanism block, where the manifest used to record it
# as experiment.gamma beside the block and so refused to re-run
RERUNS["lyapunov-mechanism"] = ("lyapunov", {
    "model": CUBIC, "numerics": NUMERICS,
    "mechanism": {"kind": "constant-rate", "profile": PULSE, "c": 5.0},
    "experiment": {"window_length": 100.0}})


@pytest.mark.parametrize("name", sorted(RERUNS))
def test_manifest_reruns_to_the_same_result_files(name, tmp_path):
    subcommand, config = RERUNS[name]
    assert run_cli(tmp_path, subcommand, config)[0] == 0
    first = tmp_path / "out"
    manifest = json.loads((first / "manifest.json").read_text())
    rc = cli.main([subcommand, "--config", str(first / "manifest.json"),
                   "--out", str(tmp_path / "rerun")])
    assert rc == manifest["exit_code"] == 0
    assert result_files(tmp_path / "rerun") == result_files(first)
    for file in result_files(first):
        assert (tmp_path / "rerun" / file).read_bytes() == (first / file).read_bytes(), file
