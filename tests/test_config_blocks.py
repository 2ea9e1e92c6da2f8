"""Model, numerics and integrator config blocks, and manifest re-runs.

These blocks are read like mechanism blocks: their fields are the
parameters of make_model, Numerics and IntegratorConfig, a key that none
of them declares is refused, and a value that does not convert is refused
with a ConfigError that names its field. A manifest written by any
subcommand re-runs to the same result files.
"""

import json

import pytest

from test_bitwise_pins import CUBIC, PULSE, result_files
from test_experiment_blocks import MINIMAL, NUMERICS, minimal_config
from tiplab import cli

CLASSIFY = {"model": CUBIC, "numerics": NUMERICS,
            "mechanism": {"kind": "constant-rate", "profile": PULSE, "c": 5.0}}


def run_cli(tmp_path, subcommand, config, *extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / "out"),
                     *extra])


@pytest.mark.parametrize("change, message", [
    ("model.constans={}", "ConfigError: model takes no field 'constans'"),
    ("model.state-box=[0.0, 2.0]", "ConfigError: model takes no field 'state-box'"),
    ("numerics.horizon=abc",
     "ConfigError: numerics field 'horizon': could not convert string to float: 'abc'"),
    ("numerics.window_samples=2.5",
     "ConfigError: numerics field 'window_samples': needs a whole number, got 2.5"),
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
], ids=["model-typo", "model-dashed-key", "horizon-not-a-number", "window-samples-fraction",
        "rtol-not-a-number", "integrator-typo", "numerics-typo", "state-box-one-number",
        "state-box-three-numbers"])
def test_bad_model_or_numerics_field_is_refused_by_name(change, message, tmp_path, capsys):
    assert run_cli(tmp_path, "classify", CLASSIFY, "--set", change) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ("numerics.window_samples=true",
     "ConfigError: numerics field 'window_samples': needs a number, got true"),
    ("numerics.sep_tol=true", "ConfigError: numerics field 'sep_tol': needs a number, got true"),
    ("mechanism.c=true",
     "ConfigError: mechanism kind 'constant-rate' field 'c': needs a number, got true"),
    ("mechanism.profile.b=true",
     "ConfigError: mechanism kind 'constant-rate' field 'profile': invalid 'cauchy-pulse' "
     "profile: 'cauchy-pulse' curve parameter 'b' must be a number, got True"),
    ("model.coefficients.r=true", "ModelError: cannot interpret coefficient spec True"),
    ("numerics.window_samples=1", "numerics field 'window_samples' must be at least 2, got 1"),
    ("numerics.conv_tol=-1", "numerics field 'conv_tol' must be positive, got -1.0"),
    ("numerics.horizon=0", "numerics field 'horizon' must be positive, got 0.0"),
    ("numerics.quad_h=0", "numerics field 'quad_h' must be positive, got 0.0"),
    ("numerics.max_burn_doublings=-1",
     "numerics field 'max_burn_doublings' must be at least 0, got -1"),
    ("numerics.tail_track_factor=-0.5",
     "numerics field 'tail_track_factor' must be at least 0, got -0.5"),
], ids=["window-samples-boolean", "sep-tol-boolean", "rate-boolean", "profile-boolean",
        "coefficient-boolean", "one-window-sample", "negative-conv-tol", "zero-horizon",
        "zero-quad-step", "negative-doublings", "negative-tail-factor"])
def test_booleans_and_out_of_range_numerics_are_refused_by_name(change, message, tmp_path,
                                                                 capsys):
    assert run_cli(tmp_path, "classify", CLASSIFY, "--set", change) == 1
    assert message in capsys.readouterr().err


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
    assert run_cli(tmp_path, "classify", config) == 1
    assert message in capsys.readouterr().err


def test_numerics_values_are_converted(tmp_path):
    rc = run_cli(tmp_path, "classify", CLASSIFY, "--set", "numerics.horizon=30",
                 "--set", "numerics.window_samples=257.0")
    assert rc == 0
    numerics = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["numerics"]
    assert repr(numerics["horizon"]) == "30.0"
    assert repr(numerics["window_samples"]) == "257"


@pytest.mark.parametrize("change", ["experiment.kappas=[1.5, -0.5]", "experiment.L=2.0"])
def test_ews_region_refuses_kappa_and_L_as_ftle_does(change, tmp_path, capsys):
    assert run_cli(tmp_path, "ews-region", minimal_config("ews-region"), "--set", change) == 1
    assert "EwsError" in capsys.readouterr().err


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
    assert run_cli(tmp_path, subcommand, config) == 0
    first = tmp_path / "out"
    manifest = json.loads((first / "manifest.json").read_text())
    rc = cli.main([subcommand, "--config", str(first / "manifest.json"),
                   "--out", str(tmp_path / "rerun")])
    assert rc == manifest["exit_code"] == 0
    assert result_files(tmp_path / "rerun") == result_files(first)
    for file in result_files(first):
        assert (tmp_path / "rerun" / file).read_bytes() == (first / file).read_bytes(), file
