"""Manifests written by earlier versions keep re-running.

tests/golden/manifests/<subcommand>.json is the manifest.json that the
commit before the integrator clean-up wrote for each config of
test_bitwise_pins.CONFIGS. Its numerics block still carries the integrator
keys that existed then. Re-running a subcommand from it must reproduce every
result file of tests/golden/<subcommand>/ byte for byte.
"""

import json

import pytest

from test_bitwise_pins import CONFIGS, GOLDEN, result_files
from tiplab import cli
from tiplab.attractors import DEFAULT_NUMERICS

MANIFESTS = GOLDEN / "manifests"


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
def test_old_manifest_reruns_to_goldens(subcommand, tmp_path):
    path = MANIFESTS / f"{subcommand}.json"
    manifest = json.loads(path.read_text())
    out = tmp_path / subcommand
    rc = cli.main([subcommand, "--config", str(path), "--out", str(out)])
    assert rc == manifest["exit_code"] == 0
    want = GOLDEN / subcommand
    assert result_files(out) == result_files(want)
    for name in result_files(out):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("key, value", [("method", "rk4"), ("first_step", 0.01)])
def test_removed_integrator_setting_is_refused(key, value, tmp_path, capsys):
    manifest = json.loads((MANIFESTS / "classify.json").read_text())
    manifest["config"]["numerics"]["integrator"][key] = value
    with pytest.raises(cli.ConfigError, match="was removed"):
        cli.build_numerics(manifest["config"])
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rc = cli.main(["classify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "was removed" in capsys.readouterr().err


def test_numerics_carry_no_anchor_tol():
    # no run read anchor_tol: a new manifest leaves it out, and an old
    # manifest that lists it still builds the default numerics
    assert "anchor_tol" not in cli.resolved_numerics(DEFAULT_NUMERICS)
    manifest = json.loads((MANIFESTS / "classify.json").read_text())
    assert "anchor_tol" in manifest["config"]["numerics"]
    assert cli.build_numerics(manifest["config"]) == DEFAULT_NUMERICS
