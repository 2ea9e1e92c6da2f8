"""Manifests written by earlier versions keep re-running.

tests/golden/manifests/<subcommand>.json is the manifest.json that the
commit before the integrator clean-up wrote for each config of
test_bitwise_pins.CONFIGS. Its numerics block still carries the integrator
keys that existed then. Re-running a subcommand from it must reproduce every
result file of tests/golden/<subcommand>/ byte for byte.
"""

import json
import re

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


# every removed key that keeps one value, at another value (a boolean is
# refused even where it equals the value), and the keys ignored whatever
# they hold
REFUSED = [
    ("integrator", "method", "rk4"),
    ("integrator", "first_step", 0.01),
    ("numerics", "tail_rel_tol", 1.0e-2),
    ("numerics", "max_horizon_doublings", 3),
    ("numerics", "track_tol_factor", 2.0e-3),
    ("numerics", "tail_track_factor", 8.0),
    ("numerics", "band_margin", 2.0),
    ("numerics", "band_margin", True),
    ("numerics", "window_samples", 513),
    ("numerics", "sep_tol", 2.0e-3),
    ("numerics", "anchor_delta", 2.0e-4),
]
IGNORED = [("numerics", "anchor_tol"), ("integrator", "fixed_step")]
REMOVED = sorted({(block, key) for block, key, _ in REFUSED} | set(IGNORED))


def removed_key_block(config: dict, block: str) -> dict:
    """The numerics or the integrator block of a manifest config."""
    numerics = config["numerics"]
    return numerics if block == "numerics" else numerics["integrator"]


@pytest.mark.parametrize("block, key, value", REFUSED)
def test_removed_integrator_setting_is_refused(block, key, value, tmp_path, capsys):
    manifest = json.loads((MANIFESTS / "classify.json").read_text())
    removed_key_block(manifest["config"], block)[key] = value
    with pytest.raises(cli.ConfigError, match=f"{key}.* was removed"):
        cli.build_numerics(manifest["config"])
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rc = cli.main(["classify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert re.search(f"ConfigError: .*{key}.* was removed", capsys.readouterr().err)


@pytest.mark.parametrize("block, key", REMOVED)
def test_numerics_carry_no_anchor_tol(block, key):
    # no run sets a removed key: a new manifest leaves it out, and the
    # value an old manifest lists, alone or with the others, still builds
    # the default numerics
    assert key not in removed_key_block({"numerics": cli.resolved_numerics(DEFAULT_NUMERICS)},
                                        block)
    manifest = json.loads((MANIFESTS / "classify.json").read_text())
    old = removed_key_block(manifest["config"], block)[key]
    alone = {key: old} if block == "numerics" else {"integrator": {key: old}}
    assert cli.build_numerics({"numerics": alone}) == DEFAULT_NUMERICS
    assert cli.build_numerics(manifest["config"]) == DEFAULT_NUMERICS
