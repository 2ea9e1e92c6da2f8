"""Mechanism config blocks: what the CLI reads from them and writes back.

A manifest's config blocks must come out as they did when the golden
manifests were written, and a mechanism rebuilt from its own describe()
must be the same mechanism, down to the bits of its path. A key the
block's kind does not take, from the file, ``--set`` or
``experiment.parameter``, is refused instead of dropped.
"""

import json
import random

import pytest

from test_bitwise_pins import CONFIGS, GOLDEN, run_subcommand
from test_compiled_rhs import MECHANISMS
from tiplab import cli
from tiplab.transitions import Switching

# every kind of the compiled-rhs table, and a switching nested in another
BLOCK_CASES = {**MECHANISMS, "nested-switching": Switching(
    MECHANISMS["switching"], MECHANISMS["time-dependent-phase-plus"], -2.0)}


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
def test_manifest_config_blocks_match_golden_manifests(subcommand, tmp_path):
    rc, out = run_subcommand(subcommand, tmp_path)
    assert rc == 0
    got = json.loads((out / "manifest.json").read_text())["config"]
    want = json.loads((GOLDEN / "manifests" / f"{subcommand}.json").read_text())["config"]
    for block in ("model", "mechanism", "experiment"):
        assert got[block] == want[block], block


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_mechanism_rebuilds_from_its_description(name):
    mech = BLOCK_CASES[name]
    clone = cli.build_mechanism(mech.describe())
    assert type(clone) is type(mech)
    assert clone.describe() == mech.describe()
    rng = random.Random(5)
    ts = [rng.uniform(-900.0, 900.0) for _ in range(200)] + [0.0, -0.0, 1.5]
    assert [clone.path(t).hex() for t in ts] == [mech.path(t).hex() for t in ts]


def run_cli(tmp_path, subcommand, config, *extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / "out"),
                     *extra])


@pytest.mark.parametrize("mechanism, extra, key", [
    ({**CONFIGS["classify"]["mechanism"], "kind": "constant-rate", "offset": 7.0}, (),
     "offset"),
    ({"kind": "switching", "left": CONFIGS["ftle"]["mechanism"],
      "right": CONFIGS["ftle"]["mechanism"]}, ("--set", "mechanism.c=0.05"), "c"),
], ids=["constant-rate-offset", "switching-set-c"])
def test_stray_mechanism_key_is_refused(mechanism, extra, key, tmp_path, capsys):
    cfg = {"model": CONFIGS["classify"]["model"], "mechanism": mechanism}
    assert run_cli(tmp_path, "classify", cfg, *extra) == 1
    assert f"ConfigError: mechanism kind {mechanism['kind']!r} takes no field '{key}'" \
        in capsys.readouterr().err


def test_missing_mechanism_field_is_refused():
    with pytest.raises(cli.ConfigError, match="'phase' needs field 'offset'"):
        cli.build_mechanism({"kind": "phase", "profile": CONFIGS["ftle"]["mechanism"]["profile"],
                             "c": 1.0})


@pytest.mark.parametrize("subcommand", ["ews-region", "critical-rate"])
def test_sweep_of_a_field_the_kind_lacks_is_refused(subcommand, tmp_path, capsys):
    # constant-rate has no field d: the sweep must not run every cell at the block's c
    cfg = {"model": CONFIGS["ews-region"]["model"],
           "mechanism": {**CONFIGS["ews-region"]["mechanism"], "c": 1.0},
           "numerics": {"horizon": 30.0},
           "experiment": {**CONFIGS["ews-region"]["experiment"], "parameter": "d",
                          "cs": [0.05, 1.0, 5.0], "lower": 0.05, "upper": 5.0}}
    assert run_cli(tmp_path, subcommand, cfg) == 1
    assert "takes no field 'd'" in capsys.readouterr().err
