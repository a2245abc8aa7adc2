"""The byte-identity tool: one checkout writes the same manifest twice, and
``--compare`` names each row that differs."""

from __future__ import annotations

import json

import identity
from conftest import CONFIGS

SHIPPED = {name: CONFIGS[name] for name in ("default", "pulse_train")}


def test_two_runs_write_the_same_manifest(tmp_path, capsys):
    paths = []
    for run in ("first", "second"):
        manifest = identity.write_manifest(SHIPPED, tmp_path / "work")
        paths.append(tmp_path / f"{run}.json")
        paths[-1].write_text(json.dumps(manifest), encoding="utf-8")
    assert sorted(manifest) == [
        f"{name}/{command}" for name in SHIPPED for command in sorted(identity.COMMANDS)
    ]
    assert {row["exit"] for row in manifest.values()} == {0}
    assert set(manifest["pulse_train/evolve"]["outputs"]) == {
        "evolve.csv",
        "evolve.csv.samples.npz",
        "evolve.csv.stats.json",
    }
    capsys.readouterr()
    assert identity.main(["--compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out == "10 rows identical\n"

    manifest["default/validate"]["exit"] = 1
    paths[1].write_text(json.dumps(manifest), encoding="utf-8")
    assert identity.main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.startswith("default/validate: ")
