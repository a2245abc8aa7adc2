"""The byte-identity tool: one checkout writes the same manifest twice, and
``--compare`` names each row that differs, an oracle result's bits too."""

from __future__ import annotations

import itertools
import json
import math

import identity
from conftest import CONFIGS
from dressedprobe import characteristics

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


def test_an_oracle_result_one_ulp_off_differs(tmp_path, monkeypatch):
    # The second oracle call's result moves by one ulp.  The validate
    # report reads only the worst error, so its bytes stay; the oracle
    # digest of the row does not.
    default = {"default": CONFIGS["default"]}
    before = identity.write_manifest(default, tmp_path / "work")
    exact = characteristics.integrate_characteristic
    calls = itertools.count()

    def moved(*args, **kwargs):
        value = exact(*args, **kwargs)
        if next(calls) == 1:
            value = complex(math.nextafter(value.real, math.inf), value.imag)
        return value

    monkeypatch.setattr(characteristics, "integrate_characteristic", moved)
    after = identity.write_manifest(default, tmp_path / "work")
    assert [line.split(":")[0] for line in identity.compare(before, after)] == ["default/validate"]
    assert after["default/validate"]["outputs"] == before["default/validate"]["outputs"]
    assert after["default/validate"]["oracle"] != before["default/validate"]["oracle"]
