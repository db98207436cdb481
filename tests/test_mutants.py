"""The committed mutation baselines are current: each lists the sites that
tests/mutants.py finds in its module today, none of them survives, and
every allowlist entry names a live site."""

import json

import pytest

import mutants

BASELINES = sorted(mutants.OUT.glob("MUTANTS_*.json"))
ALLOWLIST = json.loads((mutants.OUT / "ALLOWLIST.json").read_text())


def key(site: dict) -> tuple[str, str, str]:
    return site["function"], site["code"], site["mutation"]


def live_sites(module: str) -> list[tuple[str, str, str]]:
    path = mutants.ROOT / "src" / "pmsval" / f"{module}.py"
    return [key(site) for site in mutants.describe(path.read_text())]


@pytest.mark.parametrize("path", BASELINES, ids=lambda path: path.stem)
def test_baseline_matches_the_module_and_has_no_survivor(path):
    report = json.loads(path.read_text())
    assert path.stem == f"MUTANTS_{report['module']}"
    assert [key(site) for site in report["mutants"]] \
        == live_sites(report["module"])
    assert report["sites"] == len(report["mutants"])
    assert report["survived"] == 0
    allowed = {key(entry) for entry in ALLOWLIST.get(report["module"], [])}
    assert {key(site) for site in report["mutants"]
            if site["status"] == "equivalent"} <= allowed


def test_every_allowlist_entry_names_a_live_site():
    stale = [(module, key(entry)) for module, entries in ALLOWLIST.items()
             for entry in entries if key(entry) not in live_sites(module)]
    assert BASELINES and stale == []
