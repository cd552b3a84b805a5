"""Byte-identity gate: every experiment kind, at a tiny size, must keep writing
exactly the bytes recorded in ``golden_outputs.json``.

Each kind runs with its default sweep and options on one small network
(N=4, M=20, 8 trials, 2 drops; table3b 4 drops). The SHA-256 of every CSV and of
``manifest.json`` (``inputHash`` included) is compared with the recorded
digests. The run works in a temporary directory with a relative output path,
so the manifest bytes do not depend on where the test runs.

A change that alters outputs on purpose (a new ``estimatorVersion``, say)
re-records the digests with
``PYTHONPATH=src python tests/test_golden_outputs.py``, which prints every
(kind, file) whose digest changed, appeared or went away, and says why in
CHANGES.md. The digests hold for one numpy/libm build; the last bits
of some floating-point functions may differ on another.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from mcmimo.cli import KINDS, ExperimentSpec, run_experiment

GOLDEN = Path(__file__).with_name("golden_outputs.json")
NETWORK = {"usersPerCell": 4, "bsAntennas": 20, "seed": 11}
TRIALS, DROPS = 8, 2
# with 2 drops, table3b's N=1 probe has no edge user in either drop, which the
# edge-only gain search rejects as an error; 4 drops give every probe one
KIND_DROPS = {"table3b": 4}


def digests(kind: str, jobs: int = 1) -> dict[str, str]:
    """Run ``kind`` into ./<kind> and return {file name: sha256 hex}."""
    spec = ExperimentSpec.from_dict({"kind": kind, "network": NETWORK, "output": kind},
                                    {"trials": TRIALS, "drops": KIND_DROPS.get(kind, DROPS)})
    out = run_experiment(spec, jobs=jobs)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_kind(golden):
    assert sorted(golden) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_outputs_match_golden(kind, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert digests(kind) == golden[kind]


def test_parallel_jobs_match_golden(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # each of the 2 drops is one job, so the pool runs 2 workers; fig8 rates
    # downlink Monte Carlo rows, fig12 the network sum rate
    for kind in ("fig5", "fig8", "fig11", "fig12"):
        assert digests(kind, jobs=2) == golden[kind]


def changed_digests(old: dict, new: dict) -> list[tuple[str, str, str]]:
    """(kind, file, "changed" | "added" | "removed") for every differing digest."""
    out = []
    for kind in sorted(set(old) | set(new)):
        before, after = old.get(kind, {}), new.get(kind, {})
        for name in sorted(set(before) | set(after)):
            if name not in before:
                out.append((kind, name, "added"))
            elif name not in after:
                out.append((kind, name, "removed"))
            elif before[name] != after[name]:
                out.append((kind, name, "changed"))
    return out


def test_changed_digests_names_each_difference():
    old = {"fig2": {"a.csv": "1", "b.csv": "2"}, "fig3": {"c.csv": "3"}}
    new = {"fig2": {"a.csv": "1", "b.csv": "9", "d.csv": "4"}, "fig4": {"c.csv": "3"}}
    assert changed_digests(old, new) == [
        ("fig2", "b.csv", "changed"), ("fig2", "d.csv", "added"),
        ("fig3", "c.csv", "removed"), ("fig4", "c.csv", "added"),
    ]
    assert changed_digests(new, new) == []


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            recorded = {kind: digests(kind) for kind in KINDS}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    changes = changed_digests(previous, recorded)
    for kind, name, what in changes:
        print(f"{what}: {kind} {name}")
    print(f"wrote {GOLDEN}: {len(changes)} digest(s) differ from the previous record")
