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
CHANGES.md. ``golden_variants.json`` holds, the same way, the digests of the
option paths a default run does not take (``VARIANTS``), recorded by the same
command. The digests hold for one numpy/libm build; the last bits
of some floating-point functions may differ on another.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from mcmimo.cli import KINDS, ExperimentSpec, run_experiment

GOLDEN = Path(__file__).with_name("golden_outputs.json")
GOLDEN_VARIANTS = Path(__file__).with_name("golden_variants.json")
ROOT = Path(__file__).resolve().parents[1]
NETWORK = {"usersPerCell": 4, "bsAntennas": 20, "seed": 11}
TRIALS, DROPS = 8, 2
# with 2 drops, table3b's N=1 probe has no edge user in either drop, which the
# edge-only gain search rejects as an error; 4 drops give every probe one
KIND_DROPS = {"table3b": 4}
# case -> (kind, spec fields over the default run's): the option paths the
# closed-form runs branch on, on the same network
_SPLIT = {"drops": 6, "sweep": {"variable": "bsAntennas", "values": [12, 30, 75, 300]}}
VARIANTS = {
    **{f"fig4-{e}": ("fig4", {"options": {"evaluator": e}}) for e in ("lower", "upper", "mc")},
    "fig5-mc-reversed": ("fig5", {"options": {"evaluator": "mc",
                                              "scenarios": ["singlecell", "multicell"]}}),
    "fig6-unsorted-ratios": ("fig6", {"options": {"ratios": [5, 2, 10]}}),
    "fig7-three-powers": ("fig7", {"options": {"powersDb": [10, 20, 25]}}),
    "fig10-six-drops": ("fig10", _SPLIT),
    "fig11-six-drops": ("fig11", _SPLIT),
}


def digests(kind: str, jobs: int = 1, **fields) -> dict[str, str]:
    """Run ``kind`` into ./<kind> and return {file name: sha256 hex}; ``fields``
    replace the default run's spec fields."""
    drops = fields.pop("drops", KIND_DROPS.get(kind, DROPS))
    spec = ExperimentSpec.from_dict({"kind": kind, "network": NETWORK, "output": kind, **fields},
                                    {"trials": TRIALS, "drops": drops})
    out = run_experiment(spec, jobs=jobs)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def variant_digests(case: str) -> dict[str, str]:
    kind, fields = VARIANTS[case]
    return digests(kind, **fields)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_kind(golden):
    assert sorted(golden) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_outputs_match_golden(kind, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert digests(kind) == golden[kind]


def test_variants_are_recorded():
    assert sorted(json.loads(GOLDEN_VARIANTS.read_text())) == sorted(VARIANTS)


@pytest.mark.parametrize("case", VARIANTS)
def test_variant_outputs_match_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert variant_digests(case) == json.loads(GOLDEN_VARIANTS.read_text())[case]


def test_parallel_jobs_match_golden(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # each of the 2 drops is one job, so the pool runs 2 workers; fig8 rates
    # downlink Monte Carlo rows, fig12 the network sum rate
    for kind in ("fig5", "fig8", "fig11", "fig12"):
        assert digests(kind, jobs=2) == golden[kind]


def test_fig12_bytes_do_not_depend_on_blas_threads(tmp_path):
    # fig12's joint ascent contracts by matmul, which OpenBLAS may split over
    # threads; an interpreter fixes its thread count when numpy loads, so each
    # count runs in an interpreter of its own
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "mcmimo.cli", "run",
                        str(ROOT / "configs" / "fig12.json"), "--drops", "3", "--out", "fig12"],
                       cwd=cwd, env=env, check=True, capture_output=True, timeout=120)
        outputs.append({p.name: p.read_bytes() for p in sorted((cwd / "fig12").iterdir())})
    assert any(name.endswith(".csv") for name in outputs[0])
    assert outputs[0] == outputs[1]


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
    here = os.getcwd()
    for path, cases, run in ((GOLDEN, KINDS, digests), (GOLDEN_VARIANTS, VARIANTS, variant_digests)):
        previous = json.loads(path.read_text()) if path.exists() else {}
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                recorded = {case: run(case) for case in cases}
            finally:
                os.chdir(here)
        path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        changes = changed_digests(previous, recorded)
        for case, name, what in changes:
            print(f"{what}: {case} {name}")
        print(f"wrote {path}: {len(changes)} digest(s) differ from the previous record")
