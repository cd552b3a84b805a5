"""Tests of the benchmark's own machinery.

Run from the repository root: python -m pytest -q benchmarks
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from mcmimo import allocation, cli, network  # noqa: E402
from mcmimo.topology import NetworkConfig, build_topology  # noqa: E402


def _span(name, parent, start, end, info=None):
    return [name, parent, start, end, info]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("cli.run_experiment", -1, 0.0, 10.0),
        _span("allocation.uplink_alloc_approx", 0, 1.0, 4.0),
        _span("allocation.waterfill", 1, 2.0, 3.0),
        _span("topology.build_topology", 0, 5.0, 6.5),
    ]
    assert spans.self_times(recorded) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])


def test_summarize_counts_trials_rejections_and_joint_iterations():
    top = {"trials": 10, "m": 20}
    recorded = [
        _span("mcrate.uplink_rate_mc", -1, 0.0, 0.010, top),
        _span("mcrate.zf_receiver", 0, 0.001, 0.002, {"error": "IllConditionedChannelError"}),
        _span("mcrate.zf_receiver", 0, 0.002, 0.004),
        _span("mcrate.uplink_rate_mc", -1, 0.010, 0.050, {"trials": 10, "m": 500}),
        _span("network.run_joint", -1, 0.1, 0.2, {"iterations": 7, "converged": True}),
        _span("network.run_joint", -1, 0.2, 0.3, {"iterations": 5, "converged": False}),
    ]
    out = spans.summarize(recorded)
    assert out["mcrate.uplink_rate_mc.trials"] == 20
    assert out["mcrate.uplink_rate_mc.self_s"] == pytest.approx(0.050 - 0.003)
    assert out["mcrate.uplink_rate_mc.us_per_trial"] == pytest.approx(2500.0)
    assert out["mcrate.uplink_rate_mc.us_per_trial.M20"] == pytest.approx(1000.0)
    assert out["mcrate.uplink_rate_mc.us_per_trial.M500"] == pytest.approx(4000.0)
    assert out["mcrate.uplink_rate_mc.us_per_trial.M100"] == 0.0
    assert out["mcrate.zf_receiver.accept_ratio"] == 0.5
    assert out["network.run_joint.iterations"] == 12
    assert out["network.run_joint.converged_ratio"] == 0.5
    assert out["mcrate.downlink_rate_mc.calls"] == 0
    assert {name for name, _, _ in spans.PER_LAYER} - set(out) == {
        "cli.output_bytes", "trace.overhead_s"}


@pytest.fixture
def fig2_output(tmp_path):
    spec = cli.ExperimentSpec.from_dict({
        "kind": "fig2", "network": {"usersPerCell": 10, "bsAntennas": 128, "seed": 5},
        "sweep": {"variable": "bsAntennas", "values": [20, 100]},
        "trials": 8, "drops": 1, "output": str(tmp_path / "fig2"),
    })
    return cli.run_experiment(spec)


def _rewrite_mean(path: Path, row: int, value: float) -> None:
    lines = path.read_text().splitlines()
    x, _, ci = lines[row].split(",")
    lines[row] = f"{x},{value!r},{ci}"
    path.write_text("\n".join(lines) + "\n")


def test_checker_passes_real_output(fig2_output):
    attempted, failures = checks.check_output(fig2_output)
    assert attempted == 3 and failures == []


def test_checker_flags_nan(fig2_output):
    _rewrite_mean(fig2_output / "fig2__P20dB__approx.csv", 1, math.nan)
    _, failures = checks.check_output(fig2_output)
    assert any("values_finite_and_complete" in f for f in failures)


def test_checker_flags_mc_outside_widened_bounds(fig2_output):
    upper = (fig2_output / "fig2__P30dB__upper.csv").read_text().splitlines()[2]
    _, _, ci = (fig2_output / "fig2__P30dB__mc.csv").read_text().splitlines()[2].split(",")
    _rewrite_mean(fig2_output / "fig2__P30dB__mc.csv", 2,
                  float(upper.split(",")[1]) + 1.01 * float(ci) + 1e-9)
    _, failures = checks.check_output(fig2_output)
    assert [f for f in failures if "uplink_sandwich" in f]


def test_checker_flags_missing_csv(fig2_output):
    (fig2_output / "fig2__P20dB__lower.csv").unlink()
    _, failures = checks.check_output(fig2_output)
    assert any("manifest_matches_files" in f for f in failures)


def test_identical_trees_flags_changed_byte(fig2_output, tmp_path):
    copy = tmp_path / "copy"
    copy.mkdir()
    for p in fig2_output.iterdir():
        (copy / p.name).write_bytes(p.read_bytes())
    assert checks.identical_trees(fig2_output, copy) is None
    manifest = copy / "manifest.json"
    manifest.write_text(manifest.read_text() + " ")
    assert "manifest.json" in checks.identical_trees(fig2_output, copy)


def test_wrapped_strategy_keeps_direction():
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert hasattr(allocation.downlink_alloc, "__wrapped__")
        assert allocation.downlink_alloc.direction == "downlink"
        assert all(hasattr(f, "__wrapped__") for f in cli._UPLINK_STRATEGIES.values())
        assert all(f.direction == "uplink" for f in cli._UPLINK_STRATEGIES.values())

        top = build_topology(NetworkConfig(users_per_cell=2, bs_antennas=8, seed=3))
        state = network.run_scheduled(top, allocation.downlink_alloc, 10.0, 1.0, 1)
        assert {a.direction for a in state.per_cell_powers} == {"downlink"}
        names = {rec[0] for rec in tracer.spans}
        assert {"network.run_scheduled", "allocation.downlink_alloc",
                "closedform.downlink_profile", "allocation.waterfill"} <= names
    finally:
        restore()
    assert not hasattr(allocation.downlink_alloc, "__wrapped__")
    assert not hasattr(cli.build_topology, "__wrapped__")


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == spans.PER_LAYER
