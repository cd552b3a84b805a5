import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcmimo import cli, closedform, topology
from mcmimo.cli import (
    ExperimentSpec,
    GainThresholdQuery,
    db_to_linear,
    emit_plot_data,
    find_max_ratio,
    main,
    run_experiment,
)
from mcmimo.allocation import equal_alloc, relative_gain
from mcmimo.mcrate import uplink_rate_mc
from mcmimo.network import network_sum_rate, run_joint
from mcmimo.topology import (CellTopology, NetworkConfig, build_topology,
                             build_topology_drops, check_field)


def tiny_spec(tmp_path, **over):
    doc = {
        "kind": "custom",
        "network": {
            "usersPerCell": 1, "bsAntennas": 2, "cellCount": 1,
            "pathLossExponent": 0.0, "shadowStdDb": 0.0, "seed": 7,
        },
        "sweep": {"variable": "powerDb", "values": [0]},
        "trials": 20_000,
        "drops": 1,
        "options": {"estimators": ["mc", "approx"]},
        "output": str(tmp_path / "out"),
    }
    doc.update(over)
    return doc


def read_curve(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,mean,ciHalfWidth"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return rows


class TestUnits:
    def test_db_roundtrip(self):
        assert db_to_linear(20.0) == pytest.approx(100.0)


class TestSpecParsing:
    def test_unknown_spec_key_rejected(self, tmp_path):
        doc = tiny_spec(tmp_path)
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown experiment spec keys"):
            ExperimentSpec.from_dict(doc)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            ExperimentSpec.from_dict(tiny_spec(tmp_path, kind="fig99"))

    def test_sweep_must_increase(self, tmp_path):
        with pytest.raises(ValueError, match="strictly increasing"):
            ExperimentSpec.from_dict(
                tiny_spec(tmp_path, sweep={"variable": "powerDb", "values": [1, 1]})
            )

    def test_mismatched_sweep_variable_rejected(self, tmp_path):
        doc = tiny_spec(tmp_path, kind="fig2",
                        sweep={"variable": "powerDb", "values": [10, 20]})
        with pytest.raises(ValueError, match="sweeps over"):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("kind, key, value", [
        ("fig5", "evaluator", "monteCarlo"),
        ("fig4", "evaluator", "aprox"),
        ("fig12", "estimator", "montecarlo"),
        ("custom", "direction", "upink"),
    ])
    def test_unknown_choice_rejected(self, tmp_path, kind, key, value):
        doc = {"kind": kind, "network": {"usersPerCell": 3, "bsAntennas": 30},
               "options": {key: value}, "output": str(tmp_path / kind)}
        with pytest.raises(ValueError, match=f"'{key}' must be one of .*{value}"):
            ExperimentSpec.from_dict(doc)

    def test_unknown_option_rejected(self, tmp_path):
        doc = {"kind": "fig2", "network": {"usersPerCell": 3, "bsAntennas": 30},
               "options": {"powerDb": [99]}, "output": str(tmp_path / "fig2")}
        with pytest.raises(ValueError, match="unknown option 'powerDb' for kind 'fig2'"):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("kind", ["fig4", "fig5"])
    @pytest.mark.parametrize("value", [
        ["singelcell"], ["multicell", "singelcell"], ["multicell", "multicell"], [],
        "multicell", [["multicell"]], None,
    ])
    def test_scenarios_must_be_distinct_known_names(self, kind, value):
        # a misspelt name would run the multicell geometry under that name
        doc = {"kind": kind, "network": {"usersPerCell": 3, "bsAntennas": 30},
               "options": {"scenarios": value}}
        with pytest.raises(ValueError, match="option 'scenarios'"):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("value", [["singlecell"], ["singlecell", "multicell"]])
    def test_known_scenarios_accepted(self, value):
        doc = {"kind": "fig5", "network": {"usersPerCell": 3, "bsAntennas": 30},
               "options": {"scenarios": value}}
        assert ExperimentSpec.from_dict(doc).options["scenarios"] == value

    def test_kind_defaults_applied(self):
        spec = ExperimentSpec.from_dict(
            {"kind": "fig2", "network": {"usersPerCell": 10, "bsAntennas": 128}}
        )
        assert spec.sweep.variable == "bsAntennas"
        assert spec.options["powersDb"] == [20, 30]

    def test_overrides(self, tmp_path):
        spec = ExperimentSpec.from_dict(
            tiny_spec(tmp_path), overrides={"seed": 99, "trials": 5, "drops": 2, "out": "x"}
        )
        assert spec.network.seed == 99
        assert spec.trials == 5
        assert spec.drops == 2
        assert spec.output == "x"

    @pytest.mark.parametrize("field", ["trials", "drops"])
    def test_zero_override_rejected(self, tmp_path, field):
        # an explicit 0 is an error, not a request for the spec's own value
        with pytest.raises(ValueError, match=field):
            ExperimentSpec.from_dict(tiny_spec(tmp_path), overrides={field: 0})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec(tmp_path)))
        with pytest.raises(ValueError, match=field):
            main(["run", str(path), f"--{field}", "0"])

    @pytest.mark.parametrize("field, value", [
        ("trials", 1.7), ("trials", True), ("trials", "3"), ("drops", 1.7), ("drops", True),
    ])
    def test_counts_must_be_integers(self, tmp_path, field, value):
        # int() would run 1.7 and true as 1 without a word
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentSpec.from_dict(tiny_spec(tmp_path, **{field: value}))
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentSpec.from_dict(tiny_spec(tmp_path), overrides={field: value})

    def test_numpy_integer_counts_stored_as_int(self, tmp_path):
        spec = ExperimentSpec.from_dict(tiny_spec(tmp_path, trials=np.int64(40)),
                                        overrides={"drops": np.int32(2)})
        assert (type(spec.trials), type(spec.drops), spec.trials, spec.drops) == (int, int, 40, 2)

    @pytest.mark.parametrize("values", [[0, 1, 2], [1, 2.5], [-1, 3]])
    def test_fig12_slots_must_be_integers_from_one(self, values):
        # slot 0 would read history[-1], the last slot's rate, onto its row
        doc = {"kind": "fig12", "network": {"usersPerCell": 2, "bsAntennas": 8},
               "sweep": {"variable": "slot", "values": values}}
        with pytest.raises(ValueError, match="sweep.values"):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("value", [800.9, 800.0, True, 0, "800"])
    def test_joint_max_iters_must_be_an_integer(self, value):
        # int() would run 800.9 as 800 while the manifest records 800.9
        doc = {"kind": "fig12", "network": {"usersPerCell": 2, "bsAntennas": 8},
               "options": {"jointMaxIters": value}}
        with pytest.raises(ValueError, match="jointMaxIters"):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("kind, variable, values", [
        ("fig2", "bsAntennas", [20.5, 21]),
        ("fig6", "usersPerCell", [4, 8.5]),
        ("fig7", "ratio", [2, 4.5]),
        ("table2", "ratio", [2, 119.5]),
        ("table3a", "bsAntennas", [6.5, 2000]),
        ("table3b", "usersPerCell", [1, 45.5]),
        ("custom", "bsAntennas", [20, 100.25]),
    ])
    def test_integral_sweeps_reject_fractions(self, kind, variable, values):
        # int() would run x=20.5 at M=20 and print the row at 20.5
        doc = {"kind": kind, "network": {"usersPerCell": 2, "bsAntennas": 8},
               "sweep": {"variable": variable, "values": values}}
        with pytest.raises(ValueError, match="sweep.values"):
            ExperimentSpec.from_dict(doc)
        doc["sweep"]["values"] = [int(v) for v in values]
        ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("kind, key, value", [
        ("fig6", "ratios", [2, 5.5]),
        ("fig6", "ratios", [2, True]),
        ("fig6", "ratios", 5),
        ("table3a", "usersList", [5, 10.5]),
        ("table3b", "antennasList", ["50"]),
        ("fig6", "ratios", [0, 10]),
        ("table3a", "usersList", [0, 5]),
        ("table3b", "antennasList", [0, 50]),
    ])
    def test_integral_options_reject_fractions(self, kind, key, value):
        doc = {"kind": kind, "network": {"usersPerCell": 2, "bsAntennas": 8},
               "options": {key: value}}
        with pytest.raises(ValueError, match=f"option '{key}'"):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("kind, variable", [
        ("fig2", "bsAntennas"), ("fig6", "usersPerCell"), ("fig7", "ratio"), ("table2", "ratio"),
    ])
    def test_count_sweeps_reject_zero(self, kind, variable):
        # a 0 ran as the network's own count: fig2 [0, 30] at M = 30 wrote
        # the M = 30 rates on an x = 0 row
        doc = {"kind": kind, "network": {"usersPerCell": 2, "bsAntennas": 30},
               "sweep": {"variable": variable, "values": [0, 30]}}
        with pytest.raises(ValueError, match="sweep.values"):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("kind, sweep, options, name", [
        *[(kind, ("bsAntennas", [4, 30]), {}, "sweep.values")
          for kind in ("fig2", "fig4", "fig5", "fig8", "fig10", "fig11", "custom")],
        ("fig4", ("bsAntennas", [3, 30]), {"evaluator": "mc"}, "sweep.values"),
        ("custom", ("bsAntennas", [2, 30]), {"direction": "downlink"}, "sweep.values"),
        ("fig7", ("ratio", [1, 2]), {}, "sweep.values"),
        ("fig6", ("usersPerCell", [2, 4]), {"ratios": [2, 1]}, "option 'ratios'"),
    ])
    def test_infeasible_probe_fails_before_any_job(self, tmp_path, kind, sweep, options, name):
        # each ran into a job, a pool worker at --jobs 2, and failed there with
        # "bsAntennas must be at least usersPerCell+1"
        doc = {"kind": kind, "network": {"usersPerCell": 4, "bsAntennas": 30},
               "sweep": {"variable": sweep[0], "values": sweep[1]}, "options": options,
               "output": str(tmp_path / kind)}
        with pytest.raises(ValueError, match=f"^{re.escape(name)} gives M = "):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("kind, option, value", [
        ("fig6", "ratios", [2, 5, 2]),
        ("fig7", "powersDb", [10, 10.0]),
        ("fig2", "powersDb", [20, 30, 20]),
        ("table2", "thresholds", [0.1, 0.2, 0.1]),
        ("table3a", "usersList", [5, 5]),
        ("table3b", "antennasList", [50, 100, 50]),
    ])
    def test_repeated_list_entry_rejected(self, kind, option, value):
        # a repeat counted every drop twice in a curve point, shrinking its CI
        # by about sqrt(2) (fig6 ratios [2, 2]: ci 1.742 against 2.661 for
        # [2]), or wrote a table's rows twice
        doc = {"kind": kind, "network": {"usersPerCell": 4, "bsAntennas": 30},
               "options": {option: value}}
        with pytest.raises(ValueError, match=f"^option '{option}' must not repeat an entry"):
            ExperimentSpec.from_dict(doc)

    def test_search_range_may_repeat_its_end(self):
        # [x, x] asks about x alone: a range, not a list of entries
        query = GainThresholdQuery.from_dict({**QUERY, "searchRange": [3, 3]})
        assert query.search_range == (3, 3)

    @pytest.mark.parametrize("kind, sweep, options", [
        ("fig4", ("bsAntennas", [5, 30]), {}),
        ("fig10", ("bsAntennas", [5]), {}),
        ("fig7", ("ratio", [2]), {}),
        ("fig6", ("usersPerCell", [1]), {"ratios": [2]}),
        ("fig3", ("powerDb", [0, 10]), {}),
    ])
    def test_smallest_feasible_probe_runs(self, tmp_path, kind, sweep, options):
        # M = N + 1 is the smallest M a job builds; a power sweep probes the
        # network's M, which NetworkConfig checks
        doc = {"kind": kind, "network": {"usersPerCell": 4, "bsAntennas": 5},
               "sweep": {"variable": sweep[0], "values": sweep[1]}, "options": options,
               "drops": 1, "trials": 8, "output": str(tmp_path / kind)}
        assert (run_experiment(ExperimentSpec.from_dict(doc)) / "manifest.json").exists()

    def test_drop_topology_takes_zero_as_given(self, tmp_path):
        spec = ExperimentSpec.from_dict(tiny_spec(tmp_path))
        with pytest.raises(ValueError, match="bsAntennas"):
            cli._drop_topologies(spec, [0], antennas=0)

    @pytest.mark.parametrize("over, name", [
        ({"sweep": {"values": [20, 30]}}, "sweep"),  # was KeyError: 'variable'
        ({"sweep": {"variable": "bsAntennas"}}, "sweep"),  # was KeyError: 'values'
        ({"sweep": {"variable": "bsAntennas", "values": [20], "step": 5}}, "sweep"),
        ({"sweep": [20, 30]}, "sweep"),  # was a TypeError
        ({"sweep": None}, "sweep"),
        ({"options": ["powersDb", 20]}, "options"),  # was "dictionary update sequence"
        ({"options": None}, "options"),
        ({"output": 5}, "output"),  # was run into the directory "5"
        ({"output": ["out"]}, "output"),
        ({"network": 5}, "network"),  # was "'int' object is not iterable"
        ({"network": [3, 30]}, "network"),
    ])
    def test_spec_sections_are_checked(self, tmp_path, over, name):
        doc = {"kind": "fig2", "network": {"usersPerCell": 2, "bsAntennas": 30}, **over}
        with pytest.raises(ValueError, match=f"^{name} must"):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("doc", [["fig2", {"usersPerCell": 2}], "fig2", None])
    def test_spec_document_must_be_an_object(self, tmp_path, doc):
        # a JSON list raised "dictionary update sequence element #0 ..."
        out = tmp_path / "out"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^experiment spec must be a JSON object"):
            main(["run", str(path), "--out", str(out)])
        assert not out.exists()

    def test_manifest_spec_must_be_an_object(self):
        with pytest.raises(ValueError, match="^spec must be a JSON object"):
            ExperimentSpec.from_dict({"spec": ["fig2"], "estimatorVersion": cli.ESTIMATOR_VERSION})

    def test_custom_estimators_default_follows_the_link(self, tmp_path):
        # the downlink has no upper bound or approximation, so the uplink
        # default [mc, approx] would refuse a spec that never named estimators
        def spec(options):
            return ExperimentSpec.from_dict({
                "kind": "custom", "network": {"usersPerCell": 2, "bsAntennas": 8, "seed": 1},
                "sweep": {"variable": "bsAntennas", "values": [8]}, "drops": 1, "trials": 8,
                "options": options, "output": str(tmp_path / "out")})

        assert spec({}).options["estimators"] == ["mc", "approx"]
        down = spec({"direction": "downlink"})
        assert down.options["estimators"] == ["mc", "lower"]
        manifest = json.loads((run_experiment(down) / "manifest.json").read_text())
        assert manifest["spec"]["options"]["estimators"] == ["mc", "lower"]
        assert {c["label"] for c in manifest["curves"]} == {"mc", "lower"}

    def test_power_sweeps_stay_real(self):
        doc = {"kind": "custom", "network": {"usersPerCell": 2, "bsAntennas": 8},
               "sweep": {"variable": "powerDb", "values": [0.5, 2.25]}}
        assert ExperimentSpec.from_dict(doc).sweep.values == (0.5, 2.25)

    def test_empty_out_rejected(self, tmp_path):
        # "" is an explicit (bad) value, not a request for the spec's output
        with pytest.raises(ValueError, match="out"):
            ExperimentSpec.from_dict(tiny_spec(tmp_path), overrides={"out": ""})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec(tmp_path)))
        with pytest.raises(ValueError, match="out"):
            main(["run", str(path), "--out", ""])


NET = {"usersPerCell": 3, "bsAntennas": 30, "seed": 4}
QUERY = {"direction": "uplink", "threshold": 0.1, "power": 20, "searchRange": [2, 4], "drops": 2}


def _field_cases():
    options = sorted({key for row in cli._KINDS.values() for key in row.options})
    return ([("option", key) for key in options] + [("query", key) for key in cli._QUERY_FIELDS]
            + [("network", key) for key in topology._JSON_FIELDS])


class TestFieldTable:
    """Every JSON name of an option, a threshold query and a network config has
    a kind, and its entry point checks it against that kind."""

    @pytest.mark.parametrize("table, key", _field_cases())
    def test_every_field_has_a_kind_and_is_checked(self, table, key):
        if table == "option":
            kinds = [kind for kind, row in cli._KINDS.items() if key in row.options]
            for kind in kinds:  # every kind's default passes its own check
                default = cli._KINDS[kind].options[key]
                assert check_field(key, default, cli._FIELDS[key]) is default

            def build(value):
                ExperimentSpec.from_dict({"kind": kinds[0], "network": NET,
                                          "options": {key: value}})
        elif table == "query":
            assert key in cli._FIELDS
            GainThresholdQuery.from_dict(QUERY)

            def build(value):
                GainThresholdQuery.from_dict({**QUERY, key: value})
        else:
            check_field(key, 1, topology._JSON_FIELDS[key][1])  # a valid kind
            NetworkConfig.from_json(NET)

            def build(value):
                NetworkConfig.from_json({**NET, key: value})
        # a string is the wrong type for every kind and among no choices
        with pytest.raises(ValueError, match=key):
            build("x")

    def test_options_are_stored_as_given(self, tmp_path):
        # the manifest echoes the options: 2.0 stays a float, a list stays a list
        doc = {"kind": "fig6", "network": NET, "options": {"ratios": [2.0, 5]},
               "output": str(tmp_path / "fig6")}
        spec = ExperimentSpec.from_dict(doc)
        assert spec.to_dict()["options"]["ratios"] == [2.0, 5]
        assert [type(v) for v in spec.options["ratios"]] == [float, int]


class TestCheckedBeforeAnyJob:
    """Each of these ran, or failed inside the first job with a message that
    did not name the option. Now the spec is refused and nothing is written."""

    @pytest.mark.parametrize("kind, over, name", [
        # a repeated estimator added its draws twice and narrowed the interval
        ("fig2", {"options": {"estimators": ["mc", "mc"]}}, "option 'estimators'"),
        ("fig2", {"options": {"estimators": []}}, "option 'estimators'"),
        ("fig7", {"options": {"powersDb": []}}, "option 'powersDb'"),
        ("table2", {"options": {"thresholds": []}}, "option 'thresholds'"),
        ("fig5", {"options": {"powerDb": True}}, "option 'powerDb'"),
        ("fig12", {"options": {"jointTolerance": "1e-9"}}, "option 'jointTolerance'"),
        ("fig2", {"options": {"estimators": "lower"}}, "option 'estimators'"),
        ("custom", {"options": {"direction": "downlink", "estimators": ["approx"]}},
         "option 'estimators'"),
        ("fig8", {"options": {"estimators": ["mc", "upper"]}}, "option 'estimators'"),
        ("fig2", {"options": {"powersDb": [20, math.nan]}}, "option 'powersDb'"),
        ("fig5", {"options": {"interfererUserPowerDb": math.nan}}, "option 'interfererUserPowerDb'"),
        ("fig12", {"options": {"powerW": math.nan}}, "option 'powerW'"),
        ("fig12", {"options": {"jointTolerance": math.nan}}, "option 'jointTolerance'"),
        ("fig3", {"sweep": {"variable": "powerDb", "values": [0, math.nan]}}, "sweep.values"),
        ("fig3", {"sweep": {"variable": "powerDb", "values": [0, math.inf]}}, "sweep.values"),
        ("fig2", {"options": {"interfererUserPowerDb": "10"}}, "option 'interfererUserPowerDb'"),
        ("fig2", {"options": {"powersDb": 20}}, "option 'powersDb'"),
        # 3 users at 10 dB need 30 W: run_scheduled failed in the first job
        ("fig12", {"options": {"powerW": 29.9}}, "'initialUserPowerDb'.* option 'powerW'"),
        ("fig12", {"options": {"initialUserPowerDb": 12.3}}, "'initialUserPowerDb'.* option 'powerW'"),
    ])
    def test_refused_naming_the_field(self, tmp_path, kind, over, name):
        out = tmp_path / "out"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": kind, "network": NET, "trials": 8, "drops": 1,
                                    "output": str(out), **over}))
        with pytest.raises(ValueError, match=name):
            main(["run", str(path)])
        assert not out.exists()


def test_fig12_initial_power_may_fill_the_budget():
    # the shipped fig12 defaults: 5 users at 10 dB fill 50 W exactly; 10 users
    # at the same defaults overfill it and are refused when the spec is read
    spec = ExperimentSpec.from_dict({"kind": "fig12", "network": {**NET, "usersPerCell": 5}})
    assert spec.options["powerW"] == 5 * db_to_linear(spec.options["initialUserPowerDb"])
    with pytest.raises(ValueError, match="usersPerCell 10 exceeds option 'powerW' 50"):
        ExperimentSpec.from_dict({"kind": "fig12", "network": {**NET, "usersPerCell": 10}})


class TestRunExperiment:
    def test_custom_oracle_point(self, tmp_path):
        # unit-gain single-cell system: the MC point must straddle 1/ln 2
        spec = ExperimentSpec.from_dict(tiny_spec(tmp_path))
        out = run_experiment(spec)
        rows = read_curve(out / "custom__mc.csv")
        assert len(rows) == 1
        x, mean, ci = rows[0]
        assert abs(mean - 1.0 / math.log(2.0)) <= max(ci, 3e-3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec"]["kind"] == "custom"
        assert "inputHash" in manifest

    def test_upper_bound_of_clustered_interference_is_finite(self, tmp_path):
        # no path loss and 1e-5 dB shadowing: the 60 interference means of a
        # cell lie within ~1e-6 relative of each other, where a partial-fraction
        # expansion of E{1/(v+1)} overflows
        doc = tiny_spec(tmp_path, trials=10, options={"estimators": ["upper"]},
                        network={"usersPerCell": 10, "bsAntennas": 20, "cellCount": 19,
                                 "pathLossExponent": 0.0, "shadowStdDb": 1e-5, "seed": 7})
        del doc["sweep"]  # the default antenna sweep: 20, 100 and 500
        out = run_experiment(ExperimentSpec.from_dict(doc))
        rows = read_curve(out / "custom__upper.csv")
        assert len(rows) == 3 and all(math.isfinite(mean) and mean > 0 for _, mean, _ in rows)

    def test_byte_identical_reruns(self, tmp_path):
        doc = tiny_spec(tmp_path, trials=500)
        spec = ExperimentSpec.from_dict(doc)
        out = run_experiment(spec)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        out = run_experiment(spec)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_manifest_roundtrip(self, tmp_path):
        doc = tiny_spec(tmp_path, trials=300)
        out = run_experiment(ExperimentSpec.from_dict(doc))
        originals = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads((out / "manifest.json").read_text())
        out2 = run_experiment(ExperimentSpec.from_dict(manifest))
        reran = {p.name: p.read_bytes() for p in out2.iterdir()}
        assert originals == reran

    @pytest.mark.parametrize("version", [None, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
    def test_manifest_of_another_estimator_version_rejected(self, tmp_path, version):
        out = run_experiment(ExperimentSpec.from_dict(tiny_spec(tmp_path, trials=20)))
        manifest = json.loads((out / "manifest.json").read_text())
        assert ExperimentSpec.from_dict(manifest).to_dict() == manifest["spec"]
        if version is None:  # written before the field existed (version 1)
            del manifest["estimatorVersion"]
        else:
            manifest["estimatorVersion"] = version
        with pytest.raises(ValueError, match=r"estimatorVersion .*: its outputs would not be "
                                             "reproduced"):
            ExperimentSpec.from_dict(manifest)

    def test_manifest_records_estimator_version(self, tmp_path, monkeypatch):
        doc = tiny_spec(tmp_path, trials=20)
        out = run_experiment(ExperimentSpec.from_dict(doc))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["estimatorVersion"] == 11
        rerun = run_experiment(ExperimentSpec.from_dict(manifest))
        assert json.loads((rerun / "manifest.json").read_text()) == manifest
        # the version is an input of the content hash
        monkeypatch.setattr("mcmimo.cli.ESTIMATOR_VERSION", 1)
        old = json.loads((run_experiment(ExperimentSpec.from_dict(doc)) / "manifest.json")
                         .read_text())
        assert old["estimatorVersion"] == 1
        assert old["inputHash"] != manifest["inputHash"]

    def test_fig2_mini_curves_and_accuracy(self, tmp_path):
        doc = {
            "kind": "fig2",
            "network": {"usersPerCell": 4, "bsAntennas": 64, "seed": 5},
            "sweep": {"variable": "bsAntennas", "values": [16, 64]},
            "trials": 1500,
            "drops": 3,
            "options": {"powersDb": [20, 30]},
            "output": str(tmp_path / "fig2"),
        }
        out = run_experiment(ExperimentSpec.from_dict(doc))
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["curves"]) == 8  # 4 estimators x 2 powers
        for p_db in (20, 30):
            mc = read_curve(out / f"fig2__P{p_db}dB__mc.csv")
            ap = read_curve(out / f"fig2__P{p_db}dB__approx.csv")
            x, mean, ci = mc[1]  # M = 64 >= 60: approximation inside the MC CI
            assert x == 64
            assert abs(ap[1][1] - mean) <= ci

    def test_fig5_series_and_parallel_jobs(self, tmp_path):
        doc = {
            "kind": "fig5",
            "network": {"usersPerCell": 3, "bsAntennas": 30, "seed": 6},
            "sweep": {"variable": "bsAntennas", "values": [10, 30]},
            "drops": 2,
            "output": str(tmp_path / "fig5"),
        }
        out = run_experiment(ExperimentSpec.from_dict(doc), jobs=2)
        manifest = json.loads((out / "manifest.json").read_text())
        labels = {(c["panel"], c["label"]) for c in manifest["curves"]}
        assert labels == {
            (sc, s) for sc in ("multicell", "singlecell") for s in ("lower", "upper", "approx")
        }
        serial = run_experiment(ExperimentSpec.from_dict(doc, {"out": str(tmp_path / "serial")}))
        for c in manifest["curves"]:
            assert (out / c["file"]).read_bytes() == (serial / c["file"]).read_bytes()

    @pytest.mark.parametrize("evaluator", ["lower", "upper", "approx", "mc"])
    def test_fig4_rows_equal_one_strategy_at_a_time(self, tmp_path, evaluator):
        # one drop's job rates every M; each (M, strategy) matches its own
        # strategy call on that drop's profile at that M
        net = {"usersPerCell": 4, "bsAntennas": 30, "cellCount": 7, "seed": 8}
        ms = [12, 30, 75]
        doc = {"kind": "fig4", "network": net, "sweep": {"variable": "bsAntennas", "values": ms},
               "drops": 1, "trials": 64, "options": {"evaluator": evaluator},
               "output": str(tmp_path / "fig4")}
        spec = ExperimentSpec.from_dict(doc)
        got = {(r["panel"], r["label"], r["x"]): (r["value"], r["ci"])
               for r in cli._job_curves(spec, {"drops": [0]})}
        assert len(got) == 2 * 4 * len(ms)
        seed = cli.derive_seed(net["seed"], cli._TAG_MC, 0)  # the drop's, at every M
        for panel, cells in (("multicell", None), ("singlecell", 1)):
            for m in ms:
                top, = cli._drop_topologies(spec, [0], antennas=m, cells=cells)
                allocs = np.full((top.n_cells, 4), db_to_linear(10))
                for label, strategy in [("equal", None), *cli._UPLINK_STRATEGIES.items()]:
                    cand = allocs.copy()
                    cand[0] = (equal_alloc(4, db_to_linear(20)) if strategy is None
                               else strategy(closedform.uplink_profile(top, allocs, 0), m, 4,
                                             db_to_linear(20)))
                    if evaluator == "mc":  # one allocation per call
                        est = uplink_rate_mc(top, cand, 0, 64, seed)
                        want = (est.sum_rate, float(est.ci_half_width.sum()))
                    else:
                        rate = cli._UPLINK_RATES[evaluator]
                        want = (float(rate(closedform.uplink_profile(top, cand, 0), m, 4,
                                           cand[0]).sum()), 0.0)
                    assert got[(panel, label, m)] == want

    def test_fig5_mc_gains_equal_one_strategy_at_a_time(self, tmp_path):
        net = {"usersPerCell": 4, "bsAntennas": 30, "cellCount": 7, "seed": 9}
        ms = [30, 50]
        doc = {"kind": "fig5", "network": net, "sweep": {"variable": "bsAntennas", "values": ms},
               "drops": 1, "trials": 64, "options": {"evaluator": "mc"},
               "output": str(tmp_path / "fig5")}
        spec = ExperimentSpec.from_dict(doc)
        got = {(r["panel"], r["label"], r["x"]): r["value"]
               for r in cli._job_curves(spec, {"drops": [0]})}
        assert len(got) == 2 * 3 * len(ms)
        seed = cli.derive_seed(net["seed"], cli._TAG_MC, 0)  # the drop's, at every M
        for panel, cells in (("multicell", None), ("singlecell", 1)):
            for m in ms:
                top, = cli._drop_topologies(spec, [0], antennas=m, cells=cells)
                allocs = np.full((top.n_cells, 4), db_to_linear(10))
                eq = uplink_rate_mc(top, [equal_alloc(4, 100.0), *allocs[1:]], 0, 64,
                                    seed).sum_rate
                for label, strategy in cli._UPLINK_STRATEGIES.items():
                    # the strategy's one row is cell 0's (N,) powers
                    cand = [strategy(closedform.uplink_profile(top, allocs, 0), m, 4, 100.0)[0],
                            *allocs[1:]]
                    pa = uplink_rate_mc(top, cand, 0, 64, seed).sum_rate
                    assert got[(panel, label, m)] == relative_gain(np.array([pa]), eq).tolist()[0]

    def test_fig12_mc_values_equal_one_allocation_at_a_time(self, tmp_path):
        doc = {"kind": "fig12", "network": {"usersPerCell": 2, "bsAntennas": 8, "seed": 3},
               "sweep": {"variable": "slot", "values": [1, 2]}, "drops": 1, "trials": 40,
               "options": {"powerW": 20.0, "estimator": "monteCarlo"},
               "output": str(tmp_path / "fig12")}
        spec = ExperimentSpec.from_dict(doc)
        got = {r["label"]: r["value"] for r in cli._job_network_slots(spec, {"drops": [0]})}
        top, = cli._drop_topologies(spec, [0])
        joint = run_joint(top, 20.0, max_iters=int(spec.options["jointMaxIters"]),
                          tolerance=float(spec.options["jointTolerance"]))
        seed = cli.derive_seed(3, cli._TAG_MC, 0)
        assert got["joint"] == network_sum_rate(top, joint.powers, "uplink", "monteCarlo", 40, seed)
        eq = np.tile(equal_alloc(2, 20.0), (top.n_cells, 1))
        assert got["equal"] == network_sum_rate(top, eq, "uplink", "monteCarlo", 40, seed)

    @pytest.mark.parametrize("kind,names", [
        ("fig2", ["uplink_rate_mc", "uplink_profile"]),
        ("fig8", ["downlink_rate_mc", "downlink_profile"]),
    ])
    def test_estimators_are_called_by_module_level_name(self, tmp_path, monkeypatch, kind,
                                                        names):
        # span tracing wraps functions by replacing these names, so a call
        # through another reference would go unrecorded
        calls = []
        for name in names:
            fn = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _fn=fn, _n=name, **k:
                                calls.append(_n) or _fn(*a, **k))
        doc = {"kind": kind, "network": {"usersPerCell": 3, "bsAntennas": 12, "seed": 4},
               "sweep": {"variable": "bsAntennas", "values": [12]}, "drops": 1, "trials": 8,
               "output": str(tmp_path)}
        cli._job_curves(ExperimentSpec.from_dict(doc), {"drops": [0]})
        assert sorted(set(calls)) == sorted(names)

    @pytest.mark.parametrize("kind", ["fig2", "fig8"])
    def test_one_estimator_call_per_swept_m(self, tmp_path, monkeypatch, kind):
        # the benchmark's span tracing reads each estimator call's antennas and
        # trials, and reports a cost per trial for every swept M; each point is
        # the estimate of its own single-M call, bit for bit, and does not
        # depend on which other Ms the sweep holds
        name = {"fig2": "uplink_rate_mc", "fig8": "downlink_rate_mc"}[kind]
        estimator, calls = getattr(cli, name), []
        signature = inspect.signature(estimator)
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(
            signature.bind(*a, **k).arguments) or estimator(*a, **k))

        def records(ms):
            doc = {"kind": kind, "network": {"usersPerCell": 3, "bsAntennas": 12, "seed": 4},
                   "sweep": {"variable": "bsAntennas", "values": ms}, "drops": 1,
                   "trials": 300, "output": str(tmp_path)}
            spec = ExperimentSpec.from_dict(doc)
            return spec, [r for r in cli._job_curves(spec, {"drops": [0]})
                          if r["label"] == "mc"]

        ms = [4, 12, 40, 128]
        spec, got = records(ms)
        assert [call["topology"].config.bs_antennas for call in calls] == ms
        assert all(call["trials"] == spec.trials for call in calls)
        panels = [f"P{p:g}dB" for p in spec.options["powersDb"]]
        for call in calls[:len(ms)]:  # the same call without the drop's shared draws
            alone = {key: value for key, value in call.items() if key != "shared"}
            m = call["topology"].config.bs_antennas
            want = [{"panel": panel, "label": "mc", "x": m, "value": est.sum_rate,
                     "ci": float(est.ci_half_width.sum())}
                    for panel, est in zip(panels, estimator(**alone))]
            assert [r for r in got if r["x"] == m] == want
            assert records([m])[1] == want

    @pytest.mark.parametrize("kind", ["fig2", "fig8"])
    def test_power_panels_share_draws(self, tmp_path, kind):
        # estimatorVersion 3: every power panel of a sweep point is drawn at
        # panel 0's seed, so a panel's records do not depend on the others
        def records(powers):
            doc = {"kind": kind, "network": {"usersPerCell": 3, "bsAntennas": 12, "seed": 4},
                   "sweep": {"variable": "bsAntennas", "values": [12]}, "drops": 1,
                   "trials": 40, "options": {"powersDb": powers}, "output": str(tmp_path)}
            spec = ExperimentSpec.from_dict(doc)
            return cli._job_curves(spec, {"drops": [0]})

        both = records([20, 30])
        assert both == records([20]) + records([30])
        assert {r["label"] for r in both} >= {"mc"}

    @pytest.mark.parametrize("kind, options", [
        ("fig3", {}),
        ("custom", {"direction": "downlink", "estimators": ["mc", "lower"]}),
    ])
    def test_power_sweep_runs_one_job_per_drop_on_shared_draws(self, tmp_path, kind, options):
        # estimatorVersion 4: every power of a drop is drawn at one seed, so a
        # power's records do not depend on the others
        def spec(values):
            return ExperimentSpec.from_dict({
                "kind": kind, "network": {"usersPerCell": 3, "bsAntennas": 12, "seed": 4},
                "sweep": {"variable": "powerDb", "values": values}, "drops": 2, "trials": 40,
                "options": options, "output": str(tmp_path)})

        assert cli._plan_jobs(spec([0, 10]), 2) == [{"drops": [0]}, {"drops": [1]}]
        both = cli._job_curves(spec([0, 10]), {"drops": [1]})
        assert both == (cli._job_curves(spec([0]), {"drops": [1]})
                        + cli._job_curves(spec([10]), {"drops": [1]}))
        assert [r["x"] for r in both if r["label"] == "mc"] == [0, 10]

    def test_fig12_outer_ring_keeps_initial_power_in_every_curve(self, tmp_path, monkeypatch):
        # the scheduler, the joint optimiser and the equal baseline are rated
        # under the same outer-ring interference: initialUserPowerDb per user
        seen = {}
        scheduled, joint, sum_rate = cli.run_scheduled_drops, cli.run_joint_drops, cli.network_sum_rate
        monkeypatch.setattr(cli, "run_scheduled_drops",
                            lambda *a, **k: [seen.setdefault("scheduled", *scheduled(*a, **k))])
        monkeypatch.setattr(cli, "run_joint_drops",
                            lambda *a, **k: [seen.setdefault("joint", *joint(*a, **k))])

        def rate(top, allocs, *a, **k):
            seen["equal"] = allocs
            return sum_rate(top, allocs, *a, **k)

        monkeypatch.setattr(cli, "network_sum_rate", rate)
        doc = {"kind": "fig12",
               "network": {"usersPerCell": 2, "bsAntennas": 8, "seed": 2024, "outerRingCells": 7},
               "sweep": {"variable": "slot", "values": [1, 2]}, "drops": 1,
               "options": {"powerW": 20.0, "initialUserPowerDb": 0, "jointMaxIters": 400},
               "output": str(tmp_path / "fig12")}
        cli._job_network_slots(ExperimentSpec.from_dict(doc), {"drops": [0]})
        for name in ("scheduled", "joint"):
            powers = seen[name].powers
            assert len(powers) == 26 and powers[19:].tolist() == [[1.0] * 2] * 7
        assert seen["equal"].tolist() == [[10.0] * 2] * 19 + [[1.0] * 2] * 7
        assert seen["joint"].powers[:19].sum(axis=1) == pytest.approx([20.0] * 19)

    def test_fig12_structure(self, tmp_path):
        doc = {
            "kind": "fig12",
            "network": {"usersPerCell": 2, "bsAntennas": 8, "seed": 3},
            "sweep": {"variable": "slot", "values": [1, 2, 3, 4]},
            "drops": 1,
            "options": {"powerW": 20.0, "jointMaxIters": 400},
            "output": str(tmp_path / "fig12"),
        }
        out = run_experiment(ExperimentSpec.from_dict(doc))
        sched = read_curve(out / "fig12__scheduled.csv")
        joint = read_curve(out / "fig12__joint.csv")
        equal = read_curve(out / "fig12__equal.csv")
        assert [r[0] for r in sched] == [1, 2, 3, 4]
        assert len({r[1] for r in joint}) == 1  # flat benchmark line
        assert sched[-1][1] >= equal[-1][1]  # optimised beats equal power

    def test_table_kind(self, tmp_path):
        doc = {
            "kind": "table2",
            "network": {"usersPerCell": 3, "bsAntennas": 30, "seed": 4},
            "sweep": {"variable": "ratio", "values": [2, 12]},
            "drops": 2,
            "options": {"powersDb": [20], "thresholds": [0.10]},
            "output": str(tmp_path / "table2"),
        }
        out = run_experiment(ExperimentSpec.from_dict(doc))
        lines = (out / "table2.csv").read_text().strip().splitlines()
        assert lines[0] == "powerDb,threshold,maxRatio,atBoundary"
        assert len(lines) == 2


class TestPlotData:
    def test_panels_and_series(self, tmp_path):
        doc = {
            "kind": "fig2",
            "network": {"usersPerCell": 2, "bsAntennas": 16, "seed": 1},
            "sweep": {"variable": "bsAntennas", "values": [8, 16]},
            "trials": 50,
            "drops": 1,
            "options": {"powersDb": [20, 30], "estimators": ["lower", "approx"]},
            "output": str(tmp_path / "fig2"),
        }
        out = run_experiment(ExperimentSpec.from_dict(doc))
        plot = json.loads(emit_plot_data(out).read_text())
        assert len(plot["panels"]) == 2
        assert {s["label"] for s in plot["panels"][0]["series"]} == {"lower", "approx"}
        assert plot["panels"][0]["series"][0]["x"] == [8.0, 16.0]

    def test_missing_column_is_schema_error(self, tmp_path):
        doc = tiny_spec(tmp_path, trials=50)
        out = run_experiment(ExperimentSpec.from_dict(doc))
        bad = out / "custom__mc.csv"
        bad.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            emit_plot_data(out)

    def test_empty_csv_is_error(self, tmp_path):
        doc = tiny_spec(tmp_path, trials=50)
        out = run_experiment(ExperimentSpec.from_dict(doc))
        (out / "custom__mc.csv").write_text("x,mean,ciHalfWidth\n")
        with pytest.raises(ValueError, match="no data rows"):
            emit_plot_data(out)

    def test_missing_manifest_is_error(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            emit_plot_data(tmp_path)

    @pytest.mark.parametrize("manifest, name", [
        ({"curves": []}, "manifest spec must be a JSON object"),
        ({"spec": {"kind": "fig9", "sweep": {"variable": "bsAntennas"}}, "curves": []},
         "manifest spec kind must be one of"),
    ])
    def test_manifest_spec_and_kind_are_checked(self, tmp_path, manifest, name):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=name):
            emit_plot_data(tmp_path)

    @pytest.mark.parametrize("field, drop", [
        ("manifest spec sweep must be a JSON object", ("spec", "sweep")),  # was KeyError: 'sweep'
        ("manifest spec sweep variable must be a non-empty string", ("spec", "sweep", "variable")),
        ("manifest curve panel must be a string", ("curves", 0, "panel")),
        ("manifest curve label must be a non-empty string", ("curves", 0, "label")),
        ("manifest curve file must be a non-empty string", ("curves", 0, "file")),  # was KeyError
    ])
    def test_manifest_sweep_and_curve_fields_are_checked(self, tmp_path, field, drop):
        out = run_experiment(ExperimentSpec.from_dict(tiny_spec(tmp_path, trials=50)))
        manifest = json.loads((out / "manifest.json").read_text())
        emit_plot_data(out)  # the run's own manifest passes
        parent = manifest
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=field):
            emit_plot_data(out)


class TestFindMaxRatio:
    BASE = NetworkConfig(users_per_cell=5, bs_antennas=64, seed=77)

    def test_zero_threshold_hits_upper_end(self):
        q = GainThresholdQuery("uplink", 0.0, 20.0, (2, 6), drops=2)
        value, boundary = find_max_ratio(q, self.BASE)
        assert value == 6
        assert boundary

    def test_threshold_never_met_reports_lower_end(self):
        q = GainThresholdQuery("uplink", 100.0, 20.0, (2, 6), drops=2)
        value, boundary = find_max_ratio(q, self.BASE)
        assert value == 2
        assert boundary

    def test_interior_crossing(self):
        q = GainThresholdQuery("uplink", 0.10, 20.0, (2, 60), drops=6)
        value, boundary = find_max_ratio(q, self.BASE)
        assert not boundary
        assert 2 < value < 60
        # monotone consistency: one ratio above the answer fails the threshold
        q_hi = GainThresholdQuery("uplink", 0.10, 20.0, (value + 1, value + 1), drops=6)
        v2, b2 = find_max_ratio(q_hi, self.BASE)
        assert b2 and v2 == value + 1

    def test_min_users_mode(self):
        q = GainThresholdQuery(
            "downlink", 0.05, 40.0, (2, 30), mode="minUsers", fixed_antennas=100, drops=4
        )
        value, boundary = find_max_ratio(q, self.BASE)
        assert 2 <= value <= 30

    @pytest.mark.parametrize("key, field, value", [
        ("fixedUsers", "fixed_users", 10.0),
        ("fixedUsers", "fixed_users", True),
        ("fixedAntennas", "fixed_antennas", 100.5),
    ])
    def test_fixed_sizes_must_be_integers(self, key, field, value):
        # the probes build a NetworkConfig from them, which takes integers only
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            GainThresholdQuery("uplink", 0.1, 20.0, (2, 6), **{field: value})

    @pytest.mark.parametrize("bounds", [(2.5, 6), (2, 6.5)])
    def test_search_range_must_be_integral(self, bounds):
        with pytest.raises(ValueError, match="searchRange"):
            GainThresholdQuery("uplink", 0.1, 20.0, bounds)

    def test_probe_without_edge_users_is_error(self):
        # seed 1 puts the only user of the one drop inside the edge radius,
        # so the edge-only gain is undefined at every probe
        base = NetworkConfig(users_per_cell=1, bs_antennas=8, seed=1)
        q = GainThresholdQuery("downlink", 0.05, 40.0, (2, 30), mode="maxAntennas", drops=1)
        with pytest.raises(ValueError, match=r"maxAntennas probe 2: edgeOnly.*drops \(now 1\)"):
            find_max_ratio(q, base)
        q_all = GainThresholdQuery("downlink", 0.05, 40.0, (2, 30), mode="maxAntennas",
                                   drops=1, edge_only=False)
        assert find_max_ratio(q_all, base)[0] >= 2

    @pytest.mark.parametrize("key, field, value", [
        ("threshold", "threshold", math.nan),
        ("threshold", "threshold", math.inf),
        ("threshold", "threshold", "0.1"),
        ("power", "power_db", math.nan),
        ("power", "power_db", -math.inf),
        ("power", "power_db", True),
        ("interfererPowerDb", "interferer_power_db", math.nan),
    ])
    def test_numbers_must_be_finite(self, key, field, value):
        # NaN passes `threshold < 0`, and the bisection would answer (lo, False)
        kwargs = {"threshold": 0.1, "power_db": 20.0, field: value}
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            GainThresholdQuery("uplink", search_range=(2, 6), **kwargs)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold must be a finite number >= 0"):
            GainThresholdQuery("uplink", -0.1, 20.0, (2, 6))

    # The probed x values in order, for an interior crossing and both boundary
    # outcomes of each mode: the golden digests pin the answers, not the probes.
    # One drop set, N=4: (mode, direction, threshold, range, probes, answer)
    PROBES = [
        ("maxRatio", "uplink", 0.2, (2, 60), [2, 60, 31, 16, 23, 27, 25, 26], (25, False)),
        ("maxRatio", "uplink", 0.0, (2, 60), [2, 60], (60, True)),
        ("maxRatio", "uplink", 5.0, (2, 60), [2], (2, True)),
        ("maxAntennas", "downlink", 0.005, (6, 400),
         [6, 400, 203, 104, 55, 30, 42, 36, 33, 31], (30, False)),
        ("maxAntennas", "downlink", 0.0, (6, 400), [6, 400], (400, True)),
        ("maxAntennas", "downlink", 5.0, (6, 400), [6], (6, True)),
        ("minUsers", "downlink", 0.005, (1, 30), [30, 1, 15, 8, 11, 9, 10], (11, False)),
        ("minUsers", "downlink", 0.0, (1, 30), [30, 1], (1, True)),
        ("minUsers", "downlink", 0.02, (1, 30), [30], (30, True)),
    ]

    @pytest.mark.parametrize("mode, direction, threshold, bounds, probes, answer", PROBES)
    def test_probe_sequence(self, monkeypatch, mode, direction, threshold, bounds, probes,
                            answer):
        seen = []
        allocations = cli._allocations

        def recording(prof, ms, budgets, strategies):
            (m,) = ms
            seen.append({"maxRatio": m // prof.n_users, "maxAntennas": m,
                         "minUsers": prof.n_users}[mode])
            return allocations(prof, ms, budgets, strategies)

        monkeypatch.setattr(cli, "_allocations", recording)
        # each query gives only the fields its mode and link read
        sizes = {"fixed_antennas": 40} if mode == "minUsers" else {"fixed_users": 4}
        q = GainThresholdQuery(direction, threshold, 20.0 if direction == "uplink" else 40.0,
                               bounds, mode, drops=3, **sizes,
                               edge_only=None if direction == "uplink" else False)
        base = NetworkConfig(users_per_cell=4, bs_antennas=40, seed=3)
        assert find_max_ratio(q, base) == answer
        assert seen == probes

    @pytest.mark.parametrize("over, key", [
        ({"edgeOnly": True}, "edgeOnly"),
        ({"edgeOnly": False}, "edgeOnly"),
        ({"fixedAntennas": 100}, "fixedAntennas"),
        ({"mode": "maxAntennas", "fixedAntennas": 100}, "fixedAntennas"),
        ({"direction": "downlink", "mode": "minUsers", "fixedUsers": 5}, "fixedUsers"),
    ])
    def test_fields_the_query_never_reads_are_rejected(self, over, key):
        # each once changed nothing: an uplink query answered (6, True) with
        # edgeOnly true and with it false
        with pytest.raises(ValueError, match=f"^{key} is read by"):
            GainThresholdQuery.from_dict({**QUERY, **over})

    def test_unknown_query_key_rejected(self):
        with pytest.raises(ValueError, match="unknown query keys"):
            GainThresholdQuery.from_dict({"direction": "uplink", "thresh": 0.1})


class TestStackedDrops:
    """A probe over stacked drops gives each drop's gain with the bits of the
    one-drop evaluation."""

    def drops(self, n):
        return [build_topology(NetworkConfig(users_per_cell=n, bs_antennas=4 * n, seed=s))
                for s in range(8)]

    @staticmethod
    def one_drop_rates(top, direction, interferer, m, budget):
        """(equal-power, water-filled) per-user rates of cell 0 in ``top`` alone."""
        prof = cli._cell0_rows([top], direction, interferer)[0]
        strategy, rate = cli._link_strategy(direction)
        n = top.n_users
        return [cli._LINKS[direction][2][rate](prof, m, n, p)[0]
                for p in (equal_alloc(n, budget), strategy(prof, m, n, budget))]

    def test_uplink_gains_equal_one_drop_at_a_time(self):
        tops = self.drops(12)
        stacked, = cli._gains(cli._cell0_rows(tops, "uplink", 10.0)[0], [48], [100.0])
        for top, gain in zip(tops, stacked):
            r_eq, r_pa = self.one_drop_rates(top, "uplink", 10.0, 48, 100.0)
            assert gain == relative_gain(float(r_pa.sum()), float(r_eq.sum()))

    def test_antenna_counts_equal_one_at_a_time(self):
        # one water-filling call serves every M with the bits of its own call
        ms = [13, 48, 200, 500]
        for direction, interferer in (("uplink", 10.0), ("downlink", 1000.0)):
            prof = cli._cell0_rows(self.drops(12), direction, interferer)[0]
            strategy, name = cli._link_strategy(direction)
            rate = cli._LINKS[direction][2][name]
            allocs = cli._allocations(prof, ms, 100.0, [strategy])
            rates = rate(prof, np.array(ms)[None, :, None, None], 12, allocs)
            assert allocs.shape == rates.shape == (2, len(ms), 8, 12)
            for k, m in enumerate(ms):
                one_allocs = cli._allocations(prof, [m], 100.0, [strategy])
                one_rates = rate(prof, np.full((1, 1, 1, 1), m), 12, one_allocs)
                assert allocs[:, k].tolist() == one_allocs[:, 0].tolist()
                assert rates[:, k].tolist() == one_rates[:, 0].tolist()

    @pytest.mark.parametrize("selection", ["edge", "random"])
    def test_selected_gains_equal_one_drop_at_a_time(self, selection):
        # random selections of ~60% of 16 users: a zero-filled row sum would
        # round differently from the sum of the selected users
        tops = self.drops(16)
        if selection == "edge":
            users = cli._edge_users(tops)
        else:
            users = np.random.default_rng(0).random((len(tops), 16)) < 0.6
        stacked, = cli._gains(cli._cell0_rows(tops, "downlink", 1000.0)[0], [64], [1e4], users)
        want = []
        for top, chosen in zip(tops, users):
            if chosen.any():
                r_eq, r_pa = self.one_drop_rates(top, "downlink", 1000.0, 64, 1e4)
                want.append(relative_gain(float(r_pa[chosen].sum()), float(r_eq[chosen].sum())))
        assert 0 < len(want) and stacked.tolist() == want


class TestLockstep:
    """A table's threshold queries bisect in lockstep: each probes and answers
    as its search alone does, and a round's probes on one N share one
    evaluation."""

    BASE = NetworkConfig(users_per_cell=4, bs_antennas=30, seed=11)

    @staticmethod
    def queries(shape):
        """Query sets shaped as table2's, table3a's and table3b's."""
        if shape == "table2":
            return [GainThresholdQuery("uplink", th, p, (2, 60), drops=3)
                    for p in (10.0, 20.0) for th in (0.1, 0.2)]
        if shape == "table3a":
            return [GainThresholdQuery("downlink", th, p, (6, 400), "maxAntennas", fixed_users=n,
                                       drops=4, interferer_power_db=30.0)
                    for n in (3, 5) for th in (0.005, 0.1) for p in (35.0, 45.0)]
        return [GainThresholdQuery("downlink", th, p, (3, 59), "minUsers", fixed_antennas=a,
                                   drops=6, interferer_power_db=50.0)
                for a in (40, 60) for th in (0.05, 0.15) for p in (10.0, 20.0, 40.0)]

    @pytest.fixture
    def probes(self, monkeypatch):
        """The probed x values of each search, in the order the searches start."""
        seen = []
        bisection = cli._bisection

        def recording(query, base):
            xs, gain = [], None
            seen.append(xs)
            search = bisection(query, base)
            while True:
                try:
                    probe = search.send(gain)
                except StopIteration as done:
                    return done.value
                xs.append(probe[-1])
                gain = yield probe

        monkeypatch.setattr(cli, "_bisection", recording)
        return seen

    @pytest.mark.parametrize("shape", ["table2", "table3a", "table3b"])
    def test_lockstep_equals_one_query_at_a_time(self, probes, shape):
        queries = self.queries(shape)
        together = cli.find_max_ratios(queries, self.BASE)
        lockstep = probes[:]
        probes.clear()
        alone = [find_max_ratio(q, self.BASE) for q in queries]
        assert together == alone and lockstep == probes
        # interior crossings, so the searches run different numbers of rounds
        assert not all(boundary for _, boundary in alone)
        assert len({len(xs) for xs in probes}) > 1

    def test_one_evaluation_per_round_on_one_n(self, monkeypatch, probes):
        calls = []
        gains = cli._gains

        def counting(prof, ms, p_lin, users=None):
            calls.append(len(ms))
            return gains(prof, ms, p_lin, users)

        monkeypatch.setattr(cli, "_gains", counting)
        cli.find_max_ratios(self.queries("table2"), self.BASE)
        # round r rates the probes of every search that runs r rounds or more
        assert calls == [sum(len(xs) > r for xs in probes) for r in range(max(map(len, probes)))]

    def test_invalid_query_fails_before_any_probe(self, tmp_path, monkeypatch):
        # 1 antenna clamps minUsers' range to [1, 0]; the 40-antenna queries
        # before it must not run first
        calls = []
        monkeypatch.setattr(cli, "_gains", lambda *args: calls.append(args))
        doc = {"kind": "table3b", "network": {"usersPerCell": 4, "bsAntennas": 30, "seed": 11},
               "sweep": {"variable": "usersPerCell", "values": [1, 30]}, "drops": 2,
               "options": {"antennasList": [40, 1]}, "output": str(tmp_path / "t3b")}
        with pytest.raises(ValueError, match="search range is empty after feasibility clamping"):
            run_experiment(ExperimentSpec.from_dict(doc))
        assert calls == [] and not (tmp_path / "t3b").exists()


class TestStackedJobs:
    """A curve job runs its drops as one stack: its records equal, value for
    value and in order, those of one-drop jobs run one after another."""

    @pytest.mark.parametrize("kind, values, options", [
        ("fig2", [12, 30, 75], {}),
        ("fig3", [0, 10], {}),
        ("fig8", [12, 30], {"powersDb": [40]}),
        ("custom", [12, 30], {"direction": "downlink"}),
        ("fig4", [12, 30, 75], {"evaluator": "approx"}),
        ("fig4", [12, 30, 75], {"evaluator": "mc"}),
        ("fig5", [12, 30, 75], {}),
        ("fig5", [12, 30, 75], {"evaluator": "mc"}),
        ("fig6", [2, 4], {"ratios": [2, 5]}),
        ("fig6", [2, 4], {"ratios": [5, 2, 10]}),
        ("fig7", [2, 6, 10], {"powersDb": [10, 20]}),
        ("fig10", [12, 30, 75], {}),
        ("fig11", [12, 30, 75], {}),
    ])
    def test_five_drops_equal_five_one_drop_jobs(self, kind, values, options):
        spec = ExperimentSpec.from_dict({
            "kind": kind, "network": {"usersPerCell": 4, "bsAntennas": 30, "cellCount": 7,
                                      "seed": 21},
            "sweep": {"variable": cli._KINDS[kind].sweeps[0], "values": values},
            "trials": 32, "options": options})
        run = cli._KINDS[kind].run
        stacked = run(spec, {"drops": [0, 1, 2, 3, 4]})
        assert stacked and stacked == [rec for d in range(5) for rec in run(spec, {"drops": [d]})]

    def test_mc_evaluator_draws_once_per_drop_and_stack(self, monkeypatch):
        # a drop's seed keys all its Monte Carlo: each scenario draws the
        # drop's interference once, its allocations at one M are the rows of
        # one call, and each (M, allocation) row equals its one-row call
        net = {"usersPerCell": 4, "bsAntennas": 30, "cellCount": 7, "seed": 8}
        ms = [12, 30, 75]
        spec = ExperimentSpec.from_dict({
            "kind": "fig4", "network": net, "sweep": {"variable": "bsAntennas", "values": ms},
            "trials": 64, "options": {"evaluator": "mc"}})
        draws, calls = [], []
        shared, rate = cli.shared_draws, cli.uplink_rate_mc
        monkeypatch.setattr(cli, "shared_draws", lambda top, rows, *a: draws.append(
            (top.n_cells, a[2])) or shared(top, rows, *a))
        monkeypatch.setattr(cli, "uplink_rate_mc", lambda top, rows, *a, **k: calls.append(
            (top.config.bs_antennas, len(rows))) or rate(top, rows, *a, **k))
        records = cli._job_curves(spec, {"drops": [1, 2]})
        seeds = [cli.derive_seed(8, cli._TAG_MC, d) for d in (1, 2)]
        assert draws == [(7, seeds[0]), (7, seeds[1]), (1, seeds[0]), (1, seeds[1])]
        assert calls == [(m, 4) for _ in range(4) for m in ms]
        half = len(records) // 2
        for d, seed, part in zip((1, 2), seeds, (records[:half], records[half:])):
            got = {(r["panel"], r["label"], r["x"]): (r["value"], r["ci"]) for r in part}
            assert len(got) == len(part) == 2 * 4 * len(ms)
            for panel, cells in (("multicell", None), ("singlecell", 1)):
                for m in ms:
                    top, = cli._drop_topologies(spec, [d], antennas=m, cells=cells)
                    allocs = np.full((top.n_cells, 4), 10.0)
                    prof = closedform.uplink_profile(top, allocs, 0)
                    for label, strategy in [("equal", None), *cli._UPLINK_STRATEGIES.items()]:
                        cand = allocs.copy()
                        cand[0] = (equal_alloc(4, 100.0) if strategy is None
                                   else strategy(prof, m, 4, 100.0))
                        est = rate(top, cand, 0, 64, seed)
                        assert got[panel, label, m] == (est.sum_rate,
                                                        float(est.ci_half_width.sum()))

    def test_fig5_job_makes_one_call_per_scenario_and_strategy(self, monkeypatch):
        # every M of a scenario is water-filled in one strategy call, and all
        # four allocations (equal power and the strategies') rated in one call
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for name, strategy in cli._UPLINK_STRATEGIES.items():
            monkeypatch.setitem(cli._UPLINK_STRATEGIES, name, counting(name, strategy))
        monkeypatch.setitem(cli._UPLINK_RATES, "approx", counting("rate", cli._UPLINK_RATES["approx"]))
        spec = ExperimentSpec.from_dict({
            "kind": "fig5", "network": {"usersPerCell": 4, "bsAntennas": 30, "seed": 21},
            "sweep": {"variable": "bsAntennas", "values": [12, 30, 75, 200]}})
        assert cli._KINDS["fig5"].run(spec, {"drops": [0, 1, 2]})
        assert sorted(calls) == sorted([*cli._UPLINK_STRATEGIES, "rate"] * 2)


class TestDropReuse:
    """Each drop's geometry is built once per run (or per fixed-N query) and
    its E{1/(v+1)} computed once, whatever the number of sweep points."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"build": [], "factor": 0}

        def build(cfg, seeds):  # one config per drop built
            tops = build_topology_drops(cfg, seeds)
            seen["build"] += [top.config for top in tops]
            return tops

        def integral(zetas):
            seen["factor"] += 1
            return laplace(zetas)

        def profiled(fn):
            def profile(tops, allocations, target):  # one topology or a stack of drops
                for top in [tops] if isinstance(tops, CellTopology) else tops:
                    seen["profile"].append((top.config.users_per_cell, top.config.seed,
                                            top.config.bs_antennas, top.n_cells))
                return fn(tops, allocations, target)
            return profile

        laplace = closedform._laplace_product_integral
        seen["profile"] = []
        monkeypatch.setattr(cli, "build_topology_drops", build)
        for name in ("uplink_profile", "downlink_profile"):
            monkeypatch.setattr(cli, name, profiled(getattr(cli, name)))
        monkeypatch.setattr(closedform, "_laplace_product_integral", integral)
        return seen

    @pytest.mark.parametrize("drops", [3, 20])
    def test_fig5_builds_each_drop_once(self, tmp_path, calls, drops):
        # 20 drops in one job: each drop's factor is kept on its row of the
        # job's stacked profile, however many drops the stack holds
        doc = {
            "kind": "fig5",
            "network": {"usersPerCell": 3, "bsAntennas": 30, "seed": 6},
            "sweep": {"variable": "bsAntennas", "values": [10, 20, 30, 40]},
            "drops": drops,
            "output": str(tmp_path / "fig5"),
        }
        run_experiment(ExperimentSpec.from_dict(doc))
        assert len(calls["build"]) == drops * 2  # multicell and single-cell scenarios
        # the upper-bound strategy's factor, once per multicell drop
        assert calls["factor"] == drops
        # one profile per drop and scenario serves every M, strategy and rate,
        # built at the smallest M
        assert len(calls["profile"]) == len(set(calls["profile"])) == drops * 2
        assert {m for _, _, m, _ in calls["profile"]} == {10}

    @pytest.mark.parametrize("kind, estimators", [
        ("fig2", ["mc", "lower", "upper", "approx"]), ("fig8", ["mc", "lower"]),
    ])
    def test_antenna_sweep_builds_and_profiles_each_drop_once(self, tmp_path, calls, kind,
                                                             estimators):
        drops = 3
        doc = {"kind": kind, "network": {"usersPerCell": 3, "bsAntennas": 30, "seed": 6},
               "sweep": {"variable": "bsAntennas", "values": [5, 12, 30, 60]}, "drops": drops,
               "trials": 16, "options": {"estimators": estimators},
               "output": str(tmp_path / kind)}
        run_experiment(ExperimentSpec.from_dict(doc))
        assert len(calls["build"]) == drops
        assert {cfg.bs_antennas for cfg in calls["build"]} == {5}
        # one profile per drop serves every M, power panel and closed form
        assert len(calls["profile"]) == len(set(calls["profile"])) == drops

    @pytest.mark.parametrize("mode", ["maxRatio", "maxAntennas"])
    def test_fixed_n_query_builds_each_drop_once(self, calls, mode):
        q = GainThresholdQuery("uplink", 0.10, 20.0, (2, 60), mode=mode, drops=3)
        find_max_ratio(q, NetworkConfig(users_per_cell=5, bs_antennas=64, seed=77))
        assert len(calls["build"]) == 3

    def test_min_users_query_builds_each_probe_and_drop_once(self, calls):
        q = GainThresholdQuery("downlink", 0.05, 40.0, (2, 30), mode="minUsers",
                               fixed_antennas=100, drops=4)
        find_max_ratio(q, NetworkConfig(users_per_cell=5, bs_antennas=64, seed=77))
        built = [(cfg.users_per_cell, cfg.seed) for cfg in calls["build"]]
        assert len(built) == len(set(built)) and len(built) % 4 == 0

    def test_table2_queries_share_their_drops(self, tmp_path, calls):
        drops = 3
        doc = {
            "kind": "table2",
            "network": {"usersPerCell": 4, "bsAntennas": 40, "seed": 12},
            "sweep": {"variable": "ratio", "values": [2, 40]},
            "options": {"powersDb": [10, 20], "thresholds": [0.1, 0.2]},
            "drops": drops,
            "output": str(tmp_path / "table2"),
        }
        run_experiment(ExperimentSpec.from_dict(doc))
        assert len(calls["build"]) == drops  # 4 queries, one set of drops
        assert len(calls["profile"]) == drops  # and one profile of each

    def test_table3a_builds_each_drop_once_per_user_count(self, tmp_path, calls):
        drops = 2
        doc = {
            "kind": "table3a",
            "network": {"usersPerCell": 4, "bsAntennas": 40, "seed": 12},
            "sweep": {"variable": "bsAntennas", "values": [6, 60]},
            "options": {"usersList": [3, 4], "powersDb": [35, 45], "thresholds": [0.1]},
            "drops": drops,
            "output": str(tmp_path / "table3a"),
        }
        run_experiment(ExperimentSpec.from_dict(doc))
        built = [(cfg.users_per_cell, cfg.seed) for cfg in calls["build"]]
        assert len(built) == len(set(built)) == drops * 2

    def test_table3b_builds_each_user_count_and_drop_once(self, tmp_path, calls):
        drops = 3
        doc = {
            "kind": "table3b",
            "network": {"usersPerCell": 4, "bsAntennas": 40, "seed": 12},
            "sweep": {"variable": "usersPerCell", "values": [1, 20]},
            "options": {"antennasList": [30, 40], "powersDb": [35, 45], "thresholds": [0.1]},
            "drops": drops,
            "output": str(tmp_path / "table3b"),
        }
        run_experiment(ExperimentSpec.from_dict(doc))
        built = [(cfg.users_per_cell, cfg.seed) for cfg in calls["build"]]
        # 4 queries probe overlapping user counts; each (N, drop) is built once
        assert len(built) == len(set(built)) and len(built) % drops == 0

    def test_drop_built_at_small_m_matches_fresh_build(self):
        # a job builds its drop at the smallest swept M and reaches the others
        # through with_antennas: large-scale fading does not depend on M
        spec = ExperimentSpec.from_dict({
            "kind": "fig2",
            "network": {"usersPerCell": 4, "bsAntennas": 20, "seed": 5, "outerRingCells": 3},
        })
        reused = cli._drop_topologies(spec, [0], antennas=20)[0].with_antennas(64)
        fresh = build_topology(NetworkConfig(users_per_cell=4, bs_antennas=64,
                                             seed=cli.derive_seed(5, cli._TAG_DROP, 0),
                                             outer_ring_cells=3))
        assert reused.config == fresh.config
        assert reused.cluster_size == fresh.cluster_size
        for name in ("axial", "bs_positions", "user_positions", "large_scale", "adjacency"):
            np.testing.assert_array_equal(getattr(reused, name), getattr(fresh, name))


class TestMainEntry:
    def test_run_and_plotdata(self, tmp_path, capsys):
        doc = tiny_spec(tmp_path, trials=100)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["run", str(spec_path)]) == 0
        assert main(["plotdata", doc["output"]]) == 0
        out = capsys.readouterr().out
        assert "manifest.json" in out and "plotdata.json" in out

    def test_table_command(self, tmp_path, capsys):
        query = {
            "direction": "uplink", "threshold": 0.0, "power": 20, "searchRange": [2, 4],
            "drops": 2,
            "network": {"usersPerCell": 3, "bsAntennas": 12, "seed": 5},
        }
        qpath = tmp_path / "query.json"
        qpath.write_text(json.dumps(query))
        csv_out = tmp_path / "res.csv"
        assert main(["table", str(qpath), "--out", str(csv_out)]) == 0
        assert "maxRatio = 4" in capsys.readouterr().out
        assert csv_out.read_text().startswith("mode,direction,powerDb,threshold,value,atBoundary")


    def test_table_command_rejects_nan_power(self, tmp_path):
        query = {
            "direction": "uplink", "threshold": 0.1, "power": math.nan, "searchRange": [2, 4],
            "drops": 2, "network": {"usersPerCell": 3, "bsAntennas": 12, "seed": 5},
        }
        qpath = tmp_path / "query.json"
        qpath.write_text(json.dumps(query))  # written as the JSON extension NaN
        csv_out = tmp_path / "res.csv"
        with pytest.raises(ValueError, match="power must be a finite number"):
            main(["table", str(qpath), "--out", str(csv_out)])
        assert not csv_out.exists()

    def test_table2_rejects_nan_threshold_before_writing(self, tmp_path):
        # refused with the spec: the 0.1 bisection no longer runs first
        out = tmp_path / "table2"
        doc = {"kind": "table2", "network": {"usersPerCell": 3, "bsAntennas": 30, "seed": 4},
               "sweep": {"variable": "ratio", "values": [2, 20]},
               "options": {"powersDb": [20], "thresholds": [0.1, math.nan]},
               "drops": 2, "output": str(out)}
        with pytest.raises(ValueError, match="option 'thresholds'"):
            run_experiment(ExperimentSpec.from_dict(doc))
        assert list(tmp_path.iterdir()) == []

    ABSENT = object()

    @pytest.mark.parametrize("over, name", [
        ({"drops": 0}, "drops"),  # an IndexError
        ({"drops": 2.5}, "drops"),  # a TypeError
        ({"drops": True}, "drops"),  # ran one drop
        ({"edgeOnly": "no"}, "edgeOnly"),  # taken as true
        ({"searchRange": [2, 40, 60]}, "searchRange"),  # too many values to unpack
        ({"searchRange": ABSENT}, "searchRange"),  # a TypeError naming search_range
        ({"direction": ABSENT}, "direction"),
        ({"network": ABSENT}, "network"),  # a KeyError
    ])
    def test_table_query_names_the_field(self, tmp_path, over, name):
        query = {**QUERY, "network": NET, **over}
        qpath = tmp_path / "query.json"
        qpath.write_text(json.dumps({k: v for k, v in query.items() if v is not self.ABSENT}))
        csv_out = tmp_path / "res.csv"
        with pytest.raises(ValueError, match=name):
            main(["table", str(qpath), "--out", str(csv_out)])
        assert not csv_out.exists()

    @pytest.mark.parametrize("network", [5, [["usersPerCell", 3], ["bsAntennas", 12]],
                                         json.dumps({"usersPerCell": 3, "bsAntennas": 12})],
                             ids=["number", "pairs", "json_text"])
    def test_table_network_must_be_an_object(self, tmp_path, network):
        # a number raised a TypeError, the pairs were read as a dict and the
        # JSON text was parsed
        qpath = tmp_path / "query.json"
        qpath.write_text(json.dumps({**QUERY, "network": network}))
        csv_out = tmp_path / "res.csv"
        with pytest.raises(ValueError, match="network must be a JSON object"):
            main(["table", str(qpath), "--out", str(csv_out)])
        assert not csv_out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_table_seed_override_is_checked(self, tmp_path, seed):
        # -1 ran as seed 2**64 - 1 and 2**64 as seed 0
        qpath = tmp_path / "query.json"
        qpath.write_text(json.dumps({**QUERY, "network": NET}))
        csv_out = tmp_path / "res.csv"
        with pytest.raises(ValueError, match="seed must be in"):
            main(["table", str(qpath), "--seed", str(seed), "--out", str(csv_out)])
        assert not csv_out.exists()

    def test_table_seed_override_replaces_the_network_seed(self, tmp_path):
        query = {**QUERY, "threshold": 0.3, "searchRange": [2, 40], "drops": 3}
        results = []
        for network_seed, flags in ((9, []), (4, ["--seed", "9"])):
            qpath = tmp_path / f"query{network_seed}.json"
            qpath.write_text(json.dumps({**query, "network": {**NET, "seed": network_seed}}))
            csv_out = tmp_path / f"res{network_seed}.csv"
            main(["table", str(qpath), *flags, "--out", str(csv_out)])
            results.append(csv_out.read_text())
        assert results[0] == results[1]


class TestAllKindsSmoke:
    """Every experiment kind runs end to end on a tiny configuration."""

    @pytest.mark.parametrize("kind,extra", [
        ("fig3", {"trials": 60, "options": {"estimators": ["lower", "approx"]},
                  "sweep": {"variable": "powerDb", "values": [10, 20]}}),
        ("fig4", {"sweep": {"variable": "bsAntennas", "values": [8, 16]}}),
        ("fig6", {"sweep": {"variable": "usersPerCell", "values": [2, 3]},
                  "options": {"ratios": [2, 4]}}),
        ("fig7", {"sweep": {"variable": "ratio", "values": [2, 6]},
                  "options": {"powersDb": [15, 20]}}),
        ("fig8", {"trials": 60, "options": {"powersDb": [40], "estimators": ["mc", "lower"]},
                  "sweep": {"variable": "bsAntennas", "values": [8, 16]}}),
        ("fig10", {"sweep": {"variable": "bsAntennas", "values": [8, 16]}}),
        ("fig11", {"sweep": {"variable": "bsAntennas", "values": [8, 16]}}),
        ("table3a", {"sweep": {"variable": "bsAntennas", "values": [4, 40]},
                     "options": {"usersList": [2], "powersDb": [40], "thresholds": [0.05]}}),
        # 3 drops: at 2, the N=5 probe has no edge user in either drop, an error
        ("table3b", {"sweep": {"variable": "usersPerCell", "values": [1, 6]}, "drops": 3,
                     "options": {"antennasList": [12], "powersDb": [40], "thresholds": [0.05]}}),
    ])
    def test_kind_runs(self, tmp_path, kind, extra):
        doc = {
            "kind": kind,
            "network": {"usersPerCell": 3, "bsAntennas": 16, "cellCount": 7, "seed": 9},
            "drops": 2,
            "output": str(tmp_path / kind),
        }
        doc.update(extra)
        out = run_experiment(ExperimentSpec.from_dict(doc))
        manifest = json.loads((out / "manifest.json").read_text())
        if kind.startswith("table"):
            assert manifest["tables"]
            table_file = out / manifest["tables"][0]
            assert len(table_file.read_text().strip().splitlines()) >= 2
        else:
            assert manifest["curves"]
            for c in manifest["curves"]:
                assert read_curve(out / c["file"])
            emit_plot_data(out)


class TestOutputDirectory:
    """A run replaces its output directory whole, and only once it succeeded."""

    DOC = {"kind": "fig5", "network": {"usersPerCell": 3, "bsAntennas": 30, "seed": 6},
           "sweep": {"variable": "bsAntennas", "values": [10, 30]}, "drops": 3}

    def spec(self, out, **over):
        return ExperimentSpec.from_dict({**self.DOC, "output": str(out), **over})

    @staticmethod
    def snapshot(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_failed_run_leaves_previous_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "fig5"
        run_experiment(self.spec(out))
        before = self.snapshot(out)
        row = cli._KINDS["fig5"]

        def fail_on_last_drop(spec, job):
            if 2 in job["drops"]:
                raise RuntimeError("interrupted")
            return row.run(spec, job)

        monkeypatch.setitem(cli._KINDS, "fig5", dataclasses.replace(row, run=fail_on_last_drop))
        for target in (out, tmp_path / "fresh"):
            with pytest.raises(RuntimeError, match="interrupted"):
                run_experiment(self.spec(target, drops=4, options={"powerDb": 30}))
        assert self.snapshot(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["fig5"]

    def test_failed_write_leaves_previous_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "fig5"
        run_experiment(self.spec(out))
        before = self.snapshot(out)
        name = cli._curve_filename
        # the third curve's file cannot be created: its directory is missing
        names = iter(range(100))
        monkeypatch.setattr(cli, "_curve_filename", lambda *a: ("missing/" if next(names) == 2
                                                                else "") + name(*a))
        with pytest.raises(FileNotFoundError):
            run_experiment(self.spec(out, options={"powerDb": 30}))
        assert self.snapshot(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["fig5"]

    def test_failed_swap_restores_previous_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "fig5"
        run_experiment(self.spec(out))
        before = self.snapshot(out)
        replace, calls = os.replace, []

        def second_fails(src, dst):  # the old outputs step aside, then the swap fails
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("interrupted swap")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", second_fails)
        with pytest.raises(OSError, match="interrupted swap"):
            run_experiment(self.spec(out, options={"powerDb": 30}))
        assert self.snapshot(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["fig5"]

    def test_swap_killed_between_renames_is_recovered(self, tmp_path, monkeypatch):
        out = tmp_path / "fig5"
        run_experiment(self.spec(out))
        before = self.snapshot(out)
        # what a run killed between _write_replacing's two renames leaves: the
        # old outputs stepped aside and the new ones still in their temporary
        # directory; beside them an older run's outputs that once stepped aside
        os.replace(out, tmp_path / f".fig5.{'a' * 32}.old")
        stale = [tmp_path / f".fig5.{'b' * 32}", tmp_path / f".fig5.{'c' * 32}.old"]
        for path in stale:
            path.mkdir()
            (path / "manifest.json").write_text("{}")
        os.utime(stale[1], (1, 1))
        (tmp_path / ".fig5.notes").write_text("not a leftover")

        def interrupted(spec, job):
            raise RuntimeError("interrupted")

        # the next run puts the old outputs back before it computes anything
        monkeypatch.setitem(cli._KINDS, "fig5",
                            dataclasses.replace(cli._KINDS["fig5"], run=interrupted))
        with pytest.raises(RuntimeError, match="interrupted"):
            run_experiment(self.spec(out, options={"powerDb": 30}))
        assert self.snapshot(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [".fig5.notes", "fig5"]

    def test_leftovers_beside_outputs_are_removed(self, tmp_path):
        # a run killed after its second rename, or while writing its files
        out = tmp_path / "fig5"
        run_experiment(self.spec(out))
        for name in (f".fig5.{'d' * 32}.old", f".fig5.{'e' * 32}", f".other.{'f' * 32}"):
            (tmp_path / name).mkdir()
        run_experiment(self.spec(out, options={"powerDb": 30}))
        fresh = run_experiment(self.spec(tmp_path / "fresh", options={"powerDb": 30}))
        assert ({k: v for k, v in self.snapshot(out).items() if k != "manifest.json"}
                == {k: v for k, v in self.snapshot(fresh).items() if k != "manifest.json"})
        assert sorted(p.name for p in tmp_path.iterdir()) == [f".other.{'f' * 32}", "fig5",
                                                              "fresh"]

    def test_rerun_replaces_the_directory_whole(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(self.spec(out))
        emit_plot_data(out)  # plotdata.json is an earlier run's output too
        run_experiment(ExperimentSpec.from_dict({**tiny_spec(tmp_path, trials=50),
                                                 "output": str(out)}))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec"]["output"] == str(out)
        listed = {c["file"] for c in manifest["curves"]} | {"manifest.json"}
        assert {p.name for p in out.iterdir()} == listed
        assert [p.name for p in tmp_path.iterdir()] == ["run"]

    def test_foreign_files_are_never_replaced(self, tmp_path):
        out = tmp_path / "mine"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
        with pytest.raises(ValueError, match="notes.txt"):
            run_experiment(self.spec(out))
        assert self.snapshot(out) == {"notes.txt": b"keep me"}

    def test_working_directory_is_never_replaced(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="working directory"):
            run_experiment(self.spec("."))
        assert list(tmp_path.iterdir()) == []


class TestJobs:
    """``--jobs`` is checked, and the pool never starts idle workers."""

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec(tmp_path)))
        with pytest.raises(ValueError, match="--jobs"):
            main(["run", str(path), "--jobs", str(jobs)])
        assert not (tmp_path / "out").exists()

    def test_single_job_runs_in_process(self, tmp_path, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a single job must not start a process pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", NoPool)
        for kind in ("fig5", "fig2", "fig8"):  # one drop is one chunk for every kind
            doc = {"kind": kind, "network": {"usersPerCell": 3, "bsAntennas": 30, "seed": 6},
                   "sweep": {"variable": "bsAntennas", "values": [10, 30]}, "drops": 1,
                   "trials": 8, "output": str(tmp_path / kind)}
            spec = ExperimentSpec.from_dict(doc)
            assert len(cli._plan_jobs(spec, 2)) == 1
            run_experiment(spec, jobs=2)

    @pytest.mark.parametrize("drops, workers, chunks", [
        (3, 2, [[0, 1], [2]]),
        (20, 1, [list(range(20))]),
        (2, 8, [[0], [1]]),
        (7, 3, [[0, 1, 2], [3, 4], [5, 6]]),
    ])
    def test_one_contiguous_chunk_of_drops_per_worker(self, tmp_path, drops, workers, chunks):
        spec = ExperimentSpec.from_dict(tiny_spec(tmp_path, drops=drops))
        assert cli._plan_jobs(spec, workers) == [{"drops": chunk} for chunk in chunks]

    @pytest.mark.parametrize("kind", ["fig12", "fig5"])
    def test_outputs_do_not_depend_on_jobs(self, tmp_path, kind):
        # 3 drops on 2 workers make uneven chunks, [0, 1] and [2]
        config = Path(__file__).parents[1] / "configs" / f"{kind}.json"
        runs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", str(config), "--drops", "3", "--jobs", str(jobs),
                         "--out", str(out)]) == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            manifest = json.loads(files.pop("manifest.json"))
            assert manifest["spec"].pop("output") == str(out)
            runs.append((files, manifest))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == len(runs[0][1]["curves"]) > 0

    def test_cli_import_leaves_the_pool_unimported(self):
        # the pool's import costs every run's start, and a single job never uses it
        path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                             os.environ.get("PYTHONPATH")]))
        probe = "import sys, mcmimo.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path), check=True).stdout
        assert out.strip() == "False"

    def test_pool_has_at_most_one_worker_per_job(self, tmp_path, monkeypatch):
        workers = []

        class InProcessPool:  # records the pool size, runs nothing in parallel
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        doc = {"kind": "fig11", "network": {"usersPerCell": 3, "bsAntennas": 30, "seed": 6},
               "drops": 3, "output": str(tmp_path / "fig11")}
        run_experiment(ExperimentSpec.from_dict(doc), jobs=8)
        assert workers == [3]


CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads_through_its_entry_point(path):
    data = json.loads(path.read_text())
    if "kind" in data:  # an experiment spec, as `mcmimo run` reads it
        assert ExperimentSpec.from_json(path).kind == data["kind"]
    else:  # a threshold query, as `mcmimo table` reads it
        NetworkConfig.from_json(data.pop("network"))
        assert GainThresholdQuery.from_dict(data).direction == data["direction"]


def test_span_tracing_records_every_layer(tmp_path):
    # the benchmark's tracer wraps module-level names and module-level dict
    # values only; a layer reached another way would go unrecorded
    import importlib.util

    where = Path(__file__).parents[1] / "benchmarks" / "spans.py"
    loader = importlib.util.spec_from_file_location("mcmimo_bench_spans", where)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for kind in ("fig2", "fig8", "fig5"):
            run_experiment(ExperimentSpec.from_dict({
                "kind": kind, "network": {"usersPerCell": 3, "bsAntennas": 12, "seed": 4},
                "sweep": {"variable": "bsAntennas", "values": [12]}, "drops": 1, "trials": 8,
                "output": str(tmp_path / kind)}))
    finally:
        restore()
    assert {"closedform.uplink_lower_bound", "closedform.downlink_lower_bound",
            "mcrate.uplink_rate_mc", "mcrate.downlink_rate_mc",
            "allocation.waterfill"} <= {rec[0] for rec in tracer.spans}
    assert not hasattr(cli.uplink_rate_mc, "__wrapped__")


@pytest.mark.parametrize("kind", ["fig4", "fig5", "fig6", "fig7", "fig10", "fig11", "fig12",
                                  "table2", "table3a", "table3b"])
def test_every_waterfill_call_is_made_by_a_strategy(tmp_path, monkeypatch, kind):
    # one allocation path: the figure kinds, the scheduler and the threshold
    # search reach water-filling only through the strategies, so the layer
    # report counts their allocation work under allocation.strategies
    from mcmimo import allocation

    original = allocation.waterfill
    callers = []

    def spy(wc):
        callers.append(sys._getframe(1).f_code)
        return original(wc)

    # every module namespace that holds the function, as the span tracer patches
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mcmimo":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    doc = {"kind": kind, "network": {"usersPerCell": 4, "bsAntennas": 20, "seed": 11},
           "output": str(tmp_path / kind)}
    # table3b's edge-only search needs an edge user in some drop at every probe
    run_experiment(ExperimentSpec.from_dict(doc, {"trials": 8,
                                                  "drops": 4 if kind == "table3b" else 2}))
    # the four strategies are closures of one function, so they share its code
    assert callers and set(callers) == {allocation.uplink_alloc_approx.__code__}


def aggregate_point_by_point(records):
    """The per-point form ``cli._aggregate`` must reproduce bit for bit: one
    1-D mean and std per (curve, x)."""
    z95 = cli.NormalDist().inv_cdf(0.975)
    buckets = {}
    for rec in records:
        buckets.setdefault((rec["panel"], rec["label"]), {}).setdefault(
            float(rec["x"]), []).append((rec["value"], rec["ci"]))
    curves = {}
    for key, by_x in buckets.items():
        rows = []
        for x in sorted(by_x):
            vals = np.array([v for v, _ in by_x[x]])
            ci = (float(z95 * vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1
                  else float(by_x[x][0][1]))
            rows.append((x, float(vals.mean()), ci))
        curves[key] = rows
    return curves


def test_aggregate_equals_the_per_point_reductions():
    # ragged sample counts, 1 to 257, across curves and x, records interleaved
    rng = np.random.default_rng(33)
    records = []
    for curve in range(8):
        for x in rng.permutation(10):
            k = int(rng.choice([1, 2, 3, 5, 7, 20, 69, 100, 128, 200, 257]))
            scale = 10.0 ** rng.integers(-3, 4)
            records += [{"panel": f"P{curve % 3}", "label": f"L{curve}", "x": int(x) * 0.5,
                         "value": float(v), "ci": float(c)}
                        for v, c in scale * rng.standard_normal((k, 2))]
    records = [records[i] for i in rng.permutation(len(records))]
    got, want = cli._aggregate(records), aggregate_point_by_point(records)
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key]  # exact float equality, point by point
