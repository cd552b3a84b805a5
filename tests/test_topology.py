import dataclasses
import itertools
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_oracle import reference_topology, sample_users_in_cell

from mcmimo import cli, topology
from mcmimo.closedform import downlink_profile, uplink_profile
from mcmimo.topology import (
    CellTopology,
    NetworkConfig,
    _in_hexagon,
    build_topology,
    build_topology_drops,
    check_field,
    sample_shadowing,
    schedule_groups,
)


def make_cfg(**kw):
    base = dict(users_per_cell=4, bs_antennas=16, seed=1)
    base.update(kw)
    return NetworkConfig(**base)


class TestCheckField:
    @pytest.mark.parametrize("value, kind", [
        (3, "count"), (np.int64(3), "count"), (-2, "integer"), (20.0, "integral"),
        ([20.0, 3], ["integral"]), (0.0, "nonnegative"), (1e-9, "positive"), (-1.5, "number"),
        (np.float32(2.5), "number"), (False, "bool"), ("mc", ("mc", "lower")),
        (["lower", "mc"], [("mc", "lower")]), ((1.5, 1.5), ["number"]),
    ])
    def test_accepts_and_returns_the_value_unchanged(self, value, kind):
        assert check_field("f", value, kind) is value

    @pytest.mark.parametrize("value, kind", [
        (2.0, "count"), (0, "count"), (True, "integer"), (20.5, "integral"),
        (math.inf, "integral"), (math.nan, "number"), (-math.inf, "number"),
        (-1e-9, "nonnegative"), (0.0, "positive"), ("1", "number"), (True, "number"),
        (1, "bool"), ("x", ("mc",)), ([], ["number"]), ("mc", [("mc",)]),
        (["mc", "mc"], [("mc",)]), ([[1]], ["number"]), ([1, math.nan], ["number"]),
    ])
    def test_rejects_naming_the_field(self, value, kind):
        with pytest.raises(ValueError, match="^someField must be "):
            check_field("someField", value, kind)


class TestNetworkConfig:
    def test_defaults(self):
        cfg = make_cfg()
        assert cfg.cell_radius == 1000.0
        assert cfg.exclusion_radius == 100.0
        assert cfg.shadow_std_db == 8.0
        assert cfg.path_loss_exponent == 3.8
        assert cfg.cell_count == 19

    def test_rejects_m_not_greater_than_n(self):
        with pytest.raises(ValueError, match="bsAntennas"):
            make_cfg(users_per_cell=8, bs_antennas=8)

    def test_rejects_unsupported_cell_count(self):
        with pytest.raises(ValueError, match="cellCount"):
            make_cfg(cell_count=5)

    def test_rejects_bad_exclusion(self):
        with pytest.raises(ValueError, match="exclusionRadius"):
            make_cfg(exclusion_radius=1000.0, cell_radius=1000.0)

    @pytest.mark.parametrize("field,key", [
        ("cell_radius", "cellRadius"), ("exclusion_radius", "exclusionRadius"),
        ("shadow_std_db", "shadowStdDb"), ("path_loss_exponent", "pathLossExponent"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_float_fields(self, field, key, value):
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            make_cfg(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("users_per_cell", 10.7, "usersPerCell must be an integer"),
        ("users_per_cell", True, "usersPerCell must be an integer"),
        ("users_per_cell", "10", "usersPerCell must be an integer"),
        ("bs_antennas", float("inf"), "bsAntennas must be an integer"),
        ("seed", "x", "seed must be an integer"),
        ("seed", -1, "seed must be in"),
        ("seed", 2**64, "seed must be in"),
        ("seed", 2**70, "seed must be in"),
        ("cell_count", 7.0, "cellCount must be an integer"),
        ("outer_ring_cells", False, "outerRingCells must be an integer"),
        ("cell_radius", "1000", "cellRadius must be a finite number"),
        ("shadow_std_db", True, "shadowStdDb must be a finite number"),
    ])
    def test_rejects_mistyped_fields(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            make_cfg(**{field: value})

    def test_mistyped_json_field_named(self):
        with pytest.raises(ValueError, match="usersPerCell must be an integer"):
            NetworkConfig.from_json(json.loads('{"usersPerCell": 10.7, "bsAntennas": 20}'))
        with pytest.raises(ValueError, match="bsAntennas must be an integer"):
            NetworkConfig.from_json(json.loads('{"usersPerCell": 4, "bsAntennas": 1e999}'))

    def test_numpy_integers_stored_as_int(self):
        cfg = make_cfg(users_per_cell=np.int64(4), seed=np.uint64(2**64 - 1))
        assert type(cfg.users_per_cell) is int and type(cfg.seed) is int
        assert cfg.seed == 2**64 - 1
        json.dumps(cfg.to_json())

    def test_json_roundtrip_exact_names(self):
        doc = {
            "cellRadius": 800.0,
            "exclusionRadius": 50.0,
            "shadowStdDb": 6.0,
            "pathLossExponent": 3.5,
            "cellCount": 7,
            "usersPerCell": 3,
            "bsAntennas": 12,
            "seed": 99,
        }
        cfg = NetworkConfig.from_json(json.loads(json.dumps(doc)))
        assert cfg.cell_radius == 800.0
        assert cfg.users_per_cell == 3
        assert cfg.seed == 99
        back = cfg.to_json()
        for k, v in doc.items():
            assert back[k] == v

    def test_json_unknown_key_is_error(self):
        with pytest.raises(ValueError, match="unknown network config keys"):
            NetworkConfig.from_json({"usersPerCell": 2, "bsAntennas": 8, "cellradius": 1.0})

    def test_only_a_json_object_accepted(self, tmp_path):
        # the caller reads the file and parses the JSON: a path or a JSON text is refused
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"usersPerCell": 2, "bsAntennas": 8}))
        for source in (path, str(path), path.read_text(), [["usersPerCell", 2]], 5, None):
            with pytest.raises(ValueError, match="network must be a JSON object"):
                NetworkConfig.from_json(source)

    def test_json_missing_required_field(self):
        with pytest.raises(ValueError, match="invalid network config"):
            NetworkConfig.from_json({"usersPerCell": 2})


class TestLargeScaleGain:
    def test_direct_substitution(self):
        # every link gain is shadow / (d / r_h)^v, d recomputed from positions
        # and the shadow gains redrawn from the seed's second spawned stream
        cfg = make_cfg(users_per_cell=5, outer_ring_cells=4, path_loss_exponent=3.1, seed=8)
        top = build_topology(cfg)
        diff = top.user_positions[None, :, :, :] - top.bs_positions[:, None, None, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        _, shadow_ss = np.random.SeedSequence(cfg.seed).spawn(2)
        shadows = sample_shadowing(np.random.default_rng(shadow_ss), cfg, (23, 23, 5))
        want = shadows / (dist / cfg.exclusion_radius) ** cfg.path_loss_exponent
        assert np.array_equal(top.large_scale, want)

    def test_shadow_std_is_8db(self):
        # log of the linear shadow samples should have an 8 dB std dev
        cfg = make_cfg()
        rng = np.random.default_rng(0)
        z = sample_shadowing(rng, cfg, 100_000)
        assert 10 * np.log10(z).std() == pytest.approx(8.0, abs=0.1)


class TestPlacementOracle:
    def test_one_pass_placement_matches_the_cell_by_cell_loop(self):
        # 315 drops over N, layouts, outer rings and exclusion radii. At 900 m
        # about 3.5% of draws land in a cell, so nearly every cell falls short
        # of N in its first round and goes on round by round
        grid = list(itertools.product((1, 2, 3, 5, 10, 20, 45), (1, 7, 19), (100.0, 500.0, 900.0)))
        for i, (n, cells, r_h) in enumerate(grid * 5):
            outer = min((0, 6, 12)[i // len(grid) % 3], {1: 6, 7: 12, 19: 18}[cells])
            cfg = make_cfg(users_per_cell=n, bs_antennas=n + 1, seed=i, cell_count=cells,
                           exclusion_radius=r_h, outer_ring_cells=outer)
            top = build_topology(cfg)
            users, gains = reference_topology(cfg)
            assert np.array_equal(top.user_positions, users), cfg
            # gain rows read one BS, then cell 0's ring, then all: each read is
            # the prefix of the whole-array gains, and so is a first read of all
            c = top.n_cells
            for rows in (1, 7, c) if c >= 7 else (1, c):
                assert np.array_equal(top.large_scale_rows(rows), gains[:rows]), (cfg, rows)
            assert np.array_equal(build_topology(cfg).large_scale, gains), cfg


def has_short_cell(cfg: NetworkConfig) -> bool:
    """True if some cell of ``cfg``'s drop places fewer than N users in its
    first round: the reference loop then reads past the first rounds' doubles."""
    place_ss, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    rng, fresh = np.random.default_rng(place_ss), np.random.default_rng(place_ss)
    n_cells = cfg.cell_count + cfg.outer_ring_cells
    for _ in range(n_cells):
        sample_users_in_cell(rng, cfg, cfg.users_per_cell)
    fresh.random(2 * max(2 * cfg.users_per_cell, 8) * n_cells)
    return rng.random() != fresh.random()


class TestStackedBuild:
    """A stack of drops equals its drops built alone and the cell-by-cell
    reference, whatever order its gain rows are read in."""

    @pytest.mark.parametrize("n", [1, 3, 5, 10])
    @pytest.mark.parametrize("cells, outer", [(1, 0), (1, 4), (7, 0), (7, 9), (19, 0), (19, 12)])
    def test_each_drop_equals_its_build_alone(self, monkeypatch, cells, outer, n):
        cfg = make_cfg(users_per_cell=n, bs_antennas=n + 1, cell_count=cells,
                       outer_ring_cells=outer)
        seeds = [1000 * n + 50 * cells + outer + i for i in range(20)]
        refs = [reference_topology(dataclasses.replace(cfg, seed=s)) for s in seeds]
        if cells == 19 and n >= 5:  # the round-by-round continuation is reached
            assert any(has_short_cell(dataclasses.replace(cfg, seed=s)) for s in seeds)
        draws = []

        def shadowing(rng, c, size):
            draws.append(c.seed)
            return sample_shadowing(rng, c, size)

        monkeypatch.setattr(topology, "sample_shadowing", shadowing)
        c = cells + outer
        for size, first_all in itertools.product((1, 3, 20), (False, True)):
            tops = build_topology_drops(cfg, seeds[:size])
            assert [top.config for top in tops] == [
                dataclasses.replace(cfg, seed=s) for s in seeds[:size]]
            for rows in [c] if first_all else sorted({1, min(7, c), c}):
                # each read goes through one drop's copy at another M and
                # fills every drop's rows
                draws.clear()
                tops[rows % size].with_antennas(n + 1 + rows).large_scale_rows(rows)
                assert draws == seeds[:size]
                for top, (users, gains) in zip(tops, refs):
                    assert np.array_equal(top.user_positions, users)
                    assert np.array_equal(top.large_scale_rows(rows), gains[:rows])
                assert draws == seeds[:size]
        for s, top, (users, gains) in zip(seeds, tops, refs):
            alone = build_topology(dataclasses.replace(cfg, seed=s))
            assert np.array_equal(alone.user_positions, top.user_positions)
            assert np.array_equal(alone.large_scale, gains)

    def test_racing_first_reads_see_whole_rows(self):
        # the fill computes in place, so readers racing through the drops of a
        # fresh stack must each get finished rows, never a fill's middle steps
        cfg = make_cfg(users_per_cell=5)
        seeds = list(range(8))
        want = [reference_topology(dataclasses.replace(cfg, seed=s))[1] for s in seeds]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                tops, got, start = build_topology_drops(cfg, seeds), {}, threading.Barrier(12)

                def read(i):
                    rows = (1, 7, 19)[i % 3]
                    start.wait(timeout=30)
                    got[i] = (i % 8, rows, tops[i % 8].large_scale_rows(rows).copy())

                threads = [threading.Thread(target=read, args=(i,)) for i in range(12)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads) and len(got) == 12
                for d, rows, gains in got.values():
                    assert np.array_equal(gains, want[d][:rows])
        finally:
            sys.setswitchinterval(switch)

    def test_an_empty_stack_is_empty(self):
        assert build_topology_drops(make_cfg(), []) == []


class TestBuildTopology:
    def test_shapes_and_positivity(self):
        top = build_topology(make_cfg(users_per_cell=10))
        assert top.large_scale.shape == (19, 19, 10)
        assert np.all(top.large_scale > 0)
        assert top.adjacency.shape == (19, 19)

    def test_deterministic_bit_for_bit(self):
        a = build_topology(make_cfg(seed=123))
        b = build_topology(make_cfg(seed=123))
        assert np.array_equal(a.large_scale, b.large_scale)
        assert np.array_equal(a.user_positions, b.user_positions)
        c = build_topology(make_cfg(seed=124))
        assert not np.array_equal(a.large_scale, c.large_scale)

    def test_self_median_beats_cross_median(self):
        # aggregate over 100 seeds: own-cell links are much stronger
        self_vals, cross_vals = [], []
        for seed in range(100):
            top = build_topology(make_cfg(users_per_cell=2, seed=seed))
            idx = np.arange(19)
            self_vals.append(top.large_scale[idx, idx, :].ravel())
            mask = ~np.eye(19, dtype=bool)
            cross_vals.append(top.large_scale[mask, :].ravel())
        assert np.median(np.concatenate(self_vals)) > np.median(np.concatenate(cross_vals))

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_users_inside_hexagon_outside_disk(self, seed):
        cfg = make_cfg(seed=seed, users_per_cell=20, bs_antennas=24)
        top = build_topology(cfg)
        for cell in range(top.n_cells):
            local = top.user_positions[cell] - top.bs_positions[cell]
            assert np.all(_in_hexagon(local[:, 0], local[:, 1], cfg.cell_radius))
            assert np.all(np.hypot(local[:, 0], local[:, 1]) >= cfg.exclusion_radius)

    def test_beta_decreases_with_distance_without_shadowing(self):
        cfg = make_cfg(shadow_std_db=0.0, users_per_cell=6, seed=5)
        top = build_topology(cfg)
        d = np.linalg.norm(
            top.user_positions[None, :, :, :] - top.bs_positions[:, None, None, :], axis=-1
        )
        order = np.argsort(d.ravel())
        beta_sorted = top.large_scale.ravel()[order]
        assert np.all(np.diff(beta_sorted) <= 0)

    def test_adjacency_symmetric_false_diagonal(self):
        top = build_topology(make_cfg())
        assert np.array_equal(top.adjacency, top.adjacency.T)
        assert not top.adjacency.diagonal().any()
        assert top.neighbors(0).size == 6  # centre cell touches the whole first ring

    def test_outer_ring(self):
        top = build_topology(make_cfg(outer_ring_cells=18))
        assert top.n_cells == 37
        assert top.cluster_size == 19
        # ring cells are adjacent to some cluster edge cell
        assert any(top.adjacency[i, 19:].any() for i in range(19))

    def test_row_count_must_be_an_integer_in_range(self):
        top = build_topology(make_cfg(cell_count=7))
        assert top.large_scale_rows(np.int64(7)).shape == (7, 7, 4)
        for rows in (0, 8, -1, 1.0, 2.5, True, "1", None):
            with pytest.raises(ValueError, match=r"rows must be an integer in \[1, 7\]"):
                top.large_scale_rows(rows)

    def test_hand_built_gains_are_every_row(self):
        top = build_topology(make_cfg(cell_count=7))
        beta = np.arange(7 * 7 * 4, dtype=float).reshape(7, 7, 4) + 1.0
        hand = dataclasses.replace(top, gain_rows=beta)
        assert np.array_equal(hand.large_scale, beta)
        assert np.array_equal(hand.large_scale_rows(2), beta[:2])
        assert not hand.large_scale.flags.writeable

    def test_with_antennas_shares_geometry(self):
        top = build_topology(make_cfg())
        top2 = top.with_antennas(64)
        assert top2.config.bs_antennas == 64
        assert top2.large_scale is top.large_scale


class TestScheduleGroups:
    def test_single_cell(self):
        top = build_topology(make_cfg(cell_count=1))
        assert schedule_groups(top) == [[0]]

    @pytest.mark.parametrize("cells,expected_groups", [(7, 3), (19, 3)])
    def test_hex_layouts_give_three_valid_groups(self, cells, expected_groups):
        top = build_topology(make_cfg(cell_count=cells))
        groups = schedule_groups(top)
        assert len(groups) == expected_groups
        covered = sorted(i for g in groups for i in g)
        assert covered == list(range(cells))
        for g in groups:  # exhaustive pairwise non-adjacency
            for a in g:
                for b in g:
                    if a != b:
                        assert not top.adjacency[a, b]

    def test_invalid_colouring_rejected(self):
        # two edge-adjacent cells of equal (q - r) mod 3: no reuse-3 plan fits
        top = build_topology(make_cfg(cell_count=7))
        adj = top.adjacency.copy()
        adj[1, 4] = adj[4, 1] = True
        assert (top.axial[1, 0] - top.axial[1, 1]) % 3 == (top.axial[4, 0] - top.axial[4, 1]) % 3
        with pytest.raises(ValueError, match="reuse-3"):
            schedule_groups(dataclasses.replace(top, adjacency=adj))

    def test_groups_exclude_outer_ring(self):
        top = build_topology(make_cfg(outer_ring_cells=6))
        groups = schedule_groups(top)
        assert sorted(i for g in groups for i in g) == list(range(19))


@pytest.mark.parametrize("cells, outer", [(1, 0), (1, 6), (7, 0), (7, 12), (19, 0), (19, 18)])
def test_large_scale_equals_the_broadcast_pair_form(monkeypatch, cells, outer):
    # the distances come from contiguous x and y planes; the bits are those of
    # the (C, C, N, 2) broadcast difference of the positions
    drawn = []

    def shadowing(*args):
        drawn.append(sample_shadowing(*args))
        return drawn[-1]

    monkeypatch.setattr(topology, "sample_shadowing", shadowing)
    cfg = make_cfg(users_per_cell=5, cell_count=cells, outer_ring_cells=outer, seed=cells + outer)
    top = build_topology(cfg)
    # the shadows are drawn when the gains are first read
    assert top.large_scale.shape == (cells + outer, cells + outer, 5)
    diff = top.user_positions[None, :, :, :] - top.bs_positions[:, None, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    want = drawn[0] / (dist / cfg.exclusion_radius) ** cfg.path_loss_exponent
    assert np.array_equal(top.large_scale, want)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-1500, 1500),
    y=st.floats(-1500, 1500),
)
def test_hexagon_membership_matches_vertex_hull(x, y):
    # the hexagon is the convex hull of its six vertices; compare against a
    # brute-force half-plane test built from the vertex list
    r = 1000.0
    angles = np.deg2rad(np.arange(0, 360, 60))
    verts = np.column_stack((r * np.cos(angles), r * np.sin(angles)))
    inside = True
    for i in range(6):
        a, b = verts[i], verts[(i + 1) % 6]
        edge = b - a
        normal = np.array([-edge[1], edge[0]])
        if np.dot(normal, np.array([x, y]) - a) < -1e-9 * r:
            inside = False
    got = bool(_in_hexagon(np.array([x]), np.array([y]), r)[0])
    assert got == inside


class TestGainRowsOnFirstRead:
    """The readers compute only the BS rows they read, and every copy of a
    drop shares them: spied through the shapes of the shadow draws."""

    @pytest.fixture
    def draws(self, monkeypatch):
        shapes = []

        def shadowing(rng, cfg, size):
            shapes.append(tuple(size))
            return sample_shadowing(rng, cfg, size)

        monkeypatch.setattr(topology, "sample_shadowing", shadowing)
        return shapes

    def test_building_draws_nothing(self, draws):
        build_topology(make_cfg(users_per_cell=10))
        assert draws == []

    def test_cell0_uplink_profile_draws_one_row(self, draws):
        top = build_topology(make_cfg(users_per_cell=10))
        uplink_profile(top, np.ones((19, 10)), 0)
        assert draws == [(1, 19, 10)]

    def test_cell0_downlink_profile_draws_its_ring(self, draws):
        top = build_topology(make_cfg(users_per_cell=10))
        downlink_profile(top, np.ones((19, 10)), 0)
        assert draws == [(7, 19, 10)]
        # the rest: rows [7, 19) of a whole-array draw
        assert top.large_scale.shape == (19, 19, 10)
        assert draws == [(7, 19, 10), (19, 19, 10)]

    def test_fig8_antenna_sweep_draws_each_drop_once(self, draws):
        # every M of a drop is a with_antennas copy that reads the ring's rows
        doc = json.loads((Path(__file__).parents[1] / "configs" / "fig8.json").read_text())
        spec = cli.ExperimentSpec.from_dict(doc, {"drops": 2, "trials": 40})
        assert len(spec.sweep.values) > 1
        cli._job_curves(spec, {"drops": [0, 1]})
        assert draws == [(7, 19, 10)] * 2
