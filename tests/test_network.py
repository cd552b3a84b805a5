import hashlib
import json
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmimo import allocation, cli, closedform, network
from mcmimo.allocation import equal_alloc, uplink_alloc_approx
from mcmimo.closedform import uplink_approximation, uplink_profile
from mcmimo.network import (
    JointResult,
    NetworkState,
    PowerAllocation,
    network_sum_rate,
    project_budget_simplex,
    run_joint,
    run_joint_drops,
    run_scheduled,
    run_scheduled_drops,
)
from mcmimo.topology import CellTopology, NetworkConfig, build_topology, schedule_groups


def synthetic_two_cell(beta_self, beta_cross, n, m, mirror=True, seed=0):
    """Hand-built two-cell topology with controlled large-scale gains."""
    cfg = NetworkConfig(users_per_cell=n, bs_antennas=m, cell_count=7, seed=seed)
    beta = np.empty((2, 2, n))
    beta[0, 0] = beta_self
    beta[1, 1] = beta_self if mirror else beta_self[::-1]
    beta[0, 1] = beta_cross
    beta[1, 0] = beta_cross
    axial = np.array([[0, 0], [1, 0]])
    pos = np.array([[0.0, 0.0], [1000.0, 0.0]])
    users = np.zeros((2, n, 2))
    adj = np.array([[False, True], [True, False]])
    return CellTopology(cfg, axial, pos, users, beta, adj, 2)


def project_row(v, budget):
    """The row-at-a-time projection the batched one must reproduce bit for bit."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    rho = np.max(np.flatnonzero(u + (budget - css) / j > 0)) + 1
    theta = (budget - css[rho - 1]) / rho
    return np.maximum(v + theta, 0.0)


@st.composite
def projection_inputs(draw):
    k = draw(st.sampled_from([1, 2, 7, 19]))
    n = draw(st.sampled_from([1, 2, 5, 9]))
    scale = 10.0 ** draw(st.integers(-6, 6))
    # a small pool of values makes ties and all-negative rows common
    pool = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0])
    entry = st.one_of(pool, st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    # wide dynamic range: individual entries far above or below the rest
    v = np.array(rows) * scale
    v[v == 1.0 * scale] *= 10.0 ** draw(st.sampled_from([0, 8, -8]))
    budget = draw(st.sampled_from([1e-6, 0.5, 1.0, 30.0, 1e6]))
    return v, budget


def project_exact(v, budget):
    """The projection in exact rational arithmetic, rounded once at the end."""
    x = [Fraction(float(e)) for e in v]
    b = Fraction(float(budget))
    css = Fraction(0)
    for j, uj in enumerate(sorted(x, reverse=True), start=1):
        css += uj
        if uj + (b - css) / j > 0:
            theta = (b - css) / j
    return np.array([float(max(e + theta, 0)) for e in x])


def forward_by_einsum(consts, pmat):
    """``network._uplink_forward`` with b_i + 1 contracted by einsum over
    (cells, users), the form the batched matmul replaced: its reference."""
    a, beta = consts
    b1 = np.einsum("dilc,dlc->dil", beta, pmat).sum(axis=2) + 1.0
    ap = a * pmat[:, :a.shape[1]]
    return np.log2(1.0 + ap / b1[:, :, None]).reshape(len(a), -1).sum(axis=1), b1, ap


def gradient_by_einsum(consts, b1, ap):
    """``network._uplink_gradient`` with the interference term by einsum."""
    a, beta = consts
    denom = b1[:, :, None] + ap
    u = (ap / (b1[:, :, None] * denom)).sum(axis=2)
    return (a / denom - np.einsum("di,dijm->djm", u, beta[:, :, :a.shape[1]])) / np.log(2.0)


class TestProjection:
    @settings(max_examples=300, deadline=None)
    @given(projection_inputs())
    def test_batched_rows_equal_row_by_row(self, case):
        v, budget = case
        got = project_budget_simplex(v, budget)
        assert got.shape == v.shape
        assert np.array_equal(project_budget_simplex(v[:1], budget), got[:1])
        for row, p in zip(v, got):
            try:
                want = project_row(row, budget)
            except ValueError:
                # every u_j + (budget - css_j)/j rounds to <= 0: the spread
                # dwarfs the budget; the projection still exists
                assert np.all(p >= 0)
                assert p.sum() == pytest.approx(budget, rel=1e-9)
                np.testing.assert_allclose(p, project_exact(row, budget), rtol=0,
                                           atol=1e-9 * budget)
                continue
            assert np.array_equal(p, want)

    @pytest.mark.parametrize("v, budget, want", [
        ([[1e20, 0.0]], 1.0, [[1.0, 0.0]]),
        ([[-1e20, -2e20, -1e20]], 2.0, [[1.0, 0.0, 1.0]]),
        ([[0.0, 5e18], [1.0, 2.0]], 1.0, [[0.0, 1.0], [0.0, 1.0]]),
    ])
    def test_wide_range_rows_projected(self, v, budget, want):
        assert np.array_equal(project_budget_simplex(np.array(v), budget), np.array(want))

    @pytest.mark.parametrize("row, budget", [
        ([0.3, 0.2, 0.2, 0.15, 0.01, 0.01], 0.1),
        ([2 / 3, 2 / 3, 1 / 3, 1 / 3, 0.01], 2 / 3),
    ])
    def test_rounding_breaks_threshold_monotonicity(self, row, budget):
        # ties at the water level round u_j + (budget - css_j) / j to both
        # signs; rho must be the last positive index, as row by row
        v = np.array([row, row[::-1]])
        assert np.array_equal(project_budget_simplex(v, budget),
                              np.stack([project_row(r, budget) for r in v]))

    @pytest.mark.parametrize("shape", [(1, 5), (6, 1), (19, 5)])
    def test_rows_feasible(self, shape):
        rng = np.random.default_rng(sum(shape))
        v = rng.normal(0.0, 5.0, shape)
        v[0] = -1.0  # an all-negative row
        p = project_budget_simplex(v, 7.0)
        assert p.shape == shape
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 7.0, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="v must"):
            project_budget_simplex(np.array([[1.0, 2.0], [bad, 0.0]]), 1.0)

    @pytest.mark.parametrize("v", [np.float64(1.0), np.ones((2, 2, 3)), np.ones(3)])
    def test_only_rows_projected(self, v):
        # one vector is a stack of one row
        with pytest.raises(ValueError, match=r"v must be \(k, N\) rows"):
            project_budget_simplex(v, 1.0)

    @pytest.mark.parametrize("budget", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            project_budget_simplex(np.array([[1.0, 2.0]]), budget)

    def test_interior_point_shifts_uniformly(self):
        got = project_budget_simplex(np.array([[1.0, 2.0, 3.0]]), 9.0)
        assert got[0] == pytest.approx([2.0, 3.0, 4.0])

    def test_clipping(self):
        got = project_budget_simplex(np.array([[-5.0, 1.0]]), 2.0)
        assert got[0] == pytest.approx([0.0, 2.0])

    def test_random_projections_feasible_and_closest(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.normal(0, 5, 6)
            p = project_budget_simplex(v[None], 4.0)[0]
            assert p.sum() == pytest.approx(4.0, rel=1e-10)
            assert np.all(p >= 0)
            # no feasible random candidate may be closer
            q = rng.dirichlet(np.ones(6)) * 4.0
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9


def profile_cells(top, beta_self):
    """The cells whose own gains beta_ll are the rows of ``beta_self``: the
    cells that a strategy's profile rows are of."""
    own = top.large_scale[np.arange(top.n_cells), np.arange(top.n_cells)]  # (C, N)
    return [int(np.flatnonzero((own == row).all(axis=1))[0]) for row in np.atleast_2d(beta_self)]


class TestRunScheduled:
    def test_single_cell_single_slot_equals_strategy(self):
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=12, cell_count=1, seed=8)
        top = build_topology(cfg)
        state = run_scheduled(top, uplink_alloc_approx, 30.0, 10.0, 1)
        direct = uplink_alloc_approx(uplink_profile(top, np.full((1, 3), 10.0), 0), 12, 3, 30.0)
        assert np.array_equal(state.powers, direct)  # one cell, one row
        assert len(state.history) == 1

    def test_per_cell_powers_are_the_rows_of_powers(self):
        top = build_topology(NetworkConfig(users_per_cell=2, bs_antennas=8, cell_count=7, seed=9))
        result = run_scheduled(top, allocation.downlink_alloc, 20.0, 1.0, 2)
        cells = result.per_cell_powers
        assert all(isinstance(a, PowerAllocation) for a in cells)
        assert {a.direction for a in cells} == {result.direction} == {"downlink"}
        assert np.array_equal(np.stack([a.powers for a in cells]), result.powers)

    def test_all_cells_allocate_within_one_round(self):
        cfg = NetworkConfig(users_per_cell=2, bs_antennas=8, seed=9)
        top = build_topology(cfg)
        state = run_scheduled(top, uplink_alloc_approx, 20.0, 10.0, 3)
        # every cell's powers differ from the uniform start (waterfill output)
        for p in state.powers[: top.cluster_size]:
            assert p.sum() == pytest.approx(20.0, rel=1e-9)

    def test_budget_conservation_every_slot(self):
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7, seed=10)
        top = build_topology(cfg)
        budget = 30.0
        state = run_scheduled(top, uplink_alloc_approx, budget, 10.0, 5)
        for p in state.powers:
            assert p.sum() <= budget * (1 + 1e-9)

    def test_own_cell_surrogate_never_decreases(self):
        # re-allocating against the frozen snapshot cannot hurt the cell's own
        # closed-form sum rate
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7, seed=11)
        top = build_topology(cfg)
        budget = 30.0
        allocs = np.full((7, 3), 10.0)
        groups = schedule_groups(top)
        for slot in range(4):
            snapshot = allocs.copy()
            for cell in groups[slot % len(groups)]:
                prof = uplink_profile(top, snapshot, cell)
                before = uplink_approximation(prof, 10, 3, snapshot[cell]).sum()
                new = uplink_alloc_approx(prof, 10, 3, budget)[0]  # the cell's one row
                after = uplink_approximation(prof, 10, 3, new).sum()
                assert after >= before - 1e-12
                allocs[cell] = new

    def test_within_slot_order_irrelevant(self):
        # cells of one group read a frozen snapshot: computing their updates
        # in any order gives the same result as run_scheduled
        cfg = NetworkConfig(users_per_cell=2, bs_antennas=8, seed=12)
        top = build_topology(cfg)
        budget = 20.0
        state = run_scheduled(top, uplink_alloc_approx, budget, 10.0, 1)
        snapshot = np.full((19, 2), 10.0)
        group = state.groups[0]
        for cell in reversed(group):
            expect = uplink_alloc_approx(uplink_profile(top, snapshot, cell), 8, 2, budget)
            assert np.array_equal(state.powers[cell], expect[0])

    def test_one_strategy_call_per_slot(self):
        top = build_topology(NetworkConfig(users_per_cell=5, bs_antennas=20, seed=3))
        calls = []

        def spy(profile, m, n, budget):
            calls.append(profile_cells(top, profile.beta_self))
            return uplink_alloc_approx(profile, m, n, budget)

        spy.direction = "uplink"
        state = run_scheduled(top, spy, 50.0, 10.0, 7)
        assert calls == [state.groups[s % 3] for s in range(7)]

    def test_every_returned_row_checked_against_budget(self):
        top = build_topology(NetworkConfig(users_per_cell=2, bs_antennas=8, cell_count=7, seed=4))

        def over_budget_last(profile, m, n, budget):
            rows = uplink_alloc_approx(profile, m, n, budget)  # (drops x cells, N)
            if len(rows) > 1:
                rows[-1] = budget
            return rows

        over_budget_last.direction = "uplink"
        with pytest.raises(ValueError, match="exceeds budget"):  # slot 2's group has 3 cells
            run_scheduled(top, over_budget_last, 20.0, 1.0, 2)

    def test_missing_rows_rejected(self):
        top = build_topology(NetworkConfig(users_per_cell=2, bs_antennas=8, cell_count=7, seed=4))

        def first_cell_only(profile, m, n, budget):
            return uplink_alloc_approx(profile, m, n, budget)[:1]

        first_cell_only.direction = "uplink"
        with pytest.raises(ValueError, match=r"shape \(3, 2\), got \(1, 2\)"):  # 3 cells
            run_scheduled(top, first_cell_only, 20.0, 1.0, 2)

    # SHA-256 of the per-slot history followed by the final power matrix, at
    # the fig12 parameters (N = 5, M = 20, 50 W, 10 W per user, 12 slots),
    # recorded while each strategy call allocated one cell; the upper-bound
    # strategy's re-recorded when E{1/(v+1)} became the integral alone
    DIGESTS = {
        ("uplink_alloc_approx", 3, 0):
            "7f6e7fba3bacfd3e0a09f462e998e6667d121995e318e1b295026c083593974b",
        ("uplink_alloc_approx", 7919, 0):
            "9bd439ffb7c0c4687d98e63f8163b7e18fd755284e9e35ef72e138fdc9389201",
        ("uplink_alloc_upper_bound", 3, 5):
            "ae554bd84490cb719faec69f11bab7d34178647da28930868bedef3226968e58",
        ("uplink_alloc_upper_bound", 7919, 5):
            "6bc8c0137631d1b72980f1eaf355c1315cd6a9dea5b34f203cb321839b2dac24",
        ("downlink_alloc", 3, 5):
            "6350f18089ffe590bf27c0929ef0137662c0a2e2fef9949a0a51b1f140ce00bb",
        ("downlink_alloc", 7919, 5):
            "68e841dce227a16890b36a80cb453ec4aea923751574f93f283e16b9a2d5f51d",
    }

    @pytest.mark.parametrize("strategy, seed, outer", sorted(DIGESTS))
    def test_history_and_powers_match_recorded_digest(self, strategy, seed, outer):
        top = build_topology(NetworkConfig(users_per_cell=5, bs_antennas=20, seed=seed,
                                           outer_ring_cells=outer))
        state = run_scheduled(top, getattr(allocation, strategy), 50.0, 10.0, 12)
        pmat = state.powers
        digest = hashlib.sha256(np.array(state.history).tobytes() + pmat.tobytes()).hexdigest()
        assert digest == self.DIGESTS[strategy, seed, outer]

    @pytest.mark.parametrize("kwargs, field", [
        ({"budget": -5.0}, "budget"),
        ({"budget": 0.0}, "budget"),
        ({"budget": np.nan}, "budget"),
        ({"budget": np.inf}, "budget"),
        ({"initial_power": -1.0}, "initial_power"),
        ({"initial_power": np.nan}, "initial_power"),
        ({"initial_power": np.inf}, "initial_power"),
        ({"slots": 0}, "slots"),
        ({"slots": True}, "slots"),
        ({"slots": 2.5}, "slots"),
        ({"slots": "3"}, "slots"),
        ({"rate_estimator": "bogus"}, "rate_estimator"),
        ({"rate_estimator": None}, "rate_estimator"),
        ({"rate_estimator": "monteCarlo", "trials": 2.5}, "trials"),
        ({"rate_estimator": "monteCarlo", "trials": 0}, "trials"),
        ({"trials": True}, "trials"),
    ])
    def test_bad_parameters_rejected(self, kwargs, field):
        top = build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7, seed=18))
        args = {"budget": 30.0, "initial_power": 1.0, "slots": 2, **kwargs}
        with pytest.raises(ValueError, match=field):
            run_scheduled(top, uplink_alloc_approx, **args)

    @pytest.mark.parametrize("kwargs", [{"rate_estimator": "bogus"}, {"trials": 2.5}])
    def test_inputs_checked_before_the_first_slot(self, kwargs):
        top = build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7, seed=18))
        calls = []

        def spy(*args):
            calls.append(args)
            return uplink_alloc_approx(*args)

        spy.direction = "uplink"
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            run_scheduled(top, spy, 30.0, 1.0, 2, **kwargs)
        assert calls == []

    @pytest.mark.parametrize("direction", [None, "sideways", "Uplink"])
    def test_strategy_without_a_link_rejected(self, direction):
        # the link picks the profile builder: none is guessed
        top = build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7, seed=18))
        calls = []

        def spy(*args):
            calls.append(args)
            return uplink_alloc_approx(*args)

        if direction is not None:
            spy.direction = direction
        with pytest.raises(ValueError, match=r"^strategy\.direction must be one of"):
            run_scheduled(top, spy, 30.0, 1.0, 2)
        assert calls == []

    def test_initial_power_over_budget_rejected(self):
        cfg = NetworkConfig(users_per_cell=4, bs_antennas=9, cell_count=1, seed=1)
        top = build_topology(cfg)
        with pytest.raises(ValueError, match="initial"):
            run_scheduled(top, uplink_alloc_approx, 10.0, 10.0, 1)

    def test_history_length_invariant(self):
        with pytest.raises(ValueError, match="history"):
            NetworkState(3, [], [[0]], [1.0], "closedForm")


class TestUplinkObjective:
    @pytest.mark.parametrize("outer", [0, 6])
    def test_gradient_matches_central_differences(self, outer):
        top = build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7,
                                           outer_ring_cells=outer, seed=21))
        k = top.cluster_size
        pmat = np.random.default_rng(outer).uniform(0.5, 10.0, (top.n_cells, 3))
        consts = network._objective_constants(top)  # a stack of one drop
        (f,), (b1,), (ap,) = network._uplink_forward(consts, pmat[None])
        (grad,) = network._uplink_gradient(consts, b1[None], ap[None])
        # the scheduler's closed-form sum rate is this objective, bit for bit
        assert f == network_sum_rate(top, pmat, "uplink")
        assert grad.shape == (k, 3)
        h = 1e-5
        fd = np.empty((k, 3))
        pair = [np.repeat(c, 2, axis=0) for c in consts]  # this topology, twice
        for j, m in np.ndindex(k, 3):
            step = np.zeros_like(pmat)
            step[j, m] = h
            up, down = network._uplink_forward(pair, np.stack([pmat + step, pmat - step]))[0]
            fd[j, m] = (up - down) / (2 * h)
        # the interference terms must be in: without them the gradient is off
        # by far more than the tolerance
        own = consts[0][0] / (b1[:, None] + ap) / np.log(2.0)
        assert np.max(np.abs(own - fd)) > 1e-3
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


    @pytest.mark.parametrize("outer", [0, 6, 12, 18])
    def test_matmul_matches_einsum_oracle(self, outer):
        # fig12's network and drops, with ``outer`` outer-ring cells; every
        # stack of the first 1 to 20 drops, at random powers with some zeros
        doc = json.loads((Path(__file__).parents[1] / "configs" / "fig12.json").read_text())
        doc["network"]["outerRingCells"] = outer
        spec = cli.ExperimentSpec.from_dict(doc, {"drops": 20})
        tops = cli._drop_topologies(spec, range(20))
        rng = np.random.default_rng(outer)
        pmat = rng.uniform(0.0, 10.0, (20, tops[0].n_cells, 5))
        pmat[rng.random(pmat.shape) < 0.2] = 0.0
        for d in range(1, 21):
            consts = network._stacked_constants(tops[:d])
            got = network._uplink_forward(consts, pmat[:d])
            want = forward_by_einsum(consts, pmat[:d])
            for x, y in zip(got, want):
                np.testing.assert_allclose(x, y, rtol=1e-13, atol=0)
            # the gradient is the own-cell term minus the interference term,
            # which cancel near a stationary point: relative to the terms
            grad = network._uplink_gradient(consts, *got[1:])
            ref = gradient_by_einsum(consts, *want[1:])
            own = consts[0] / (want[1][:, :, None] + want[2]) / np.log(2.0)
            assert np.all(np.abs(grad - ref) <= 1e-13 * (own + np.abs(own - ref)))

    @pytest.mark.parametrize("outer", [0, 6, 12, 18])
    def test_forward_is_the_stacked_profile_approximation(self, outer):
        # the ascent's own copy of the approximation: each drop's cluster sum
        # is the stacked cluster profile's approximation summed over the cluster
        doc = json.loads((Path(__file__).parents[1] / "configs" / "fig12.json").read_text())
        doc["network"]["outerRingCells"] = outer
        spec = cli.ExperimentSpec.from_dict(doc, {"drops": 5})
        tops = cli._drop_topologies(spec, range(5))
        m, n, k = spec.network.bs_antennas, 5, tops[0].cluster_size
        rng = np.random.default_rng(outer + 1)
        pmat = rng.uniform(0.0, 10.0, (5, tops[0].n_cells, n))
        pmat[rng.random(pmat.shape) < 0.2] = 0.0
        got = network._uplink_forward(network._stacked_constants(tops), pmat)[0]
        prof = uplink_profile(tops, pmat, range(k))  # (drop, cell) rows, drop-major
        rates = uplink_approximation(prof, m, n, pmat[:, :k].reshape(-1, n))
        np.testing.assert_allclose(got, rates.reshape(5, -1).sum(axis=1), rtol=1e-13, atol=0)


class TestNetworkSumRate:
    def test_zero_powers_give_zero(self):
        cfg = NetworkConfig(users_per_cell=2, bs_antennas=8, cell_count=7, seed=13)
        top = build_topology(cfg)
        assert network_sum_rate(top, np.zeros((7, 2)), "uplink") == 0.0

    def test_single_cell_equals_cell_sum(self):
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=12, cell_count=1, seed=14)
        top = build_topology(cfg)
        allocs = equal_alloc(3, 30.0)[None]
        prof = uplink_profile(top, allocs, 0)
        want = uplink_approximation(prof, 12, 3, allocs[0]).sum()
        assert network_sum_rate(top, allocs, "uplink") == pytest.approx(want, rel=1e-12)

    def test_closed_form_tracks_monte_carlo(self):
        cfg = NetworkConfig(users_per_cell=8, bs_antennas=64, cell_count=7, seed=15)
        top = build_topology(cfg)
        allocs = np.tile(equal_alloc(8, 100.0), (7, 1))
        cf = network_sum_rate(top, allocs, "uplink", "closedForm")
        mc = network_sum_rate(top, allocs, "uplink", "monteCarlo", trials=2500, seed=3)
        assert abs(cf - mc) / mc < 0.03

    def test_downlink_direction_supported(self):
        cfg = NetworkConfig(users_per_cell=2, bs_antennas=8, cell_count=7, seed=16)
        top = build_topology(cfg)
        allocs = np.tile(equal_alloc(2, 100.0), (7, 1))
        cf = network_sum_rate(top, allocs, "downlink")
        mc = network_sum_rate(top, allocs, "downlink", "monteCarlo", trials=1500, seed=4)
        assert cf <= mc * 1.05  # lower bound, up to MC noise

    @pytest.mark.parametrize("direction", ["uplink", "downlink"])
    def test_rows_take_an_explicit_direction(self, direction):
        # the scheduler rates its (C, N) power rows as they are, on its link
        top = build_topology(NetworkConfig(users_per_cell=2, bs_antennas=8, cell_count=7, seed=16))
        powers = np.random.default_rng(2).uniform(0.0, 50.0, (7, 2))
        for estimator in ("closedForm", "monteCarlo"):
            one = network_sum_rate(top, powers, direction, estimator, 40, 3)
            assert network_sum_rate(top, [powers, 2 * powers], direction, estimator, 40, 3)[0] == one
        with pytest.raises(TypeError, match="direction"):
            network_sum_rate(top, powers)  # powers name no link
        with pytest.raises(ValueError, match="direction"):
            network_sum_rate(top, powers, "sideways")

    def test_unknown_estimator(self):
        cfg = NetworkConfig(users_per_cell=2, bs_antennas=8, cell_count=1, seed=1)
        top = build_topology(cfg)
        with pytest.raises(ValueError, match="estimator"):
            network_sum_rate(top, equal_alloc(2, 1.0)[None], "uplink", "guess")

    @pytest.mark.parametrize("trials", [0, 2.5, True, "10"])
    def test_bad_trials_rejected(self, trials):
        top = build_topology(NetworkConfig(users_per_cell=2, bs_antennas=8, cell_count=1, seed=1))
        for estimator in ("closedForm", "monteCarlo"):
            with pytest.raises(ValueError, match="trials must be an integer >= 1"):
                network_sum_rate(top, equal_alloc(2, 1.0)[None], "uplink", estimator, trials)


class TestRunJoint:
    def test_single_cell_matches_waterfill(self):
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=12, cell_count=1, seed=17)
        top = build_topology(cfg)
        res = run_joint(top, 30.0, max_iters=2000, tolerance=1e-14)
        direct = uplink_alloc_approx(uplink_profile(top, np.zeros((1, 3)), 0), 12, 3, 30.0)
        assert res.converged
        assert np.max(np.abs(res.powers[0] - direct)) < 1e-6

    def test_mirror_symmetric_cells_get_symmetric_powers(self):
        beta_self = np.array([1.0, 0.2, 0.05])
        top = synthetic_two_cell(beta_self, np.full(3, 1e-3), 3, 12)
        res = run_joint(top, 10.0, max_iters=3000, tolerance=1e-14)
        p0, p1 = res.powers
        assert np.max(np.abs(p0 - p1)) < 1e-6

    def test_beats_exhaustive_grid(self):
        # coarse grid over both cells' full simplices, including interior
        beta_self = np.array([0.8, 0.1])
        top = synthetic_two_cell(beta_self, np.full(2, 2e-3), 2, 8)
        budget = 10.0
        res = run_joint(top, budget, max_iters=3000, tolerance=1e-14)
        step = budget / 20
        grid = np.array([[[i * step, j * step], [k * step, l * step]]
                         for i in range(21) for j in range(21 - i)
                         for k in range(21) for l in range(21 - k)])
        # every grid point as one drop of a stack of this topology
        consts = [np.repeat(c, len(grid), axis=0) for c in network._objective_constants(top)]
        best = network._uplink_forward(consts, grid)[0].max()
        assert res.objective >= best - 1e-3

    def test_never_worse_than_equal_start(self):
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7, seed=18)
        top = build_topology(cfg)
        eq = network_sum_rate(top, np.tile(equal_alloc(3, 30.0), (7, 1)), "uplink")
        res = run_joint(top, 30.0)
        assert res.objective >= eq - 1e-12

    # SHA-256 of the power matrix and the iteration count at the fig12
    # parameters, recorded when the ascent took Barzilai-Borwein steps under
    # the nonmonotone test of a 10-objective window
    DIGESTS = {
        3: (34, "b224740ec6b2401a67562dad8f5067936eea0af895cb47bc5f76f314e482f1ad"),
        5: (52, "7728ee5d50a34c633509d9894bb18ef33f56c1bec5ef4d8058fdb18d6ff65948"),
        8: (38, "0c7c04ff2dd0cffead3e52f86a64f4ce04ebb99b00f5155a8836874adeb42ba5"),
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_powers_match_recorded_digest(self, seed):
        top = build_topology(NetworkConfig(users_per_cell=5, bs_antennas=20, seed=seed))
        res = run_joint(top, 50.0, max_iters=800, tolerance=1e-10)
        pmat = res.powers
        assert res.converged
        assert (res.iterations, hashlib.sha256(pmat.tobytes()).hexdigest()) == self.DIGESTS[seed]

    # the same with outer-ring cells, keyed (outer cells, outer user power, seed)
    OUTER_DIGESTS = {
        (6, None, 3): (52, "3aaa228d18a0f0f90a5b4f6d91bcde62ff26e3c29f3f297efb099fa44d930c4b"),
        (12, 3.0, 5): (35, "cdf49e72b92e6775e89a1a070beab54243d0e0904bc26bb6151f88027927ebaa"),
        (18, 0.5, 8): (42, "41180fd2e3e5dff50f2aaf38ec025a17c4031fa1e7e48c04a25cf30f3d72f5eb"),
    }

    @pytest.mark.parametrize("outer, outer_power, seed", sorted(OUTER_DIGESTS, key=str))
    def test_outer_ring_powers_match_recorded_digest(self, outer, outer_power, seed):
        top = build_topology(NetworkConfig(users_per_cell=5, bs_antennas=20, seed=seed,
                                           outer_ring_cells=outer))
        res = run_joint(top, 50.0, max_iters=800, tolerance=1e-10, outer_user_power=outer_power)
        pmat = res.powers
        assert pmat.shape == (19 + outer, 5) and res.converged
        if outer_power is not None:
            assert np.all(pmat[19:] == outer_power)
        digest = (res.iterations, hashlib.sha256(pmat.tobytes()).hexdigest())
        assert digest == self.OUTER_DIGESTS[outer, outer_power, seed]

    @pytest.mark.parametrize("seed, outer, outer_power", [
        (3, 0, None), (5, 0, None), (8, 0, None), (5, 12, 3.0)])
    def test_result_meets_the_kkt_conditions(self, seed, outer, outer_power):
        # an oracle that knows the objective, not the algorithm: on the budget
        # simplex a stationary point gives every user with power one gradient,
        # the cell's largest, and no user without power a larger one. With
        # q = P(p + alpha g) and d = q - p, g_n = (d_n - theta) / alpha where
        # q_n > 0 and g_n <= -theta / alpha where q_n = 0, so those gaps are
        # at most 2 |d| / alpha = 2 r |f| / budget for the returned residual r.
        budget = 50.0
        top = build_topology(NetworkConfig(users_per_cell=5, bs_antennas=20, seed=seed,
                                           outer_ring_cells=outer))
        res = run_joint(top, budget, max_iters=800, outer_user_power=outer_power)
        assert res.converged
        k = top.cluster_size
        p = res.powers[:k]
        assert np.all(p >= 0) and np.all(np.abs(p.sum(axis=1) - budget) <= 1e-12)
        consts = network._objective_constants(top)
        f, b1, ap = network._uplink_forward(consts, res.powers[None])
        assert f[0] == res.objective
        g = network._uplink_gradient(consts, b1, ap)[0]
        bound = 2.0 * res.residual * abs(res.objective) / budget
        assert 0 < bound < 1e-7
        on = p > 1e-9 * budget
        assert on.any(axis=1).all() and not on.all()  # both kinds of users occur
        top_g = g.max(axis=1, keepdims=True)
        assert np.all(np.where(on, top_g - g, 0.0) <= bound)
        top_on = np.where(on, g, -np.inf).max(axis=1, keepdims=True)
        assert np.all(np.where(on, -np.inf, g) <= top_on + bound)

    def test_objective_constants_built_once(self, monkeypatch):
        # a fig12 job reads each drop's constants in the joint ascent, in the
        # scheduler and in the equal-power rate: one build serves all three,
        # also for more drops than a small LRU cache would hold
        doc = json.loads((Path(__file__).parents[1] / "configs" / "fig12.json").read_text())
        spec = cli.ExperimentSpec.from_dict(doc, {"drops": 5})
        build, reads = network._objective_constants, []

        def spy(top):
            consts = build(top)
            reads.append((top, consts))
            return consts

        monkeypatch.setattr(network, "_objective_constants", spy)
        cli._job_network_slots(spec, {"drops": list(range(5))})
        arrays = {}  # topology -> the constants' arrays of each read
        for top, consts in reads:
            arrays.setdefault(top, set()).add(id(consts[0]))
        assert len(arrays) == 5 and len(reads) == 15
        assert all(len(ids) == 1 for ids in arrays.values())
        # another antenna count is another topology, with its own M - N + 1
        top = next(iter(arrays))
        wider = top.with_antennas(2 * top.config.bs_antennas)
        np.testing.assert_allclose(build(wider)[0] / 36, build(top)[0] / 16, rtol=1e-15)

    def test_one_projection_per_round(self, monkeypatch):
        tops = [build_topology(NetworkConfig(users_per_cell=5, bs_antennas=20, seed=seed))
                for seed in (3, 5, 8)]
        assert {top.cluster_size for top in tops} == {19}
        calls = []  # (function, drops rated or projected)
        project, forward = network.project_budget_simplex, network._uplink_forward

        def spy_project(v, budget):
            assert v.ndim == 2 and v.shape[1] == 5 and v.shape[0] % 19 == 0
            calls.append(("project", v.shape[0] // 19))
            return project(v, budget)

        def spy_forward(consts, pmat):
            calls.append(("forward", len(pmat)))
            return forward(consts, pmat)

        monkeypatch.setattr(network, "project_budget_simplex", spy_project)
        monkeypatch.setattr(network, "_uplink_forward", spy_forward)

        def rounds(stack):
            """(drops rated, drops projected) in each round of one run on ``stack``."""
            calls.clear()
            run_joint_drops(stack, 50.0, max_iters=800, tolerance=1e-10)
            # the equal starts are rated and their first directions projected;
            # then each round rates one candidate for every drop still running
            # and projects the next directions of those it accepted, if any
            assert calls[:2] == [("forward", len(stack)), ("project", len(stack))]
            per_round = []
            for name, size in calls[2:]:
                if name == "forward":
                    per_round.append([size, 0])
                else:
                    assert per_round[-1][1] == 0  # at most one projection a round
                    per_round[-1][1] = size
            assert all(0 <= q <= r for r, q in per_round)
            rated, projected = map(list, zip(*per_round))
            assert rated == sorted(rated, reverse=True)  # the stack never grows
            return rated, projected

        alone = [rounds([top]) for top in tops]  # one candidate per round
        stacked, projected = rounds(tops)
        assert stacked[0] == len(tops)
        assert sum(stacked) == sum(len(r) for r, _ in alone)
        assert sum(projected) == sum(sum(q) for _, q in alone)
        assert len(stacked) == max(len(r) for r, _ in alone) > 1

    @pytest.mark.parametrize("kwargs, field", [
        ({"budget": -5.0}, "budget"),
        ({"budget": 0.0}, "budget"),
        ({"budget": np.nan}, "budget"),
        ({"budget": np.inf}, "budget"),
        ({"max_iters": 0}, "max_iters"),
        ({"max_iters": -3}, "max_iters"),
        ({"tolerance": np.nan}, "tolerance"),
        ({"tolerance": -1.0}, "tolerance"),
        ({"tolerance": np.inf}, "tolerance"),
    ])
    def test_bad_parameters_rejected(self, kwargs, field):
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7, seed=18)
        top = build_topology(cfg)
        with pytest.raises(ValueError, match=field):
            run_joint(top, **{"budget": 30.0, **kwargs})

    @pytest.mark.parametrize("kwargs, field", [
        ({"max_iters": True}, "max_iters"),
        ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": "3"}, "max_iters"),
        ({"outer_user_power": np.nan}, "outer_user_power"),
        ({"outer_user_power": np.inf}, "outer_user_power"),
        ({"outer_user_power": -1.0}, "outer_user_power"),
    ])
    def test_bad_types_rejected_up_front(self, kwargs, field):
        # each fails before the loop, naming the parameter, not as a bool cap
        # of one iteration, a TypeError or a late error inside the projection
        top = build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7,
                                           outer_ring_cells=6, seed=18))
        with pytest.raises(ValueError, match=field):
            run_joint(top, 30.0, **kwargs)

    def test_numpy_integer_cap_accepted(self):
        top = build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7, seed=18))
        assert run_joint(top, 30.0, max_iters=np.int64(500)).converged

    def test_iteration_cap_sets_flag(self):
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7, seed=19)
        top = build_topology(cfg)
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            res = run_joint(top, 30.0, max_iters=1)
        assert not res.converged and res.stop == "cap"
        assert isinstance(res, JointResult)


def joint_fields(res: JointResult):
    pmat = res.powers
    return (res.iterations, res.converged, res.objective.hex(), res.residual.hex(),
            pmat.tobytes())


def results_digest(fields) -> str:
    h = hashlib.sha256()
    for iterations, converged, objective, residual, powers in fields:
        h.update(f"{iterations},{converged},{objective},{residual};".encode() + powers)
    return h.hexdigest()


def fig12_stack():
    """20 drops of configs/fig12.json and ``run_joint_drops``' keyword
    arguments from its default options."""
    doc = json.loads((Path(__file__).parents[1] / "configs" / "fig12.json").read_text())
    spec = cli.ExperimentSpec.from_dict(doc, {"drops": 20})
    assert spec.network.seed == 2024
    opts = spec.options
    kwargs = {"budget": float(opts["powerW"]), "max_iters": opts["jointMaxIters"],
              "tolerance": float(opts["jointTolerance"]),
              "outer_user_power": cli.db_to_linear(opts["initialUserPowerDb"])}
    return cli._drop_topologies(spec, range(20)), kwargs


class TestRunJointDrops:
    """A stack of drops gives, field for field, what each drop gives alone.

    The digests of ``results_digest`` were recorded when the ascent took
    Barzilai-Borwein steps under the nonmonotone test of a 10-objective window.
    """

    # fig12's 20 drop objectives under the relative-rise stop the residual
    # stop replaced (doubling/halving steps, rise below 1e-10), as float.hex
    RELATIVE_RISE_OBJECTIVES = [
        "0x1.798e2e3273c6ep+6", "0x1.01c434247f9bep+7", "0x1.a50d27bf9f6e5p+6",
        "0x1.7f3978f092cd1p+6", "0x1.191e2a4421fc0p+7", "0x1.eed6dda8c2651p+6",
        "0x1.8adbb49c34f4dp+6", "0x1.70c031b14ec42p+6", "0x1.a88f9e7215b9dp+6",
        "0x1.cdbb0aeeee9b3p+6", "0x1.bdf752fe9b36fp+6", "0x1.5ef4db42b27acp+6",
        "0x1.aa6b30c037c86p+6", "0x1.0eac95d30e32fp+7", "0x1.c5c2500ad51a9p+6",
        "0x1.7a33071348099p+6", "0x1.fb1fded6fa834p+6", "0x1.0081d22f2ab99p+7",
        "0x1.d4aa6353072bdp+6", "0x1.d1f72e6af34c6p+6",
    ]

    @staticmethod
    def alone_and_stacked(tops, **kwargs):
        """(per-drop results, stacked results), each with its RuntimeWarnings."""
        runs = []
        for run in (lambda: [run_joint(t, **kwargs) for t in tops],
                    lambda: run_joint_drops(tops, **kwargs)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = run()
            runs.append(([joint_fields(r) for r in res],
                         [str(w.message) for w in caught if w.category is RuntimeWarning]))
        return runs

    def test_fig12_drops(self):
        tops, kwargs = fig12_stack()
        alone, stacked = self.alone_and_stacked(tops, **kwargs)
        assert stacked == alone
        assert results_digest(alone[0]) == (
            "e92edf7dc05e925183a00db9e6dc7373598207682496b6f803accdfbd32234ad")
        # drops that stop at different rounds, so the stack shrinks as it runs
        assert [fields[0] for fields in alone[0]] == [56, 52, 43, 42, 37, 44, 33, 36, 33, 36,
                                                       42, 34, 67, 80, 34, 42, 39, 40, 27, 22]

    def test_fig12_objectives_no_worse_than_the_relative_rise_stop(self):
        tops, kwargs = fig12_stack()
        results = run_joint_drops(tops, **kwargs)
        n, budget, outer = tops[0].n_users, kwargs["budget"], kwargs["outer_user_power"]
        for top, res, old in zip(tops, results, self.RELATIVE_RISE_OBJECTIVES, strict=True):
            powers = np.full((top.n_cells, n), outer)
            powers[:top.cluster_size] = equal_alloc(n, budget)
            equal = network_sum_rate(top, powers, "uplink")
            assert res.converged
            assert res.objective >= float.fromhex(old) * (1.0 - 1e-9)
            assert res.objective >= equal

    def test_fig12_stops_are_named(self, monkeypatch):
        # at fig12's 1e-8 every drop stops on its residual, in fewer rounds
        # than the 135 of the monotone test, which left five at the float floor
        tops, kwargs = fig12_stack()
        forward, passes = network._uplink_forward, []

        def spy(consts, pmat):
            passes.append(len(pmat))
            return forward(consts, pmat)

        monkeypatch.setattr(network, "_uplink_forward", spy)
        results = run_joint_drops(tops, **kwargs)
        assert [res.stop for res in results] == ["residual"] * 20
        assert all(res.converged and res.residual <= kwargs["tolerance"] for res in results)
        assert passes[0] == len(tops) and len(passes) - 1 <= 100

    def test_fig12_steps_pass_the_nonmonotone_test(self, monkeypatch):
        # an oracle of the acceptance test alone, run on each drop by itself:
        # a round that projects after rating its candidate accepted it. An
        # accepted candidate rises above the least of the last 10 accepted
        # objectives by 1e-4 g'(candidate - p), a refused one does not; the
        # comparison is exact but for the rounding of that term.
        tops, kwargs = fig12_stack()
        forward, project, calls = network._uplink_forward, network.project_budget_simplex, []

        def spy_forward(consts, pmat):
            out = forward(consts, pmat)
            # copies: the loop writes accepted steps into the first pass's arrays
            calls.append((consts, pmat[0].copy(), tuple(x.copy() for x in out)))
            return out

        def spy_project(v, budget):
            calls.append(None)
            return project(v, budget)

        monkeypatch.setattr(network, "_uplink_forward", spy_forward)
        monkeypatch.setattr(network, "project_budget_simplex", spy_project)
        k, fell = tops[0].cluster_size, 0
        for top in tops:
            calls.clear()
            res = run_joint(top, **kwargs)
            consts, p, (f, b1, ap) = calls[0]
            window, g = [f[0]], network._uplink_gradient(consts, b1, ap)[0]
            rounds = [(c, i + 1 < len(calls) and calls[i + 1] is None)
                      for i, c in enumerate(calls) if c is not None][1:]
            for (consts, cand, (fc, b1, ap)), accepted in rounds:
                ref = min(window[-10:])
                need = ref + 1e-4 * float((g * (cand - p)[:k]).sum())
                slack = 8 * np.spacing(ref)
                if accepted:
                    assert fc[0] >= need - slack
                    fell += fc[0] < window[-1]
                    window.append(fc[0])
                    p, g = cand, network._uplink_gradient(consts, b1, ap)[0]
                else:
                    assert fc[0] < need + slack
            assert res.objective == window[-1] and len(window) == res.iterations + 1
            assert res.objective >= window[0]  # the equal-split start
        assert fell  # some accepted steps fall: the window is in use

    def test_fig12_stack_ends_at_tolerance_zero(self, monkeypatch):
        # no residual reaches 0 in floating point: the float-floor stop ends
        # the stack in 87 rounds here, and without it every drop would step
        # on at the float floor until the iteration cap
        tops, kwargs = fig12_stack()
        forward, passes = network._uplink_forward, []

        def spy(consts, pmat):
            passes.append(len(pmat))
            return forward(consts, pmat)

        monkeypatch.setattr(network, "_uplink_forward", spy)
        results = run_joint_drops(tops, **{**kwargs, "tolerance": 0.0})
        assert all(res.converged for res in results)
        assert {res.stop for res in results} <= {"floor", "underflow"}
        assert passes[0] == len(tops) and len(passes) - 1 <= 150

    @pytest.mark.parametrize("outer, outer_power", [(6, None), (12, 3.0)])
    def test_outer_ring_stacks(self, outer, outer_power):
        tops = [build_topology(NetworkConfig(users_per_cell=5, bs_antennas=20, seed=seed,
                                             outer_ring_cells=outer)) for seed in (3, 5, 8)]
        alone, stacked = self.alone_and_stacked(tops, budget=50.0, max_iters=800,
                                                tolerance=1e-10, outer_user_power=outer_power)
        assert stacked == alone

    def test_stack_of_one(self):
        top = build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7,
                                           seed=18))
        alone, stacked = self.alone_and_stacked([top], budget=30.0)
        assert stacked == alone

    def test_cap_warns_once_per_capped_drop(self):
        tops = [build_topology(NetworkConfig(users_per_cell=5, bs_antennas=20, seed=seed))
                for seed in (3, 5, 8, 11)]
        (fields, warned), stacked = self.alone_and_stacked(tops, budget=50.0, max_iters=40,
                                                           tolerance=1e-10)
        assert stacked == (fields, warned)
        assert results_digest(fields) == (
            "8087895cbb23f1ac2e675d207c9cd18be8656dceb5487d0c220b97c2196563aa")
        # the cap stops some drops, not all, each at the cap
        assert [f[:2] for f in fields] == [(34, True), (40, False), (38, True), (40, False)]
        assert len(warned) == 2
        assert all("40-iteration cap" in w and "last accepted iterate" in w for w in warned)
        # a nonmonotone step may fall, but a capped drop's last accepted
        # iterate is still no worse than its equal-split start
        equal = np.tile(equal_alloc(5, 50.0), (19, 1))
        for top, (_, converged, objective, _, _) in zip(tops, fields):
            if not converged:
                assert float.fromhex(objective) >= network_sum_rate(top, equal, "uplink")

    def test_empty_or_mixed_stack_rejected(self):
        small, large = (build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10,
                                                     cell_count=cells, seed=18))
                        for cells in (7, 19))
        for tops in ([], [small, large]):
            with pytest.raises(ValueError, match="topologies"):
                run_joint_drops(tops, 30.0)


def scheduled_fields(state: NetworkState):
    pmat = state.powers
    return (state.slot_index, state.groups, state.estimator, np.array(state.history).tobytes(),
            pmat.tobytes(), {a.direction for a in state.per_cell_powers})


class TestRunScheduledDrops:
    """A stack of drops gives, field for field, what each drop gives alone,
    with one strategy call per slot for the whole stack."""

    @staticmethod
    def alone_and_stacked(tops, strategy, seeds, **kwargs):
        alone = [run_scheduled(t, strategy, seed=s, **kwargs) for t, s in zip(tops, seeds)]
        stacked = run_scheduled_drops(tops, strategy, seeds=seeds, **kwargs)
        return [scheduled_fields(st) for st in alone], [scheduled_fields(st) for st in stacked]

    @pytest.mark.parametrize("strategy", ["uplink_alloc_approx", "uplink_alloc_lower_bound",
                                          "uplink_alloc_upper_bound", "downlink_alloc"])
    @pytest.mark.parametrize("cells, outer", [(7, 0), (7, 6), (19, 0), (19, 6)])
    @pytest.mark.parametrize("estimator", ["closedForm", "monteCarlo"])
    def test_stack_equals_each_drop_alone(self, strategy, cells, outer, estimator):
        tops = [build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=cells,
                                             outer_ring_cells=outer, seed=seed))
                for seed in (1, 2, 3)]
        alone, stacked = self.alone_and_stacked(
            tops, getattr(allocation, strategy), [11, 12, 13], budget=30.0, initial_power=2.0,
            slots=5, rate_estimator=estimator, trials=16)
        assert stacked == alone
        # the drops differ, so the comparison is not one drop three times
        assert len({fields[3] for fields in stacked}) == 3

    def test_stack_of_one(self):
        top = build_topology(NetworkConfig(users_per_cell=5, bs_antennas=20, seed=3))
        alone, stacked = self.alone_and_stacked([top], uplink_alloc_approx, [7], budget=50.0,
                                                initial_power=10.0, slots=12)
        assert stacked == alone
        # the recorded digest of the one-drop scheduler, field for field
        state = run_scheduled_drops([top], uplink_alloc_approx, 50.0, 10.0, 12)[0]
        digest = hashlib.sha256(np.array(state.history).tobytes()
                                + state.powers.tobytes())
        assert digest.hexdigest() == TestRunScheduled.DIGESTS["uplink_alloc_approx", 3, 0]

    def test_fig12_drops(self):
        doc = json.loads((Path(__file__).parents[1] / "configs" / "fig12.json").read_text())
        spec = cli.ExperimentSpec.from_dict(doc, {"drops": 20})
        opts = spec.options
        tops = cli._drop_topologies(spec, range(20))
        alone, stacked = self.alone_and_stacked(
            tops, uplink_alloc_approx, [cli.derive_seed(2024, cli._TAG_SLOT, d) for d in range(20)],
            budget=float(opts["powerW"]), initial_power=cli.db_to_linear(opts["initialUserPowerDb"]),
            slots=12)
        assert stacked == alone

    def test_one_strategy_call_per_slot(self):
        tops = [build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7,
                                             seed=seed)) for seed in (1, 2, 3)]
        calls = []

        def spy(profile, m, n, budget):
            # the rows are drop-major: each drop's group cells in turn
            rows = np.asarray(profile.beta_self).reshape(len(tops), -1, n)
            calls.append([profile_cells(top, r) for top, r in zip(tops, rows)])
            return uplink_alloc_approx(profile, m, n, budget)

        spy.direction = "uplink"
        states = run_scheduled_drops(tops, spy, 30.0, 2.0, 7)
        groups = states[0].groups
        assert calls == [[groups[s % 3]] * 3 for s in range(7)]

    def test_downlink_history_is_one_profile_per_slot(self, monkeypatch):
        tops = [build_topology(NetworkConfig(users_per_cell=3, bs_antennas=10, cell_count=7,
                                             seed=seed)) for seed in (1, 2, 3, 4)]
        alone = [scheduled_fields(run_scheduled(top, allocation.downlink_alloc, 30.0, 2.0, 3))
                 for top in tops]
        rows, build = [], closedform.downlink_profile

        def counting(topologies, powers, cells):
            profile = build(topologies, powers, cells)
            rows.append(len(profile.cross_load))
            return profile

        monkeypatch.setattr(closedform, "downlink_profile", counting)
        stacked = run_scheduled_drops(tops, allocation.downlink_alloc, 30.0, 2.0, 3)
        # per slot: the group's rows in every drop, then the closed-form
        # history's rows of every drop's seven cluster cells
        groups = stacked[0].groups
        assert rows == [r for s in range(3) for r in (4 * len(groups[s % 3]), 4 * 7)]
        assert [scheduled_fields(state) for state in stacked] == alone

    def test_strategy_result_checked(self):
        tops = [build_topology(NetworkConfig(users_per_cell=2, bs_antennas=8, cell_count=7,
                                             seed=seed)) for seed in (4, 5)]

        def returning(make):
            def strategy(profile, m, n, budget):
                return make(uplink_alloc_approx(profile, m, n, budget))
            strategy.direction = "uplink"
            return strategy

        def over_in_second_drop(rows):  # the rows are drop-major
            rows[len(rows) // 2] += 1.0
            return rows

        for make, match in ((lambda r: r[:1], r"shape \((\d), 2\), got \(1, 2\)"),
                            (lambda r: r.astype(complex), "real powers"),
                            (lambda r: -r, "non-negative"),
                            (lambda r: r * np.nan, "non-negative"),
                            (over_in_second_drop, "exceeds budget")):
            with pytest.raises(ValueError, match=match):
                run_scheduled_drops(tops, returning(make), 20.0, 1.0, 1)

    def test_seeds_one_per_drop(self):
        tops = [build_topology(NetworkConfig(users_per_cell=2, bs_antennas=8, cell_count=7,
                                             seed=seed)) for seed in (4, 5)]
        for seeds in ([1], [1, 2, 3], [1, 2.5], "12"):
            with pytest.raises(ValueError, match="seeds"):
                run_scheduled_drops(tops, uplink_alloc_approx, 20.0, 1.0, 1, seeds=seeds)

    def test_empty_or_mixed_stack_rejected(self):
        def top(**kw):
            return build_topology(NetworkConfig(**{"users_per_cell": 3, "bs_antennas": 10,
                                                   "cell_count": 7, "seed": 18, **kw}))

        for tops in ([], [top(), top(cell_count=19)], [top(), top(outer_ring_cells=6)],
                     [top(), top(users_per_cell=2)], [top(), top(bs_antennas=12)]):
            with pytest.raises(ValueError, match="topologies"):
                run_scheduled_drops(tops, uplink_alloc_approx, 30.0, 1.0, 1)
