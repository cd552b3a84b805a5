import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcmimo import allocation, closedform
from mcmimo.allocation import (
    PROFILE_COEFFICIENTS,
    WaterfillCoefficients,
    WaterfillResult,
    downlink_alloc,
    equal_alloc,
    relative_gain,
    uplink_alloc_approx,
    uplink_alloc_lower_bound,
    uplink_alloc_upper_bound,
    waterfill,
)
from mcmimo.closedform import DownlinkProfile, InterferenceProfile, downlink_profile, uplink_profile
from mcmimo.network import run_scheduled
from mcmimo.topology import NetworkConfig, build_topology


def waterfill_loop(c, budget):
    """Scan the active-set sizes from N down, as the one-vector loop did: the
    kernel must give the same powers and level bit for bit."""
    inv = 1.0 / c
    inv_sorted = np.sort(inv)
    csum = np.cumsum(inv_sorted)
    for k in range(inv.size, 0, -1):
        mu = (budget + csum[k - 1]) / k
        if mu > inv_sorted[k - 1]:
            break
    return np.maximum(mu - inv, 0.0), float(mu)


def waterfill_row(c, budget):
    """``waterfill`` of one cell's coefficients, a stack of one row: its (N,)
    powers and its water level."""
    wf = waterfill(WaterfillCoefficients(np.asarray(c, dtype=float)[None], budget))
    assert wf.powers.shape == (1, len(c)) and wf.water_level.shape == (1,)
    return wf.powers[0], float(wf.water_level[0])


def surrogate(c, p):
    return float(np.log2(1.0 + c * p).sum())


def grid_best(c, budget, step_count=100):
    """Brute-force the surrogate over the budget simplex on a regular grid."""
    n = c.size
    step = budget / step_count
    best = -np.inf
    if n == 2:
        for i in range(step_count + 1):
            p = np.array([i * step, budget - i * step])
            best = max(best, surrogate(c, p))
        return best
    assert n == 3
    for i in range(step_count + 1):
        for j in range(step_count + 1 - i):
            p = np.array([i * step, j * step, budget - (i + j) * step])
            best = max(best, surrogate(c, p))
    return best


class TestWaterfill:
    def test_symmetric_coefficients_split_equally(self):
        powers, level = waterfill_row([4.0, 4.0, 4.0], 6.0)
        assert powers == pytest.approx([2.0, 2.0, 2.0])
        assert level == pytest.approx(2.0 + 0.25)

    def test_boundary_user_excluded(self):
        powers, level = waterfill_row([1.0, 0.5], 1.0)
        assert powers == pytest.approx([1.0, 0.0])
        assert level == pytest.approx(2.0)
        assert powers[1] == 0.0

    def test_two_user_closed_form(self):
        powers, level = waterfill_row([2.0, 1.0], 3.0)
        assert powers == pytest.approx([1.75, 1.25])
        assert level == pytest.approx(2.25)
        assert surrogate(np.array([2.0, 1.0]), powers) >= grid_best(np.array([2.0, 1.0]), 3.0)

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError, match="finite and positive"):
            WaterfillCoefficients(np.array([[1.0, 0.0]]), 1.0)
        with pytest.raises(ValueError, match="budget"):
            WaterfillCoefficients(np.array([[1.0]]), 0.0)

    @pytest.mark.parametrize("coeffs", [np.ones(3), np.ones((2, 2, 3)), np.ones((2, 0))])
    def test_one_vector_and_other_shapes_refused(self, coeffs):
        # a water-filling problem is a stack of rows: one cell is a stack of one row
        with pytest.raises(ValueError, match=r"non-empty \(B, N\) array"):
            WaterfillCoefficients(coeffs, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        c=st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=12),
        budget=st.floats(1e-3, 1e4),
    )
    # a level of 10000.5 against a budget of 1: the powers sum to one ulp of
    # the level (1.8e-12) above the budget
    @example(c=[0.00010000000000000002, 0.0001], budget=1.0)
    def test_invariants(self, c, budget):
        c = np.array(c)
        powers, level = waterfill_row(c, budget)
        assert np.all(powers >= 0.0)
        # float64 bound: the level (P + sum of k levels 1/c)/k carries k + 1
        # roundings of the level, each power two more, and the k powers add
        # them up; the final sum rounds relative to the budget
        active = powers > 0
        k = int(active.sum())
        assert powers.sum() == pytest.approx(
            budget, rel=1e-12, abs=k * (k + 3) * np.spacing(level))
        # every active user floats at the common water level
        assert np.all(level > 1.0 / c[active])
        np.testing.assert_allclose(
            powers[active], level - 1.0 / c[active], rtol=1e-9, atol=1e-12 * budget
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_equal_one_vector_at_a_time(self, data):
        b = data.draw(st.integers(1, 24), label="rows")
        n = data.draw(st.integers(1, 12), label="users")
        # a small pool makes ties at the water level common
        entry = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-4, 1e4))
        c = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                        min_size=b, max_size=b)))
        budget = data.draw(st.sampled_from([1e-3, 1.0, 3.0, 1e4]))
        wf = waterfill(WaterfillCoefficients(c, budget))
        assert wf.powers.shape == (b, n) and wf.water_level.shape == (b,)
        for row, powers, level in zip(c, wf.powers, wf.water_level):
            want_powers, want_level = waterfill_loop(row, budget)
            one_powers, one_level = waterfill_row(row, budget)
            assert np.array_equal(one_powers, want_powers) and one_level == want_level
            assert np.array_equal(powers, want_powers) and level == want_level
        # KKT: the budget is met (to the rounding of mu - 1/c at the level's
        # scale) and p = (mu - 1/c)^+ at each row's level
        assert np.all(wf.powers >= 0.0)
        slack = 1e-12 * budget + 1e-14 * n * wf.water_level
        assert np.all(np.abs(wf.powers.sum(axis=1) - budget) <= slack)
        assert np.array_equal(wf.powers, np.maximum(wf.water_level[:, None] - 1.0 / c, 0.0))

    @pytest.mark.parametrize("c, budget", [
        ([10.0] * 5, 1e-17),
        ([11.0] * 6, 1e-17),
        ([1 / 0.7] * 7, 3e-17),
    ])
    def test_rounding_breaks_active_set_monotonicity(self, c, budget):
        # with a budget below the rounding of the levels, mu_k > 1/c_(k) can
        # hold, fail and hold again as k grows: the largest k must win
        c = np.array(c)
        want_powers, want_level = waterfill_loop(c, budget)
        for coeffs in (c[None], np.stack([c, c])):
            wf = waterfill(WaterfillCoefficients(coeffs, budget))
            assert np.all(wf.powers == want_powers) and np.all(wf.water_level == want_level)

    def test_kkt_pairwise_perturbation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            c = 10.0 ** rng.uniform(-2, 2, 5)
            budget = float(10.0 ** rng.uniform(-1, 2))
            powers, _ = waterfill_row(c, budget)
            base = surrogate(c, powers)
            eps = 1e-6 * budget
            for i, j in itertools.permutations(range(5), 2):
                if powers[i] >= eps:
                    p = powers.copy()
                    p[i] -= eps
                    p[j] += eps
                    assert surrogate(c, p) <= base + 1e-12

    def test_scaling_preserves_power_ordering(self):
        # a common scale factor moves the water level but the users keep the
        # same ranking by allocated power (allocation is monotone in c)
        c = np.array([0.3, 5.0, 1.1, 0.9])
        a, a_level = waterfill_row(c, 7.0)
        b, b_level = waterfill_row(3.7 * c, 7.0)
        assert a_level != b_level
        assert np.array_equal(np.argsort(a, kind="stable"), np.argsort(b, kind="stable"))


@pytest.fixture(scope="module")
def small_topology():
    cfg = NetworkConfig(users_per_cell=3, bs_antennas=12, cell_count=7, seed=23)
    return build_topology(cfg)


def uplink_interferers(top, per_user=10.0):
    return np.full((top.n_cells, top.n_users), per_user)


def downlink_interferers(top, per_cell=1000.0):
    return np.full((top.n_cells, top.n_users), per_cell / top.n_users)


# the coefficient vector (or rows) a strategy water-fills, from the profile
# of the target cell(s)
def uplink_lower_coefficients(top, allocs, cell, m, n):
    return PROFILE_COEFFICIENTS["lower"](uplink_profile(top, allocs, cell), m, n)


def uplink_upper_coefficients(top, allocs, cell, m, n):
    return PROFILE_COEFFICIENTS["upper"](uplink_profile(top, allocs, cell), m, n)


def uplink_approx_coefficients(top, allocs, cell, m, n):
    return PROFILE_COEFFICIENTS["approx"](uplink_profile(top, allocs, cell), m, n)


def downlink_coefficients(top, allocs, cell, m, n):
    return PROFILE_COEFFICIENTS["downlink"](downlink_profile(top, allocs, cell), m, n)


STRATEGIES = [
    ("lower", uplink_alloc_lower_bound, uplink_lower_coefficients, uplink_interferers),
    ("upper", uplink_alloc_upper_bound, uplink_upper_coefficients, uplink_interferers),
    ("approx", uplink_alloc_approx, uplink_approx_coefficients, uplink_interferers),
    ("downlink", downlink_alloc, downlink_coefficients, downlink_interferers),
]


# the profile builder of each link, keyed by a strategy's ``direction``
BUILDERS = {"uplink": uplink_profile, "downlink": downlink_profile}


def allocate(strategy, top, allocs, cell, m, n, budget):
    """``strategy`` on the profile of ``cell`` (or cells) against ``allocs``."""
    return strategy(BUILDERS[strategy.direction](top, allocs, cell), m, n, budget)


class TestStrategies:
    @pytest.mark.parametrize("name,strategy,_,make_interf", STRATEGIES)
    def test_budget_and_nonnegativity(self, small_topology, name, strategy, _, make_interf):
        top = small_topology
        allocs = make_interf(top)
        out = allocate(strategy, top, allocs, 0, 12, 3, 30.0)
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(30.0, rel=1e-12)

    @pytest.mark.parametrize("name,strategy,coeff_fn,make_interf", STRATEGIES)
    def test_beats_grid_search(self, small_topology, name, strategy, coeff_fn, make_interf):
        top = small_topology
        allocs = make_interf(top)
        budget = 30.0
        c = coeff_fn(top, allocs, 0, 12, 3)
        out = allocate(strategy, top, allocs, 0, 12, 3, budget)
        assert surrogate(c, out) >= grid_best(c, budget) - 1e-12

    @pytest.mark.parametrize("name,strategy,_,make_interf", STRATEGIES)
    def test_asymptotic_equal_split(self, small_topology, name, strategy, _, make_interf):
        # powers approach P/N as the array grows; deviation is monotone. The
        # profile does not depend on M, so one serves every M
        top = small_topology
        rows = BUILDERS[strategy.direction](top, make_interf(top), 0)
        budget = 1000.0
        devs = []
        for m in (32, 128, 512, 2048):
            out = strategy(rows, m, 3, budget)
            devs.append(float(np.max(np.abs(out - budget / 3)) / (budget / 3)))
        assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
        out = strategy(rows, 10**6, 3, budget)
        assert np.max(np.abs(out - budget / 3)) / (budget / 3) < 0.01

    def test_upper_matches_approx_without_interference(self):
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=12, cell_count=1, seed=31)
        top = build_topology(cfg)
        rows = uplink_profile(top, np.zeros((1, 3)), 0)
        a = uplink_alloc_upper_bound(rows, 12, 3, 9.0)
        b = uplink_alloc_approx(rows, 12, 3, 9.0)
        assert np.array_equal(a, b)

    def test_upper_power_ranking_follows_beta(self, small_topology):
        top = small_topology
        out = uplink_alloc_upper_bound(uplink_profile(top, uplink_interferers(top), 0), 12, 3, 30.0)
        beta = top.large_scale[0, 0]
        assert out.shape == (1, 3)  # one row: the profile's
        assert np.array_equal(np.argsort(out[0]), np.argsort(beta))

    def test_approx_equals_lower_for_large_m(self, small_topology):
        rows = uplink_profile(small_topology, uplink_interferers(small_topology), 0)
        a = uplink_alloc_lower_bound(rows, 512, 3, 30.0)
        b = uplink_alloc_approx(rows, 512, 3, 30.0)
        assert np.max(np.abs(a - b)) < 1e-3 * 30.0 / 3

    def test_symmetric_betas_split_equally(self):
        cfg = NetworkConfig(
            users_per_cell=3, bs_antennas=9, cell_count=1,
            path_loss_exponent=0.0, shadow_std_db=0.0, seed=2,
        )
        top = build_topology(cfg)
        out = uplink_alloc_lower_bound(uplink_profile(top, np.zeros((1, 3)), 0), 9, 3, 6.0)
        assert out[0] == pytest.approx([2.0, 2.0, 2.0])

    def test_downlink_single_user_gets_everything(self):
        cfg = NetworkConfig(users_per_cell=1, bs_antennas=4, cell_count=7, seed=3)
        top = build_topology(cfg)
        out = downlink_alloc(downlink_profile(top, downlink_interferers(top, per_cell=10.0), 0),
                             4, 1, 5.0)
        assert out.shape == (1, 1) and out[0, 0] == pytest.approx(5.0)
        assert downlink_alloc.direction == "downlink"

    def test_requires_m_above_n(self, small_topology):
        top = small_topology
        with pytest.raises(ValueError, match="M > N"):
            uplink_alloc_lower_bound(uplink_profile(top, uplink_interferers(top), 0), 3, 3, 1.0)
        with pytest.raises(ValueError, match="M > N"):
            downlink_alloc(downlink_profile(top, downlink_interferers(top), 0), 3, 3, 1.0)

    @pytest.mark.parametrize("name,strategy,_,make_interf", STRATEGIES)
    def test_profile_users_must_match_n(self, small_topology, name, strategy, _, make_interf):
        with pytest.raises(ValueError, match="N=4 does not match the profile's 3 users"):
            allocate(strategy, small_topology, make_interf(small_topology), 0, 12, 4, 30.0)


@pytest.mark.parametrize("name,strategy,_,make_interf", STRATEGIES)
def test_strategies_call_builders_by_module_name(monkeypatch, small_topology, name, strategy,
                                                 _, make_interf):
    """The benchmark's span tracing replaces the module-level names: a
    strategy that captured ``waterfill`` at definition, or a scheduler that
    captured the profile builder, would run untraced. A strategy builds no
    profile of its own."""
    calls = {"uplink_profile": 0, "downlink_profile": 0, "waterfill": 0}

    def counting(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        return wrapper

    for attr in calls:
        module = allocation if attr == "waterfill" else closedform
        monkeypatch.setattr(module, attr, counting(module, attr))
    direction = "downlink" if name == "downlink" else "uplink"
    assert strategy.direction == direction
    top, allocs = small_topology, make_interf(small_topology)
    out = strategy(BUILDERS[direction](top, allocs, 0), 12, 3, 30.0)
    group = strategy(BUILDERS[direction](top, allocs, [0, 1]), 12, 3, 30.0)
    assert out.shape == (1, 3) and group.shape == (2, 3)
    assert calls == {"uplink_profile": 0, "downlink_profile": 0, "waterfill": 2}
    # each of the scheduler's three slots builds the group's profile, and on
    # the downlink one more for the closed-form sum rate
    run_scheduled(top, strategy, 30.0, 1.0, 3)
    assert calls == {"uplink_profile": 3 * (direction == "uplink"),
                     "downlink_profile": 6 * (direction == "downlink"), "waterfill": 5}


def profile_reference(top, allocs, cell, direction):
    """One cell's profile, a stack of one row, built neighbour by neighbour:
    the arithmetic every row of a group call must reproduce bit for bit."""
    beta = top.large_scale
    nbrs = np.flatnonzero(top.adjacency[cell])
    if direction == "uplink":
        if not nbrs.size:
            return InterferenceProfile(beta[cell, cell][None], np.empty((1, 0)), np.empty((1, 0)))
        return InterferenceProfile(beta[cell, cell][None],
                                   np.concatenate([allocs[l] for l in nbrs])[None],
                                   np.concatenate([beta[cell, l] for l in nbrs])[None])
    load = np.zeros(top.n_users)
    for l in nbrs:
        beta_ll = beta[l, l]
        lam_l = float(np.sum(1.0 / beta_ll))
        load += beta[l, cell] * float(np.sum(allocs[l] / beta_ll)) / lam_l
    return DownlinkProfile([[float(np.sum(1.0 / beta[cell, cell]))]], load[None])


@st.composite
def group_cases(draw):
    cells = draw(st.sampled_from([1, 7, 19]))
    outer = draw(st.integers(1, 6 * ({1: 0, 7: 1, 19: 2}[cells] + 1)))
    n = draw(st.integers(1, 6))
    m = n + draw(st.integers(1, 40))
    top = build_topology(NetworkConfig(users_per_cell=n, bs_antennas=m, cell_count=cells,
                                       outer_ring_cells=outer, seed=draw(st.integers(0, 2**32))))
    # ragged neighbour counts, unsorted and repeated cells; zero powers make
    # the upper bound's zeta sets ragged as well
    group = draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=cells + 2))
    power = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 10.0, 300.0])
    powers = np.array(draw(st.lists(power, min_size=top.n_cells * n,
                                    max_size=top.n_cells * n))).reshape(top.n_cells, n)
    budget = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e4]))
    return top, group, powers, budget


class TestGroupCalls:
    @settings(max_examples=60, deadline=None)
    @given(case=group_cases())
    @pytest.mark.parametrize("name,strategy,coeff_fn,_", STRATEGIES)
    def test_group_rows_equal_cell_calls(self, name, strategy, coeff_fn, _, case):
        top, group, powers, budget = case
        m, n = top.config.bs_antennas, top.n_users
        got = allocate(strategy, top, powers, group, m, n, budget)
        rows = coeff_fn(top, powers, group, m, n)
        assert got.shape == rows.shape == (len(group), n)
        for cell, alloc, row in zip(group, got, rows):
            one = allocate(strategy, top, powers, cell, m, n, budget)
            c = PROFILE_COEFFICIENTS[name](profile_reference(top, powers, cell, strategy.direction),
                                           m, n)  # one row
            assert np.array_equal(row, c[0])
            assert np.array_equal(coeff_fn(top, powers, cell, m, n), c)
            want = waterfill(WaterfillCoefficients(c, budget)).powers
            assert np.array_equal(alloc, want[0])
            assert np.array_equal(one, want)

    @pytest.mark.parametrize("cell", [True, 1.0, [], [[0, 1]], "0"])
    def test_bad_target_cell_rejected(self, small_topology, cell):
        # the profile builders name the cells a strategy's rows are of
        for build in BUILDERS.values():
            with pytest.raises(ValueError, match="target_cell"):
                build(small_topology, uplink_interferers(small_topology), cell)


class TestSweepAxes:
    """M and the budget as columns: one call gives each (M, budget) the bits
    of its scalar call."""

    MS = [5, 6, 17, 40, 500]
    BUDGETS = [0.5, 3.0, 30.0, 1e3, 1e5]

    def test_budget_column_equals_one_budget_per_call(self):
        c = np.random.default_rng(4).uniform(1e-3, 50.0, (5, 6))
        wf = waterfill(WaterfillCoefficients(c, np.array(self.BUDGETS)[:, None]))
        for row, level, budget, coeffs in zip(wf.powers, wf.water_level, self.BUDGETS, c):
            one = waterfill(WaterfillCoefficients(coeffs[None], budget))
            assert np.array_equal(row, one.powers[0]) and level == one.water_level[0]

    @pytest.mark.parametrize("budget", [10, np.int64(10), np.float32(10), np.array(10.0),
                                        np.full((5, 1), 10)])
    def test_numpy_scalar_budget_is_one_budget(self, budget):
        c = np.random.default_rng(4).uniform(1e-3, 50.0, (5, 6))
        wc = WaterfillCoefficients(c, budget)
        assert wc.budget.shape == (5, 1) and not wc.budget.flags.writeable
        assert np.array_equal(waterfill(wc).powers,
                              waterfill(WaterfillCoefficients(c, 10.0)).powers)

    @pytest.mark.parametrize("budget", [np.ones(5), np.ones((1, 1)), np.ones((5, 2)),
                                        np.array([[1.0], [0.0], [1.0], [1.0], [1.0]]),
                                        np.array([[1.0], [np.inf], [1.0], [1.0], [1.0]])])
    def test_bad_budget_column_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be"):
            WaterfillCoefficients(np.ones((5, 3)), budget)

    @pytest.mark.parametrize("name,strategy,_,make_interf", STRATEGIES)
    def test_columns_equal_scalar_calls(self, name, strategy, _, make_interf):
        # cells 0, 7 and 18 of 19 have 6, 4 and 3 neighbours: ragged rows
        top = build_topology(NetworkConfig(users_per_cell=4, bs_antennas=16, seed=21))
        rows = BUILDERS[strategy.direction](top, make_interf(top), [0, 7, 18])
        ms, budgets = np.array(self.MS)[:, None, None], np.array(self.BUDGETS)[:, None, None]
        got = strategy(rows, ms, 4, budgets)
        assert got.shape == (5, 3, 4)
        assert np.array_equal(got, [strategy(rows, m, 4, b) for m, b in zip(self.MS, self.BUDGETS)])
        # one budget at every M, one M at every budget, and an (M, budget) grid
        assert np.array_equal(strategy(rows, ms, 4, 30.0),
                              [strategy(rows, m, 4, 30.0) for m in self.MS])
        assert np.array_equal(strategy(rows, 40, 4, budgets),
                              [strategy(rows, 40, 4, b) for b in self.BUDGETS])
        grid = strategy(rows, ms, 4, budgets[:, None])
        assert np.array_equal(grid, [[strategy(rows, m, 4, b) for m in self.MS]
                                     for b in self.BUDGETS])

    @pytest.mark.parametrize("m", [np.array([5, 6, 17, 40]), np.array([40]),
                                   np.array([[40], [17], [6]])])
    @pytest.mark.parametrize("name,strategy,_,make_interf", STRATEGIES)
    def test_m_array_must_be_a_column(self, name, strategy, _, make_interf, m):
        # an (N,), (1,) or (K, 1) M would broadcast against the users or rows
        top = build_topology(NetworkConfig(users_per_cell=4, bs_antennas=16, seed=21))
        rows = BUILDERS[strategy.direction](top, make_interf(top), [0, 7, 18])
        with pytest.raises(ValueError, match=r"must have shape \(\.\.\., 1, 1\)"):
            strategy(rows, m, 4, 30.0)

    @pytest.mark.parametrize("name,strategy,_,make_interf", STRATEGIES)
    def test_m_column_checks_every_m(self, small_topology, name, strategy, _, make_interf):
        rows = BUILDERS[strategy.direction](small_topology, make_interf(small_topology), 0)
        low = 3 if name in ("lower", "downlink") else 2  # M = N or M < N
        with pytest.raises(ValueError, match="M > N|M >= N"):
            strategy(rows, np.array([12, low, 40])[:, None, None], 3, 30.0)


class TestBaselines:
    def test_equal_alloc_examples(self):
        assert equal_alloc(10, 100.0) == pytest.approx([10.0] * 10)
        assert equal_alloc(1, 7.0) == pytest.approx([7.0])

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), budget=st.floats(1e-3, 1e6))
    def test_equal_alloc_sums_to_budget(self, n, budget):
        assert equal_alloc(n, budget).sum() == pytest.approx(budget, rel=1e-12)

    @pytest.mark.parametrize("n_users, budget, field", [
        (0, 1.0, "n_users"), (True, 1.0, "n_users"), (2.5, 1.0, "n_users"), ("3", 1.0, "n_users"),
        (3, 0.0, "budget"), (3, -1.0, "budget"), (3, np.inf, "budget"), (3, np.nan, "budget"),
        (3, True, "budget"),
    ])
    def test_equal_alloc_rejects_bad_inputs(self, n_users, budget, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            equal_alloc(n_users, budget)

    def test_relative_gain(self):
        assert relative_gain(114.0, 100.0) == pytest.approx(0.14)
        assert relative_gain(100.0, 100.0) == 0.0
        with pytest.raises(ValueError):
            relative_gain(1.0, 0.0)

    @pytest.mark.parametrize("c_pa, c_eq", [
        (1.0, np.inf), (np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan),
        (np.array([1.0, np.inf]), np.array([1.0, 1.0])),
        (np.array([1.0, 2.0]), np.array([1.0, np.inf])),
    ])
    def test_relative_gain_rejects_non_finite_sums(self, c_pa, c_eq):
        with pytest.raises(ValueError, match="sum rates must be finite"):
            relative_gain(c_pa, c_eq)
