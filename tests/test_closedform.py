import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from hypoexp_oracle import (
    characteristic_reference,
    exp_integral_e1,
    hypoexp_cdf,
    hypoexp_pdf,
    mean_inv_one_plus,
)
from mcmimo import allocation, closedform
from mcmimo.closedform import (
    PROFILE_COEFFICIENTS,
    DownlinkProfile,
    InterferenceProfile,
    _laplace_product_integral,
    downlink_lower_bound,
    downlink_profile,
    interference_factor,
    uplink_approximation,
    uplink_lower_bound,
    uplink_profile,
    uplink_upper_bound,
)
from mcmimo.network import PowerAllocation
from mcmimo.topology import NetworkConfig, build_topology


def quad_e1(x):
    # independent oracle: direct adaptive quadrature of the defining integral
    val, _ = integrate.quad(lambda t: math.exp(-x * t) / t, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13)
    return val


class TestExpIntegral:
    def test_reference_value_at_one(self):
        assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552, abs=1e-12)
        assert exp_integral_e1(1.0) == pytest.approx(quad_e1(1.0), abs=1e-12)

    def test_reference_value_at_ten(self):
        assert exp_integral_e1(10.0) == pytest.approx(quad_e1(10.0), abs=1e-10)
        assert exp_integral_e1(10.0) == pytest.approx(4.15697e-6, rel=1e-5)

    def test_asymptotic_decay(self):
        assert exp_integral_e1(1e6) < 1e-10

    @pytest.mark.parametrize("x", [-1.0, 0.0, float("nan")])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            exp_integral_e1(x)

    def test_both_branches_accurate_at_switchover(self):
        for x in (1.5 - 1e-9, 1.5, 1.5 + 1e-9):
            assert exp_integral_e1(x) == pytest.approx(float(sp.exp1(x)), abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-4, 100.0))
    def test_matches_scipy(self, x):
        assert exp_integral_e1(x) == pytest.approx(float(sp.exp1(x)), rel=1e-12, abs=1e-300)


class TestCharacteristicCoefficients:
    def test_single_value_is_pure_exponential(self):
        spec = characteristic_reference([3.0])
        assert spec.distinct.tolist() == [3.0]
        assert spec.multiplicities.tolist() == [1]
        assert spec.char_coeffs[0].tolist() == [1.0]

    def test_two_distinct_values_hand_partial_fractions(self):
        # 1/((1+2s)(1+s)) = 2/(1+2s) - 1/(1+s) -> pdf e^{-v/2} - e^{-v}
        spec = characteristic_reference([2.0, 1.0])
        assert spec.distinct.tolist() == [2.0, 1.0]
        assert spec.char_coeffs[0][0] == pytest.approx(2.0, rel=1e-12)
        assert spec.char_coeffs[1][0] == pytest.approx(-1.0, rel=1e-12)
        v = np.linspace(0.0, 8.0, 30)
        assert hypoexp_pdf(spec, v) == pytest.approx(np.exp(-v / 2) - np.exp(-v), rel=1e-10, abs=1e-14)

    def test_equal_values_collapse_to_erlang(self):
        spec = characteristic_reference([0.7, 0.7, 0.7])
        assert spec.distinct.tolist() == [0.7]
        assert spec.multiplicities.tolist() == [3]
        assert spec.char_coeffs[0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_near_equal_values_are_merged(self):
        spec = characteristic_reference([1.0, 1.0 + 1e-12])
        assert spec.multiplicities.tolist() == [2]

    def test_coefficients_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = 10.0 ** rng.uniform(-2, 2, rng.integers(1, 8))
            spec = characteristic_reference(z)
            assert sum(c.sum() for c in spec.char_coeffs) == pytest.approx(1.0, abs=1e-8)

    def test_pdf_normalisation_and_cdf_limits(self):
        spec = characteristic_reference([0.5, 2.0, 2.0, 9.0])
        val, _ = integrate.quad(lambda v: float(hypoexp_pdf(spec, v)), 0, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert hypoexp_cdf(spec, np.array([0.0]))[0] == 0.0
        assert hypoexp_cdf(spec, np.array([1e4]))[0] == pytest.approx(1.0, abs=1e-9)


class TestMeanInvOnePlus:
    def test_single_exponential_closed_form(self):
        # E{1/(v+1)} = (1/z) e^{1/z} E1(1/z); at z=1 this is e*E1(1)
        oracle, _ = integrate.quad(lambda v: math.exp(-v) / (v + 1.0), 0, np.inf)
        got = interference_factor([1.0])
        assert got == pytest.approx(math.e * exp_integral_e1(1.0), rel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(0.59634736, rel=1e-7)

    def test_two_terms_against_monte_carlo(self):
        rng = np.random.default_rng(11)
        samples = rng.exponential(2.0, 1_000_000) + rng.exponential(1.0, 1_000_000)
        mc = float(np.mean(1.0 / (samples + 1.0)))
        assert interference_factor([2.0, 1.0]) == pytest.approx(mc, rel=2e-3)

    def test_vanishing_interference_limit(self):
        assert interference_factor([1e-9, 1e-10, 1e-11]) == pytest.approx(1.0, abs=1e-8)

    def test_erlang_against_independent_quadrature(self):
        for tau, z in [(3, 1.0), (10, 0.1), (40, 0.05), (7, 8.0)]:
            spec = characteristic_reference(np.full(tau, z))
            oracle, _ = integrate.quad(
                lambda v: float(hypoexp_pdf(spec, v)) / (v + 1.0), 0, np.inf, limit=200
            )
            assert interference_factor(np.full(tau, z)) == pytest.approx(oracle, rel=1e-8)

    def test_mixed_multiplicities_against_monte_carlo(self):
        z = np.array([0.3, 0.3, 2.0, 5.0, 5.0, 5.0])
        rng = np.random.default_rng(5)
        samples = sum(rng.exponential(zz, 500_000) for zz in z)
        mc = float(np.mean(1.0 / (samples + 1.0)))
        assert interference_factor(z) == pytest.approx(mc, rel=3e-3)

    def test_always_within_jensen_envelope(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            z = 10.0 ** rng.uniform(-5, 3, rng.integers(1, 30))
            val = interference_factor(z)
            assert 1.0 / (1.0 + z.sum()) - 1e-12 <= val <= 1.0

    def test_quadrature_rule_is_numpys_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(32)
        assert np.array_equal(closedform._GL_NODES, nodes)
        assert np.array_equal(closedform._GL_WEIGHTS, weights)

    def test_interference_factor_is_the_memoised_integral(self):
        z = np.array([0.3, 2.0, 2.0, 5.0])
        direct = _laplace_product_integral(z)
        assert 1.0 / (1.0 + z.sum()) < direct < 1.0  # inside the clamp's envelope
        assert interference_factor(z) == direct
        assert interference_factor(z.copy()) == direct  # cache hit, same float
        assert interference_factor(np.empty(0)) == 1.0

    def test_empty_and_nonpositive_inputs(self):
        assert interference_factor([]) == 1.0  # no interferers
        for zetas in ([1.0, -2.0], [0.0], [1.0, np.nan], [np.inf]):
            with pytest.raises(ValueError, match="finite and positive"):
                interference_factor(zetas)

    def test_realistic_topology_profiles_match_the_expansion(self):
        # 60 interference terms from real drops: the integral agrees with
        # adaptive quadrature, and the paper's partial-fraction expansion
        # agrees with it wherever the expansion's terms do not cancel
        from mcmimo.allocation import equal_alloc

        held = 0
        for seed in range(10):
            cfg = NetworkConfig(users_per_cell=10, bs_antennas=128, seed=seed)
            top = build_topology(cfg)
            allocs = np.tile(equal_alloc(10, 100.0), (19, 1))
            prof = uplink_profile(top, allocs, 0)
            zetas = row_zetas(prof)
            got = interference_factor(zetas)
            assert prof.interference_factor()[0, 0] == got
            want, _ = integrate.quad(lambda s: math.exp(-s) / np.prod(1.0 + zetas * s), 0, np.inf,
                                     epsabs=0.0, epsrel=1e-12, limit=200)
            assert got == pytest.approx(want, rel=1e-10)
            try:
                expansion = mean_inv_one_plus(characteristic_reference(zetas))
            except ArithmeticError:  # the expansion's guard saw its terms cancel
                continue
            held += 1
            assert expansion == pytest.approx(got, rel=1e-7)
        assert held == 3  # the expansion cancels on 7 of these 10 drops


def row_zetas(prof, row=0) -> np.ndarray:
    """The exponential means p_cl beta_cl of a profile row's active interference terms."""
    z = prof.cross_powers[row] * prof.cross_betas[row]
    return z[z > 0]


def make_profile(rng, n, L):
    """A one-row profile of N users and L interferers per user."""
    beta_self = 10.0 ** rng.uniform(-5, 0, (1, n))
    cp = 10.0 ** rng.uniform(-1, 2, (1, n * L))
    cb = 10.0 ** rng.uniform(-6, 0, (1, n * L))
    return InterferenceProfile(beta_self, cp, cb)


def stack_uplink(profiles) -> InterferenceProfile:
    """One stacked profile whose row d is the one row of ``profiles[d]`` (equal N and L)."""
    return InterferenceProfile(*(np.concatenate([getattr(p, name) for p in profiles])
                                 for name in ("beta_self", "cross_powers", "cross_betas")))


class TestUplinkExpressions:
    def test_lower_bound_direct_substitution(self):
        prof = InterferenceProfile([[1.0]], np.empty((1, 0)), np.empty((1, 0)))
        got = uplink_lower_bound(prof, 11, 1, np.array([1.0]))
        assert got[0, 0] == pytest.approx(math.log2(11.0), rel=1e-12)

    def test_m_equal_n_gives_zero(self):
        prof = InterferenceProfile([[2.0, 0.5]], [[1.0]], [[0.1]])
        assert np.all(uplink_lower_bound(prof, 2, 2, np.array([3.0, 1.0])) == 0.0)
        down = DownlinkProfile([[1.0]], np.zeros((1, 2)))
        assert np.all(downlink_lower_bound(down, 2, 2, np.ones(2)) == 0.0)

    def test_m_below_n_rejected(self):
        prof = InterferenceProfile([[1.0]], np.empty((1, 0)), np.empty((1, 0)))
        for fn in (uplink_lower_bound, uplink_approximation, uplink_upper_bound):
            with pytest.raises(ValueError):
                fn(prof, 0, 1, np.array([1.0]))

    def test_n_must_match_the_profile(self):
        # rated at another N, a 3-user profile would take M-N from the wrong N
        up = InterferenceProfile(np.ones((1, 3)), np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError, match="N=2"):
            uplink_lower_bound(up, 10, 2, np.ones(3))
        with pytest.raises(ValueError, match="N=7"):
            downlink_lower_bound(DownlinkProfile([[1.0]], np.ones((1, 3))), 10, 7, np.ones(3))

    def test_approximation_relation_to_lower_bound(self):
        # replacing M-N by M-N+1 doubles the SINR when M-N = 1
        prof = InterferenceProfile([[0.3]], [[2.0]], [[0.01]])
        p = np.array([5.0])
        lo = uplink_lower_bound(prof, 2, 1, p)
        ap = uplink_approximation(prof, 2, 1, p)
        assert 2.0 ** ap[0, 0] - 1.0 == pytest.approx(2.0 * (2.0 ** lo[0, 0] - 1.0), rel=1e-12)

    def test_upper_bound_single_interferer(self):
        prof = InterferenceProfile([[1.0]], [[1.0]], [[1.0]])
        got = uplink_upper_bound(prof, 9, 1, np.array([1.0]))
        eta = math.e * exp_integral_e1(1.0)
        assert got[0, 0] == pytest.approx(math.log2(1.0 + 9.0 * eta), rel=1e-12)

    def test_upper_bound_vanishing_interference(self):
        strong = InterferenceProfile([[1.0]], [[1e-12]], [[1e-9]])
        got = uplink_upper_bound(strong, 9, 1, np.array([1.0]))
        assert got[0, 0] == pytest.approx(math.log2(10.0), rel=1e-9)

    def test_upper_bound_no_interferers_degenerate(self):
        prof = InterferenceProfile([[2.0]], np.empty((1, 0)), np.empty((1, 0)))
        got = uplink_upper_bound(prof, 5, 1, np.array([1.0]))
        assert got[0, 0] == pytest.approx(math.log2(1.0 + 2.0 * 5.0), rel=1e-12)
        # zero-power interferers behave like none at all
        silent = InterferenceProfile([[2.0]], [[0.0]], [[1.0]])
        assert uplink_upper_bound(silent, 5, 1, np.array([1.0]))[0, 0] == got[0, 0]

    def test_sandwich_on_random_profiles(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(1, 17))
            L = int(rng.integers(0, 7))
            m = int(rng.integers(n + 1, 257))
            prof = make_profile(rng, n, L)
            p = 10.0 ** rng.uniform(-1, 2, n)
            lo = uplink_lower_bound(prof, m, n, p)
            ap = uplink_approximation(prof, m, n, p)
            up = uplink_upper_bound(prof, m, n, p)
            assert np.all(ap - lo >= -1e-12)
            assert np.all(up - ap >= -1e-12)


class TestStackedProfiles:
    """A stack of D profiles evaluates every row with the bits of that row's
    own profile; one profile evaluates rows of powers likewise."""

    def test_uplink_rows_equal_one_profile_at_a_time(self):
        rng = np.random.default_rng(5)
        for n, L, d in ((1, 0, 1), (3, 2, 4), (10, 6, 7), (12, 6, 3)):
            m = n + int(rng.integers(1, 200))
            profiles = [make_profile(rng, n, L) for _ in range(d)]
            stack = stack_uplink(profiles)
            assert stack.beta_self.shape == (d, n) and stack.cross_sum.shape == (d, 1)
            p = 10.0 ** rng.uniform(-1, 2, (d, n))
            for fn in (uplink_lower_bound, uplink_approximation, uplink_upper_bound):
                want = np.concatenate([fn(prof, m, n, row) for prof, row in zip(profiles, p)])
                assert np.array_equal(fn(stack, m, n, p), want)
                rows = np.concatenate([fn(profiles[0], m, n, row) for row in p])
                assert np.array_equal(fn(profiles[0], m, n, p), rows)

    def test_downlink_rows_equal_one_profile_at_a_time(self):
        rng = np.random.default_rng(6)
        n, d, m = 9, 5, 40
        profiles = [DownlinkProfile(10.0 ** rng.uniform(0, 6, (1, 1)),
                                    10.0 ** rng.uniform(-3, 2, (1, n)))
                    for _ in range(d)]
        stack = DownlinkProfile(np.concatenate([p.lambda_self for p in profiles]),
                                np.concatenate([p.cross_load for p in profiles]))
        assert stack.lambda_self.shape == (d, 1)
        p = 10.0 ** rng.uniform(0, 3, (d, n))
        want = np.concatenate([downlink_lower_bound(prof, m, n, row)
                               for prof, row in zip(profiles, p)])
        assert np.array_equal(downlink_lower_bound(stack, m, n, p), want)

    @pytest.mark.parametrize("outer", [0, 6])
    def test_group_profiles_stack_the_cell_profiles(self, outer):
        top = build_topology(NetworkConfig(users_per_cell=3, bs_antennas=8, seed=9,
                                           outer_ring_cells=outer))
        rng = np.random.default_rng(outer)
        # unsorted and repeated cells with 3, 4 and 6 neighbours
        cells = [18, 0, 7, 12, 18, 5]
        for direction, build in (("uplink", uplink_profile), ("downlink", downlink_profile)):
            allocs = np.array([rng.uniform(0.0, 5.0, 3) * rng.integers(0, 2, 3)
                               for _ in range(top.n_cells)])
            stack = build(top, allocs, cells)
            for row, cell in enumerate(cells):
                one = build(top, allocs, cell)  # a stack of one row
                if direction == "uplink":
                    k = one.cross_lengths[0]
                    assert one.cross_powers.shape[1] == k
                    assert stack.cross_lengths[row] == k
                    assert np.array_equal(stack.beta_self[row], one.beta_self[0])
                    assert np.array_equal(stack.cross_powers[row, :k], one.cross_powers[0])
                    assert np.array_equal(stack.cross_betas[row, :k], one.cross_betas[0])
                    assert not stack.cross_powers[row, k:].any()
                    assert stack.cross_sum[row, 0] == one.cross_sum[0, 0]
                    assert stack.interference_factor()[row, 0] == one.interference_factor()[0, 0]
                else:
                    assert stack.lambda_self[row, 0] == one.lambda_self[0, 0]
                    assert np.array_equal(stack.cross_load[row], one.cross_load[0])

    def test_ragged_rows_sum_their_own_terms(self):
        # 17 terms past BLAS's 16-element block: zero-padding to 32 would
        # regroup the sum; the ragged row keeps its own np.dot
        rng = np.random.default_rng(11)
        cp, cb = 10.0 ** rng.uniform(-3, 3, (2, 32)), 10.0 ** rng.uniform(-9, -3, (2, 32))
        cp[0, 17:] = 0.0
        stack = InterferenceProfile(np.ones((2, 2)), cp, cb, [17, 32])
        assert stack.cross_sum[0, 0] == np.dot(cp[0, :17], cb[0, :17])
        assert stack.cross_sum[1, 0] == np.dot(cp[1], cb[1])
        # rows of one length share a matmul, in any order among the others
        lengths = np.array([0, 15, 20, 30, 60, 90, 0, 90, 15, 7])
        cp = 10.0 ** rng.uniform(-3, 3, (lengths.size, 90))
        cb = 10.0 ** rng.uniform(-9, -3, (lengths.size, 90))
        cp[np.arange(90) >= lengths[:, None]] = 0.0
        want = np.array([[np.dot(p[:k], b[:k])] for p, b, k in zip(cp, cb, lengths)])
        for order in (np.arange(lengths.size), rng.permutation(lengths.size)):
            stack = InterferenceProfile(np.ones((lengths.size, 2)), cp[order], cb[order],
                                        lengths[order])
            assert np.array_equal(stack.cross_sum, want[order])

    @pytest.mark.parametrize("cells, outer", [(1, 0), (1, 6), (7, 0), (7, 12), (19, 0), (19, 18)])
    def test_cross_sums_are_each_rows_own_dot(self, cells, outer):
        # the rows of one length share a batched matmul, which must give each
        # row's np.dot of its own terms; 5 and 15 users make rows of 0 (a
        # lone cell), 15, 20, 30, 45, 60 and 90 terms, and a shuffle of the
        # target cells shuffles their sums
        rng = np.random.default_rng(cells + outer)
        for n in (5, 15):
            tops = [build_topology(NetworkConfig(users_per_cell=n, bs_antennas=n + 4, seed=seed,
                                                 cell_count=cells, outer_ring_cells=outer))
                    for seed in (2, 3)]
            c = tops[0].n_cells
            powers = rng.uniform(0.0, 5.0, (2, c, n)) * rng.integers(0, 2, (2, c, n))
            order = rng.permutation(c)
            stack = uplink_profile(tops, powers, np.arange(c))
            shuffled = uplink_profile(tops, powers, order)
            for prof in (stack, shuffled):
                want = [[np.dot(p[:k], b[:k])] for p, b, k in
                        zip(prof.cross_powers, prof.cross_betas, prof.cross_lengths)]
                assert np.array_equal(prof.cross_sum, np.array(want))
            rows = (np.arange(2)[:, None] * c + order).reshape(-1)  # drop-major
            assert np.array_equal(shuffled.cross_sum, stack.cross_sum[rows])
            assert (cells + outer > 1) == stack.cross_lengths.any()  # a lone cell hears none

    @pytest.mark.parametrize("lengths, match", [
        ([3, 5], "cross_lengths must be"),
        ([1.0, 2.0], "cross_lengths must be"),
        ([2], "cross_lengths must be"),
        ([1, 2], "past a row's cross_lengths must be 0"),
    ])
    def test_bad_cross_lengths_rejected(self, lengths, match):
        with pytest.raises(ValueError, match=match):
            InterferenceProfile(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)), lengths)

    @pytest.mark.parametrize("build", [uplink_profile, downlink_profile])
    def test_interferer_power_shape_checked(self, build):
        top = build_topology(NetworkConfig(users_per_cell=2, bs_antennas=6, cell_count=7, seed=4))
        allocs = [np.ones(2)] * 7
        allocs[1] = 5.0  # would broadcast over the users
        with pytest.raises(ValueError, match=r"powers must be a \(7, 2\) set"):
            build(top, allocs, 0)
        with pytest.raises(ValueError, match=r"got shape \(7, 1\)"):
            build(top, np.full((7, 1), 5.0), 0)

    def test_one_view_shapes_refused(self):
        # a profile is a stack of rows: one view is a stack of one row
        with pytest.raises(ValueError, match=r"beta_self \(D, N\) and cross arrays \(D, L\)"):
            InterferenceProfile(np.ones(3), np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match=r"lambda_self \(D, 1\) beside cross_load \(D, N\)"):
            DownlinkProfile(1.0, np.ones(3))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"beta_self \(D, N\)"):
            InterferenceProfile(np.ones((2, 3)), np.ones(4), np.ones(4))
        with pytest.raises(ValueError, match="cross_load"):
            DownlinkProfile(np.ones((3, 1)), np.ones((2, 4)))
        prof = InterferenceProfile(np.ones((1, 3)), np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError, match="powers must have shape"):
            uplink_approximation(prof, 8, 3, np.ones((2, 2, 3)))


class TestOneFormulaTable:
    """Each rate is log2(1 + SINR) of its ``PROFILE_COEFFICIENTS`` formula, the
    one the strategies water-fill at unit power."""

    RATES = {"lower": uplink_lower_bound, "upper": uplink_upper_bound,
             "approx": uplink_approximation, "downlink": downlink_lower_bound}

    def profiles(self, name):
        # cells 0, 7 and 18 of 19 have 6, 4 and 3 neighbours: ragged stacked rows
        top = build_topology(NetworkConfig(users_per_cell=4, bs_antennas=16, seed=21))
        rng = np.random.default_rng(21)
        build = downlink_profile if name == "downlink" else uplink_profile
        allocs = rng.uniform(0.0, 5.0, (19, 4))
        return build(top, allocs, 7), build(top, allocs, [0, 7, 18])

    @pytest.mark.parametrize("name", list(RATES))
    def test_rate_is_log2_one_plus_formula(self, name):
        rng = np.random.default_rng(3)
        formula, rate = PROFILE_COEFFICIENTS[name], self.RATES[name]
        one, stack = self.profiles(name)
        assert stack.n_users == one.n_users == 4
        for prof, shape in ((one, (5, 4)), (stack, (3, 4))):
            p = rng.uniform(0.0, 20.0, shape)
            for m in (4, 5, 40):
                assert np.array_equal(rate(prof, m, 4, p), np.log2(1 + formula(prof, m, 4, p)))
                # the water-filling coefficients are the SINR at unit power
                assert np.array_equal(formula(prof, m, 4), formula(prof, m, 4, np.ones(4)))

    @pytest.mark.parametrize("name", list(RATES))
    def test_m_column_equals_scalar_calls(self, name):
        # a (K, 1, 1) column of Ms gives every M the bits of its scalar call,
        # with one allocation for every M or one per M
        rng = np.random.default_rng(5)
        ms = [4, 5, 17, 40, 500]
        col = np.array(ms)[:, None, None]
        formula, rate = PROFILE_COEFFICIENTS[name], self.RATES[name]
        for prof in self.profiles(name):
            rows = len(prof.cross_load if name == "downlink" else prof.beta_self)
            shared, per_m = rng.uniform(0.0, 20.0, (rows, 4)), rng.uniform(0.0, 20.0, (5, rows, 4))
            assert np.array_equal(formula(prof, col, 4), [formula(prof, m, 4) for m in ms])
            assert np.array_equal(rate(prof, col, 4, shared), [rate(prof, m, 4, shared) for m in ms])
            assert np.array_equal(rate(prof, col, 4, per_m),
                                  [rate(prof, m, 4, p) for m, p in zip(ms, per_m)])
            with pytest.raises(ValueError, match="M >= N"):
                rate(prof, np.array([5, 3])[:, None, None], 4, shared)
            with pytest.raises(ValueError, match="powers must have shape"):
                rate(prof, col, 4, per_m[None])
            # an (N,), (1,) or (K, 1) M would broadcast against the users or rows
            for bad in (np.array(ms[:4]), np.array([40]), np.array([[40], [17], [5]])):
                for call in (lambda: formula(prof, bad, 4), lambda: rate(prof, bad, 4, shared)):
                    with pytest.raises(ValueError, match=r"must have shape \(\.\.\., 1, 1\)"):
                        call()

    def test_allocation_reads_the_same_table(self):
        assert allocation.PROFILE_COEFFICIENTS is PROFILE_COEFFICIENTS

    @pytest.mark.parametrize("name", list(RATES))
    def test_formula_rejects_m_below_n(self, name):
        one, stack = self.profiles(name)
        for prof in (one, stack):
            with pytest.raises(ValueError, match="M >= N"):
                PROFILE_COEFFICIENTS[name](prof, 3, 4)
            with pytest.raises(ValueError, match="M >= N"):
                self.RATES[name](prof, 3, 4, np.ones(4))


class TestDownlinkExpression:
    def test_no_interference_matches_exact_rate(self):
        prof = DownlinkProfile([[1.0]], np.zeros((1, 1)))
        assert downlink_lower_bound(prof, 2, 1, np.array([1.0]))[0, 0] == pytest.approx(1.0)

    def test_profile_construction_from_topology(self):
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=8, cell_count=7, seed=4)
        top = build_topology(cfg)
        allocs = np.tile([1.0, 2.0, 3.0], (7, 1))
        prof = downlink_profile(top, allocs, 0)
        beta = top.large_scale
        lam = [np.sum(1.0 / beta[l, l]) for l in range(7)]
        assert prof.lambda_self.shape == (1, 1) and prof.cross_load.shape == (1, 3)
        assert prof.lambda_self[0, 0] == pytest.approx(lam[0], rel=1e-12)
        # brute-force the per-user load for user 0
        want = 0.0
        for l in top.neighbors(0):
            for c in range(3):
                want += allocs[l, c] * beta[l, 0, 0] / (beta[l, l, c] * lam[l])
        assert prof.cross_load[0, 0] == pytest.approx(want, rel=1e-10)

    def test_uplink_profile_direction_validation(self):
        cfg = NetworkConfig(users_per_cell=2, bs_antennas=6, cell_count=7, seed=4)
        top = build_topology(cfg)
        # a link's powers are plain numbers: per-cell objects that carry a link are refused
        allocs = [PowerAllocation(np.ones(2), "downlink") for _ in range(7)]
        with pytest.raises(ValueError, match="uplink powers must be real numbers"):
            uplink_profile(top, allocs, 0)
