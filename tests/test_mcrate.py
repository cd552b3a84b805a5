import math
from statistics import NormalDist

import numpy as np
import pytest
from zf_oracle import (
    CONDITION_LIMIT,
    RESAMPLE_CAP,
    ZF_RESIDUAL_TOL,
    IllConditionedChannelError,
    bartlett_factor,
    complex_normal,
    downlink_rate_oracle,
    uplink_rate_oracle,
    zf_precoder,
    zf_receiver,
)

from mcmimo import mcrate
from mcmimo.closedform import downlink_lower_bound, downlink_profile, uplink_approximation, uplink_profile
from mcmimo.mcrate import (
    RateEstimate,
    block_rng,
    downlink_rate_mc,
    shared_draws,
    uplink_rate_mc,
)
from mcmimo.network import PowerAllocation
from mcmimo.topology import NetworkConfig, build_topology


def unit_gain_cfg(n, m, cells=1, seed=3):
    # pathLossExponent 0 and no shadowing make every link gain exactly 1
    return NetworkConfig(
        users_per_cell=n, bs_antennas=m, cell_count=cells,
        path_loss_exponent=0.0, shadow_std_db=0.0, seed=seed,
    )


class TestPowerAllocation:
    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PowerAllocation(np.array([1.0, -0.1]), "uplink")

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            PowerAllocation(np.array([1.0]), "sideways")


class TestZfReceiver:
    def test_scalar_channel(self):
        A = zf_receiver(np.array([[2.0 + 0j]]))
        assert A[0, 0] == pytest.approx(0.5)

    def test_identity_residual(self):
        rng = np.random.default_rng(0)
        G = (rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))) / np.sqrt(2)
        A = zf_receiver(G)
        assert np.max(np.abs(A.conj().T @ G - np.eye(3))) < 1e-10

    def test_duplicated_column_raises(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        with pytest.raises(IllConditionedChannelError):
            zf_receiver(np.hstack([g, g]))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            zf_receiver(np.ones((2, 3), dtype=complex))


class TestZfPrecoder:
    def test_alpha_symmetric_betas(self):
        rng = np.random.default_rng(2)
        G = (rng.standard_normal((20, 5)) + 1j * rng.standard_normal((20, 5))) / np.sqrt(2)
        _, alpha = zf_precoder(G, np.ones(5))
        assert alpha == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_alpha_minimal_system(self):
        rng = np.random.default_rng(3)
        G = (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))) / np.sqrt(2)
        _, alpha = zf_precoder(G, np.ones(1))
        assert alpha == pytest.approx(1.0)

    def test_precoding_identity(self):
        rng = np.random.default_rng(4)
        beta = np.array([0.5, 2.0, 1.0])
        G = (rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))) / np.sqrt(2)
        B, alpha = zf_precoder(G, beta)
        assert np.max(np.abs(G.T @ B - alpha * np.eye(3))) < 1e-9 * alpha

    def test_mean_trace_is_unit_power(self):
        # empirical mean of tr(B B^H) over 1e4 draws -> 1 +- 0.02
        rng = np.random.default_rng(5)
        beta = np.array([1.3, 0.4])
        acc = 0.0
        for _ in range(10_000):
            G = (rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))) / np.sqrt(2)
            G = G * np.sqrt(beta)[None, :]
            B, _ = zf_precoder(G, beta)
            acc += float(np.sum(np.abs(B) ** 2))
        assert acc / 10_000 == pytest.approx(1.0, abs=0.02)

    def test_square_matrix_rejected(self):
        with pytest.raises(ValueError):
            zf_precoder(np.eye(3, dtype=complex), np.ones(3))


def _gram_by_matrix(rng, m, n):
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    return H.conj().T @ H


def _gram_by_bartlett(rng, m, n):
    L = bartlett_factor(rng, m, n, 1)[0]
    return L @ L.conj().T


@pytest.mark.parametrize("gram", [_gram_by_matrix, _gram_by_bartlett], ids=["matrix", "bartlett"])
def test_inverse_gram_diagonal_statistic(gram):
    # 1 / [(H^H H)^{-1}]_nn has mean M - N + 1, for the channel's Gram and for
    # the Bartlett factor's L L^H alike
    rng = np.random.default_rng(6)
    m, n = 8, 2
    acc = 0.0
    for _ in range(10_000):
        inv = np.linalg.inv(gram(rng, m, n))
        acc += 1.0 / inv[0, 0].real
    assert acc / 10_000 == pytest.approx(m - n + 1, rel=0.02)


class TestUplinkRateMC:
    def test_interference_free_oracle(self):
        # exact rate for M=2, N=1, p = beta = 1 is 1/ln 2 (integral of
        # log2(1+z) against the z e^{-z} density)
        top = build_topology(unit_gain_cfg(1, 2))
        est = uplink_rate_mc(top, np.ones((1, 1)), 0,
                             trials=30_000, seed=9, confidence=0.99)
        assert abs(est.per_user_rate[0] - 1.0 / math.log(2.0)) <= est.ci_half_width[0]
        assert est.trials == 30_000

    def test_zero_power_gives_zero_rate(self):
        cfg = NetworkConfig(users_per_cell=2, bs_antennas=6, cell_count=7, seed=1)
        top = build_topology(cfg)
        allocs = np.zeros((7, 2))
        est = uplink_rate_mc(top, allocs, 0, trials=50, seed=0)
        assert np.all(est.per_user_rate == 0.0)

    def test_deterministic_in_seed(self):
        cfg = NetworkConfig(users_per_cell=2, bs_antennas=5, cell_count=7, seed=2)
        top = build_topology(cfg)
        allocs = np.full((7, 2), 3.0)
        a = uplink_rate_mc(top, allocs, 0, trials=200, seed=5)
        b = uplink_rate_mc(top, allocs, 0, trials=200, seed=5)
        assert np.array_equal(a.per_user_rate, b.per_user_rate)

    def test_monotone_in_own_power_matched_randomness(self):
        # common random numbers: raising one user's power cannot lower that
        # user's estimated rate
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=8, cell_count=7, seed=3)
        top = build_topology(cfg)
        rates = []
        for p0 in (0.5, 1.0, 2.0, 4.0):
            allocs = np.full((7, 3), 2.0)
            allocs[0, 0] = p0
            rates.append(uplink_rate_mc(top, allocs, 0, trials=150, seed=11).per_user_rate[0])
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_missing_neighbor_allocation_rejected(self):
        cfg = NetworkConfig(users_per_cell=2, bs_antennas=5, cell_count=7, seed=2)
        top = build_topology(cfg)
        allocs = np.ones((1, 2))  # the target cell's powers alone
        with pytest.raises(ValueError, match=r"\(7, 2\) set"):
            uplink_rate_mc(top, allocs, 0, trials=10, seed=0)

    def test_approximation_tracks_mc(self):
        # convergence of the mean-ratio approximation as M grows: the per-user
        # gap shrinks and is below 0.5% at M=1024
        cfg = NetworkConfig(users_per_cell=4, bs_antennas=16, cell_count=7, seed=12)
        top = build_topology(cfg)
        allocs = np.full((7, 4), 25.0)
        gaps = []
        for m in (16, 64, 256, 1024):
            t = top.with_antennas(m)
            # the Ms share their interference draws, so the gaps at M = 256 and
            # 1024 share most of their noise, which at 4000 trials was as large
            # as the gaps themselves
            mc = uplink_rate_mc(t, allocs, 0, trials=16_000, seed=21)
            prof = uplink_profile(t, allocs, 0)
            ap = uplink_approximation(prof, m, 4, allocs[0])
            gaps.append(float(np.max(np.abs(mc.per_user_rate - ap) / mc.per_user_rate)))
        assert all(b <= a * 1.05 for a, b in zip(gaps, gaps[1:]))  # small MC-noise slack
        assert gaps[-1] < 0.005


class TestDownlinkRateMC:
    def test_interference_free_is_deterministic(self):
        top = build_topology(unit_gain_cfg(1, 2))
        est = downlink_rate_mc(top, np.ones((1, 1)), 0,
                               trials=25, seed=4)
        assert est.per_user_rate[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(est.ci_half_width == 0.0)

    def test_zero_power_gives_zero_rate(self):
        cfg = NetworkConfig(users_per_cell=2, bs_antennas=6, cell_count=7, seed=5)
        top = build_topology(cfg)
        allocs = np.zeros((7, 2))
        est = downlink_rate_mc(top, allocs, 0, trials=40, seed=0)
        assert np.all(est.per_user_rate == 0.0)

    def test_mc_stays_above_lower_bound(self):
        cfg = NetworkConfig(users_per_cell=4, bs_antennas=32, seed=6)
        top = build_topology(cfg)
        allocs = np.full((19, 4), 250.0)
        est = downlink_rate_mc(top, allocs, 0, trials=2500, seed=7)
        prof = downlink_profile(top, allocs, 0)
        bound = downlink_lower_bound(prof, 32, 4, allocs[0])
        assert np.all(est.per_user_rate >= bound - est.ci_half_width)


class TestRateEstimate:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            RateEstimate(np.array([-1.0]), 10, np.array([0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rate(self, bad):
        with pytest.raises(ValueError, match="per_user_rate"):
            RateEstimate(np.array([bad, 1.0]), 5, np.array([0.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_bad_ci_half_width(self, bad):
        with pytest.raises(ValueError, match="ci_half_width"):
            RateEstimate(np.array([0.5, 1.0]), 5, np.array([bad, 0.0]))

    def test_stores_read_only_copies(self):
        rates = np.array([1.0, 2.0])
        est = RateEstimate(rates, 5, np.zeros(2))
        rates[0] = 9.0
        assert est.per_user_rate[0] == 1.0
        assert not est.per_user_rate.flags.writeable


def test_trial_streams_are_order_independent():
    # each block of trials has its own stream, keyed by (seed, block)
    a = block_rng(42, 7).standard_normal(5)
    _ = block_rng(42, 3).standard_normal(100)
    b = block_rng(42, 7).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, block_rng(42, 8).standard_normal(5))


def test_estimate_is_assembled_from_keyed_blocks():
    # block b's rates are block_rates(b, size), every block but the last
    # holding BLOCK_TRIALS trials and the last the remainder
    block = mcrate.BLOCK_TRIALS
    est, = mcrate._estimate(lambda b, size: block_rng(5, b).random((1, size, 2)), block + 3,
                            0.95)
    rates = np.vstack([block_rng(5, 0).random((block, 2)), block_rng(5, 1).random((3, 2))])
    np.testing.assert_allclose(est.per_user_rate, rates.mean(axis=0), rtol=1e-12)
    assert est.trials == block + 3


_Z95 = NormalDist().inv_cdf(0.975)


def _unequal_powers(rng, cells, n, scale):
    """Per-cell powers drawn from [0.1, 2] * scale, with about 30% (at least
    one user) of every cell but the target, cell 0, set to 0."""
    powers = scale * rng.uniform(0.1, 2.0, (cells, n))
    for cell in range(1, cells):
        powers[cell, rng.permutation(n)[:max(1, round(0.3 * n))]] = 0.0
    return powers


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("m,n,cells,oracle_trials,unequal", [
    pytest.param(5, 4, 7, 600, False, id="5-4-7-600"),  # M = N + 1: the hardest conditioning
    pytest.param(40, 4, 7, 600, False, id="40-4-7-600"),
    pytest.param(128, 10, 19, 200, False, id="128-10-19-200"),
    pytest.param(12, 10, 7, 400, False, id="12-10-7-400"),  # M - N = 2, as in fig3
    pytest.param(6, 3, 1, 600, False, id="6-3-1-600"),  # a single cell: no neighbours
    # unequal powers, zero for some of every neighbour's users
    pytest.param(11, 10, 7, 400, True, id="11-10-7-400-unequal"),
    pytest.param(12, 10, 7, 400, True, id="12-10-7-400-unequal"),
])
def test_agrees_with_matrix_oracle(direction, m, n, cells, oracle_trials, unequal):
    # per-user two-sample z of the sampled estimator against the matrix-level
    # ZF simulator; |z| < 4 bounds all users (Bonferroni over <= 10 users)
    top = build_topology(NetworkConfig(users_per_cell=n, bs_antennas=m, cell_count=cells, seed=3))
    power = 10.0 if direction == "uplink" else 100.0
    powers = (_unequal_powers(np.random.default_rng(m), cells, n, power) if unequal
              else np.full((cells, n), power))
    estimator, oracle = {"uplink": (uplink_rate_mc, uplink_rate_oracle),
                         "downlink": (downlink_rate_mc, downlink_rate_oracle)}[direction]
    new = estimator(top, powers, 0, trials=2000, seed=17)
    ref = oracle(top, powers, 0, trials=oracle_trials, seed=17)
    if not np.any(ref.ci_half_width):  # interference-free downlink is deterministic
        np.testing.assert_allclose(new.per_user_rate, ref.per_user_rate, rtol=1e-12)
        assert not np.any(new.ci_half_width)
        return
    se = np.hypot(new.ci_half_width, ref.ci_half_width) / _Z95
    z = (new.per_user_rate - ref.per_user_rate) / se
    assert np.max(np.abs(z)) < 4.0, z


def _inverse_factors_reference(rng, m, sqrt_beta, size):
    """The matrix draw of estimatorVersions 2-5: per trial a Bartlett factor
    K = D^{1/2} L, accepted when the eigenvalues of K K^H meet CONDITION_LIMIT
    and LAPACK's inverse meets ZF_RESIDUAL_TOL, else redrawn; returns K^{-1}."""
    n = sqrt_beta.size
    X = np.empty((size, n, n), dtype=complex)
    todo = np.arange(size)
    for _ in range(RESAMPLE_CAP):
        K = sqrt_beta[:, None] * bartlett_factor(rng, m, n, todo.size)
        lam = np.linalg.eigvalsh(K @ K.conj().swapaxes(-1, -2))
        ok = (lam[:, 0] > 0) & (lam[:, -1] <= CONDITION_LIMIT * lam[:, 0])
        K_ok = K[ok]
        K_inv = np.linalg.inv(K_ok)
        good = np.max(np.abs(K_inv @ K_ok - np.eye(n)), axis=(1, 2)) < ZF_RESIDUAL_TOL
        accepted = ok.nonzero()[0][good]
        X[todo[accepted]] = K_inv[good]
        todo = np.delete(todo, accepted)
        if todo.size == 0:
            return X
    raise IllConditionedChannelError("no well-conditioned channel")


def _faded_energy_v4(rng, m, sqrt_beta, size, cols):
    """|F Z|^2 as estimatorVersions 3 and 4 drew it: F = K^{-H} from LAPACK's
    inverse, then Z ~ CN(0, I) of size N x cols per trial."""
    F = _inverse_factors_reference(rng, m, sqrt_beta, size).conj().swapaxes(1, 2)
    return np.abs(F @ complex_normal(rng, (size, sqrt_beta.size, cols)))**2, F


def _uplink_rate_v3(top, allocations, target, trials, seed):
    """The uplink estimator of estimatorVersion 3: per trial the inverse F of
    a Bartlett factor, with the accept test, and the interferers' fading as
    |F Z|^2, Z ~ CN(0, I)."""
    m = top.config.bs_antennas
    nbrs = top.neighbors(target)
    p_own = allocations[target]
    sqrt_beta = np.sqrt(top.large_scale[target, target])
    w = np.concatenate([top.large_scale[target, l] * allocations[l] for l in nbrs])

    def block_rates(rng, size):
        e, F = _faded_energy_v4(rng, m, sqrt_beta, size, w.size)
        return np.log2(1.0 + p_own / (e @ w + (np.abs(F)**2).sum(axis=2)))[None]

    est, = mcrate._estimate(lambda b, size: block_rates(block_rng(seed, b), size), trials, 0.95)
    return est


def _downlink_rate_v4(top, allocations, target, trials, seed):
    """The downlink estimator of estimatorVersion 4 for one allocation set:
    per neighbour l, target user n's interference sum_c p_lc |[F_l z_n]_c|^2."""
    m, n = top.config.bs_antennas, top.config.users_per_cell

    def alpha_sq(cell):
        return (m - n) / float(np.sum(1.0 / top.large_scale[cell, cell]))

    def block_rates(rng, size):
        interference = np.zeros((size, n))
        for l in top.neighbors(target):
            e, _ = _faded_energy_v4(rng, m, np.sqrt(top.large_scale[l, l]), size, n)
            gain = alpha_sq(l) * top.large_scale[l, target]
            interference += gain * (allocations[l] @ e)
        signal = alpha_sq(target) * allocations[target]
        return np.log2(1.0 + signal / (interference + 1.0))[None]

    est, = mcrate._estimate(lambda b, size: block_rates(block_rng(seed, b), size), trials, 0.95)
    return est


def _two_sample_z(new, ref):
    return (new.per_user_rate - ref.per_user_rate) / (np.hypot(new.ci_half_width,
                                                               ref.ci_half_width) / _Z95)


@pytest.mark.parametrize("m", [12, 20, 128, 500])  # M - N = 2, 10, 118, 490
def test_uplink_agrees_with_version_3(m):
    # estimatorVersion 4's scalar law against version 3's matrix draw, per
    # user: a two-sample |z| < 4 over independent seeds (Bonferroni, 10 users)
    top = build_topology(NetworkConfig(users_per_cell=10, bs_antennas=m, seed=5))
    rng = np.random.default_rng(m)
    allocs = np.array([rng.uniform(1.0, 100.0, 10) for _ in range(19)])
    new = uplink_rate_mc(top, allocs, 0, trials=4000, seed=1)
    ref = _uplink_rate_v3(top, allocs, 0, trials=4000, seed=2)
    z = _two_sample_z(new, ref)
    assert np.max(np.abs(z)) < 4.0, z


@pytest.mark.parametrize("m", [11, 12, 20, 128, 500])  # M - N = 1, 2, 10, 118, 490
def test_downlink_agrees_with_version_4(m):
    # estimatorVersion 6's scalar law against the matrix draw of versions 4
    # and 5 (a Bartlett factor, LAPACK's inverse and the eigenvalue accept
    # test), per user, on unequal neighbour powers with zeros: a two-sample
    # |z| < 4 over independent seeds (Bonferroni, 10 users)
    top = build_topology(NetworkConfig(users_per_cell=10, bs_antennas=m, seed=5))
    powers = _unequal_powers(np.random.default_rng(m), 19, 10, 500.0)
    new = downlink_rate_mc(top, powers, 0, trials=2000, seed=1)
    ref = _downlink_rate_v4(top, powers, 0, trials=2000, seed=2)
    z = _two_sample_z(new, ref)
    assert np.max(np.abs(z)) < 4.0, z


def _rows_setup(direction, cells, seed=3):
    n = 4
    top = build_topology(NetworkConfig(users_per_cell=n, bs_antennas=12, cell_count=cells,
                                       seed=seed))
    rng = np.random.default_rng(seed)
    scale = 10.0 if direction == "uplink" else 100.0
    # rows differ in the target cell's powers and in their interferers' (fig12)
    rows = np.array([[scale * rng.random(n) for _ in range(cells)] for _ in range(3)])
    own = rows[:1].copy()
    own[0, 0] = scale
    return top, np.concatenate([rows, own])


@pytest.mark.parametrize("estimator,direction", [(uplink_rate_mc, "uplink"),
                                                 (downlink_rate_mc, "downlink")])
@pytest.mark.parametrize("cells", [1, 7, 19])
def test_rows_equal_one_row_at_a_time(estimator, direction, cells):
    top, rows = _rows_setup(direction, cells)
    trials = mcrate.BLOCK_TRIALS + 37  # a full block and a partial one
    for target in (0, 1 if cells > 1 else 0):
        got = estimator(top, rows, target, trials, 5)
        assert isinstance(got, list) and len(got) == len(rows)
        for est, row in zip(got, rows):
            want = estimator(top, row, target, trials, 5)
            assert isinstance(want, RateEstimate)
            assert np.array_equal(est.per_user_rate, want.per_user_rate)
            assert np.array_equal(est.ci_half_width, want.ci_half_width)
            assert est.trials == want.trials


@pytest.mark.parametrize("estimator,direction", [(uplink_rate_mc, "uplink"),
                                                 (downlink_rate_mc, "downlink")])
@pytest.mark.parametrize("cells", [1, 7])
def test_shared_draws_give_each_m_its_own_estimate(estimator, direction, cells):
    # a drop's M-independent draws, made once, give the estimate at every M
    # of its call alone, bit for bit, whatever the target cell's own powers
    top, rows = _rows_setup(direction, cells)
    trials = mcrate.BLOCK_TRIALS + 37  # a full block and a partial one
    shared = shared_draws(top, rows, 0, trials, 5, direction)
    own = rows.copy()
    own[:, 0] *= 2.0
    for m in (5, 12, 40):
        t = top.with_antennas(m)
        for got, want in zip(estimator(t, own, 0, trials, 5, shared=shared),
                             estimator(t, own, 0, trials, 5)):
            assert np.array_equal(got.per_user_rate, want.per_user_rate)
            assert np.array_equal(got.ci_half_width, want.ci_half_width)


@pytest.mark.parametrize("estimator,direction", [(uplink_rate_mc, "uplink"),
                                                 (downlink_rate_mc, "downlink")])
def test_shared_draws_of_another_call_are_refused(estimator, direction):
    top, rows = _rows_setup(direction, 7)
    shared = shared_draws(top, rows, 0, 40, 5, direction)
    other = rows.copy()
    other[1, 2] *= 2.0
    for args, name in [((rows, 0, 40, 6), "seed 5, not 6"), ((rows, 0, 41, 5), "trials 40"),
                       ((rows, 1, 40, 5), "target_cell 0"), ((other, 0, 40, 5), "allocations"),
                       ((rows[:2], 0, 40, 5), "allocations")]:
        with pytest.raises(ValueError, match=name):
            estimator(top, *args, shared=shared)
    powers = rows
    other_link = {"uplink": downlink_rate_mc, "downlink": uplink_rate_mc}[direction]
    with pytest.raises(ValueError, match=f"the {direction}'s"):
        other_link(top, powers, 0, 40, 5, shared=shared_draws(top, powers, 0, 40, 5, direction))
    with pytest.raises(ValueError, match="direction"):
        shared_draws(top, powers, 0, 40, 5, "sideways")
    with pytest.raises(ValueError, match="trials"):
        shared_draws(top, rows, 0, 0, 5, direction)


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": True}, "trials must be an integer >= 1, got True"),
    ({"trials": 2.5}, "trials must be an integer >= 1, got 2.5"),
    ({"trials": 0}, "trials must be an integer >= 1, got 0"),
    ({"trials": "10"}, "trials must be an integer >= 1"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": None}, "seed must be an integer, got None"),
])
def test_trials_and_seed_checked_by_every_entry(kwargs, message):
    # a bool once ran one trial and reported trials=True; a float failed deep
    # inside the estimator with a TypeError
    for direction in ("uplink", "downlink"):
        top, rows = _rows_setup(direction, 7)
        args = {"trials": 10, "seed": 0, **kwargs}
        estimator = uplink_rate_mc if direction == "uplink" else downlink_rate_mc
        for call in (lambda: estimator(top, rows, 0, args["trials"], args["seed"]),
                     lambda: shared_draws(top, rows, 0, args["trials"], args["seed"], direction)):
            with pytest.raises(ValueError, match=f"^{message}"):
                call()


def test_rows_are_checked_one_by_one():
    top, rows = _rows_setup("uplink", 7)
    rows[2, 3, 1] = np.nan
    with pytest.raises(ValueError, match=r"cell 3 powers .* \(row 2\)"):
        uplink_rate_mc(top, rows, 0, trials=10, seed=0)
    with pytest.raises(ValueError, match=r"got shape \(0,\)"):
        uplink_rate_mc(top, [], 0, trials=10, seed=0)
