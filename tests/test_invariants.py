"""Cross-module invariants that do not belong to a single unit."""

import math

import numpy as np
import pytest
from zf_oracle import bartlett_factor

from mcmimo.closedform import (
    InterferenceProfile,
    uplink_approximation,
    uplink_lower_bound,
    uplink_upper_bound,
)
from mcmimo.topology import NetworkConfig, build_topology, schedule_groups


def test_bartlett_gram_moments():
    # W = L L^H ~ CW_N(M, I): E W = M I and E|W_ij|^2 = M off the diagonal,
    # the moments of H^H H for an M x N matrix H of CN(0, 1) entries
    m, n = 12, 4
    L = bartlett_factor(np.random.default_rng(1), m, n, 4000)
    assert np.array_equal(L, np.tril(L))
    assert np.all(np.diagonal(L, axis1=1, axis2=2).real > 0)
    assert not np.any(np.diagonal(L, axis1=1, axis2=2).imag)
    rows, cols = np.tril_indices(n, -1)
    below = L[:, rows, cols]  # CN(0, 1): real/imag parts with variance 1/2 each
    assert below.real.var() == pytest.approx(0.5, rel=0.05)
    assert below.imag.var() == pytest.approx(0.5, rel=0.05)
    assert abs(below.mean()) < 0.05
    W = L @ L.conj().swapaxes(1, 2)
    np.testing.assert_allclose(W.mean(axis=0), m * np.eye(n), atol=0.05 * m)
    off = ~np.eye(n, dtype=bool)
    assert np.mean(np.abs(W[:, off]) ** 2) == pytest.approx(m, rel=0.1)


def test_rate_formulas_invariant_under_power_gain_rescaling():
    # replacing (p, beta) by (k p, beta/k) leaves every SINR untouched: the
    # expressions depend on powers only through p*beta products
    rng = np.random.default_rng(4)
    n, m, L = 4, 32, 2
    beta_self = 10.0 ** rng.uniform(-4, 0, n)
    cp = 10.0 ** rng.uniform(-1, 2, n * L)
    cb = 10.0 ** rng.uniform(-5, -1, n * L)
    p = 10.0 ** rng.uniform(-1, 2, n)
    k = 37.5
    a = InterferenceProfile(beta_self, cp, cb)
    b = InterferenceProfile(beta_self / k, cp * k, cb / k)
    for fn in (uplink_lower_bound, uplink_approximation, uplink_upper_bound):
        np.testing.assert_allclose(fn(a, m, n, p), fn(b, m, n, p * k), rtol=1e-12)


@pytest.mark.parametrize("slots", [3, 4, 6, 7])
def test_round_coverage_allocation_counts(slots):
    # after ceil(slots/G)*G slots the per-cell allocation counts differ by <= 1
    cfg = NetworkConfig(users_per_cell=2, bs_antennas=6, seed=5)
    top = build_topology(cfg)
    groups = schedule_groups(top)
    g = len(groups)
    full = math.ceil(slots / g) * g
    counts = np.zeros(top.cluster_size, dtype=int)
    for slot in range(full):
        for cell in groups[slot % g]:
            counts[cell] += 1
    assert counts.max() - counts.min() <= 1
