"""mpmath as an independent high-precision oracle for the closed-form numerics.

E{1/(v+1)} is checked against its Laplace-domain integral

    E{1/(v+1)} = int_0^inf e^{-s} prod_k (1 + zeta_k s)^{-1} ds

evaluated by ``mpmath.quad`` at 30 digits. ``interference_factor`` evaluates
the same integral in double precision and agrees to 1e-13 relative on every
input, adversarial ones included: clustered means, means spread over ten
decades, equal means, a single mean and the largest outer-ring K. The paper's
partial-fraction expansion (``hypoexp_oracle``) and its E1 are checked in the
regimes where the expansion holds.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoexp_oracle import (SERIES_SWITCH, characteristic_reference, exp_integral_e1,
                            mean_inv_one_plus)
from mcmimo.closedform import interference_factor, uplink_profile
from mcmimo.topology import NetworkConfig, build_topology

DIGITS = 30
E1_RTOL = 2e-14
MEAN_RTOL = 1e-12  # the expansion, where it holds
FACTOR_RTOL = 1e-13  # interference_factor, everywhere


def e1_oracle(x: float) -> float:
    with mpmath.workdps(DIGITS):
        return float(mpmath.e1(mpmath.mpf(x)))


def mean_inv_oracle(zetas) -> float:
    """int_0^inf e^{-s} prod_k (1 + zeta_k s)^{-1} ds at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        z = [mpmath.mpf(float(v)) for v in zetas]
        value = mpmath.quad(lambda s: mpmath.exp(-s) / mpmath.fprod(1 + zk * s for zk in z),
                            [0, 1, 10, 50, mpmath.inf])
        return float(value)


def assert_factor_matches_mpmath(zetas):
    want = mean_inv_oracle(zetas)
    assert abs(interference_factor(zetas) - want) <= FACTOR_RTOL * want


def clustered(k: int, spread: float) -> np.ndarray:
    """k means within ``spread`` relative of each other, at a fixed seed."""
    return 1.7 * (1.0 + spread * np.random.default_rng(k).random(k))


def ten_decades(k: int) -> np.ndarray:
    """k means spread over 1e-5..1e5, at a fixed seed."""
    return 10.0 ** np.random.default_rng(100 + k).uniform(-5.0, 5.0, k)


def outer_ring_means() -> np.ndarray:
    """The 60 means of a cell of the shipped network (N = 10) whose six
    neighbours include outer-ring cells: with the outer ring every cell has
    six, the most any cell has."""
    top = build_topology(NetworkConfig(users_per_cell=10, bs_antennas=128, seed=2024,
                                       outer_ring_cells=18))
    return uplink_profile(top, [np.full(10, 10.0)] * top.n_cells, 7).zetas()


@st.composite
def zeta_sets(draw):
    """Up to 90 means with exact repeats and near-equal neighbours."""
    base = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30))
    zetas = list(base)
    for z in base:
        copies = draw(st.sampled_from([0, 0, 1, 2]))
        jitter = draw(st.sampled_from([0.0, 1e-12, 1e-10]))
        zetas += [z * (1.0 + jitter)] * copies
    return np.array(zetas)


class TestExpIntegralE1:
    @pytest.mark.parametrize("x", [
        1e-300, 1e-12, 1e-6, 0.01, 0.5, 1.0, np.nextafter(SERIES_SWITCH, 0.0),  # series
        SERIES_SWITCH, np.nextafter(SERIES_SWITCH, 2.0), 3.0, 10.0, 50.0, 300.0, 700.0,
    ])
    def test_matches_mpmath_on_both_branches(self, x):
        want = e1_oracle(x)
        assert abs(exp_integral_e1(x) - want) <= E1_RTOL * want

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-300, max_value=700.0))
    def test_relative_error_everywhere(self, x):
        want = e1_oracle(x)
        assert abs(exp_integral_e1(x) - want) <= E1_RTOL * want


class TestMeanInvOnePlus:
    @pytest.mark.parametrize("zetas", [
        [1e-4, 1e-2, 1.0, 100.0, 1e4],        # spread over eight decades
        [0.5] * 5 + [0.2] * 3 + [3.0],        # mixed multiplicities
        [0.3] * 12,                           # Erlang(12), closed form kept
        [50.0] * 40,                          # Erlang(40) with large means
        [1e-9, 2e-9],                         # vanishing interference
    ])
    def test_expansion_matches_mpmath(self, zetas):
        want = mean_inv_oracle(zetas)
        assert abs(mean_inv_one_plus(characteristic_reference(zetas)) - want) <= MEAN_RTOL * want
        assert_factor_matches_mpmath(zetas)

    @pytest.mark.parametrize("j, zeta", [
        (30, 0.01), (8, 1e-3), (3, 1e-6),  # the expansion's alternating terms cancel
        (200, 1.0),                        # its factorial terms overflow
        (1, 0.37), (1, 1e-5), (1, 1e5),    # a single mean
        (80, 2.5),                         # all-equal means
    ])
    def test_erlang_matches_mpmath(self, j, zeta):
        assert_factor_matches_mpmath([zeta] * j)

    @pytest.mark.parametrize("zetas", [
        # close but unmerged means, where the signed expansion cancels
        pytest.param([1.0, 1.0 + 1e-7, 1.0 + 2e-7, 1.0 + 3e-7], id="close-1e-7"),
        pytest.param([2.0, 2.0 * (1 + 5e-8), 0.5, 0.5 * (1 + 5e-8)], id="close-5e-8"),
        *(pytest.param(clustered(k, 1e-4), id=f"clustered-K{k}") for k in (2, 10, 40, 80)),
        pytest.param(clustered(80, 1e-6), id="clustered-1e-6-K80"),
        *(pytest.param(ten_decades(k), id=f"ten-decades-K{k}") for k in (1, 2, 20, 80)),
        pytest.param(outer_ring_means(), id="outer-ring-K60"),
    ])
    def test_adversarial_means_match_mpmath(self, zetas):
        assert_factor_matches_mpmath(zetas)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.lists(st.sampled_from([1e-3, 0.02, 0.3, 1.0, 4.0, 25.0, 600.0]),
                              min_size=1, max_size=8),
                     zeta_sets()))
    def test_matches_mpmath_for_any_means(self, zetas):
        assert_factor_matches_mpmath(zetas)
