"""mpmath as an independent high-precision oracle for the closed-form numerics.

E1 is checked against ``mpmath.e1`` on both sides of the series/continued
fraction switch. E{1/(v+1)} is checked against its Laplace-domain integral

    E{1/(v+1)} = int_0^inf e^{-s} prod_k (1 + zeta_k s)^{-1} ds

evaluated by ``mpmath.quad`` at 30 digits, in the regimes where the
expansion is used as is and in those where a guard falls back to
``_laplace_product_integral``; each fallback test asserts that the fallback
really fired.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmimo import closedform
from mcmimo.closedform import (
    _SERIES_SWITCH,
    _erlang_mean_inv_one_plus,
    characteristic_coefficients,
    exp_integral_e1,
    mean_inv_one_plus,
)

DIGITS = 30
E1_RTOL = 2e-14
MEAN_RTOL = 1e-12


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


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the calls of the stable Laplace-integral fallback."""
    seen = []
    integral = closedform._laplace_product_integral

    def counted(zetas, mults):
        seen.append((tuple(zetas), tuple(mults)))
        return integral(zetas, mults)

    monkeypatch.setattr(closedform, "_laplace_product_integral", counted)
    return seen


class TestExpIntegralE1:
    @pytest.mark.parametrize("x", [
        1e-300, 1e-12, 1e-6, 0.01, 0.5, 1.0, np.nextafter(_SERIES_SWITCH, 0.0),  # series
        _SERIES_SWITCH, np.nextafter(_SERIES_SWITCH, 2.0), 3.0, 10.0, 50.0, 300.0, 700.0,
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
    def test_expansion_matches_mpmath(self, zetas, fallbacks):
        got = mean_inv_one_plus(characteristic_coefficients(zetas))
        want = mean_inv_oracle(zetas)
        assert abs(got - want) <= MEAN_RTOL * want
        assert fallbacks == []  # the expansion itself was accurate enough

    @pytest.mark.parametrize("j, zeta", [
        (30, 0.01), (8, 1e-3), (3, 1e-6),  # the alternating terms cancel
        (200, 1.0),                        # the factorial terms overflow
    ])
    def test_erlang_fallback_matches_mpmath(self, j, zeta, fallbacks):
        got = _erlang_mean_inv_one_plus(j, zeta)
        assert fallbacks == [((zeta,), (j,))]
        want = mean_inv_oracle([zeta] * j)
        assert abs(got - want) <= MEAN_RTOL * want

    @pytest.mark.parametrize("zetas", [
        [1.0, 1.0 + 1e-7, 1.0 + 2e-7, 1.0 + 3e-7],
        [2.0, 2.0 * (1 + 5e-8), 0.5, 0.5 * (1 + 5e-8)],
    ])
    def test_close_means_fallback_matches_mpmath(self, zetas, fallbacks):
        # close but unmerged means: the signed expansion cancels, and the
        # stable integral over the distinct means replaces it
        spec = characteristic_coefficients(zetas)
        got = mean_inv_one_plus(spec)
        assert (tuple(spec.distinct), tuple(spec.multiplicities.astype(float))) in fallbacks
        want = mean_inv_oracle(zetas)
        assert abs(got - want) <= MEAN_RTOL * want

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([1e-3, 0.02, 0.3, 1.0, 4.0, 25.0, 600.0]),
                    min_size=1, max_size=8))
    def test_matches_mpmath_for_any_means(self, zetas):
        got = mean_inv_one_plus(characteristic_coefficients(zetas))
        want = mean_inv_oracle(zetas)
        assert abs(got - want) <= MEAN_RTOL * want
