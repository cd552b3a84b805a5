"""Density and distribution function of a hypoexponential law, read off its
partial-fraction expansion (``closedform.characteristic_coefficients``).

The tests integrate the density and compare the distribution function with
sampled sums of exponentials, which checks the characteristic coefficients
independently of E{1/(v+1)}.
"""

from __future__ import annotations

import math

import numpy as np

from mcmimo.closedform import HypoexpSpec


def hypoexp_pdf(spec: HypoexpSpec, v) -> np.ndarray:
    """Density f(v) = sum_{h,j} lambda_{h,j} z_h^{-j} v^{j-1} e^{-v/z_h}/(j-1)!."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    pos = v >= 0
    vv = v[pos]
    acc = np.zeros_like(vv)
    with np.errstate(divide="ignore"):
        logv = np.where(vv > 0, np.log(np.where(vv > 0, vv, 1.0)), -np.inf)
    for zh, lam in zip(spec.distinct, spec.char_coeffs):
        for j, l in enumerate(lam, start=1):
            if l == 0.0:
                continue
            if j == 1:
                acc += (l / zh) * np.exp(-vv / zh)
            else:
                acc += l * np.exp(
                    (j - 1) * logv - vv / zh - j * math.log(zh) - math.lgamma(j)
                )
    out[pos] = acc
    return out


def hypoexp_cdf(spec: HypoexpSpec, v) -> np.ndarray:
    """P(V <= v), as sum_{h,j} lambda_{h,j} P(Erlang(j) <= v/z_h), clipped to [0, 1]."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    pos = v > 0
    acc = np.zeros(int(pos.sum()))
    for zh, lam in zip(spec.distinct, spec.char_coeffs):
        x = v[pos] / zh
        for j, l in enumerate(lam, start=1):
            if l == 0.0:
                continue
            acc += l * _erlang_cdf(j, x)
    out[pos] = acc
    return np.clip(out, 0.0, 1.0)


def _erlang_cdf(j: int, x: np.ndarray) -> np.ndarray:
    # P(Gamma(j, 1) <= x) = 1 - e^{-x} sum_{i<j} x^i/i!, in log space
    with np.errstate(divide="ignore"):
        logx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
    tail = np.zeros_like(x)
    for i in range(j):
        tail += np.exp(i * logx - x - math.lgamma(i + 1))
    return 1.0 - np.minimum(tail, 1.0)
