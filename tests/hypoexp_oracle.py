"""The paper's partial-fraction form of the hypoexponential law, as a reference.

v = sum_k V_k with independent exponentials V_k of means zeta_k has the
Laplace transform prod_k (1 + zeta_k s)^{-1}. Its partial fractions
sum_h sum_j lambda_{h,j} (1 + zeta_h s)^{-j} give the density, the
distribution function and E{1/(v+1)} = sum_{h,j} lambda_{h,j} E{1/(V_hj+1)},
V_hj ~ Erlang(j) of mean j zeta_h, through the exponential integral E1.

The package evaluates E{1/(v+1)} by the Laplace-domain integral instead; the
tests read this module as the paper's own form of the same quantity. The
expansion cancels catastrophically for close means, and here that is not
repaired: where a guard detects it, the oracle raises ``ArithmeticError``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

EULER_GAMMA = 0.5772156649015328606065120900824024
SERIES_SWITCH = 1.5  # E1 by its series below, by a continued fraction at or above
MERGE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_1^inf e^(-x t)/t dt, x > 0.

    Power series for x < 1.5, Lentz continued fraction above; absolute error
    is far below 1e-12 across the whole domain.
    """
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"E1 requires finite x > 0, got {x}")
    if x < SERIES_SWITCH:
        return _e1_series(x)
    return math.exp(-x) * _e1_cf_scaled(x)


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k k!)
    total = -EULER_GAMMA - math.log(x)
    term = 1.0  # holds (-x)^k / k!
    for k in range(1, 200):
        term *= -x / k
        total -= term / k
        if abs(term) / k < 1e-18:
            return total
    raise RuntimeError("E1 series did not converge")  # pragma: no cover


def _e1_cf_scaled(x: float) -> float:
    # e^x E1(x) via the modified-Lentz continued fraction; no underflow for
    # large x, which keeps products like e^(1/zeta) E1(1/zeta) computable.
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise RuntimeError("E1 continued fraction did not converge")  # pragma: no cover


def _e1_scaled(x: float) -> float:
    """e^x E1(x), stable for any x > 0."""
    if x < SERIES_SWITCH:
        return math.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


# ---------------------------------------------------------------------------
# partial-fraction expansion
# ---------------------------------------------------------------------------

class Expansion(NamedTuple):
    """``distinct`` holds the strictly decreasing distinct means (values
    equal within 1e-9 relative are merged), ``multiplicities`` their counts
    and ``char_coeffs[h][j-1]`` the characteristic coefficient lambda_{h,j}."""

    distinct: np.ndarray
    multiplicities: np.ndarray
    char_coeffs: list


def characteristic_reference(zetas) -> Expansion:
    """Partial-fraction weights of prod_k (1 + zeta_k s)^{-1}, one h at a time.

    Near-equal means (1e-9 relative) are merged into one value with higher
    multiplicity first: the expansion is meaningless for closer-but-unequal
    values. Raises ``ArithmeticError`` where the spacing is still too small.
    """
    z_sorted = np.sort(np.asarray(zetas, dtype=float).ravel())[::-1]
    distinct, groups = [], []
    for val in z_sorted:
        if distinct and (distinct[-1] - val) <= MERGE_RTOL * distinct[-1]:
            groups[-1].append(val)
            g = groups[-1]
            # exactly equal values keep their exact representative
            distinct[-1] = g[0] if min(g) == max(g) else float(np.mean(g))
        else:
            distinct.append(float(val))
            groups.append([val])
    dist = np.array(distinct)
    mult = np.array([len(g) for g in groups], dtype=int)
    # Taylor coefficients of Gh(s) = prod_{g != h} (1 + zeta_g s)^{-tau_g}
    # around s = -1/zeta_h, in powers of u = (1 + zeta_h s): coefficient
    # c_m = Gh^(m) / (m! zeta_h^m) and lambda_{h,j} = c_{tau-j}
    coeffs = []
    for h in range(dist.size):
        zh, tau = dist[h], int(mult[h])
        zg, tg = np.delete(dist, h), np.delete(mult, h)
        if zg.size:
            base = 1.0 - zg / zh
            sign = float(np.prod(np.sign(base) ** tg))
            g0 = sign * math.exp(-float(np.sum(tg * np.log(np.abs(base)))))
            ratio = zg * zh / (zh - zg)
        else:
            g0, ratio = 1.0, np.empty(0)
        G = np.zeros(tau)
        G[0] = g0
        L = [0.0] * tau  # log-derivatives of Gh at the expansion point
        for k in range(1, tau):
            L[k] = (-1.0) ** k * math.factorial(k - 1) * float(np.sum(tg * ratio**k))
        for m_ in range(1, tau):
            G[m_] = sum(math.comb(m_ - 1, i) * L[m_ - i] * G[i] for i in range(m_))
        lam = np.array([G[tau - j] / (math.factorial(tau - j) * zh ** (tau - j))
                        for j in range(1, tau + 1)])
        if not np.all(np.isfinite(lam)):
            raise ArithmeticError("zeta spacing too small for a partial-fraction expansion")
        coeffs.append(lam)
    return Expansion(dist, mult, coeffs)


def hypoexp_pdf(spec: Expansion, v) -> np.ndarray:
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


def hypoexp_cdf(spec: Expansion, v) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# E{1/(v+1)} from the expansion
# ---------------------------------------------------------------------------

def _erlang_mean_inv_one_plus(j: int, zeta: float) -> float:
    """E{1/(V+1)} for V ~ Erlang(j) with mean j*zeta.

    The closed form subtracts j-1 alternating factorial terms from
    e^(1/zeta) E1(1/zeta); raises ``ArithmeticError`` when they overflow or
    cancel to fewer than ~3 safe digits.
    """
    x = 1.0 / zeta
    e1s = _e1_scaled(x)
    if j == 1:
        return x * e1s
    s = 0.0
    comp = 0.0  # Neumaier compensation
    term = zeta  # (-1)^m zeta^(m+1) m!, starting at m = 0
    maxmag = abs(e1s)
    for m_ in range(j - 1):
        if m_ > 0:
            term *= -zeta * m_
        if abs(term) > 1e280:
            raise ArithmeticError(f"Erlang({j}) terms overflow at zeta={zeta}")
        maxmag = max(maxmag, abs(term))
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
    bracket = (e1s - (s + comp)) * (-1.0) ** (j - 1)
    if bracket > 1e-3 * maxmag:
        log_val = math.log(bracket) - math.lgamma(j) - j * math.log(zeta)
        if log_val < 700.0:
            val = math.exp(log_val)
            if 0.0 < val <= 1.0:
                return val
    raise ArithmeticError(f"Erlang({j}) terms cancel at zeta={zeta}")


def mean_inv_one_plus(spec: Expansion) -> float:
    """E{1/(v+1)} as the expansion's signed sum of Erlang terms.

    Raises ``ArithmeticError`` when the terms exceed the result by more than
    six orders of magnitude or the sum leaves the envelope [1/(1+E{v}), 1].
    """
    floor = 1.0 / (1.0 + float(np.dot(spec.multiplicities, spec.distinct)))
    total = 0.0
    comp = 0.0
    maxmag = 0.0
    for zh, lam in zip(spec.distinct, spec.char_coeffs):
        for j, l in enumerate(lam, start=1):
            if l == 0.0:
                continue
            term = l * _erlang_mean_inv_one_plus(j, float(zh))
            maxmag = max(maxmag, abs(term))
            t = total + term
            if abs(total) >= abs(term):
                comp += (total - t) + term
            else:
                comp += (term - t) + total
            total = t
    total += comp
    if (not math.isfinite(total) or abs(total) < 1e-6 * maxmag
            or total < floor * (1.0 - 1e-6) or total > 1.0 + 1e-6):
        raise ArithmeticError("the partial-fraction terms cancel")
    return total
