"""Water-filling power allocation and the per-cell allocation strategies.

Every strategy maximises a surrogate sum rate sum_n log2(1 + c_n p_n) under
sum_n p_n = P, p_n >= 0, whose KKT solution is the water-filling form
p_n = (mu - 1/c_n)^+. The strategies differ only in the coefficient vector:

    lower bound:    d_n = beta_n (M-N)   / (S + 1)
    upper bound:    k_n = beta_n (M-N+1) * E{1/(v+1)}
    approximation:  t_n = beta_n (M-N+1) / (S + 1)
    downlink:       s_n = ((M-N)/L_0) / (D_n + 1)

with the interfering cells' powers frozen while one cell allocates. As M
grows the 1/c_n terms vanish and every strategy tends to the equal split P/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import downlink_profile, interference_factor, uplink_profile
from .mcrate import PowerAllocation
from .topology import CellTopology


@dataclass(frozen=True, eq=False)
class WaterfillCoefficients:
    """Per-user surrogate-SINR slopes c_n and the cell power budget."""

    coeffs: np.ndarray
    budget: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D vector")
        if np.any(c <= 0) or not np.all(np.isfinite(c)):
            raise ValueError("all water-filling coefficients must be finite and positive")
        if not (np.isfinite(self.budget) and self.budget > 0):
            raise ValueError("budget must be finite and positive")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True, eq=False)
class WaterfillResult:
    powers: np.ndarray
    water_level: float
    active_set: np.ndarray


def waterfill(wc: WaterfillCoefficients) -> WaterfillResult:
    """Exact sort-and-scan water-filling solution.

    Sorts the levels 1/c_n ascending and picks the largest active set whose
    common water level mu = (P + sum 1/c)/k exceeds its worst member, so the
    budget is met exactly and boundary users with p_n = 0 stay inactive.
    """
    inv = 1.0 / wc.coeffs
    n = inv.size
    inv_sorted = np.sort(inv)
    csum = np.cumsum(inv_sorted)
    mu = 0.0
    for k in range(n, 0, -1):
        mu = (wc.budget + csum[k - 1]) / k
        if mu > inv_sorted[k - 1]:
            break
    powers = np.maximum(mu - inv, 0.0)
    return WaterfillResult(powers, float(mu), np.flatnonzero(powers > 0))


# --- strategy coefficient vectors -----------------------------------------

def uplink_lower_coefficients(topology, interfering_powers, target_cell, m, n) -> np.ndarray:
    """d_n = beta_n (M-N) / (S + 1)."""
    if m <= n:
        raise ValueError("the lower-bound strategy requires M > N")
    prof = uplink_profile(topology, interfering_powers, target_cell)
    return prof.beta_self * (m - n) / (prof.cross_sum + 1.0)


def uplink_upper_coefficients(topology, interfering_powers, target_cell, m, n) -> np.ndarray:
    """k_n = beta_n (M-N+1) E{1/(v+1)}; users differ only through beta_n."""
    if m < n:
        raise ValueError("the upper-bound strategy requires M >= N")
    prof = uplink_profile(topology, interfering_powers, target_cell)
    # the interference seen at the BS is user-independent, so one
    # hypoexponential factor serves every user
    return prof.beta_self * (m - n + 1) * interference_factor(prof.zetas())


def uplink_approx_coefficients(topology, interfering_powers, target_cell, m, n) -> np.ndarray:
    """t_n = beta_n (M-N+1) / (S + 1)."""
    if m < n:
        raise ValueError("the approximation strategy requires M >= N")
    prof = uplink_profile(topology, interfering_powers, target_cell)
    return prof.beta_self * (m - n + 1) / (prof.cross_sum + 1.0)


def downlink_coefficients(topology, interfering_powers, target_cell, m, n) -> np.ndarray:
    """s_n = ((M-N)/L_0) / (D_n + 1)."""
    if m <= n:
        raise ValueError("the downlink strategy requires M > N")
    prof = downlink_profile(topology, interfering_powers, target_cell)
    return ((m - n) / prof.lambda_self) / (prof.cross_load + 1.0)


# --- allocation strategies --------------------------------------------------

def _check_users(topology: CellTopology, n: int) -> None:
    if n != topology.n_users:
        raise ValueError(f"N={n} does not match the topology's {topology.n_users} users per cell")


def uplink_alloc_lower_bound(topology, interfering_powers, target_cell, m, n, budget) -> PowerAllocation:
    """Water-filling over the lower-bound coefficients d_n."""
    _check_users(topology, n)
    c = uplink_lower_coefficients(topology, interfering_powers, target_cell, m, n)
    return PowerAllocation(waterfill(WaterfillCoefficients(c, budget)).powers, "uplink")


def uplink_alloc_upper_bound(topology, interfering_powers, target_cell, m, n, budget) -> PowerAllocation:
    """Water-filling over the upper-bound coefficients k_n."""
    _check_users(topology, n)
    c = uplink_upper_coefficients(topology, interfering_powers, target_cell, m, n)
    return PowerAllocation(waterfill(WaterfillCoefficients(c, budget)).powers, "uplink")


def uplink_alloc_approx(topology, interfering_powers, target_cell, m, n, budget) -> PowerAllocation:
    """Water-filling over the approximation coefficients t_n."""
    _check_users(topology, n)
    c = uplink_approx_coefficients(topology, interfering_powers, target_cell, m, n)
    return PowerAllocation(waterfill(WaterfillCoefficients(c, budget)).powers, "uplink")


def downlink_alloc(topology, interfering_powers, target_cell, m, n, budget) -> PowerAllocation:
    """Water-filling over the downlink coefficients s_n."""
    _check_users(topology, n)
    c = downlink_coefficients(topology, interfering_powers, target_cell, m, n)
    return PowerAllocation(waterfill(WaterfillCoefficients(c, budget)).powers, "downlink")


uplink_alloc_lower_bound.direction = "uplink"
uplink_alloc_upper_bound.direction = "uplink"
uplink_alloc_approx.direction = "uplink"
downlink_alloc.direction = "downlink"


def equal_alloc(n_users: int, budget: float, direction: str = "uplink") -> PowerAllocation:
    """Equal-power baseline: every user gets budget/N."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if not budget > 0:
        raise ValueError("budget must be positive")
    return PowerAllocation(np.full(n_users, budget / n_users), direction)


def relative_gain(c_pa: float, c_eq: float) -> float:
    """(C_PA - C_EQ) / C_EQ, the sum-rate gain of optimised over equal power."""
    if not c_eq > 0:
        raise ValueError("equal-power sum rate must be positive")
    return (c_pa - c_eq) / c_eq


def write_allocations_csv(path, allocations) -> None:
    """Serialise per-cell allocations as (cell, user, watts) rows."""
    with open(path, "w", newline="") as fh:
        fh.write("cell,user,watts\n")
        for cell, alloc in enumerate(allocations):
            if alloc is None:
                continue
            for user, w in enumerate(alloc.powers):
                fh.write(f"{cell},{user},{w:.12g}\n")
