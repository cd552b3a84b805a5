"""Water-filling power allocation and the per-cell allocation strategies.

Every strategy maximises a surrogate sum rate sum_n log2(1 + c_n p_n) under
sum_n p_n = P, p_n >= 0, whose KKT solution is the water-filling form
p_n = (mu - 1/c_n)^+. The strategies differ only in the coefficient vector:
the SINR at unit power of the closed form they are named for, from
``closedform.PROFILE_COEFFICIENTS`` (whose docstring states the four), with
the interfering cells' powers frozen while one cell allocates. As M grows
the 1/c_n terms vanish and every strategy tends to the equal split P/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import PROFILE_COEFFICIENTS, downlink_profile, uplink_profile
from .topology import CellTopology


@dataclass(frozen=True, eq=False)
class WaterfillCoefficients:
    """Per-user surrogate-SINR slopes c_n and the cell power budget.

    ``coeffs`` is one vector (N,) or a (B, N) array with one cell problem per
    row, all under the same budget.
    """

    coeffs: np.ndarray
    budget: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D vector or 2-D array of rows")
        if np.any(c <= 0) or not np.all(np.isfinite(c)):
            raise ValueError("all water-filling coefficients must be finite and positive")
        if not (np.isfinite(self.budget) and self.budget > 0):
            raise ValueError("budget must be finite and positive")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True, eq=False)
class WaterfillResult:
    """Powers shaped like the coefficients; ``water_level`` is a float for one
    vector and a (B,) array for rows."""

    powers: np.ndarray
    water_level: float | np.ndarray


def waterfill(wc: WaterfillCoefficients) -> WaterfillResult:
    """Exact sort-and-scan water-filling solution, for each row at once.

    Sorts the levels 1/c_n ascending and picks the largest active set whose
    common water level mu = (P + sum 1/c)/k exceeds its worst member, so the
    budget is met exactly and boundary users with p_n = 0 stay inactive. With
    no such set (P below the rounding of the smallest level) the level is the
    one-user mu.
    """
    inv = 1.0 / wc.coeffs
    inv_sorted = np.sort(inv)
    n = inv.shape[-1]
    # method calls keep small calls cheap: the scheduler makes one per slot
    mu = (wc.budget + inv_sorted.cumsum(-1)) / np.arange(1, n + 1)
    qualifies = mu > inv_sorted
    qualifies[..., 0] = True
    # rounding can break the monotonicity of ``qualifies``: the largest k wins
    k = n - qualifies[..., ::-1].argmax(-1)
    if inv.ndim == 1:
        level = mu[k - 1]
        return WaterfillResult(np.maximum(level - inv, 0.0), float(level))
    level = mu[np.arange(inv.shape[0]), k - 1]
    return WaterfillResult(np.maximum(level[:, None] - inv, 0.0), level)


# --- allocation strategies --------------------------------------------------
#
# A strategy allocates ``target_cell`` against the frozen ``interfering_powers``
# and returns its water-filled (N,) powers; given a sequence of cells, one
# water-filling call gives their (cells, N) rows, each equal to that cell's own
# call; given D drops of one layout, it returns the (D, cells, N) array of their
# rows. The powers carry no link: the strategy's ``direction`` attribute names it.

def _strategy(public: str, name: str, direction: str, m_above_n: bool = False):
    """The strategy ``public`` water-filling ``PROFILE_COEFFICIENTS[name]`` of the
    ``direction`` profile of the target cell(s); ``m_above_n`` when c has the factor M-N."""

    def strategy(topology, interfering_powers, target_cell, m, n, budget) -> np.ndarray:
        # the profile builders and waterfill are looked up by their module-level
        # names on each call, as the tracing of benchmarks/spans.py replaces them
        prof = (uplink_profile if direction == "uplink" else downlink_profile)(
            topology, interfering_powers, target_cell)
        if n != prof.n_users:
            raise ValueError(f"N={n} does not match the topology's {prof.n_users} users per cell")
        if m_above_n and m <= n:
            raise ValueError(f"{public} requires M > N")
        c = PROFILE_COEFFICIENTS[name](prof, m, n)
        powers = waterfill(WaterfillCoefficients(c, budget)).powers
        if not isinstance(topology, CellTopology):  # a stack of drops
            return powers.reshape(-1, np.size(target_cell), n)
        return powers

    # the public name keeps the strategy picklable, as a module-level function is
    strategy.__name__ = strategy.__qualname__ = public
    strategy.__doc__ = f"Water-filling over {PROFILE_COEFFICIENTS[name].__doc__}"
    strategy.direction = direction
    return strategy


uplink_alloc_lower_bound = _strategy("uplink_alloc_lower_bound", "lower", "uplink", True)
uplink_alloc_upper_bound = _strategy("uplink_alloc_upper_bound", "upper", "uplink")
uplink_alloc_approx = _strategy("uplink_alloc_approx", "approx", "uplink")
downlink_alloc = _strategy("downlink_alloc", "downlink", "downlink", True)


def equal_alloc(n_users: int, budget: float) -> np.ndarray:
    """Equal-power baseline: the (N,) powers in which every user gets budget/N."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if not budget > 0:
        raise ValueError("budget must be positive")
    return np.full(n_users, budget / n_users)


def relative_gain(c_pa, c_eq):
    """(C_PA - C_EQ) / C_EQ, the sum-rate gain of optimised over equal power
    (elementwise for arrays of sum rates)."""
    if not np.all(np.asarray(c_eq) > 0):
        raise ValueError("equal-power sum rate must be positive")
    return (c_pa - c_eq) / c_eq

