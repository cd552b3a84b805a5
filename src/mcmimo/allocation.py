"""Water-filling power allocation and the per-cell allocation strategies.

Every strategy maximises a surrogate sum rate sum_n log2(1 + c_n p_n) under
sum_n p_n = P, p_n >= 0, whose KKT solution is the water-filling form
p_n = (mu - 1/c_n)^+. A strategy is a function of the target cell's profile,
which its caller builds with the interfering cells' powers frozen while the
cell allocates. The strategies differ only in the coefficient vector: the
SINR at unit power of the closed form they are named for, from
``closedform.PROFILE_COEFFICIENTS`` (whose docstring states the four). As M
grows the 1/c_n terms vanish and every strategy tends to the equal split P/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import PROFILE_COEFFICIENTS
from .topology import check_field


@dataclass(frozen=True, eq=False)
class WaterfillCoefficients:
    """Per-user surrogate-SINR slopes c_n and the cell power budgets.

    ``coeffs`` is a (B, N) array with one cell problem per row; one problem is
    a stack of one row. ``budget`` is one number for every row or a (B, 1)
    column of one budget per row; it is kept as a read-only (B, 1) column.
    """

    coeffs: np.ndarray
    budget: float | np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)  # a copy, so the caller's array cannot change it
        if c.ndim != 2 or c.size == 0:
            raise ValueError(f"coeffs must be a non-empty (B, N) array, one cell problem "
                             f"per row, got shape {c.shape}")
        # method reductions, not np.* wrappers: the scheduler makes a small call per slot
        if not (c.min() > 0 and c.max() < np.inf):
            raise ValueError("all water-filling coefficients must be finite and positive")
        b = np.array(self.budget, dtype=float)
        if b.ndim and b.shape != (c.shape[0], 1):
            raise ValueError(f"budget must be a number or a ({c.shape[0]}, 1) column, one "
                             f"per row, got shape {b.shape}")
        if not (b.min() > 0 and b.max() < np.inf):  # NaN fails both
            raise ValueError("budget must be finite and positive")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "budget", np.broadcast_to(b, (c.shape[0], 1)))  # read-only


@dataclass(frozen=True, eq=False)
class WaterfillResult:
    """Powers (B, N), shaped like the coefficients, and the (B,) water levels,
    one per row."""

    powers: np.ndarray
    water_level: np.ndarray


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
    n = inv.shape[1]
    # method calls keep small calls cheap: the scheduler makes one per slot
    mu = (wc.budget + inv_sorted.cumsum(1)) / np.arange(1, n + 1)
    qualifies = mu > inv_sorted
    qualifies[:, 0] = True
    # rounding can break the monotonicity of ``qualifies``: the largest k wins
    k = n - qualifies[:, ::-1].argmax(1)
    level = mu[np.arange(inv.shape[0]), k - 1]
    return WaterfillResult(np.maximum(level[:, None] - inv, 0.0), level)


# --- allocation strategies --------------------------------------------------
#
# A strategy water-fills the profile of the target cell(s), which the caller
# builds against the frozen powers of the interfering cells: the scheduler
# with the profile builder its ``direction`` attribute names, the figure kinds
# and the threshold search from cell 0's profile stacked over drops. It
# returns (D, N) powers, one row per profile row, for one M and one budget;
# M and budget arrays such as (K, 1, 1) columns broadcast over leading sweep
# axes, (K, D, N) from one water-filling call. Each row equals the call on
# that row alone at its own M and budget.

def _strategy(public: str, name: str, direction: str, m_above_n: bool = False):
    """The strategy ``public`` water-filling ``PROFILE_COEFFICIENTS[name]`` of a
    ``direction`` profile; ``m_above_n`` when c has the factor M-N."""

    def strategy(profile, m, n, budget) -> np.ndarray:
        if n != profile.n_users:
            raise ValueError(f"N={n} does not match the profile's {profile.n_users} users")
        if m_above_n and (np.asarray(m) <= n).any():
            raise ValueError(f"{public} requires M > N")
        c = PROFILE_COEFFICIENTS[name](profile, m, n)
        # waterfill is looked up by its module-level name on each call, as the
        # tracing of benchmarks/spans.py replaces it
        shape = np.broadcast_shapes(c.shape, np.shape(budget))
        rows = np.broadcast_to(budget, (*shape[:-1], 1)).reshape(-1, 1)
        wc = WaterfillCoefficients(np.broadcast_to(c, shape).reshape(-1, n), rows)
        return waterfill(wc).powers.reshape(shape)

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
    check_field("n_users", n_users, "count")
    check_field("budget", budget, "positive")
    return np.full(n_users, budget / n_users)


def relative_gain(c_pa, c_eq):
    """(C_PA - C_EQ) / C_EQ, the sum-rate gain of optimised over equal power
    (elementwise for arrays of sum rates)."""
    if not (np.isfinite(c_pa).all() and np.isfinite(c_eq).all()):
        raise ValueError("sum rates must be finite")
    if not np.all(np.asarray(c_eq) > 0):
        raise ValueError("equal-power sum rate must be positive")
    return (c_pa - c_eq) / c_eq
