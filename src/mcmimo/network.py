"""Network-level scheduling of per-cell power allocation and a joint
optimisation benchmark.

The scheduler divides the cells into non-interfering groups (reuse-3 for the
hexagonal layouts) and lets one group re-allocate per time slot against a
frozen snapshot of everyone else's powers, so after one round every cell has
optimised at least once. The joint benchmark runs projected-gradient ascent
on all cluster cells' powers at once against the same analytic objective.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import closedform
from .mcrate import PowerAllocation, _allocation_rows, downlink_rate_mc, uplink_rate_mc
from .topology import CellTopology, check_field, schedule_groups

_LN2 = math.log(2.0)
_MASK64 = (1 << 64) - 1
_STEPS = np.arange(1.0, 65.0)  # the divisors j = 1..N of the simplex threshold


@dataclass(eq=False)
class NetworkState:
    """Result of a scheduled allocation run."""

    slot_index: int
    per_cell_powers: list
    groups: list
    history: list  # network sum rate after each slot, bits/s/Hz
    estimator: str

    def __post_init__(self):
        if len(self.history) != self.slot_index:
            raise ValueError("history length must equal the slot index")


@dataclass(eq=False)
class JointResult:
    per_cell_powers: list
    objective: float
    iterations: int
    converged: bool


def project_budget_simplex(v: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection of each row of ``v`` onto {p >= 0, sum p = budget}.

    Sort-and-threshold (Duchi et al., ICML 2008), vectorised over rows: a
    (k, N) input gives k independent projections, a 1-D input one.
    """
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(f"budget must be finite and > 0, got {budget}")
    v = np.asarray(v)
    if v.ndim not in (1, 2):
        raise ValueError(f"v must be 1-D or 2-D, got {v.ndim} dimensions")
    # array methods, not np.* wrappers: on small (k, N) rows the wrappers cost most
    if not np.isfinite(v).all():
        raise ValueError("v must have only finite entries")
    rows = v.reshape(-1, v.shape[-1])
    n = rows.shape[1]
    u = np.sort(rows, axis=1)[:, ::-1]
    css = u.cumsum(axis=1)
    j = _STEPS[:n] if n <= _STEPS.size else np.arange(1.0, n + 1.0)
    active = u + (budget - css) / j > 0
    # rounding can make ``active`` non-monotone: rho is its last True index
    # (+1), not its first False one
    rho = n - active[:, ::-1].argmax(axis=1)
    theta = (budget - css[np.arange(rows.shape[0]), rho - 1]) / rho
    out = np.maximum(rows + theta[:, None], 0.0)
    found = active.any(axis=1)
    if not found.all():
        # a spread that dwarfs the budget rounds every u_j + (budget - css_j)/j
        # to <= 0. The projection does not change when a row is shifted, and
        # shifted by its maximum the row's largest entry qualifies.
        wide = rows[~found]
        out[~found] = project_budget_simplex(wide - wide.max(axis=1, keepdims=True), budget)
    return out.reshape(v.shape)


def _power_matrix(topology: CellTopology, per_cell_powers) -> np.ndarray:
    mat = np.empty((topology.n_cells, topology.n_users))
    for i in range(topology.n_cells):
        alloc = per_cell_powers[i]
        if alloc is None:
            raise ValueError(f"no PowerAllocation for cell {i}")
        mat[i] = alloc.powers if isinstance(alloc, PowerAllocation) else np.asarray(alloc)
    return mat


@lru_cache(maxsize=4)
def _objective_constants(topology: CellTopology):
    """The topology's fixed arrays of the uplink objective: a = beta_iii (M-N+1), the
    cluster BSs' float adjacency rows and gains, and both again on cluster columns."""
    cfg = topology.config
    k = topology.cluster_size
    a = topology.large_scale[np.arange(k), np.arange(k), :] * (
        cfg.bs_antennas - cfg.users_per_cell + 1)
    adj = topology.adjacency[:k].astype(float)
    beta = topology.large_scale[:k]
    arrays = (a, adj, beta, np.ascontiguousarray(adj[:, :k]), np.ascontiguousarray(beta[:, :k]))
    for arr in arrays:
        arr.setflags(write=False)  # shared by every call on this topology
    return arrays


def _uplink_forward(topology: CellTopology, pmat: np.ndarray):
    """Cluster sum of the closed-form uplink approximation, vectorised.

    rate_in = log2(1 + a_in p_in / (b_i + 1)) with a_in = beta_iin (M-N+1) and
    b_i the interference power at BS i from its edge-adjacent cells. Returns
    the sum with b_i + 1 and a_in p_in, which ``_uplink_gradient`` reads.
    """
    a, adj, beta, _, _ = _objective_constants(topology)  # (k, N), (k, C), (k, C, N)
    contrib = np.einsum("ilc,lc->il", beta, pmat)  # (k, C)
    b1 = (contrib * adj).sum(axis=1) + 1.0          # (k,)
    ap = a * pmat[:topology.cluster_size]
    return float(np.log2(1.0 + ap / b1[:, None]).sum()), b1, ap


def _uplink_gradient(topology: CellTopology, b1: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """Gradient of the uplink objective in the cluster cells' powers, (k, N),
    from ``_uplink_forward``'s b_i + 1 and a_in p_in at those powers."""
    a, _, _, adj, beta = _objective_constants(topology)  # cluster columns only
    denom = b1[:, None] + ap
    # own-cell term, then the interference term: d b_i / d p_jm = adj[i,j] beta[i,j,m]
    u = (ap / (b1[:, None] * denom)).sum(axis=1)  # (k,)
    return a / denom / _LN2 - np.einsum("i,ij,ijm->jm", u, adj, beta) / _LN2


def _downlink_objective(topology: CellTopology, per_cell_powers) -> float:
    cfg = topology.config
    k = topology.cluster_size
    prof = closedform.downlink_profile(topology, per_cell_powers, range(k))
    rates = closedform.downlink_lower_bound(prof, cfg.bs_antennas, cfg.users_per_cell,
                                            _power_matrix(topology, per_cell_powers)[:k])
    # per-cell sums added in cell order, as cell by cell
    return sum(float(row.sum()) for row in rates)


def network_sum_rate(
    topology: CellTopology,
    per_cell_powers,
    estimator: str = "closedForm",
    trials: int = 10_000,
    seed: int = 0,
) -> float:
    """Sum rate of the cluster cells under the given powers.

    ``closedForm`` uses the uplink approximation (or the downlink lower bound
    for downlink allocations); ``monteCarlo`` averages fading draws per cell.
    ``per_cell_powers`` may also be a sequence of R allocation sets: the
    result is then the list of their R sum rates, and ``monteCarlo`` rates a
    cell's R rows from one set of draws.
    """
    rows, single = _allocation_rows(per_cell_powers)
    direction = rows[0][0].direction
    if estimator == "closedForm":
        if direction == "uplink":
            totals = [_uplink_forward(topology, _power_matrix(topology, row))[0] for row in rows]
        else:
            totals = [_downlink_objective(topology, row) for row in rows]
    elif estimator == "monteCarlo":
        mc = uplink_rate_mc if direction == "uplink" else downlink_rate_mc
        totals = [0.0] * len(rows)
        for i in range(topology.cluster_size):
            cell_seed = int(
                np.random.SeedSequence([seed & _MASK64, i]).generate_state(1, np.uint64)[0]
            )
            for r, est in enumerate(mc(topology, rows, i, trials, cell_seed)):
                totals[r] += est.sum_rate
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return totals[0] if single else totals


def run_scheduled(
    topology: CellTopology,
    strategy,
    budget: float,
    initial_power: float,
    slots: int,
    rate_estimator: str = "closedForm",
    trials: int = 10_000,
    seed: int = 0,
) -> NetworkState:
    """Run scheduled per-cell power allocation for ``slots`` time slots.

    In slot s only the cells of group s mod G re-allocate, each against the
    snapshot of powers taken at the start of the slot; cells of a group do not
    interfere with each other, so their updates commute, and the strategy
    allocates the whole group in one call: ``strategy(topology, allocs, cells,
    m, n, budget)`` returns one PowerAllocation per cell, as the strategies of
    ``mcmimo.allocation`` do. Outer-ring cells keep their initial power
    forever. The network sum rate is recorded after every slot with the
    requested estimator.
    """
    check_field("budget", budget, "positive")
    check_field("initial_power", initial_power, "nonnegative")
    check_field("slots", slots, "count")
    cfg = topology.config
    m, n = cfg.bs_antennas, cfg.users_per_cell
    direction = getattr(strategy, "direction", "uplink")
    if initial_power * n > budget * (1.0 + 1e-9):
        raise ValueError("initial per-user power exceeds the cell budget")

    groups = schedule_groups(topology)
    allocs = [
        PowerAllocation(np.full(n, float(initial_power)), direction)
        for _ in range(topology.n_cells)
    ]
    history = []
    for slot in range(slots):
        group = groups[slot % len(groups)]
        # the call reads ``allocs`` before any cell of the group is replaced
        for cell, new in zip(group, strategy(topology, allocs, group, m, n, budget), strict=True):
            new.check_budget(budget)
            allocs[cell] = new
        history.append(
            network_sum_rate(
                topology,
                allocs,
                rate_estimator,
                trials,
                int(np.random.SeedSequence([seed & _MASK64, slot]).generate_state(1, np.uint64)[0]),
            )
        )
    return NetworkState(slots, allocs, groups, history, rate_estimator)


def run_joint(
    topology: CellTopology,
    budget: float,
    max_iters: int = 500,
    tolerance: float = 1e-9,
    outer_user_power: float | None = None,
) -> JointResult:
    """Jointly optimise all cluster cells' uplink powers by projected-gradient
    ascent on the closed-form approximation objective.

    Starts from the equal split (so the result is never worse than it), takes
    Armijo-backtracked steps projected onto each cell's budget simplex, and
    stops when the relative objective improvement drops below ``tolerance``.
    Each candidate costs one projection and one forward pass, and an accepted
    one's forward pass feeds the next gradient pass. Outer-ring users keep
    ``outer_user_power`` each (the equal split if None).
    The objective is not jointly concave; like any local method this returns a
    stationary point, flagged ``converged=False`` with a warning if the
    iteration cap was reached first.
    """
    check_field("budget", budget, "positive")
    check_field("max_iters", max_iters, "count")
    # a NaN or negative tolerance is never met, so the loop would run until
    # backtracking underflows and still report convergence
    check_field("tolerance", tolerance, "nonnegative")
    n = topology.config.users_per_cell
    k = topology.cluster_size

    pmat = np.full((topology.n_cells, n), budget / n)
    if outer_user_power is not None:
        pmat[k:] = check_field("outer_user_power", outer_user_power, "nonnegative")

    f, b1, ap = _uplink_forward(topology, pmat)
    grad = _uplink_gradient(topology, b1, ap)
    step = budget
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        accepted = False
        while step > 1e-16 * budget:
            cand = pmat.copy()
            cand[:k] = project_budget_simplex(pmat[:k] + step * grad, budget)
            fc, b1, ap = _uplink_forward(topology, cand)
            if fc > f and fc >= f + 1e-4 * float((grad * (cand[:k] - pmat[:k])).sum()):
                rel = (fc - f) / max(abs(f), 1e-12)
                pmat, f = cand, fc
                grad = _uplink_gradient(topology, b1, ap)
                step *= 2.0
                accepted = True
                break
            step *= 0.5
        if not accepted or rel < tolerance:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"joint power optimisation hit the {max_iters}-iteration cap; "
            "returning the best iterate",
            RuntimeWarning,
        )
    allocs = [PowerAllocation(pmat[i], "uplink") for i in range(topology.n_cells)]
    return JointResult(allocs, f, it, converged)
