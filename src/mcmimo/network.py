"""Network-level scheduling of per-cell power allocation and a joint
optimisation benchmark.

The scheduler divides the cells into non-interfering groups (reuse-3 for the
hexagonal layouts) and lets one group re-allocate per time slot against a
frozen snapshot of everyone else's powers, so after one round every cell has
optimised at least once. The joint benchmark runs projected-gradient ascent
on all cluster cells' powers at once against the same analytic objective;
``run_joint_drops`` runs it for a stack of equal-shape topologies (one per
drop) in one loop, each drop with its own iterate, step and stopping, and
``run_joint`` is its stack of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import closedform
from .mcrate import PowerAllocation, _power_rows, downlink_rate_mc, uplink_rate_mc
from .topology import CellTopology, check_field, derive_seed, schedule_groups

_LN2 = math.log(2.0)
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


@lru_cache(maxsize=4)
def _objective_constants(topology: CellTopology):
    """The topology's fixed arrays of the uplink objective, as a stack of one
    drop: a = beta_iii (M-N+1) of shape (1, k, N) and the cluster BSs' gains
    zeroed outside their edge-adjacent cells (1, k, C, N)."""
    cfg = topology.config
    k = topology.cluster_size
    a = topology.large_scale[np.arange(k), np.arange(k), :] * (
        cfg.bs_antennas - cfg.users_per_cell + 1)
    # adjacency is 0/1, so masking the gains leaves every product's bits as they are
    beta = topology.large_scale[:k] * topology.adjacency[:k, :, None]
    arrays = (a[None], beta[None])
    for arr in arrays:
        arr.setflags(write=False)  # shared by every call on this topology
    return arrays


def _uplink_forward(consts, pmat: np.ndarray):
    """Cluster sum of the closed-form uplink approximation for each of D drops.

    ``consts`` are ``_objective_constants`` stacked over the drops and ``pmat``
    their (D, C, N) powers. rate_in = log2(1 + a_in p_in / (b_i + 1)) with
    a_in = beta_iin (M-N+1) and b_i the interference power at BS i from its
    edge-adjacent cells. Returns the (D,) sums with b_i + 1 and a_in p_in,
    which ``_uplink_gradient`` reads.
    """
    a, beta = consts  # (D, k, N), (D, k, C, N)
    b1 = np.einsum("dilc,dlc->dil", beta, pmat).sum(axis=2) + 1.0  # (D, k)
    ap = a * pmat[:, :a.shape[1]]
    return np.log2(1.0 + ap / b1[:, :, None]).reshape(len(a), -1).sum(axis=1), b1, ap


def _uplink_gradient(consts, b1: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """Gradient of the uplink objective in the cluster cells' powers, (D, k, N),
    from ``_uplink_forward``'s b_i + 1 and a_in p_in at those powers."""
    a, beta = consts
    denom = b1[:, :, None] + ap
    # own-cell term, then the interference term: d b_i / d p_jm is the masked
    # gain beta[i,j,m] of cluster cell j
    u = (ap / (b1[:, :, None] * denom)).sum(axis=2)  # (D, k)
    return a / denom / _LN2 - np.einsum("di,dijm->djm", u, beta[:, :, :a.shape[1]]) / _LN2


def _downlink_objective(topology: CellTopology, pmat: np.ndarray) -> float:
    """Cluster sum of the closed-form downlink lower bound at (C, N) powers."""
    cfg = topology.config
    k = topology.cluster_size
    prof = closedform.downlink_profile(topology, pmat, range(k))
    rates = closedform.downlink_lower_bound(prof, cfg.bs_antennas, cfg.users_per_cell, pmat[:k])
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
    when the set's PowerAllocations agree on the downlink); ``monteCarlo``
    averages fading draws per cell. ``per_cell_powers`` may also be a sequence
    of R allocation sets: the result is then the list of their R sum rates,
    and ``monteCarlo`` rates a cell's R rows from one set of draws.
    """
    powers, single, direction = _power_rows(topology, per_cell_powers, range(topology.n_cells),
                                            None)
    if estimator == "closedForm":
        if direction == "uplink":
            consts = _objective_constants(topology)
            totals = [float(_uplink_forward(consts, p[None])[0][0]) for p in powers]
        else:
            totals = [_downlink_objective(topology, p) for p in powers]
    elif estimator == "monteCarlo":
        mc = uplink_rate_mc if direction == "uplink" else downlink_rate_mc
        totals = [0.0] * len(powers)
        for i in range(topology.cluster_size):
            for r, est in enumerate(mc(topology, powers, i, trials, derive_seed(seed, i))):
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
    # a PowerAllocation is read-only, so every cell can share one
    allocs = [PowerAllocation(np.full(n, float(initial_power)), direction)] * topology.n_cells
    history = []
    for slot in range(slots):
        group = groups[slot % len(groups)]
        # the call reads ``allocs`` before any cell of the group is replaced
        for cell, new in zip(group, strategy(topology, allocs, group, m, n, budget), strict=True):
            new.check_budget(budget)
            allocs[cell] = new
        # closedForm draws nothing, so only monteCarlo needs the slot's seed
        slot_seed = derive_seed(seed, slot) if rate_estimator == "monteCarlo" else 0
        history.append(network_sum_rate(topology, allocs, rate_estimator, trials, slot_seed))
    return NetworkState(slots, allocs, groups, history, rate_estimator)


def run_joint(
    topology: CellTopology,
    budget: float,
    max_iters: int = 500,
    tolerance: float = 1e-9,
    outer_user_power: float | None = None,
) -> JointResult:
    """Jointly optimise all cluster cells' uplink powers: ``run_joint_drops``
    on a stack of this one topology."""
    return run_joint_drops([topology], budget, max_iters, tolerance, outer_user_power)[0]


def run_joint_drops(
    topologies,
    budget: float,
    max_iters: int = 500,
    tolerance: float = 1e-9,
    outer_user_power: float | None = None,
) -> list[JointResult]:
    """Jointly optimise all cluster cells' uplink powers by projected-gradient
    ascent on the closed-form approximation objective, for each of a stack of
    topologies of one shape (one per drop).

    Each drop starts from the equal split (so its result is never worse than
    it), takes Armijo-backtracked steps projected onto each cell's budget
    simplex, and stops when its relative objective improvement drops below
    ``tolerance``. Every drop keeps its own iterate, step, iteration count and
    flag; a round rates one candidate for each drop still running, with one
    projection and one forward pass for all of them, and an accepted
    candidate's forward pass feeds that drop's next gradient. Each drop's
    result is bit for bit that of running it alone. Outer-ring users keep
    ``outer_user_power`` each (the equal split if None).
    The objective is not jointly concave; like any local method this returns a
    stationary point, flagged ``converged=False`` with one warning per drop if
    the iteration cap was reached first.
    """
    check_field("budget", budget, "positive")
    check_field("max_iters", max_iters, "count")
    # a NaN or negative tolerance is never met, so the loop would run until
    # backtracking underflows and still report convergence
    check_field("tolerance", tolerance, "nonnegative")
    tops = list(topologies)
    if not tops or len({(t.n_cells, t.n_users, t.cluster_size) for t in tops}) != 1:
        raise ValueError("topologies must be a non-empty stack of one shape "
                         "(cells, users per cell, cluster cells)")
    n, k = tops[0].n_users, tops[0].cluster_size

    pmat = np.full((len(tops), tops[0].n_cells, n), budget / n)
    if outer_user_power is not None:
        pmat[:, k:] = check_field("outer_user_power", outer_user_power, "nonnegative")
    # the stacked constants of the drops still running, re-gathered as drops finish
    consts = tuple(np.concatenate(arrs) for arrs in zip(*map(_objective_constants, tops)))

    f, b1, ap = _uplink_forward(consts, pmat)
    grad = _uplink_gradient(consts, b1, ap)
    step = np.full(len(tops), float(budget))
    it = np.ones(len(tops), dtype=np.int64)  # the iteration each drop is in
    live = np.arange(len(tops))  # the drop of each running row
    results: list = [None] * len(tops)
    while live.size:
        cand = pmat.copy()
        cand[:, :k] = project_budget_simplex(
            (pmat[:, :k] + step[:, None, None] * grad).reshape(-1, n), budget).reshape(-1, k, n)
        fc, b1, ap = _uplink_forward(consts, cand)
        rise = (grad * (cand[:, :k] - pmat[:, :k])).reshape(live.size, -1).sum(axis=1)
        accepted = (fc > f) & (fc >= f + 1e-4 * rise)
        rel = (fc - f) / np.maximum(np.abs(f), 1e-12)
        if accepted.any():
            pmat[accepted], f[accepted] = cand[accepted], fc[accepted]
            grad[accepted] = _uplink_gradient(consts, b1, ap)[accepted]
        step = np.where(accepted, step * 2.0, step * 0.5)
        # a drop stops once backtracking underflows or its improvement is small
        converged = np.where(accepted, rel < tolerance, ~(step > 1e-16 * budget))
        advance = accepted & ~converged  # on to the next iteration, unless capped
        done = converged | (advance & (it == max_iters))
        it += advance & ~done
        if done.any():
            for row in np.flatnonzero(done):
                results[live[row]] = JointResult(
                    [PowerAllocation(p, "uplink") for p in pmat[row]], float(f[row]),
                    int(it[row]), bool(converged[row]))
            keep = ~done
            live, pmat, f, grad, step, it = (x[keep] for x in (live, pmat, f, grad, step, it))
            consts = tuple(c[keep] for c in consts)
    for res in results:
        if not res.converged:
            warnings.warn(
                f"joint power optimisation hit the {max_iters}-iteration cap; "
                "returning the best iterate",
                RuntimeWarning,
            )
    return results
