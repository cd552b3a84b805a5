"""Network-level scheduling of per-cell power allocation and a joint
optimisation benchmark.

The scheduler divides the cells into non-interfering groups (reuse-3 for the
hexagonal layouts) and lets one group re-allocate per time slot against a
frozen snapshot of everyone else's powers, so after one round every cell has
optimised at least once. The joint benchmark runs nonmonotone spectral
projected-gradient ascent on all cluster cells' powers at once against the
same analytic objective, to a stationarity ``residual`` (``converged``) or an
iteration cap.
``run_scheduled_drops`` and ``run_joint_drops`` run them for a stack of
topologies of one layout (one per drop) in one loop, the scheduler with one
strategy call per slot; ``run_scheduled`` and ``run_joint`` are stacks of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import closedform
from .mcrate import _power_rows, _topology_stack, downlink_rate_mc, uplink_rate_mc
from .topology import CellTopology, check_field, derive_seed, schedule_groups

_LN2 = math.log(2.0)
_STEPS = np.arange(1.0, 65.0)  # the divisors j = 1..N of the simplex threshold
_MEMORY = 10  # accepted objectives the joint ascent's nonmonotone test compares against
_ESTIMATORS = ("closedForm", "monteCarlo")


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-user transmit powers (linear watts) for one cell: the element of a
    ``NetworkState``'s ``per_cell_powers``."""

    powers: np.ndarray
    direction: str  # "uplink" | "downlink"

    def __post_init__(self):
        p = np.asarray(self.powers)
        if p.dtype.kind in "bc":  # 0/1 flags or a dropped imaginary part are not powers
            raise ValueError(f"powers must be real, got dtype {p.dtype}")
        p = p.astype(float)  # a copy, so the caller's array cannot change it
        if p.ndim != 1 or p.size == 0:
            raise ValueError("powers must be a non-empty 1-D vector")
        # method reductions cost less than np.all/np.any on arrays this small
        if not np.isfinite(p).all() or (p < 0).any():
            raise ValueError("powers must be finite and non-negative (linear watts)")
        if self.direction not in ("uplink", "downlink"):
            raise ValueError(f"direction must be 'uplink' or 'downlink', got {self.direction!r}")
        p.setflags(write=False)
        object.__setattr__(self, "powers", p)


@dataclass(eq=False)
class NetworkState:
    """Result of a scheduled allocation run."""

    slot_index: int
    powers: np.ndarray
    groups: list
    history: list  # network sum rate after each slot, bits/s/Hz
    estimator: str
    direction: str = "uplink"

    def __post_init__(self):
        if len(self.history) != self.slot_index:
            raise ValueError("history length must equal the slot index")

    @cached_property
    def per_cell_powers(self) -> list[PowerAllocation]:
        """The read-only (C, N) ``powers`` as one PowerAllocation per cell,
        built when first read."""
        return [PowerAllocation(p, self.direction) for p in self.powers]


@dataclass(eq=False)
class JointResult:
    """A joint ascent's read-only (C, N) ``powers``, their uplink cluster sum
    rate ``objective`` and the ``iterations`` taken. ``stop`` names what ended
    it, ``converged`` unless the iteration ``"cap"``: ``"residual"`` <=
    tolerance, or a ``"floor"`` step or backtracking ``"underflow"``, where
    ``residual`` (the r of ``run_joint_drops`` at ``powers``) can exceed the
    tolerance, as at 1e-10, near this objective's float floor."""

    powers: np.ndarray
    objective: float
    iterations: int
    converged: bool
    residual: float
    stop: str


def project_budget_simplex(v: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection of each row of the (k, N) ``v`` onto
    {p >= 0, sum p = budget}.

    Sort-and-threshold (Duchi et al., ICML 2008), vectorised over rows: k
    independent projections, one row for one vector.
    """
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(f"budget must be finite and > 0, got {budget}")
    v = np.asarray(v)
    if v.ndim != 2:
        raise ValueError(f"v must be (k, N) rows, one vector per row, got shape {v.shape}")
    # array methods, not np.* wrappers: on small (k, N) rows the wrappers cost most
    if not np.isfinite(v).all():
        raise ValueError("v must have only finite entries")
    n = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    css = u.cumsum(axis=1)
    j = _STEPS[:n] if n <= _STEPS.size else np.arange(1.0, n + 1.0)
    active = u + (budget - css) / j > 0
    # rounding can make ``active`` non-monotone: rho is its last True index
    # (+1), not its first False one
    rho = n - active[:, ::-1].argmax(axis=1)
    theta = (budget - css[np.arange(v.shape[0]), rho - 1]) / rho
    out = np.maximum(v + theta[:, None], 0.0)
    found = active.any(axis=1)
    if not found.all():
        # a spread that dwarfs the budget rounds every u_j + (budget - css_j)/j
        # to <= 0. The projection does not change when a row is shifted, and
        # shifted by its maximum the row's largest entry qualifies.
        wide = v[~found]
        out[~found] = project_budget_simplex(wide - wide.max(axis=1, keepdims=True), budget)
    return out


def _objective_constants(topology: CellTopology):
    """The topology's fixed arrays of the uplink objective, as a stack of one
    drop: a = beta_iii (M-N+1) of shape (1, k, N) and the cluster BSs' gains
    zeroed outside their edge-adjacent cells (1, k, C, N), built once per
    topology and kept in its ``__dict__``, as ``functools.cached_property`` does."""
    if (arrays := vars(topology).get("_objective_constants")) is not None:
        return arrays
    cfg = topology.config
    k = topology.cluster_size
    gains = topology.large_scale_rows(k)  # the cluster BSs' rows
    a = gains[np.arange(k), np.arange(k), :] * (cfg.bs_antennas - cfg.users_per_cell + 1)
    # adjacency is 0/1, so masking the gains leaves every product's bits as they are
    beta = gains * topology.adjacency[:k, :, None]
    arrays = vars(topology)["_objective_constants"] = (a[None], beta[None])
    for arr in arrays:
        arr.setflags(write=False)  # shared by every call on this topology
    return arrays


def _stacked_constants(tops) -> tuple:
    """``_objective_constants`` of each drop of ``tops``, stacked over the drops."""
    return tuple(np.concatenate(c) for c in zip(*map(_objective_constants, tops)))


def _uplink_forward(consts, pmat: np.ndarray):
    """Cluster sum of the closed-form uplink approximation for each of D drops.

    ``consts`` are ``_objective_constants`` stacked over the drops and ``pmat``
    their (D, C, N) powers. rate_in = log2(1 + a_in p_in / (b_i + 1)) with
    a_in = beta_iin (M-N+1) and b_i the interference power at BS i from its
    edge-adjacent cells. Returns the (D,) sums with b_i + 1 and a_in p_in,
    which ``_uplink_gradient`` reads. This is the ascent's own copy of the
    approximation, with b_i as one batched matmul over (cells, users): a
    profile per candidate would cost more than the whole pass.
    """
    a, beta = consts  # (D, k, N), (D, k, C, N)
    d, k = a.shape[:2]
    b1 = (beta.reshape(d, k, -1) @ pmat.reshape(d, -1, 1))[:, :, 0] + 1.0  # (D, k)
    ap = a * pmat[:, :k]
    return np.log2(1.0 + ap / b1[:, :, None]).reshape(d, -1).sum(axis=1), b1, ap


def _uplink_gradient(consts, b1: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """Gradient of the uplink objective in the cluster cells' powers, (D, k, N),
    from ``_uplink_forward``'s b_i + 1 and a_in p_in at those powers."""
    a, beta = consts
    d, k, n = a.shape
    denom = b1[:, :, None] + ap
    # own-cell term, then the interference term: d b_i / d p_jm is the masked
    # gain beta[i,j,m] of cluster cell j, so the sum over i is one matmul
    u = (ap / (b1[:, :, None] * denom)).sum(axis=2)  # (D, k)
    interference = (u[:, None] @ beta.reshape(d, k, -1)).reshape(d, -1, n)[:, :k]
    return a / denom / _LN2 - interference / _LN2


def _downlink_objective(tops, pmat: np.ndarray) -> list[float]:
    """Cluster sum of the closed-form downlink lower bound in each of D drops
    of one layout, at their (D, C, N) powers: one profile of every (drop,
    cluster cell) row and one bound."""
    m, n, k = tops[0].config.bs_antennas, tops[0].n_users, tops[0].cluster_size
    prof = closedform.downlink_profile(tops, pmat, range(k))
    rates = closedform.downlink_lower_bound(prof, m, n, pmat[:, :k].reshape(-1, n))
    # per-cell sums added in cell order, as cell by cell
    return [sum(float(row.sum()) for row in drop) for drop in rates.reshape(len(tops), k, n)]


def network_sum_rate(
    topology: CellTopology,
    powers,
    direction: str,
    estimator: str = "closedForm",
    trials: int = 10_000,
    seed: int = 0,
) -> float:
    """Sum rate of the cluster cells under the given (C, N) powers on the
    ``direction`` link.

    ``closedForm`` uses the uplink approximation (or the downlink lower bound
    on the downlink); ``monteCarlo`` averages fading draws per cell.
    ``powers`` may also be (R, C, N) rows: the result is then the
    list of their R sum rates, and ``monteCarlo`` rates a cell's R rows from
    one set of draws.
    """
    check_field("estimator", estimator, _ESTIMATORS)
    check_field("trials", trials, "count")
    powers, single = _power_rows(topology, powers, range(topology.n_cells), direction)
    if estimator == "closedForm":
        if direction == "uplink":
            consts = _objective_constants(topology)
            totals = [float(_uplink_forward(consts, p[None])[0][0]) for p in powers]
        else:
            totals = _downlink_objective([topology] * len(powers), powers)
    else:
        mc = uplink_rate_mc if direction == "uplink" else downlink_rate_mc
        totals = [0.0] * len(powers)
        for i in range(topology.cluster_size):
            for r, est in enumerate(mc(topology, powers, i, trials, derive_seed(seed, i))):
                totals[r] += est.sum_rate
    return totals[0] if single else totals


def run_scheduled(topology: CellTopology, strategy, budget: float, initial_power: float,
                  slots: int, rate_estimator: str = "closedForm", trials: int = 10_000,
                  seed: int = 0) -> NetworkState:
    """Scheduled per-cell power allocation: ``run_scheduled_drops`` on a stack of one."""
    return run_scheduled_drops([topology], strategy, budget, initial_power, slots,
                               rate_estimator, trials, [seed])[0]


def run_scheduled_drops(topologies, strategy, budget: float, initial_power: float, slots: int,
                        rate_estimator: str = "closedForm", trials: int = 10_000,
                        seeds: list[int] | None = None) -> list[NetworkState]:
    """Run scheduled per-cell power allocation for ``slots`` time slots in each
    of a stack of topologies of one layout (one per drop).

    In slot s only the cells of group s mod G re-allocate, against the powers
    at the start of the slot (they do not interfere, so their updates commute):
    ``strategy(profile, m, n, budget)`` water-fills the (D * cells, N) rows of
    the group's profile in every drop, built for ``strategy.direction``'s link,
    as ``allocation``'s strategies do. Outer-ring cells keep their initial
    power. Drop d's sum rate is recorded after every slot at seed
    ``derive_seed(seeds[d], slot)`` (seeds default to 0). The closed-form
    history rates all drops at once: the uplink's in one forward pass, the
    downlink's from one profile of every (drop, cluster cell) row, so a
    downlink slot builds two profiles.
    """
    check_field("budget", budget, "positive")
    check_field("initial_power", initial_power, "nonnegative")
    check_field("slots", slots, "count")
    check_field("rate_estimator", rate_estimator, _ESTIMATORS)
    check_field("trials", trials, "count")
    direction = check_field("strategy.direction", getattr(strategy, "direction", None),
                            ("uplink", "downlink"))
    tops = _topology_stack(topologies)
    seeds = [0] * len(tops) if seeds is None else check_field("seeds", seeds, ["integer"])
    if len(seeds) != len(tops):
        raise ValueError(f"seeds must hold one seed per topology, got {len(seeds)}")
    d, m, n = len(tops), tops[0].config.bs_antennas, tops[0].n_users
    if initial_power * n > budget * (1.0 + 1e-9):
        raise ValueError("initial per-user power exceeds the cell budget")

    groups = schedule_groups(tops[0])  # one layout, so one grouping for every drop
    pmat = np.full((d, tops[0].n_cells, n), float(initial_power))
    closed = rate_estimator == "closedForm"
    consts = _stacked_constants(tops) if closed and direction == "uplink" else None
    history = []
    for slot in range(slots):
        group = groups[slot % len(groups)]
        # the profile reads ``pmat`` before any cell of the group is replaced;
        # the builder is looked up on closedform on each call, as the tracing
        # of benchmarks/spans.py replaces it there
        build = closedform.uplink_profile if direction == "uplink" else closedform.downlink_profile
        new = np.asarray(strategy(build(tops, pmat, group), m, n, budget))
        if new.shape != (d * len(group), n) or new.dtype.kind not in "fiu" or not (new >= 0).all():
            raise ValueError(f"the strategy must return non-negative real powers of shape "
                             f"{(d * len(group), n)}, got {new.shape} of {new.dtype}")
        if not (total := new.sum(axis=1).max()) <= budget * (1.0 + 1e-9):
            raise ValueError(f"allocation total {total} exceeds budget {budget}")
        pmat[:, group] = new.reshape(d, len(group), n)  # the rows are drop-major
        if consts is not None:
            history.append(_uplink_forward(consts, pmat)[0])
        elif closed:
            history.append(_downlink_objective(tops, pmat))
        else:
            history.append([network_sum_rate(top, p, direction, rate_estimator, trials,
                                             derive_seed(seed, slot))
                            for top, p, seed in zip(tops, pmat, seeds)])
    pmat.setflags(write=False)  # the states' powers are its rows
    return [NetworkState(slots, p, groups, h, rate_estimator, direction)
            for p, h in zip(pmat, np.array(history).T.tolist())]


def run_joint(topology: CellTopology, budget: float, max_iters: int = 500,
              tolerance: float = 1e-8, outer_user_power: float | None = None) -> JointResult:
    """Jointly optimise all cluster cells' uplink powers: ``run_joint_drops``
    on a stack of this one topology."""
    return run_joint_drops([topology], budget, max_iters, tolerance, outer_user_power)[0]


def run_joint_drops(topologies, budget: float, max_iters: int = 500, tolerance: float = 1e-8,
                    outer_user_power: float | None = None) -> list[JointResult]:
    """Jointly optimise all cluster cells' uplink powers by projected-gradient
    ascent on the closed-form approximation objective, for each of a stack of
    topologies of one layout (one per drop).

    Each drop starts from the equal split (so its result is never worse than
    it) and steps along d = P(p + alpha g) - p, P the projection onto each
    cell's budget simplex and alpha the Barzilai-Borwein step of its last
    accepted move (clipped to [1e-10, 1e10] budget), backtracking p + lam d
    by the nonmonotone Armijo test of Grippo, Lampariello and Lucidi (1986):
    f(p + lam d) >= min(last ``_MEMORY`` accepted f) + 1e-4 lam g'd, the
    spectral projected gradient of Birgin, Martinez and Raydan (2000). An
    accepted step may fall below the last one, but never below that window's
    least, so no iterate falls below the equal split. ``residual`` is the
    r = |d| / alpha * budget / |f| of the returned powers; ``stop`` names
    what ended the drop: r <= ``tolerance``, an accepted step that moves f
    by at most its float floor (1e-15 relative), backtracking underflow or
    the cap. Every drop keeps its own state; a round rates
    one candidate for each drop still running in one forward pass and
    projects the accepted drops' next directions at once, and each drop's
    result is bit for bit that of running it alone. Outer-ring users keep
    ``outer_user_power`` each (the equal split if None). The objective is
    not jointly concave; like any local method this returns a stationary
    point, flagged ``converged=False`` with one warning per drop if the
    iteration cap was reached first; such a drop returns its last accepted
    iterate.
    """
    check_field("budget", budget, "positive")
    check_field("max_iters", max_iters, "count")
    # a NaN or negative tolerance is never met, so the loop would run until
    # backtracking underflows and still report convergence
    check_field("tolerance", tolerance, "nonnegative")
    tops = _topology_stack(topologies)
    n, k = tops[0].n_users, tops[0].cluster_size

    def direction(p, g, alpha, f):
        """d = P(p + alpha g) - p of (m, k, N) cluster powers, and its r."""
        d = project_budget_simplex((p + alpha[:, None, None] * g).reshape(-1, n),
                                   budget).reshape(-1, k, n) - p
        return d, np.linalg.norm(d.reshape(len(d), -1), axis=1) / alpha * budget / np.abs(f)

    pmat = np.full((len(tops), tops[0].n_cells, n), budget / n)
    if outer_user_power is not None:
        pmat[:, k:] = check_field("outer_user_power", outer_user_power, "nonnegative")
    # the stacked constants of the drops still running, re-gathered as drops finish
    consts = _stacked_constants(tops)

    f, b1, ap = _uplink_forward(consts, pmat)
    grad = _uplink_gradient(consts, b1, ap)
    alpha = np.full(len(tops), float(budget))
    d, resid = direction(pmat[:, :k], grad, alpha, f)
    lam = np.ones(len(tops))
    it = np.ones(len(tops), dtype=np.int64)  # the iteration each drop is in
    # each drop's last _MEMORY accepted objectives, f_j written at j % _MEMORY;
    # the equal split fills the slots no accepted step has written yet
    recent = np.repeat(f[:, None], _MEMORY, axis=1)
    live = np.arange(len(tops))  # the drop of each running row
    results: list = [None] * len(tops)
    while live.size:
        cand = pmat.copy()
        cand[:, :k] += lam[:, None, None] * d  # feasible: between p and P(p + alpha g)
        fc, b1, ap = _uplink_forward(consts, cand)
        rise = 1e-4 * lam * (grad * d).reshape(live.size, -1).sum(axis=1)
        accepted = fc >= recent.min(axis=1) + rise
        floor = np.abs(fc - f) <= 1e-15 * np.abs(f)
        if (acc := np.flatnonzero(accepted)).size:
            recent[acc, it[acc] % _MEMORY] = fc[acc]
            s = cand[acc, :k] - pmat[acc, :k]
            g = _uplink_gradient(consts, b1, ap)[acc]
            # s'y and s's, y the fall of the gradient: the ascent minimises -f
            sy, ss = ((s * v).reshape(acc.size, -1).sum(axis=1) for v in (grad[acc] - g, s))
            alpha[acc] = np.clip(np.divide(ss, sy, out=np.full(acc.size, float(budget)),
                                           where=sy > 0), 1e-10 * budget, 1e10 * budget)
            pmat[acc], f[acc], grad[acc] = cand[acc], fc[acc], g
            d[acc], resid[acc] = direction(pmat[acc, :k], g, alpha[acc], f[acc])
        lam = np.where(accepted, 1.0, lam * 0.5)
        # a drop stops once backtracking underflows or it is stationary
        converged = np.where(accepted, (resid <= tolerance) | floor,
                             ~(lam * alpha > 1e-16 * budget))
        advance = accepted & ~converged  # on to the next iteration, unless capped
        done = converged | (advance & (it == max_iters))
        it += advance & ~done
        if done.any():
            pmat.setflags(write=False)  # the results' powers are its rows
            for row in np.flatnonzero(done):
                stop = ("cap" if not converged[row] else "underflow" if not accepted[row]
                        else "residual" if resid[row] <= tolerance else "floor")
                results[live[row]] = JointResult(pmat[row], float(f[row]), int(it[row]),
                                                 stop != "cap", float(resid[row]), stop)
            keep = ~done
            live, pmat, f, grad, alpha, d, resid, lam, it, recent = (
                x[keep] for x in (live, pmat, f, grad, alpha, d, resid, lam, it, recent))
            consts = tuple(c[keep] for c in consts)
    for res in results:
        if not res.converged:
            warnings.warn(
                f"joint power optimisation hit the {max_iters}-iteration cap; "
                "returning the last accepted iterate, no worse than the equal split",
                RuntimeWarning,
            )
    return results
