"""Monte Carlo ergodic-rate estimation with ZF receivers and precoders.

Per-user uplink SINR with a ZF receiver A = G (G^H G)^{-1} at the serving BS:

    SINR_n = p_n / (sum_{l,c} p_{cl} |a_n^H g_{cl}|^2 + ||a_n||^2)

and downlink SINR with per-cell ZF precoding B_l = alpha_l G_ll^* (G_ll^T G_ll^*)^{-1}:

    SINR_n = alpha_0^2 p_n / (sum_{l,c} p_{cl} |g_{ln}^T b_{lc}|^2 + 1)

where the interference sums run over the edge-adjacent cells only and
G_il = H_il diag(beta_il)^{1/2} with H_il an M x N matrix of i.i.d. CN(0, 1)
entries.

The estimators never draw an M x N channel. They sample each trial exactly in
distribution, at a cost that does not depend on M:

* Uplink. For W = H^H H ~ CW_N(M, I), ||a_n||^2 = [W^{-1}]_nn / beta_n with
  X_n = 1/[W^{-1}]_nn ~ Gamma(M - N + 1, 1), and the neighbours' channels are
  independent of A, so |a_n^H g_k|^2 = ||a_n||^2 beta_k E_nk, E_nk ~ Exp(1)
  i.i.d. over interferers k. So SINR_n = p_n beta_n X_n / (1 + sum_k w_k E_nk)
  with w_k = beta_k p_k, and a trial draws one Gamma and one exponential per
  interferer for each user. Users within a trial are drawn independently
  (the channel couples them through W): per-user and sum-rate means stay
  exact, but the joint law across users is not modelled, and neither is the
  event cond(W) > 1e12 on which the matrix-level receiver rejects.
* Downlink. Neighbour l's ZF precoder leaks a P a^H into target user n's SINR,
  scaled by alpha_l^2 beta_{l,0,n}, where P = diag(p_l) holds l's per-user
  powers, a^H ~ CN(0, S^{-1}) and S = G_ll^H G_ll ~ CW_N(M, D_l) with
  D_l = diag(beta_ll). Whitening by P^{1/2} makes it z^H S'^{-1} z with
  z ~ CN(0, I) and S' = P^{-1/2} S P^{-1/2} ~ CW_N(M, Sigma), Sigma = D_l P^{-1}.
  For every fixed unit vector u, (u^H Sigma^{-1} u) / (u^H S'^{-1} u) ~
  Gamma(M - N + 1) (Tulino and Verdu 2004), so the leakage has the law
  (sum_j v_j E_j) / Y with v_j = p_lj / beta_ll,j, E_j ~ Exp(1) i.i.d. and
  Y ~ Gamma(M - N + 1) independent of them, for every p_l >= 0 (zero powers
  follow by continuity). As on the uplink, users within a trial are drawn
  independently: per-user and sum-rate means stay exact, but neither the
  joint law across users nor the event cond(S) > 1e12 on which the
  matrix-level precoder rejects is modelled.

Trials are drawn in fixed blocks of BLOCK_TRIALS. Only the Gammas depend on
M: a block draws its exponentials from a stream keyed by (seed, block index)
and its Gamma(M - N + 1) draws from one keyed by (seed, block index, M).
``shared_draws`` makes the M-independent part once for every M of a sweep:
the uplink's 1 + sum_k w_k E_nk and, per neighbour in neighbour order, the
downlink's sum_j v_lj E_nlj. Estimates are therefore deterministic in (seed,
trials, M), do not depend on the order in which blocks are evaluated nor on
which other Ms a sweep holds, and two allocations compared at the same seed
see identical draws (common random numbers): nothing drawn depends on the
powers. So one call rates R rows of allocations from one set of draws, and
each row's estimate is the one a call with that row alone returns, bit for
bit.

Allocations. Every reader of per-cell powers takes one form: a set indexed by
cell whose entries are None, a PowerAllocation or an (N,) vector of linear
powers, or a sequence of such sets (rows). ``_power_rows`` alone makes it a
(rows, cells, N) array and checks that each cell read holds N finite,
non-negative powers, in the caller's direction; unread cells count as 0.

ESTIMATOR_VERSION names the sampling scheme and how the experiments key it.
Version 1 drew full M x N channels per trial from streams keyed by (seed,
trial index); version 2 draws Bartlett factors on both links; version 3
draws them the same way, and the power panels of a sweep point (fig2, fig8)
share one seed, hence one set of draws, where version 2 drew each panel from
its own; version 4 draws the uplink from its scalar law, and the points of a
power sweep (fig3, custom) share one seed per drop; version 5 inverts the
downlink's factors by forward substitution and draws the fading as z^T K^{-1},
where version 4 took LAPACK's inverse and drew K^{-H} z; version 6 draws the
downlink from its scalar law too, so neither link draws a matrix; version 7
keeps version 6's draws and evaluates the upper bound's E{1/(v+1)} by the
Laplace-domain integral alone, where version 6 expanded it in partial
fractions; version 8 keys the exponentials by (seed, block) and the Gammas
by (seed, block, M), and the M points of a drop (fig2, fig8) share its seed,
hence its interference draws, where version 7 drew a block's Gammas and
exponentials from one stream and each M point at its own seed; version 9
moves fig12's joint curve only: Barzilai-Borwein ascent to a residual stop.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .topology import _MASK64, CellTopology, check_field

ESTIMATOR_VERSION = 9
BLOCK_TRIALS = 256


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-user transmit powers (linear watts) for one cell."""

    powers: np.ndarray
    direction: str  # "uplink" | "downlink"

    def __post_init__(self):
        p = np.asarray(self.powers)
        if p.dtype.kind in "bc":  # 0/1 flags or a dropped imaginary part are not powers
            raise ValueError(f"powers must be real, got dtype {p.dtype}")
        p = p.astype(float)  # a copy, so the caller's array cannot change it
        if p.ndim != 1 or p.size == 0:
            raise ValueError("powers must be a non-empty 1-D vector")
        # method reductions cost less than np.all/np.any on arrays this small;
        # the scheduler builds one allocation per cell and slot
        if not np.isfinite(p).all() or (p < 0).any():
            raise ValueError("powers must be finite and non-negative (linear watts)")
        if self.direction not in ("uplink", "downlink"):
            raise ValueError(f"direction must be 'uplink' or 'downlink', got {self.direction!r}")
        p.setflags(write=False)
        object.__setattr__(self, "powers", p)


@dataclass(frozen=True, eq=False)
class RateEstimate:
    """Monte Carlo per-user rates in bits/s/Hz, with the trial count and the
    per-user confidence half-widths."""

    per_user_rate: np.ndarray
    trials: int
    ci_half_width: np.ndarray

    def __post_init__(self):
        for field in ("per_user_rate", "ci_half_width"):
            x = np.array(getattr(self, field), dtype=float)
            # a NaN compares False with 0, so finiteness is checked first; method
            # reductions cost less than np.all/np.any, once per row of every call
            if not np.isfinite(x).all() or (x < 0).any():
                raise ValueError(f"{field} must be finite and non-negative")
            x.setflags(write=False)
            object.__setattr__(self, field, x)

    @property
    def sum_rate(self) -> float:
        return float(self.per_user_rate.sum())


def _is_cell_entry(a) -> bool:
    """Whether ``a`` is a cell's entry, not a set: anything but a sequence or array of
    more than numbers (np.ndim alone takes a list of PowerAllocations for a vector).
    Complex and bool entries count, so that ``_power_rows`` refuses them by cell."""
    if isinstance(a, (list, tuple)):
        return all(isinstance(x, numbers.Number) for x in a)
    return not isinstance(a, np.ndarray) or (a.ndim <= 1 and a.dtype.kind in "biufc")


def _power_rows(topology: CellTopology, allocations, cells, direction: str | None):
    """(powers, single, direction): the (R, C, N) powers of ``allocations``,
    one set or R rows of the module docstring's form, read in ``cells`` only
    (0 elsewhere); whether it was one set; and its direction, which the
    PowerAllocations read give, and must agree on, when ``direction`` is None.
    A float (R, C, N) or (C, N) array in a given direction is copied whole."""
    if len(allocations) == 0:
        raise ValueError("allocations must hold at least one row")
    n_cells, n = topology.n_cells, topology.n_users
    whole = (direction is not None and isinstance(allocations, np.ndarray)
             and allocations.dtype.kind == "f" and allocations.ndim <= 3
             and allocations.shape[-2:] == (n_cells, n))
    single = (allocations.ndim == 2 if whole else
              all(isinstance(a, PowerAllocation) or _is_cell_entry(a) for a in allocations))
    rows = [allocations] if single else allocations
    powers = np.zeros((len(rows), n_cells, n))
    raw = whole  # a PowerAllocation's powers are checked already
    if whole:
        powers[:, cells] = allocations.reshape(powers.shape)[:, cells]
    for r, row in enumerate([] if whole else rows):
        if len(row) != n_cells:
            raise ValueError(f"an allocation set must hold {n_cells} cells, got {len(row)}")
        for cell in cells:
            a = row[cell]
            if isinstance(a, PowerAllocation):
                direction = direction or a.direction
                if a.direction != direction:
                    raise ValueError(f"cell {cell} allocation is {a.direction}, not {direction}")
                p = a.powers
            elif a is None:
                raise ValueError(f"no allocation for cell {cell}")
            else:
                p, raw = np.asarray(a), True
                if p.dtype.kind in "bc":
                    raise ValueError(f"cell {cell} powers must be real, got dtype {p.dtype}")
                p = p.astype(float, copy=False)
            if p.shape != (n,):
                raise ValueError(f"cell {cell} powers must have shape ({n},), got {p.shape}")
            powers[r, cell] = p
    if direction is None:
        raise ValueError("the allocations hold no PowerAllocation to give their direction")
    # one check of every cell, vectorised; the failing cell is looked up only on failure
    if raw and not (powers.min() >= 0 and powers.max() < np.inf):
        r, cell = np.argwhere(~(np.isfinite(powers) & (powers >= 0)).all(axis=2))[0]
        raise ValueError(f"cell {cell} powers must be finite and non-negative (row {r})")
    return powers, single, direction


def _topology_stack(topology) -> tuple[list[CellTopology], bool]:
    """``topology`` as a stack of one, or a sequence of drops checked to share one layout
    (antennas, users per cell, cluster cells, adjacency); and whether it was one."""
    tops = [topology] if isinstance(topology, CellTopology) else list(topology)
    if len({(t.config.bs_antennas, t.n_users, t.cluster_size, t.adjacency.tobytes())
            for t in tops}) != 1:  # an empty stack too
        raise ValueError("topologies must be a non-empty stack of one layout")
    return tops, isinstance(topology, CellTopology)


def _target_cells(target_cell, n_cells: int, many: bool = True) -> tuple[np.ndarray, bool]:
    """``target_cell`` as 1-D cell indices in [0, n_cells), and whether it was
    one index; ``many`` admits a sequence."""
    cells = np.asarray(target_cell)
    if (cells.ndim > many or cells.size == 0 or cells.dtype.kind not in "iu"
            or not all(0 <= c < n_cells for c in cells.reshape(-1).tolist())):
        raise ValueError(f"target_cell must be a cell index in [0, {n_cells})"
                         + " or a non-empty sequence of them" * many + f", got {target_cell!r}")
    return cells.reshape(-1), cells.ndim == 0


def _ci_half_width(sum_x, sum_x2, trials: int, confidence: float) -> np.ndarray:
    mean = sum_x / trials
    if trials < 2:
        return np.zeros_like(mean)
    var = np.maximum(sum_x2 - trials * mean**2, 0.0) / (trials - 1)
    z = NormalDist().inv_cdf(0.5 + 0.5 * confidence)
    return z * np.sqrt(var / trials)


def block_rng(seed: int, block: int, *keys: int) -> np.random.Generator:
    """Independent stream of trial block ``block`` derived from (seed, block, *keys)."""
    return np.random.default_rng([seed & _MASK64, block & _MASK64, *(k & _MASK64 for k in keys)])


def _blocks(trials: int) -> list[tuple[int, int]]:
    """(index, size) of each trial block: BLOCK_TRIALS trials, the last the remainder."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [(block, min(BLOCK_TRIALS, trials - start))
            for block, start in enumerate(range(0, trials, BLOCK_TRIALS))]


def _estimate(block_rates, trials: int, confidence: float) -> list[RateEstimate]:
    """Mean per-user rates over ``trials``, one estimate per row;
    block_rates(block, size) returns the (R, size, N) rates of trial block
    ``block``, which holds ``size`` trials.

    Sums are taken about the first trial's rates, which keeps the variance
    free of cancellation and exactly zero when the rates do not vary. Each
    row's sums run over trials in order, element by element, so its estimate
    does not depend on the others.
    """
    sum_d = sum_d2 = 0.0
    for block, size in _blocks(trials):
        rates = block_rates(block, size)
        if block == 0:
            shift = rates[:, :1]
        d = rates - shift
        sum_d = sum_d + d.sum(axis=1)
        sum_d2 = sum_d2 + (d * d).sum(axis=1)
    means = shift[:, 0] + sum_d / trials
    return [RateEstimate(mean, trials, ci) for mean, ci in
            zip(means, _ci_half_width(sum_d, sum_d2, trials, confidence))]


@dataclass(frozen=True, eq=False)
class SharedDraws:
    """The M-independent draws of an estimator call (see the module docstring),
    made by ``shared_draws`` for the call's link, seed, trials, target cell
    and interferer ``weights`` (w_k per row on the uplink, v_lj on the
    downlink); ``blocks`` holds them per trial block, (R, size, N) on the
    uplink and (R, L, size, N) on the downlink."""

    direction: str
    seed: int
    trials: int
    target_cell: int
    weights: np.ndarray
    blocks: list


def shared_draws(topology: CellTopology, allocations, target_cell: int, trials: int,
                 seed: int, direction: str) -> SharedDraws:
    """The draws of ``direction``'s estimator that do not depend on M, for
    these arguments. An M sweep passes them as ``shared`` to its call at
    each M, which then draws only its Gammas; ``topology`` may be the drop
    at any M."""
    check_field("direction", direction, ("uplink", "downlink"))
    return _inputs(topology, allocations, target_cell, trials, seed, direction, None)[-1]


def _inputs(topology, allocations, target_cell, trials, seed, direction, shared):
    """(powers, single, target, neighbours, shared) of an estimator call:
    ``allocations`` read by ``_power_rows`` in the target cell and its
    neighbours, and the call's M-independent draws, ``shared`` once checked to
    be the call's, else drawn."""
    blocks = _blocks(trials)
    target = int(_target_cells(target_cell, topology.n_cells, many=False)[0][0])
    nbrs = topology.neighbors(target)
    powers, single, _ = _power_rows(topology, allocations, [target, *nbrs], direction)
    n = topology.n_users
    if direction == "uplink":  # w_k = beta_k p_k at the target BS, in neighbour order
        weights = (topology.large_scale[target, nbrs] * powers[:, nbrs]).reshape(len(powers), -1)
    else:  # v_lj = p_lj / beta_ll,j of each neighbour l
        weights = powers[:, nbrs] / topology.large_scale[nbrs, nbrs]
    if shared is not None:
        if shared.direction != direction:
            raise ValueError(f"shared draws are the {shared.direction}'s, not the {direction}'s")
        for name, value in (("seed", seed), ("trials", trials), ("target_cell", target)):
            if getattr(shared, name) != value:
                raise ValueError(f"shared draws were made for {name} "
                                 f"{getattr(shared, name)!r}, not {value!r}")
        if not np.array_equal(shared.weights, weights):
            raise ValueError("shared draws were made for other interferer rows "
                             "than these allocations hold")
        return powers, single, target, nbrs, shared
    sums = []
    for block, size in blocks:
        rng = block_rng(seed, block)
        if direction == "uplink":  # one matrix-vector product per row and block
            e = rng.standard_exponential((size * n, weights.shape[1]))  # [trial x user, k]
            sums.append(1.0 + np.stack([e @ w for w in weights]).reshape(len(weights), size, n))
        else:
            e = rng.standard_exponential((len(nbrs), size * n, n))  # [l, trial x user, j]
            sums.append(np.stack([e @ v[:, :, None] for v in weights]).reshape(
                len(weights), len(nbrs), size, n))
    for a in (weights, *sums):
        a.setflags(write=False)  # read by every M of a sweep
    return powers, single, target, nbrs, SharedDraws(direction, seed, trials, target,
                                                     weights, sums)


def uplink_rate_mc(
    topology: CellTopology,
    allocations,
    target_cell: int,
    trials: int,
    seed: int,
    confidence: float = 0.95,
    shared: SharedDraws | None = None,
):
    """Monte Carlo ergodic uplink rates of the target cell's users.

    ``allocations`` is one allocation set (see the module docstring) that
    covers the target cell and its interfering (edge-adjacent) neighbours;
    the result is a RateEstimate. It may instead be a sequence of R such sets:
    all R rows are rated from one set of draws and the result is the list of
    their R estimates, each equal to the estimate of its row alone. The
    expectation is over fast fading only; the topology's large-scale fading
    stays fixed. ``shared`` takes this call's ``shared_draws``, made once for
    every M of a sweep; the result is the same without them.
    """
    m, n = topology.config.bs_antennas, topology.n_users
    powers, single, target, _, shared = _inputs(topology, allocations, target_cell, trials, seed,
                                                "uplink", shared)
    # per row: the users' signal gains p_n beta_n
    gain = powers[:, target] * topology.large_scale[target, target]

    def block_rates(block, size):
        x = block_rng(seed, block, m).standard_gamma(m - n + 1.0, size=(size, n))
        return np.log2(1.0 + gain[:, None] * x / shared.blocks[block])

    estimates = _estimate(block_rates, trials, confidence)
    return estimates[0] if single else estimates


def downlink_rate_mc(
    topology: CellTopology,
    allocations,
    target_cell: int,
    trials: int,
    seed: int,
    confidence: float = 0.95,
    shared: SharedDraws | None = None,
):
    """Monte Carlo ergodic downlink rates of the target cell's users.

    ``allocations`` is one allocation set or a sequence of R rows, and
    ``shared`` this call's ``shared_draws``, as for ``uplink_rate_mc``. The
    serving cell's own ZF precoding removes intracell interference and
    contributes the deterministic gain alpha_0^2; randomness enters only via
    the neighbouring cells' precoders, whose leakage each trial draws from
    its scalar law (see the module docstring).
    """
    m, n = topology.config.bs_antennas, topology.n_users
    powers, single, target, nbrs, shared = _inputs(topology, allocations, target_cell, trials,
                                                   seed, "downlink", shared)

    def alpha_sq(cells):  # the power normalisation of each cell's ZF precoder
        return (m - n) / (1.0 / topology.large_scale[cells, cells]).sum(axis=-1)

    signal = alpha_sq(target) * powers[:, target]
    # per neighbour l: the target users' gains alpha_l^2 beta_{l,0,n}
    gains = alpha_sq(nbrs)[:, None] * topology.large_scale[nbrs, target]

    def block_rates(block, size):
        y = block_rng(seed, block, m).standard_gamma(m - n + 1.0, size=(len(nbrs), size, n))
        interference = (gains[:, None] / y * shared.blocks[block]).sum(axis=1)
        return np.log2(1.0 + signal[:, None] / (interference + 1.0))

    estimates = _estimate(block_rates, trials, confidence)
    return estimates[0] if single else estimates
