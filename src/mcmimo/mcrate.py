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

Allocations. Every reader of per-cell powers takes one form, an array-like of
linear powers: one (C, N) set indexed by cell, or (R, C, N) rows of such sets.
The powers carry no link: each reader is given its own. ``_power_rows`` alone
reads them: it refuses anything but real numbers of those shapes and checks
that each cell read holds finite, non-negative powers; unread cells count as 0.

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
moves fig12's joint curve only: Barzilai-Borwein ascent to a residual stop;
version 10 too, its ascent accepting a step against the least of the last
10 accepted objectives (nonmonotone), where version 9 compared the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .topology import _MASK64, CellTopology, check_field

ESTIMATOR_VERSION = 10
BLOCK_TRIALS = 256


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


def _power_rows(topology: CellTopology, allocations, cells, direction: str):
    """(powers, single): ``allocations``, one set or R rows of ``direction``'s
    powers in the module docstring's form, as an (R, C, N) float array read in
    ``cells`` only (0 elsewhere); and whether it was one set."""
    check_field("direction", direction, ("uplink", "downlink"))
    n_cells, n = topology.n_cells, topology.n_users
    shapes = f"a ({n_cells}, {n}) set or (rows, {n_cells}, {n}) rows"
    try:
        p = np.asarray(allocations)
    except ValueError:  # numpy refuses a ragged sequence
        raise ValueError(f"{direction} powers must be {shapes}, got a ragged sequence") from None
    # np.asarray makes a bool or complex vector among float ones float, so the
    # entries of a sequence are checked one by one
    entries = [p] if p is allocations else np.asarray(allocations, dtype=object).flat
    bad = [d for d in (np.asarray(e).dtype for e in entries) if d.kind not in "iuf"]
    if bad:  # 0/1 flags, a dropped imaginary part or None are not powers
        raise ValueError(f"{direction} powers must be real numbers, got dtype {bad[0]}")
    if p.ndim not in (2, 3) or p.shape[-2:] != (n_cells, n) or p.size == 0:
        raise ValueError(f"{direction} powers must be {shapes}, got shape {p.shape}")
    rows = p.reshape(-1, n_cells, n)
    powers = np.zeros(rows.shape)
    powers[:, cells] = rows[:, cells]
    # one check of every cell, vectorised; the failing cell is looked up only on failure
    if not (powers.min() >= 0 and powers.max() < np.inf):
        r, cell = np.argwhere(~(np.isfinite(powers) & (powers >= 0)).all(axis=2))[0]
        raise ValueError(f"cell {cell} powers must be finite and non-negative (row {r})")
    return powers, p.ndim == 2


def _topology_stack(topology) -> list[CellTopology]:
    """``topology`` as a stack of one, or a sequence of drops checked to share one layout
    (antennas, users per cell, cluster cells, adjacency)."""
    tops = [topology] if isinstance(topology, CellTopology) else list(topology)
    if len({(t.config.bs_antennas, t.n_users, t.cluster_size, t.adjacency.tobytes())
            for t in tops}) != 1:  # an empty stack too
        raise ValueError("topologies must be a non-empty stack of one layout")
    return tops


def _target_cells(target_cell, n_cells: int, many: bool = True) -> np.ndarray:
    """``target_cell`` as 1-D cell indices in [0, n_cells); ``many`` admits a sequence."""
    cells = np.asarray(target_cell)
    if (cells.ndim > many or cells.size == 0 or cells.dtype.kind not in "iu"
            or not all(0 <= c < n_cells for c in cells.reshape(-1).tolist())):
        raise ValueError(f"target_cell must be a cell index in [0, {n_cells})"
                         + " or a non-empty sequence of them" * many + f", got {target_cell!r}")
    return cells.reshape(-1)


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
    return _inputs(topology, allocations, target_cell, trials, seed, direction, None)[-1]


def _inputs(topology, allocations, target_cell, trials, seed, direction, shared):
    """(powers, single, target, neighbours, gains, shared) of an estimator call:
    ``allocations`` read by ``_power_rows`` in the target cell and its
    neighbours, the leading BS rows of the gains that the call reads, and its
    M-independent draws, ``shared`` once checked to be the call's, else drawn."""
    check_field("trials", trials, "count")
    check_field("seed", seed, "integer")
    blocks = _blocks(trials)
    target = int(_target_cells(target_cell, topology.n_cells, many=False)[0])
    nbrs = topology.neighbors(target)
    powers, single = _power_rows(topology, allocations, [target, *nbrs], direction)
    n = topology.n_users
    if direction == "uplink":  # w_k = beta_k p_k at the target BS, in neighbour order
        gains = topology.large_scale_rows(target + 1)
        weights = (gains[target, nbrs] * powers[:, nbrs]).reshape(len(powers), -1)
    else:  # v_lj = p_lj / beta_ll,j of each neighbour l
        gains = topology.large_scale_rows(nbrs.max(initial=target) + 1)
        weights = powers[:, nbrs] / gains[nbrs, nbrs]
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
        return powers, single, target, nbrs, gains, shared
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
    return powers, single, target, nbrs, gains, SharedDraws(direction, seed, trials, target,
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

    ``allocations`` is one (C, N) set of powers (see the module docstring),
    read in the target cell and its interfering (edge-adjacent) neighbours;
    the result is a RateEstimate. It may instead be (R, C, N) rows of sets:
    all R rows are rated from one set of draws and the result is the list of
    their R estimates, each equal to the estimate of its row alone. The
    expectation is over fast fading only; the topology's large-scale fading
    stays fixed. ``shared`` takes this call's ``shared_draws``, made once for
    every M of a sweep; the result is the same without them.
    """
    m, n = topology.config.bs_antennas, topology.n_users
    powers, single, target, _, gains, shared = _inputs(topology, allocations, target_cell,
                                                       trials, seed, "uplink", shared)
    # per row: the users' signal gains p_n beta_n
    gain = powers[:, target] * gains[target, target]

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

    ``allocations`` is one (C, N) set or (R, C, N) rows, and
    ``shared`` this call's ``shared_draws``, as for ``uplink_rate_mc``. The
    serving cell's own ZF precoding removes intracell interference and
    contributes the deterministic gain alpha_0^2; randomness enters only via
    the neighbouring cells' precoders, whose leakage each trial draws from
    its scalar law (see the module docstring).
    """
    m, n = topology.config.bs_antennas, topology.n_users
    powers, single, target, nbrs, beta, shared = _inputs(topology, allocations, target_cell,
                                                         trials, seed, "downlink", shared)

    def alpha_sq(cells):  # the power normalisation of each cell's ZF precoder
        return (m - n) / (1.0 / beta[cells, cells]).sum(axis=-1)

    signal = alpha_sq(target) * powers[:, target]
    # per neighbour l: the target users' gains alpha_l^2 beta_{l,0,n}
    gains = alpha_sq(nbrs)[:, None] * beta[nbrs, target]

    def block_rates(block, size):
        y = block_rng(seed, block, m).standard_gamma(m - n + 1.0, size=(len(nbrs), size, n))
        interference = (gains[:, None] / y * shared.blocks[block]).sum(axis=1)
        return np.log2(1.0 + signal[:, None] / (interference + 1.0))

    estimates = _estimate(block_rates, trials, confidence)
    return estimates[0] if single else estimates
