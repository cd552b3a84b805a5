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
  follow by continuity). Per neighbour, in neighbour order, a block draws
  the (trials, users, N) exponentials and then the (trials, users) Gammas.
  As on the uplink, users within a trial are drawn independently: per-user
  and sum-rate means stay exact, but neither the joint law across users nor
  the event cond(S) > 1e12 on which the matrix-level precoder rejects is
  modelled.

Trials are drawn in fixed blocks of BLOCK_TRIALS, each from its own stream
keyed by (seed, block index). Estimates are therefore deterministic in
(seed, trials), do not depend on the order in which blocks are evaluated,
and two allocations compared at the same seed see identical draws (common
random numbers): nothing drawn depends on the powers. So one call rates R
rows of allocations from one set of draws, and each row's estimate is the
one a call with that row alone returns, bit for bit.

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
fractions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .topology import _MASK64, CellTopology

ESTIMATOR_VERSION = 7
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
            # a NaN compares False with 0, so finiteness is checked first
            if not np.all(np.isfinite(x)) or np.any(x < 0):
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


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Independent stream of trial block ``block`` derived from (seed, block)."""
    return np.random.default_rng([seed & _MASK64, block & _MASK64])


def _estimate(block_rates, trials: int, seed: int, confidence: float) -> list[RateEstimate]:
    """Mean per-user rates over ``trials``, one estimate per row;
    block_rates(rng, size) returns the (R, size, N) rates of one block of
    trials drawn from rng.

    Sums are taken about the first trial's rates, which keeps the variance
    free of cancellation and exactly zero when the rates do not vary. Each
    row is reduced on its own, so its estimate does not depend on the others.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        rates = block_rates(block_rng(seed, block), min(BLOCK_TRIALS, trials - start))
        if block == 0:
            shift = rates[:, 0]
            sum_d = [0.0] * len(rates)
            sum_d2 = [0.0] * len(rates)
        for r, rate in enumerate(rates):
            d = rate - shift[r]
            sum_d[r] = sum_d[r] + d.sum(axis=0)
            sum_d2[r] = sum_d2[r] + (d * d).sum(axis=0)
    return [RateEstimate(s + d / trials, trials, _ci_half_width(d, d2, trials, confidence))
            for s, d, d2 in zip(shift, sum_d, sum_d2)]


def uplink_rate_mc(
    topology: CellTopology,
    allocations,
    target_cell: int,
    trials: int,
    seed: int,
    confidence: float = 0.95,
):
    """Monte Carlo ergodic uplink rates of the target cell's users.

    ``allocations`` is one allocation set (see the module docstring) that
    covers the target cell and its interfering (edge-adjacent) neighbours;
    the result is a RateEstimate. It may instead be a sequence of R such sets:
    all R rows are rated from one set of draws and the result is the list of
    their R estimates, each equal to the estimate of its row alone. The
    expectation is over fast fading only; the topology's large-scale fading
    stays fixed.
    """
    m, n = topology.config.bs_antennas, topology.n_users
    (target_cell,), _ = _target_cells(target_cell, topology.n_cells, many=False)
    nbrs = topology.neighbors(target_cell)
    powers, single, _ = _power_rows(topology, allocations, [target_cell, *nbrs], "uplink")

    beta = topology.large_scale[target_cell]  # beta[l]: cell l's users at the target BS
    # per row: the users' signal gains p_n beta_n and the received interferer
    # power weights w_k = beta_k p_k, in neighbour order
    gain = powers[:, target_cell] * beta[target_cell]
    w_x = (beta[nbrs] * powers[:, nbrs]).reshape(len(powers), -1)

    def block_rates(rng, size):
        sinr = gain[:, None] * rng.standard_gamma(m - n + 1.0, size=(size, n))
        # one user's exponentials at a time bound the working set of a block
        for user in range(n if nbrs.size else 0):
            e = rng.standard_exponential((size, w_x.shape[1]))
            sinr[..., user] /= 1.0 + np.stack([e @ w for w in w_x])
        return np.log2(1.0 + sinr)

    estimates = _estimate(block_rates, trials, seed, confidence)
    return estimates[0] if single else estimates


def downlink_rate_mc(
    topology: CellTopology,
    allocations,
    target_cell: int,
    trials: int,
    seed: int,
    confidence: float = 0.95,
):
    """Monte Carlo ergodic downlink rates of the target cell's users.

    ``allocations`` is one allocation set or a sequence of R rows, as for
    ``uplink_rate_mc``. The serving cell's own ZF precoding removes intracell
    interference and contributes the deterministic gain alpha_0^2; randomness
    enters only via the neighbouring cells' precoders, whose leakage each
    trial draws from its scalar law (see the module docstring).
    """
    m, n = topology.config.bs_antennas, topology.n_users
    (target_cell,), _ = _target_cells(target_cell, topology.n_cells, many=False)
    nbrs = topology.neighbors(target_cell)
    powers, single, _ = _power_rows(topology, allocations, [target_cell, *nbrs], "downlink")

    def alpha_sq(cell):  # the power normalisation of cell's ZF precoder
        return (m - n) / float(np.sum(1.0 / topology.large_scale[cell, cell]))

    signal = alpha_sq(target_cell) * powers[:, target_cell]
    # per neighbour l: the target users' gains alpha_l^2 beta_{l,0,n} and every
    # row's leakage weights v_lj = p_lj / beta_ll,j
    terms = [(alpha_sq(l) * topology.large_scale[l, target_cell],
              powers[:, l] / topology.large_scale[l, l]) for l in nbrs]

    def block_rates(rng, size):
        interference = np.zeros((len(powers), size, n))
        for gain, v_l in terms:
            e = rng.standard_exponential((size, n, n))  # [trial, target user, j]
            y = rng.standard_gamma(m - n + 1.0, size=(size, n))
            interference += gain / y * np.stack([e @ v for v in v_l])
        return np.log2(1.0 + signal[:, None] / (interference + 1.0))

    estimates = _estimate(block_rates, trials, seed, confidence)
    return estimates[0] if single else estimates
