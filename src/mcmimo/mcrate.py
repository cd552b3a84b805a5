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
  event cond(W) > CONDITION_LIMIT on which the matrix-level receiver rejects.
* Downlink. W = L L^H ~ CW_N(M, I) has the law of H^H H when L is lower
  triangular with |L_ii|^2 ~ Gamma(M - i, 1) for i = 0..N-1 (a real positive
  diagonal) and L_ij ~ CN(0, 1) for i > j (Bartlett, Goodman 1963). Neighbour
  l contributes
  interference_n += beta_{l,0,n} alpha_l^2 sum_c (p_{lc} / beta_{ll,c}) |[L_l^{-H} z_n]_c|^2
  with a fresh Bartlett factor L_l per neighbour and z_n ~ CN(0, I_N) drawn
  independently for each target user (conjugates leave the law of g^T B_l).
* Checks. A downlink neighbour's draw is accepted only when its ZF Gram matrix
  D^{1/2} W D^{1/2} = K K^H, K = D^{1/2} L, has condition number at most
  CONDITION_LIMIT (the ratio of its extreme eigenvalues; a non-positive
  eigenvalue fails) and the computed inverse factor meets
  max |K^{-1} K - I| < ZF_RESIDUAL_TOL. These are the events on which the
  matrix-level ZF precoder of the test oracle (``tests/zf_oracle.py``)
  rejects a channel, so the sampled law is the same conditional law.
  Rejected trials are redrawn, at most RESAMPLE_CAP draws per trial in all,
  before IllConditionedChannelError is raised.
* Bound first. A block inverts every K with a finite, non-zero diagonal at
  once. Since cond(K K^H) <= (||K||_F ||K^{-1}||_F)^2, a trial whose bound is
  at most CONDITION_LIMIT / 4 meets the limit without an eigenvalue
  decomposition; the margin of 4 dwarfs the rounding of ``eigvalsh``, so the
  accepted set is the one the eigenvalue test alone gives. Only the other
  trials (bound above the margin, non-finite inverse, zero or non-finite
  diagonal) take the eigenvalue test.

Trials are drawn in fixed blocks of BLOCK_TRIALS, each from its own stream
keyed by (seed, block index). Estimates are therefore deterministic in
(seed, trials), do not depend on the order in which blocks are evaluated,
and two allocations compared at the same seed see identical draws (common
random numbers): nothing drawn depends on the powers. So one call rates R
rows of allocations from one set of draws, and each row's estimate is the
one a call with that row alone returns, bit for bit.

ESTIMATOR_VERSION names the sampling scheme and how the experiments key it.
Version 1 drew full M x N channels per trial from streams keyed by (seed,
trial index); version 2 draws Bartlett factors on both links; version 3
draws them the same way, and the power panels of a sweep point (fig2, fig8)
share one seed, hence one set of draws, where version 2 drew each panel from
its own; version 4 draws the uplink from its scalar law, and the points of a
power sweep (fig3, custom) share one seed per drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .topology import CellTopology

CONDITION_LIMIT = 1e12
ZF_RESIDUAL_TOL = 1e-9
RESAMPLE_CAP = 100

ESTIMATOR_VERSION = 4
BLOCK_TRIALS = 256
# complex entries of interferer fading drawn at once: bounds the working set
# of a block; consecutive draws from one stream concatenate, so the value
# does not change any result
_CHUNK_ENTRIES = 1 << 15

_MASK64 = (1 << 64) - 1


class IllConditionedChannelError(RuntimeError):
    """A drawn channel matrix is too ill-conditioned for ZF processing."""


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-user transmit powers (linear watts) for one cell."""

    powers: np.ndarray
    direction: str  # "uplink" | "downlink"

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("powers must be a non-empty 1-D vector")
        # method reductions cost less than np.all/np.any on arrays this small;
        # the scheduler builds one allocation per cell and slot
        if not np.isfinite(p).all() or (p < 0).any():
            raise ValueError("powers must be finite and non-negative (linear watts)")
        if self.direction not in ("uplink", "downlink"):
            raise ValueError(f"direction must be 'uplink' or 'downlink', got {self.direction!r}")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "powers", p)

    @property
    def n_users(self) -> int:
        return self.powers.size

    @property
    def total(self) -> float:
        return float(self.powers.sum())

    def check_budget(self, budget: float, rtol: float = 1e-9) -> None:
        if self.total > budget * (1.0 + rtol):
            raise ValueError(f"allocation total {self.total} exceeds budget {budget}")


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


def _check_allocations(allocations, cells, n_users: int, direction: str) -> None:
    for cell in cells:
        alloc = allocations[cell]
        if alloc is None:
            raise ValueError(f"no PowerAllocation provided for cell {cell}")
        if alloc.direction != direction:
            raise ValueError(
                f"cell {cell} allocation direction {alloc.direction!r} != {direction!r}"
            )
        if alloc.n_users != n_users:
            raise ValueError(f"cell {cell} allocation has {alloc.n_users} users, expected {n_users}")


def _allocation_rows(allocations) -> tuple[list, bool]:
    """(rows, single): ``allocations`` is either one allocation set indexed by
    cell (PowerAllocation or None entries), returned as the only row, or a
    non-empty sequence of such sets."""
    if len(allocations) == 0:
        raise ValueError("allocations must hold at least one row")
    single = all(a is None or isinstance(a, PowerAllocation) for a in allocations)
    return ([allocations] if single else list(allocations)), single


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


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """i.i.d. CN(0, 1) entries: real and imaginary parts with variance 1/2."""
    x = rng.standard_normal((*shape, 2))
    x *= math.sqrt(0.5)
    return x.view(np.complex128)[..., 0]


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real**2 + x.imag**2


def _hermitian(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def _bartlett_factor(rng: np.random.Generator, m: int, n: int, size: int) -> np.ndarray:
    """``size`` lower-triangular N x N factors L with L L^H ~ CW_N(M, I)."""
    L = np.zeros((size, n, n), dtype=complex)
    diag = np.arange(n)
    L[:, diag, diag] = np.sqrt(rng.standard_gamma(m - diag.astype(float), size=(size, n)))
    rows, cols = np.tril_indices(n, -1)
    L[:, rows, cols] = _complex_normal(rng, (size, rows.size))
    return L


def _inverse_factors(rng: np.random.Generator, m: int, sqrt_beta: np.ndarray,
                     size: int) -> np.ndarray:
    """``size`` draws of F = (D^{1/2} L)^{-H}, so (G^H G)^{-1} = F F^H for a
    channel G with large-scale gains beta = sqrt_beta**2, redrawing the trials
    whose Gram matrix fails the conditioning or residual check.

    The conditioning check is bound first: only the trials whose Frobenius
    bound does not already accept them take the eigenvalue test.
    """
    n = sqrt_beta.size
    diag = np.arange(n)
    F = np.empty((size, n, n), dtype=complex)
    todo = np.arange(size)
    for _ in range(RESAMPLE_CAP):
        K = sqrt_beta[:, None] * _bartlett_factor(rng, m, n, todo.size)
        # batched inv raises on an exactly singular matrix, and a triangular
        # K is singular only with a zero on its diagonal
        d = K[:, diag, diag]
        regular = np.all(np.isfinite(d) & (d != 0), axis=1)
        if regular.all():
            K_inv = np.linalg.inv(K)
        else:
            K_inv = np.full_like(K, np.nan)
            K_inv[regular] = np.linalg.inv(K[regular])
        ok = _abs2(K).sum(axis=(1, 2)) * _abs2(K_inv).sum(axis=(1, 2)) <= CONDITION_LIMIT / 4
        hard = ~ok
        if hard.any():
            K_hard = K[hard]
            lam = np.linalg.eigvalsh(K_hard @ _hermitian(K_hard))
            ok[hard] = (lam[:, 0] > 0) & (lam[:, -1] <= CONDITION_LIMIT * lam[:, 0])
        accepted = ok.nonzero()[0]
        resid = np.max(np.abs(K_inv[accepted] @ K[accepted] - np.eye(n)), axis=(1, 2))
        accepted = accepted[resid < ZF_RESIDUAL_TOL]
        F[todo[accepted]] = _hermitian(K_inv[accepted])
        todo = np.delete(todo, accepted)
        if todo.size == 0:
            return F
    raise IllConditionedChannelError(
        f"{todo.size} trial(s) found no well-conditioned channel in {RESAMPLE_CAP} draws"
    )


def _faded_energy(rng: np.random.Generator, F: np.ndarray, cols: int, weigh) -> np.ndarray:
    """weigh(|F Z|^2) for each trial of F, with Z ~ CN(0, I) of size N x cols;
    weigh maps a chunk of trials to its (R, chunk, N) rows."""
    size, n, _ = F.shape
    step = max(1, _CHUNK_ENTRIES // (n * cols))
    return np.concatenate([
        weigh(_abs2(F[s:s + step] @ _complex_normal(rng, (min(step, size - s), n, cols))))
        for s in range(0, size, step)
    ], axis=1)


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

    ``allocations`` is indexed by cell and must cover the target cell and all
    of its interfering (edge-adjacent) neighbours; the result is a
    RateEstimate. It may instead be a sequence of R such allocation sets: all
    R rows are rated from one set of draws and the result is the list of
    their R estimates, each equal to the estimate of its row alone. The
    expectation is over fast fading only; the topology's large-scale fading
    stays fixed.
    """
    cfg = topology.config
    m, n = cfg.bs_antennas, cfg.users_per_cell
    nbrs = topology.neighbors(target_cell)
    rows, single = _allocation_rows(allocations)
    for row in rows:
        _check_allocations(row, [target_cell, *nbrs], n, "uplink")

    beta = topology.large_scale[target_cell]  # beta[l]: cell l's users at the target BS
    # per row: the users' signal gains p_n beta_n and the received interferer
    # power weights w_k = beta_k p_k, in neighbour order
    gain = np.stack([row[target_cell].powers for row in rows]) * beta[target_cell]
    w_x = [np.concatenate([beta[l] * row[l].powers for l in nbrs])
           for row in rows] if nbrs.size else []

    def block_rates(rng, size):
        sinr = gain[:, None] * rng.standard_gamma(m - n + 1.0, size=(size, n))
        # one user's exponentials at a time bound the working set of a block
        for user in range(n if w_x else 0):
            e = rng.standard_exponential((size, w_x[0].size))
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
    enters only via the neighbouring cells' precoders, which are redrawn per
    trial from their own channels' sufficient statistics.
    """
    cfg = topology.config
    m, n = cfg.bs_antennas, cfg.users_per_cell
    nbrs = topology.neighbors(target_cell)
    rows, single = _allocation_rows(allocations)
    for row in rows:
        _check_allocations(row, [target_cell, *nbrs], n, "downlink")

    beta_own = topology.large_scale[target_cell, target_cell]
    alpha0_sq = (m - n) / float(np.sum(1.0 / beta_own))
    signal = alpha0_sq * np.stack([row[target_cell].powers for row in rows])

    # per neighbour l: sqrt(beta_ll), p_l of every row and the gain
    # alpha_l^2 beta_{l,0,n}
    terms = []
    for l in nbrs:
        beta_ll = topology.large_scale[l, l]
        alpha_sq = (m - n) / float(np.sum(1.0 / beta_ll))
        terms.append((np.sqrt(beta_ll), [row[l].powers for row in rows],
                      alpha_sq * topology.large_scale[l, target_cell]))

    def block_rates(rng, size):
        interference = np.zeros((len(rows), size, n))
        for sqrt_beta_ll, p_l, gain in terms:
            F = _inverse_factors(rng, m, sqrt_beta_ll, size)
            interference += gain * _faded_energy(rng, F, n, lambda e: np.stack([p @ e for p in p_l]))
        return np.log2(1.0 + signal[:, None] / (interference + 1.0))

    estimates = _estimate(block_rates, trials, seed, confidence)
    return estimates[0] if single else estimates
