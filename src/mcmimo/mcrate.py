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
  diagonal) and L_ij ~ CN(0, 1) for i > j (Bartlett, Goodman 1963). With
  X_l = K_l^{-1}, K_l = D_l^{1/2} L_l, so that X_l^H X_l inverts the ZF Gram,
  neighbour l contributes
  interference_n += beta_{l,0,n} alpha_l^2 sum_c p_{lc} |[z_n^T X_l]_c|^2
  with a fresh Bartlett factor L_l per neighbour and z_n ~ CN(0, I_N) drawn
  independently for each target user: |[X^H z]_c| = |[z^H X]_c| and the
  conjugate of z has its law (as conjugates leave the law of g^T B_l).
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
  once, by forward substitution. Since cond(K K^H) <= (||K||_F ||K^{-1}||_F)^2,
  a trial whose bound is at most CONDITION_LIMIT / 4 meets the limit without
  an eigenvalue decomposition; the margin of 4 dwarfs the rounding of
  ``eigvalsh``, so the accepted set is the one the eigenvalue test alone
  gives. Only the other trials (bound above the margin, non-finite inverse,
  zero or non-finite diagonal) take the eigenvalue test.

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
power sweep (fig3, custom) share one seed per drop; version 5 inverts the
downlink's factors by forward substitution and draws the fading as z^T K^{-1},
where version 4 took LAPACK's inverse and drew K^{-H} z.
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

ESTIMATOR_VERSION = 5
BLOCK_TRIALS = 256

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


def _bartlett_factor(rng: np.random.Generator, m: int, n: int, size: int) -> np.ndarray:
    """``size`` lower-triangular N x N factors L with L L^H ~ CW_N(M, I)."""
    L = np.zeros((size, n, n), dtype=complex)
    diag = np.arange(n)
    L[:, diag, diag] = np.sqrt(rng.standard_gamma(m - diag.astype(float), size=(size, n)))
    L[:, np.tri(n, k=-1, dtype=bool)] = _complex_normal(rng, (size, n * (n - 1) // 2))
    return L


def _lower_inverse(K: np.ndarray) -> np.ndarray:
    """K^{-1} of a batch of lower-triangular K with a non-zero diagonal, by
    forward substitution: row i of X is -K[i, :i] X[:i, :i] / K_ii, then 1 / K_ii."""
    n = K.shape[-1]
    diag = np.arange(n)
    X = np.zeros_like(K)
    X[:, diag, diag] = inv_d = 1.0 / K[:, diag, diag]
    for i in range(1, n):
        X[:, i, :i] = (K[:, i:i + 1, :i] @ X[:, :i, :i])[:, 0] * -inv_d[:, i:i + 1]
    return X


def _inverse_factors(rng: np.random.Generator, m: int, sqrt_beta: np.ndarray,
                     size: int) -> np.ndarray:
    """``size`` draws of X = (D^{1/2} L)^{-1}, so (G^H G)^{-1} = X^H X for a
    channel G with large-scale gains beta = sqrt_beta**2, redrawing the trials
    whose Gram matrix fails the conditioning or residual check.

    The conditioning check is bound first: only the trials whose Frobenius
    bound does not already accept them take the eigenvalue test. The first
    draw's inverses are returned in place, redrawn trials written over them.
    """
    n = sqrt_beta.size
    X, todo = None, np.arange(size)
    for _ in range(RESAMPLE_CAP):
        K = sqrt_beta[:, None] * _bartlett_factor(rng, m, n, todo.size)
        # the substitution divides by K's diagonal: a zero or non-finite one stays out
        d = np.diagonal(K, axis1=1, axis2=2)
        regular = np.all(np.isfinite(d) & (d != 0), axis=1)
        if regular.all():
            K_inv = _lower_inverse(K)
        else:
            K_inv = np.full_like(K, np.nan)
            K_inv[regular] = _lower_inverse(K[regular])
        ok = _abs2(K).sum(axis=(1, 2)) * _abs2(K_inv).sum(axis=(1, 2)) <= CONDITION_LIMIT / 4
        if not ok.all():
            hard = ~ok
            K_hard = K[hard]
            lam = np.linalg.eigvalsh(K_hard @ K_hard.conj().swapaxes(1, 2))
            ok[hard] = (lam[:, 0] > 0) & (lam[:, -1] <= CONDITION_LIMIT * lam[:, 0])
        # a NaN residual (a trial left out above) compares False
        ok &= np.max(np.abs(K_inv @ K - np.eye(n)), axis=(1, 2)) < ZF_RESIDUAL_TOL
        if X is None:
            X = K_inv
        else:
            X[todo[ok]] = K_inv[ok]
        if ok.all():
            return X
        todo = todo[~ok]
    raise IllConditionedChannelError(
        f"{todo.size} trial(s) found no well-conditioned channel in {RESAMPLE_CAP} draws"
    )


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

    def alpha_sq(cell):  # the power normalisation of cell's ZF precoder
        return (m - n) / float(np.sum(1.0 / topology.large_scale[cell, cell]))

    signal = alpha_sq(target_cell) * np.stack([row[target_cell].powers for row in rows])
    # per neighbour l: sqrt(beta_ll), p_l of every row and the gain
    # alpha_l^2 beta_{l,0,n}
    terms = [(np.sqrt(topology.large_scale[l, l]), [row[l].powers for row in rows],
              alpha_sq(l) * topology.large_scale[l, target_cell]) for l in nbrs]

    def block_rates(rng, size):
        interference = np.zeros((len(rows), size, n))
        for sqrt_beta_ll, p_l, gain in terms:
            X = _inverse_factors(rng, m, sqrt_beta_ll, size)
            # |[X^H z_n]_c|^2 drawn as |[z_n^T X]_c|^2: conj(z_n) ~ z_n ~ CN(0, I)
            e = _abs2(_complex_normal(rng, (size, n, n)) @ X)
            interference += gain * np.stack([e @ p for p in p_l])
        return np.log2(1.0 + signal[:, None] / (interference + 1.0))

    estimates = _estimate(block_rates, trials, seed, confidence)
    return estimates[0] if single else estimates
