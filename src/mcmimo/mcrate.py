"""Monte Carlo ergodic-rate estimation with ZF receivers and precoders.

Per-user uplink SINR with a ZF receiver A = G (G^H G)^{-1} at the serving BS:

    SINR_n = p_n / (sum_{l,c} p_{cl} |a_n^H g_{cl}|^2 + ||a_n||^2)

and downlink SINR with per-cell ZF precoding B_l = alpha_l G_ll^* (G_ll^T G_ll^*)^{-1}:

    SINR_n = alpha_0^2 p_n / (sum_{l,c} p_{cl} |g_{ln}^T b_{lc}|^2 + 1)

where the interference sums run over the edge-adjacent cells only and
G_il = H_il diag(beta_il)^{1/2} with H_il an M x N matrix of i.i.d. CN(0, 1)
entries.

The estimators never draw an M x N channel. They sample the sufficient
statistics of each trial exactly in distribution, at O(N^3) cost that does not
depend on M:

* Bartlett draw (Goodman 1963). W = L L^H ~ CW_N(M, I) has the law of H^H H
  when L is lower triangular with |L_ii|^2 ~ Gamma(M - i, 1) for i = 0..N-1
  (a real positive diagonal) and L_ij ~ CN(0, 1) for i > j.
* Uplink. With D = diag(beta_own) and F = D^{-1/2} L^{-H}, the Gram inverse is
  (G^H G)^{-1} = F F^H, so the noise term is ||a_n||^2 = ||F_{n,:}||^2. The
  neighbours' channels G_x are independent of A, hence
  A^H G_x =d F Z diag(beta_x)^{1/2} with Z ~ CN(0, I) of size N x (6N), and
  SINR_n = p_n / (sum_k p_k |(A^H G_x)_{nk}|^2 + ||a_n||^2).
* Downlink. Neighbour l contributes
  interference_n += beta_{l,0,n} alpha_l^2 sum_c (p_{lc} / beta_{ll,c}) |[L_l^{-H} z_n]_c|^2
  with a fresh Bartlett factor L_l per neighbour and z_n ~ CN(0, I_N) drawn
  independently for each target user (taking conjugates does not change the
  law of g^T B_l).
* Checks. A draw is accepted only when the ZF Gram matrix
  D^{1/2} W D^{1/2} = K K^H, K = D^{1/2} L, has condition number at most
  CONDITION_LIMIT (the ratio of its extreme eigenvalues; a non-positive
  eigenvalue fails) and the computed inverse factor meets
  max |K^{-1} K - I| < ZF_RESIDUAL_TOL. These are the events on which
  ``zf_receiver`` rejects a channel, so the sampled law is the same
  conditional law. Rejected trials are redrawn, at most RESAMPLE_CAP draws
  per trial in all, before IllConditionedChannelError is raised.

Trials are drawn in fixed blocks of BLOCK_TRIALS, each from its own stream
keyed by (seed, block index). Estimates are therefore deterministic in
(seed, trials), do not depend on the order in which blocks are evaluated,
and two allocations compared at the same seed see identical draws (common
random numbers): nothing drawn depends on the powers. ESTIMATOR_VERSION
names this sampling scheme; version 1 drew full M x N channels per trial
from streams keyed by (seed, trial index).
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

ESTIMATOR_VERSION = 2
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
        if not np.all(np.isfinite(p)) or np.any(p < 0):
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
    """Per-user rates in bits/s/Hz plus estimator metadata."""

    per_user_rate: np.ndarray
    trials: int
    ci_half_width: np.ndarray
    kind: str  # "monteCarlo" | "closedForm"

    def __post_init__(self):
        r = np.asarray(self.per_user_rate, dtype=float)
        h = np.asarray(self.ci_half_width, dtype=float)
        if np.any(r < 0) or np.any(h < 0):
            raise ValueError("rates and CI half-widths must be non-negative")
        r = r.copy()
        h = h.copy()
        r.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "per_user_rate", r)
        object.__setattr__(self, "ci_half_width", h)

    @classmethod
    def closed_form(cls, rates: np.ndarray) -> "RateEstimate":
        rates = np.asarray(rates, dtype=float)
        return cls(rates, 0, np.zeros_like(rates), "closedForm")

    @property
    def sum_rate(self) -> float:
        return float(self.per_user_rate.sum())

    def csv_rows(self) -> list[tuple]:
        return [
            (n, float(self.per_user_rate[n]), float(self.ci_half_width[n]), self.trials)
            for n in range(self.per_user_rate.size)
        ]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("user,rate,ciHalfWidth,trials\n")
            for row in self.csv_rows():
                fh.write(f"{row[0]},{row[1]:.12g},{row[2]:.12g},{row[3]}\n")


def zf_receiver(G: np.ndarray) -> np.ndarray:
    """ZF receive matrix A = G (G^H G)^{-1} with A^H G = I.

    Raises IllConditionedChannelError when the Gram matrix condition number
    exceeds 1e12 or the achieved identity residual exceeds 1e-9; callers are
    expected to resample the channel.
    """
    G = np.asarray(G)
    if G.ndim != 2 or G.shape[0] < G.shape[1]:
        raise ValueError("G must be M x N with M >= N")
    gram = G.conj().T @ G
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > CONDITION_LIMIT:
        raise IllConditionedChannelError("channel Gram matrix is numerically singular")
    A = np.linalg.solve(gram.conj(), G.T).T  # G @ gram^{-1}
    resid = np.max(np.abs(A.conj().T @ G - np.eye(G.shape[1])))
    if not resid < ZF_RESIDUAL_TOL:
        raise IllConditionedChannelError(f"ZF identity residual {resid:.2e} above tolerance")
    return A


def zf_precoder(G: np.ndarray, beta_self: np.ndarray) -> tuple[np.ndarray, float]:
    """ZF precoder B = alpha * G^* (G^T G^*)^{-1} and its scaling alpha.

    alpha = sqrt((M - N) / sum_n 1/beta_n) makes the long-term average of
    tr(B B^H) equal one, i.e. the precoder meets a unit transmit-power
    constraint in expectation over the fast fading.
    """
    G = np.asarray(G)
    m, n = G.shape
    if m <= n:
        raise ValueError("ZF precoding requires M > N")
    beta_self = np.asarray(beta_self, dtype=float)
    if beta_self.shape != (n,) or np.any(beta_self <= 0):
        raise ValueError("beta_self must be a length-N positive vector")
    alpha = math.sqrt((m - n) / float(np.sum(1.0 / beta_self)))
    # G^*(G^T G^*)^{-1} is the conjugate of the ZF receiver for G.
    B = alpha * zf_receiver(G).conj()
    return B, alpha


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
    """
    n = sqrt_beta.size
    F = np.empty((size, n, n), dtype=complex)
    todo = np.arange(size)
    for _ in range(RESAMPLE_CAP):
        K = sqrt_beta[:, None] * _bartlett_factor(rng, m, n, todo.size)
        lam = np.linalg.eigvalsh(K @ _hermitian(K))
        ok = (lam[:, 0] > 0) & (lam[:, -1] <= CONDITION_LIMIT * lam[:, 0])
        K_ok = K[ok]
        K_inv = np.linalg.inv(K_ok)
        good = np.max(np.abs(K_inv @ K_ok - np.eye(n)), axis=(1, 2)) < ZF_RESIDUAL_TOL
        accepted = ok.nonzero()[0][good]
        F[todo[accepted]] = _hermitian(K_inv[good])
        todo = np.delete(todo, accepted)
        if todo.size == 0:
            return F
    raise IllConditionedChannelError(
        f"{todo.size} trial(s) found no well-conditioned channel in {RESAMPLE_CAP} draws"
    )


def _faded_energy(rng: np.random.Generator, F: np.ndarray, cols: int, weigh) -> np.ndarray:
    """weigh(|F Z|^2) for each trial of F, with Z ~ CN(0, I) of size N x cols."""
    size, n, _ = F.shape
    step = max(1, _CHUNK_ENTRIES // (n * cols))
    return np.concatenate([
        weigh(_abs2(F[s:s + step] @ _complex_normal(rng, (min(step, size - s), n, cols))))
        for s in range(0, size, step)
    ])


def _estimate(block_rates, trials: int, seed: int, confidence: float) -> RateEstimate:
    """Mean per-user rate over ``trials``; block_rates(rng, size) returns the
    (size, N) rates of one block of trials drawn from rng.

    Sums are taken about the first trial's rates, which keeps the variance
    free of cancellation and exactly zero when the rates do not vary.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sum_d = sum_d2 = 0.0
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        rate = block_rates(block_rng(seed, block), min(BLOCK_TRIALS, trials - start))
        if block == 0:
            shift = rate[0]
        d = rate - shift
        sum_d = sum_d + d.sum(axis=0)
        sum_d2 = sum_d2 + (d * d).sum(axis=0)
    return RateEstimate(shift + sum_d / trials, trials,
                        _ci_half_width(sum_d, sum_d2, trials, confidence), "monteCarlo")


def uplink_rate_mc(
    topology: CellTopology,
    allocations,
    target_cell: int,
    trials: int,
    seed: int,
    confidence: float = 0.95,
) -> RateEstimate:
    """Monte Carlo ergodic uplink rates of the target cell's users.

    ``allocations`` is indexed by cell and must cover the target cell and all
    of its interfering (edge-adjacent) neighbours. The expectation is over
    fast fading only; the topology's large-scale fading stays fixed.
    """
    cfg = topology.config
    m, n = cfg.bs_antennas, cfg.users_per_cell
    nbrs = topology.neighbors(target_cell)
    _check_allocations(allocations, [target_cell, *nbrs], n, "uplink")

    p_own = allocations[target_cell].powers
    sqrt_beta_own = np.sqrt(topology.large_scale[target_cell, target_cell])
    w_x = None  # received interferer power weights beta_k p_k, in neighbour order
    if nbrs.size:
        w_x = np.concatenate(
            [topology.large_scale[target_cell, l] * allocations[l].powers for l in nbrs]
        )

    def block_rates(rng, size):
        F = _inverse_factors(rng, m, sqrt_beta_own, size)
        noise = _abs2(F).sum(axis=2)
        interference = 0.0 if w_x is None else _faded_energy(rng, F, w_x.size, lambda e: e @ w_x)
        return np.log2(1.0 + p_own / (interference + noise))

    return _estimate(block_rates, trials, seed, confidence)


def downlink_rate_mc(
    topology: CellTopology,
    allocations,
    target_cell: int,
    trials: int,
    seed: int,
    confidence: float = 0.95,
) -> RateEstimate:
    """Monte Carlo ergodic downlink rates of the target cell's users.

    The serving cell's own ZF precoding removes intracell interference and
    contributes the deterministic gain alpha_0^2; randomness enters only via
    the neighbouring cells' precoders, which are redrawn per trial from their
    own channels' sufficient statistics.
    """
    cfg = topology.config
    m, n = cfg.bs_antennas, cfg.users_per_cell
    nbrs = topology.neighbors(target_cell)
    _check_allocations(allocations, [target_cell, *nbrs], n, "downlink")

    beta_own = topology.large_scale[target_cell, target_cell]
    alpha0_sq = (m - n) / float(np.sum(1.0 / beta_own))
    signal = alpha0_sq * allocations[target_cell].powers

    # per neighbour l: sqrt(beta_ll), p_l and the gain alpha_l^2 beta_{l,0,n}
    terms = []
    for l in nbrs:
        beta_ll = topology.large_scale[l, l]
        alpha_sq = (m - n) / float(np.sum(1.0 / beta_ll))
        terms.append((np.sqrt(beta_ll), allocations[l].powers,
                      alpha_sq * topology.large_scale[l, target_cell]))

    def block_rates(rng, size):
        interference = np.zeros((size, n))
        for sqrt_beta_ll, p_l, gain in terms:
            F = _inverse_factors(rng, m, sqrt_beta_ll, size)
            interference += gain * _faded_energy(rng, F, n, lambda e: p_l @ e)
        return np.log2(1.0 + signal / (interference + 1.0))

    return _estimate(block_rates, trials, seed, confidence)
