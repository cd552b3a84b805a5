"""Matrix-level ZF Monte Carlo: the reference the sampled estimators are tested against.

Each trial draws the full M x N fading matrices from a stream keyed by
(seed, trial index) and builds the ZF receivers and precoders with
``zf_receiver``/``zf_precoder`` below, at a cost that grows with M. The
estimators in ``mcmimo.mcrate`` sample the same per-user SINR laws without
the M x N matrices, from their scalar laws (Gammas and exponentials), which
leave out the rare channels that ``zf_receiver`` rejects.

``bartlett_factor`` draws the N x N sufficient statistic that
estimatorVersions 2-5 sampled instead of the channel; the tests keep it as a
matrix reference for those versions' estimators.
"""

from __future__ import annotations

import math

import numpy as np

from mcmimo.mcrate import RateEstimate, _ci_half_width, _power_rows

# a channel is rejected when its Gram matrix has a larger condition number,
# or when the ZF identity misses by more than the residual tolerance; a trial
# redraws a rejected channel at most RESAMPLE_CAP times in all
CONDITION_LIMIT = 1e12
ZF_RESIDUAL_TOL = 1e-9
RESAMPLE_CAP = 100

_MASK64 = (1 << 64) - 1


class IllConditionedChannelError(RuntimeError):
    """A drawn channel matrix is too ill-conditioned for ZF processing."""


def complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """i.i.d. CN(0, 1) entries: real and imaginary parts with variance 1/2."""
    x = rng.standard_normal((*shape, 2))
    x *= math.sqrt(0.5)
    return x.view(np.complex128)[..., 0]


def bartlett_factor(rng: np.random.Generator, m: int, n: int, size: int) -> np.ndarray:
    """``size`` lower-triangular N x N factors L with L L^H ~ CW_N(M, I):
    |L_ii|^2 ~ Gamma(M - i) on a real positive diagonal and CN(0, 1) below it
    (Bartlett, Goodman 1963)."""
    L = np.zeros((size, n, n), dtype=complex)
    diag = np.arange(n)
    L[:, diag, diag] = np.sqrt(rng.standard_gamma(m - diag.astype(float), size=(size, n)))
    L[:, np.tri(n, k=-1, dtype=bool)] = complex_normal(rng, (size, n * (n - 1) // 2))
    return L


def zf_receiver(G: np.ndarray) -> np.ndarray:
    """ZF receive matrix A = G (G^H G)^{-1} with A^H G = I.

    Raises IllConditionedChannelError when the Gram matrix condition number
    exceeds CONDITION_LIMIT or the achieved identity residual exceeds
    ZF_RESIDUAL_TOL; callers are expected to resample the channel.
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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial stream derived from (seed, trial)."""
    return np.random.default_rng([seed & _MASK64, trial & _MASK64])


def _draw_fading(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return math.sqrt(0.5) * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


def _estimate(rates, trials: int, confidence: float) -> RateEstimate:
    sum_x = sum_x2 = 0.0
    for rate in rates:
        sum_x = sum_x + rate
        sum_x2 = sum_x2 + rate * rate
    return RateEstimate(sum_x / trials, trials, _ci_half_width(sum_x, sum_x2, trials, confidence))


def _resampled(rng, draw, t):
    for _ in range(RESAMPLE_CAP):
        try:
            return draw(rng)
        except IllConditionedChannelError:
            continue
    raise IllConditionedChannelError(
        f"no well-conditioned channel in {RESAMPLE_CAP} redraws (trial {t})"
    )


def uplink_rate_oracle(topology, allocations, target_cell, trials, seed, confidence=0.95):
    """Per-trial matrix version of ``mcrate.uplink_rate_mc``."""
    cfg = topology.config
    m, n = cfg.bs_antennas, cfg.users_per_cell
    nbrs = topology.neighbors(target_cell)
    powers = _power_rows(topology, allocations, [target_cell, *nbrs], "uplink")[0][0]

    p_own = powers[target_cell]
    sqrt_beta_own = np.sqrt(topology.large_scale[target_cell, target_cell])
    if nbrs.size:
        sqrt_beta_x = np.sqrt(
            np.concatenate([topology.large_scale[target_cell, l] for l in nbrs])
        )
        p_x = np.concatenate([powers[l] for l in nbrs])

    def rates():
        for t in range(trials):
            rng = trial_rng(seed, t)
            A = _resampled(rng, lambda r: zf_receiver(_draw_fading(r, m, n) * sqrt_beta_own), t)
            noise = np.einsum("mn,mn->n", A.conj(), A).real
            interference = 0.0
            if nbrs.size:
                Gx = _draw_fading(rng, m, p_x.size) * sqrt_beta_x[None, :]
                interference = np.abs(A.conj().T @ Gx) ** 2 @ p_x
            yield np.log2(1.0 + p_own / (interference + noise))

    return _estimate(rates(), trials, confidence)


def downlink_rate_oracle(topology, allocations, target_cell, trials, seed, confidence=0.95):
    """Per-trial matrix version of ``mcrate.downlink_rate_mc``."""
    cfg = topology.config
    m, n = cfg.bs_antennas, cfg.users_per_cell
    nbrs = topology.neighbors(target_cell)
    powers = _power_rows(topology, allocations, [target_cell, *nbrs], "downlink")[0][0]

    beta_own = topology.large_scale[target_cell, target_cell]
    signal = (m - n) / float(np.sum(1.0 / beta_own)) * powers[target_cell]

    def rates():
        for t in range(trials):
            rng = trial_rng(seed, t)
            interference = np.zeros(n)
            for l in nbrs:
                beta_ll = topology.large_scale[l, l]
                B, _ = _resampled(
                    rng, lambda r: zf_precoder(_draw_fading(r, m, n) * np.sqrt(beta_ll), beta_ll), t
                )
                G_l0 = _draw_fading(rng, m, n) * np.sqrt(topology.large_scale[l, target_cell])
                interference += np.abs(G_l0.T @ B) ** 2 @ powers[l]
            yield np.log2(1.0 + signal / (interference + 1.0))

    return _estimate(rates(), trials, confidence)
