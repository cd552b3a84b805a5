"""Matrix-level ZF Monte Carlo: the reference the sampled estimators are tested against.

Each trial draws the full M x N fading matrices from a stream keyed by
(seed, trial index) and builds the ZF receivers and precoders with
``mcrate.zf_receiver``/``mcrate.zf_precoder``, at a cost that grows with M.
The estimators in ``mcmimo.mcrate`` sample the same SINR laws from N x N
sufficient statistics instead.
"""

from __future__ import annotations

import math

import numpy as np

from mcmimo.mcrate import (
    RESAMPLE_CAP,
    IllConditionedChannelError,
    RateEstimate,
    _check_allocations,
    _ci_half_width,
    zf_precoder,
    zf_receiver,
)

_MASK64 = (1 << 64) - 1


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
    return RateEstimate(
        sum_x / trials, trials, _ci_half_width(sum_x, sum_x2, trials, confidence), "monteCarlo"
    )


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
    _check_allocations(allocations, [target_cell, *nbrs], n, "uplink")

    p_own = allocations[target_cell].powers
    sqrt_beta_own = np.sqrt(topology.large_scale[target_cell, target_cell])
    if nbrs.size:
        sqrt_beta_x = np.sqrt(
            np.concatenate([topology.large_scale[target_cell, l] for l in nbrs])
        )
        p_x = np.concatenate([allocations[l].powers for l in nbrs])

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
    _check_allocations(allocations, [target_cell, *nbrs], n, "downlink")

    beta_own = topology.large_scale[target_cell, target_cell]
    signal = (m - n) / float(np.sum(1.0 / beta_own)) * allocations[target_cell].powers

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
                interference += np.abs(G_l0.T @ B) ** 2 @ allocations[l].powers
            yield np.log2(1.0 + signal / (interference + 1.0))

    return _estimate(rates(), trials, confidence)
