"""Reference user placement: the cell-by-cell rejection loop, one cell at a time.

``topology.build_topology_drops`` places the users of all cells of all its
drops in one array pass over the first rounds of each drop's placement
stream. This module keeps the plain form it must reproduce bit for bit:
each cell in turn draws rounds of m = max(2 (N - placed), 8) x values then
m y values with ``Generator.uniform`` and keeps the first N points inside
its hexagon and outside its exclusion disk.
"""

from __future__ import annotations

import numpy as np

from mcmimo.topology import (
    _MASK64,
    _SQRT3,
    NetworkConfig,
    _in_hexagon,
    _layout,
    sample_shadowing,
)


def sample_users_in_cell(rng: np.random.Generator, cfg: NetworkConfig, n: int) -> np.ndarray:
    """Uniform points in the hexagon minus the central exclusion disk."""
    R = cfg.cell_radius
    rh2 = cfg.exclusion_radius**2
    out = np.empty((n, 2))
    got = 0
    while got < n:
        m = max(2 * (n - got), 8)
        x = rng.uniform(-R, R, m)
        y = rng.uniform(-0.5 * _SQRT3 * R, 0.5 * _SQRT3 * R, m)
        ok = _in_hexagon(x, y, R) & (x * x + y * y >= rh2)
        take = min(int(ok.sum()), n - got)
        idx = np.flatnonzero(ok)[:take]
        out[got : got + take, 0] = x[idx]
        out[got : got + take, 1] = y[idx]
        got += take
    return out


def reference_topology(cfg: NetworkConfig) -> tuple[np.ndarray, np.ndarray]:
    """(user positions (C, N, 2), large-scale gains (C, C, N)) of ``cfg``, its
    users placed cell by cell from the seed's first spawned stream and its
    shadowing drawn from the second."""
    _, bs, _ = _layout(cfg.cell_count, cfg.outer_ring_cells, cfg.cell_radius)
    place_ss, shadow_ss = np.random.SeedSequence(cfg.seed & _MASK64).spawn(2)
    place_rng = np.random.default_rng(place_ss)
    n_cells, n = len(bs), cfg.users_per_cell
    users = np.empty((n_cells, n, 2))
    for cell in range(n_cells):
        users[cell] = bs[cell] + sample_users_in_cell(place_rng, cfg, n)
    shadows = sample_shadowing(np.random.default_rng(shadow_ss), cfg, (n_cells, n_cells, n))
    diff = users[None, :, :, :] - bs[:, None, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return users, shadows / (dist / cfg.exclusion_radius) ** cfg.path_loss_exponent
