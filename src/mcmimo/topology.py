"""Hexagonal multicell geometry: cell layout, user drops, large-scale fading.

Distances are in meters and gains are linear power ratios. Noise power is
normalised to one everywhere, so linear transmit powers double as SNRs.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

_SQRT3 = math.sqrt(3.0)
_MASK64 = (1 << 64) - 1

# Supported hexagonal-disk layouts: cell count -> disk radius in rings.
_LAYOUT_RADIUS = {1: 0, 7: 1, 19: 2}

# JSON documents use these exact key names; anything else is rejected.
# JSON key -> (attribute, kind of value; see check_field)
_JSON_FIELDS = {
    "cellRadius": ("cell_radius", "number"),
    "exclusionRadius": ("exclusion_radius", "number"),
    "shadowStdDb": ("shadow_std_db", "number"),
    "pathLossExponent": ("path_loss_exponent", "number"),
    "cellCount": ("cell_count", "integer"),
    "usersPerCell": ("users_per_cell", "integer"),
    "bsAntennas": ("bs_antennas", "integer"),
    "seed": ("seed", "integer"),
    "outerRingCells": ("outer_ring_cells", "integer"),
}

# what each named kind of check_field accepts
_KIND_NAMES = {
    "integer": "an integer",
    "count": "an integer >= 1",
    "integral": "an integral number",
    "size": "an integral number >= 1",
    "number": "a finite number",
    "nonnegative": "a finite number >= 0",
    "positive": "a finite number > 0",
    "fraction": "a number in (0, 1)",
    "bool": "true or false",
    "string": "a non-empty string",
    "text": "a string",
    "object": "a JSON object",
}
_TYPE_KINDS = {"bool": bool, "string": str, "text": str, "object": dict}


def _describe(kind) -> str:
    if isinstance(kind, list):
        distinct = "distinct " if isinstance(kind[0], tuple) else ""
        return f"a non-empty list of {distinct}values, each {_describe(kind[0])}"
    return f"one of {kind}" if isinstance(kind, tuple) else _KIND_NAMES[kind]


def _fits(value, kind) -> bool:
    if isinstance(kind, list):
        return (isinstance(value, (list, tuple)) and len(value) > 0
                and all(_fits(v, kind[0]) for v in value)
                and (not isinstance(kind[0], tuple) or len(set(value)) == len(value)))
    if isinstance(kind, tuple):
        return value in kind
    if kind in _TYPE_KINDS:
        return isinstance(value, _TYPE_KINDS[kind]) and (value != "" or kind == "text")
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    whole = isinstance(value, (int, np.integer))
    if kind in ("integer", "count"):
        return whole and (kind == "integer" or value >= 1)
    # NaN slips through every ordered check, so finiteness comes first
    if not (whole or math.isfinite(value)):
        return False
    integral = whole or float(value).is_integer()
    return {"integral": integral, "size": integral and value >= 1, "number": True,
            "nonnegative": value >= 0, "positive": value > 0, "fraction": 0 < value < 1}[kind]


def check_field(name: str, value, kind):
    """``value`` itself if it is of ``kind``, else a ValueError naming ``name``.

    A kind is one of the names in ``_KIND_NAMES`` (numbers exclude bools), a
    tuple of the accepted values, or a one-element list ``[item]``: a
    non-empty list of such items, distinct when the item is a tuple.
    """
    if not _fits(value, kind):
        raise ValueError(f"{name} must be {_describe(kind)}, got {value!r}")
    return value


def check_seed(name: str, value):
    """``value`` itself if it is an integer in [0, 2**64), else a ValueError
    naming ``name``: a seed outside that range would alias one inside it, as
    the streams take seeds modulo 2**64."""
    if not 0 <= check_field(name, value, "integer") <= _MASK64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return value


@dataclass(frozen=True)
class NetworkConfig:
    """Static parameters of one multicell deployment.

    ``users_per_cell`` (N) and ``bs_antennas`` (M) are mandatory; the
    remaining fields default to the standard macro-cell setup: 1000 m cells,
    100 m exclusion disk around each BS, 8 dB log-normal shadowing and a 3.8
    path-loss exponent. ``outer_ring_cells`` adds that many fixed-power cells
    on the next hexagon ring; they interfere but are never optimised.
    """

    users_per_cell: int
    bs_antennas: int
    seed: int = 0
    cell_radius: float = 1000.0
    exclusion_radius: float = 100.0
    shadow_std_db: float = 8.0
    path_loss_exponent: float = 3.8
    cell_count: int = 19
    outer_ring_cells: int = 0

    def __post_init__(self):
        # every dataclasses.replace of a config runs these checks, so a plain
        # int, or a finite plain float where a number is due, skips the checker
        for key, (name, kind) in _JSON_FIELDS.items():
            value = getattr(self, name)
            if type(value) is not int and not (
                    kind == "number" and type(value) is float and math.isfinite(value)):
                check_field(key, value, kind)
                if kind == "integer":  # a numpy integer would not serialise
                    object.__setattr__(self, name, int(value))
        check_seed("seed", self.seed)
        if self.users_per_cell < 1:
            raise ValueError("usersPerCell must be a positive integer")
        if self.bs_antennas < self.users_per_cell + 1:
            raise ValueError(
                f"bsAntennas must be at least usersPerCell+1 for ZF processing "
                f"(got M={self.bs_antennas}, N={self.users_per_cell})"
            )
        if self.cell_count not in _LAYOUT_RADIUS:
            raise ValueError(
                f"cellCount must be one of {sorted(_LAYOUT_RADIUS)} "
                f"(hexagonal disk layouts), got {self.cell_count}"
            )
        if not (0.0 < self.exclusion_radius < self.cell_radius):
            raise ValueError("exclusionRadius must satisfy 0 < r_h < cellRadius")
        if self.shadow_std_db < 0.0:
            raise ValueError("shadowStdDb must be >= 0")
        if self.path_loss_exponent < 0.0:
            raise ValueError("pathLossExponent must be >= 0")
        ring = 6 * (_LAYOUT_RADIUS[self.cell_count] + 1)
        if not (0 <= self.outer_ring_cells <= ring):
            raise ValueError(
                f"outerRingCells must be in [0, {ring}] for a {self.cell_count}-cell layout"
            )

    @classmethod
    def from_json(cls, data: dict) -> "NetworkConfig":
        """Load a config from its JSON object.

        Keys must match the documented names exactly; unknown keys are errors.
        """
        unknown = sorted(set(check_field("network", data, "object")) - set(_JSON_FIELDS))
        if unknown:
            raise ValueError(f"unknown network config keys: {unknown}")
        kwargs = {_JSON_FIELDS[k][0]: v for k, v in data.items()}
        try:
            return cls(**kwargs)
        except TypeError as exc:  # missing required field
            raise ValueError(f"invalid network config: {exc}") from exc

    def to_json(self) -> dict:
        return {key: getattr(self, name) for key, (name, _) in _JSON_FIELDS.items()}


def _axial_disk(radius: int) -> list[tuple[int, int]]:
    """Axial coordinates of a hexagonal disk, ordered centre-out then (q, r)."""
    cells = []
    for q in range(-radius, radius + 1):
        for r in range(-radius, radius + 1):
            if max(abs(q), abs(r), abs(q + r)) <= radius:
                cells.append((q, r))
    cells.sort(key=lambda c: (max(abs(c[0]), abs(c[1]), abs(c[0] + c[1])), c[0], c[1]))
    return cells


def _axial_ring(radius: int) -> list[tuple[int, int]]:
    return [c for c in _axial_disk(radius) if max(abs(c[0]), abs(c[1]), abs(c[0] + c[1])) == radius]


def _axial_to_xy(axial: np.ndarray, cell_radius: float) -> np.ndarray:
    # Flat-top hexagons with circumradius cell_radius; neighbours sit at
    # distance sqrt(3)*cell_radius, i.e. cells share an edge.
    q = axial[:, 0].astype(float)
    r = axial[:, 1].astype(float)
    return np.column_stack((1.5 * cell_radius * q, _SQRT3 * cell_radius * (r + 0.5 * q)))


@functools.lru_cache(maxsize=None)
def _layout(cell_count: int, outer_ring_cells: int, cell_radius: float):
    """Read-only (axial coordinates, BS positions, adjacency) of a layout:
    the hexagonal disk, then the first ``outer_ring_cells`` of the next ring."""
    radius = _LAYOUT_RADIUS[cell_count]
    axial = np.asarray(_axial_disk(radius) + _axial_ring(radius + 1)[:outer_ring_cells],
                       dtype=int)
    bs = _axial_to_xy(axial, cell_radius)
    adj = _hex_distance(axial[:, None, :], axial[None, :, :]) == 1
    for arr in (axial, bs, adj):
        arr.setflags(write=False)
    return axial, bs, adj


def _hex_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dq = a[..., 0] - b[..., 0]
    dr = a[..., 1] - b[..., 1]
    return (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2


def _in_hexagon(x: np.ndarray, y: np.ndarray, circumradius: float) -> np.ndarray:
    """Point-in-flat-top-hexagon test (boundary counts as inside)."""
    r = circumradius
    return (
        (np.abs(y) <= 0.5 * _SQRT3 * r)
        & (np.abs(y + _SQRT3 * x) <= _SQRT3 * r)
        & (np.abs(y - _SQRT3 * x) <= _SQRT3 * r)
    )


class _GainRows:
    """A stack of drops' large-scale gains, (D, C, C, N), filled BS row by BS
    row on first read by ``fill(out, a, b)``, which writes rows [a, b) of every
    drop into ``out``; with no ``fill``, every row given. One lock serialises
    the fills, and ``filled`` only grows."""

    def __init__(self, buffer: np.ndarray, fill=None):
        self.buffer, self.fill, self.filled = buffer, fill, 0 if fill else buffer.shape[1]
        view = buffer.view()
        view.setflags(write=False)
        self.views, self.lock = list(view), threading.Lock()  # readers get a drop's view

    def leading(self, drop: int, rows: int) -> np.ndarray:
        if rows > self.filled:
            with self.lock:
                if rows > (a := self.filled):
                    self.fill(self.buffer[:, a:rows], a, rows)
                    self.filled = rows
        view = self.views[drop]
        return view if rows == len(view) else view[:rows]


@dataclass(frozen=True, eq=False)
class CellTopology:
    """One realisation of the network geometry and its large-scale fading.

    ``large_scale[i, l, c]`` is the linear power gain from user c of cell l to
    BS i. The first ``cluster_size`` cells are the optimisable cluster; any
    further cells are the fixed-power outer ring. ``gain_rows`` is a hand-built
    (C, C, N) array (a stack of one) or the stack of ``build_topology_drops``,
    whose drop ``drop`` this is: a first read of BS rows through any drop of a
    stack fills them for every drop, once, read-only and idempotently, so
    topologies can be shared across threads.
    """

    config: NetworkConfig
    axial: np.ndarray          # (C, 2) int axial coordinates
    bs_positions: np.ndarray   # (C, 2) metres
    user_positions: np.ndarray  # (C, N, 2) metres
    gain_rows: _GainRows       # the stack's (D, C, C, N) large-scale gains by BS row
    adjacency: np.ndarray      # (C, C) bool, True iff cells share an edge
    cluster_size: int
    drop: int = 0              # this drop's index in the stack of ``gain_rows``

    def __post_init__(self):
        if isinstance(self.gain_rows, np.ndarray):
            object.__setattr__(self, "gain_rows", _GainRows(self.gain_rows[None]))
            object.__setattr__(self, "drop", 0)

    @property
    def large_scale(self) -> np.ndarray:
        return self.gain_rows.leading(self.drop, self.n_cells)

    def large_scale_rows(self, rows) -> np.ndarray:
        """``large_scale[:rows]``, computing only the first ``rows`` BSs' gains.
        Cells run centre-out, so cell 0 and its ring are rows [0, 7)."""
        if not (_fits(rows, "count") and rows <= self.n_cells):
            raise ValueError(f"rows must be an integer in [1, {self.n_cells}], got {rows!r}")
        return self.gain_rows.leading(self.drop, int(rows))

    @property
    def n_cells(self) -> int:
        return self.bs_positions.shape[0]

    @property
    def n_users(self) -> int:
        return self.user_positions.shape[1]

    def neighbors(self, cell: int) -> np.ndarray:
        """Indices of the cells that interfere with ``cell`` (edge-sharing)."""
        return np.flatnonzero(self.adjacency[cell])

    def user_distances(self, cell: int) -> np.ndarray:
        """Distance of each of ``cell``'s users to its own BS, in metres."""
        d = self.user_positions[cell] - self.bs_positions[cell]
        return np.hypot(d[:, 0], d[:, 1])

    def with_antennas(self, bs_antennas: int) -> "CellTopology":
        """Same geometry and fading with a different BS array size.

        Large-scale gains do not depend on M, so antenna sweeps reuse one drop,
        whose gain rows, once filled through any copy, serve every copy.
        """
        return replace(self, config=replace(self.config, bs_antennas=bs_antennas))


def sample_shadowing(rng: np.random.Generator, cfg: NetworkConfig, size) -> np.ndarray:
    """Linear log-normal shadow gains: 10^(sigma_dB * g / 10), g ~ N(0, 1)."""
    return 10.0 ** (cfg.shadow_std_db * rng.standard_normal(size) / 10.0)


def _place_users(rngs, cfg: NetworkConfig, n_cells: int) -> np.ndarray:
    """(D, C, N, 2) uniform points in each cell's hexagon minus its exclusion disk,
    relative to the cell's BS, in the drop of each of the D Generators.

    Cell after cell, each rejection-samples in rounds of m = max(2 (N - placed), 8)
    x values, then m y values, from its drop's one stream of doubles:
    ``uniform(lo, hi, m)`` is ``lo + (hi - lo) * random(m)`` bit for bit. One
    array pass over the stack places every drop's cells before its first short
    one (placing fewer than N in its first round); that cell goes on round by
    round, then a pass over the drop's later cells, and so on.
    """
    R, n = cfg.cell_radius, cfg.users_per_cell
    half, m0 = 0.5 * _SQRT3 * R, max(2 * n, 8)
    out, block = np.empty((len(rngs), n_cells, n, 2)), np.empty((len(rngs), n_cells, 2, m0))
    for rng, first in zip(rngs, block):  # each drop's first round of every cell
        rng.random(out=first)
    streams = [first.ravel() for first in block]

    def doubles(d: int, pos: int, count: int) -> np.ndarray:
        if streams[d].size < pos + count:  # nothing else reads the stream: draw ahead
            streams[d] = np.concatenate([streams[d], rngs[d].random(pos + count)])
        return streams[d][pos:pos + count]

    def rounds(u):  # x, y and acceptance of the rounds u[..., 2, m]
        x, y = -R + (R - -R) * u[..., 0, :], -half + (half - -half) * u[..., 1, :]
        return x, y, _in_hexagon(x, y, R) & (x * x + y * y >= cfg.exclusion_radius**2)

    def first_rounds(dst: np.ndarray, u: np.ndarray) -> np.ndarray:
        # places dst's (D', K) cells before each drop's first short one; returns how many
        x, y, ok = rounds(u)
        lead = np.logical_and.accumulate(ok.sum(axis=-1) >= n, axis=-1)
        take = ok & lead[..., None] & (ok.cumsum(axis=-1) <= n)  # each cell's first N
        dst[lead] = np.stack((x[take], y[take]), -1).reshape(-1, n, 2)
        return lead.sum(axis=-1)

    for d, cell in enumerate(first_rounds(out, block).tolist()):
        pos = 2 * m0 * cell
        while cell < n_cells:
            got = 0
            while got < n:  # the short cell, from its first round on
                m = max(2 * (n - got), 8)
                x, y, ok = rounds(doubles(d, pos, 2 * m).reshape(2, m))
                keep = np.flatnonzero(ok)[:n - got]
                out[d, cell, got:got + keep.size] = np.column_stack((x[keep], y[keep]))
                got, pos = got + keep.size, pos + 2 * m
            k = n_cells - cell - 1
            done = int(first_rounds(out[d:d + 1, cell + 1:],
                                    doubles(d, pos, 2 * m0 * k).reshape(1, k, 2, m0))[0])
            cell, pos = cell + 1 + done, pos + 2 * m0 * done
    return out


def derive_seed(root: int, *parts: int) -> int:
    """Deterministic child seed for a (purpose, indices...) tuple."""
    entropy = [root & _MASK64] + [int(p) & _MASK64 for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def build_topology_drops(cfg: NetworkConfig, seeds) -> list[CellTopology]:
    """One drop per seed of ``seeds``, ``cfg`` with that seed, built as one stack.

    Each drop's seed is split into independent sub-streams for user placement
    and shadowing, so enabling or disabling one consumer never perturbs the
    other. Users are placed in one array pass over the stack (``_place_users``).
    Gains are computed per BS row on first read through any drop
    (``CellTopology.large_scale_rows``), for every drop: rows [a, b) take one
    path-loss expression over the stack and each drop's rows [a, b) of a fresh
    (b, C, N) shadow draw, the whole-array gains' prefix bit for bit whatever
    was read before. Each drop is bit for bit its stack of one. Fast fading is
    *not* drawn here; the Monte Carlo estimators derive their own streams.
    """
    cfgs = [replace(cfg, seed=seed) for seed in seeds]
    axial, bs, adj = _layout(cfg.cell_count, cfg.outer_ring_cells, cfg.cell_radius)
    streams = [np.random.SeedSequence(c.seed & _MASK64).spawn(2) for c in cfgs]
    users = bs[:, None, :] + _place_users([np.random.default_rng(place) for place, _ in streams],
                                          cfg, len(axial))
    users.setflags(write=False)
    # distances[d, i, l, c]: BS i to user c of cell l in drop d, from contiguous
    # (D, 1, C, N) x and y planes against (rows, 1, 1) BS coordinates
    ux, uy = users[:, None, ..., 0].copy(), users[:, None, ..., 1].copy()
    shape = (len(cfgs), len(axial), len(axial), cfg.users_per_cell)

    def fill(out: np.ndarray, a: int, b: int) -> None:
        # in place, with one temporary: the path loss of every drop, then each
        # drop's shadows, rows [a, b) of a fresh (b, C, N) draw
        dy = uy - bs[a:b, 1, None, None]
        np.hypot(np.subtract(ux, bs[a:b, 0, None, None], out=out), dy, out=out)
        out /= cfg.exclusion_radius
        out **= cfg.path_loss_exponent
        for c, (_, shadow), drop in zip(cfgs, streams, out):
            shadows = sample_shadowing(np.random.default_rng(shadow), c, (b, *shape[2:]))
            np.divide(shadows[a:], drop, out=drop)

    gains = _GainRows(np.empty(shape), fill)
    return [CellTopology(c, axial, bs, u, gains, adj, cfg.cell_count, d)
            for d, (c, u) in enumerate(zip(cfgs, users))]


def build_topology(cfg: NetworkConfig) -> CellTopology:
    """The topology of ``cfg``'s seed: ``build_topology_drops`` of a stack of one."""
    return build_topology_drops(cfg, [cfg.seed])[0]


def schedule_groups(topology: CellTopology) -> list[list[int]]:
    """Partition the cluster cells into mutually non-interfering groups.

    Hexagonal disks get the reuse-3 colouring (q - r) mod 3: edge-adjacent
    cells differ by one of the axial offsets (+-1, 0), (0, +-1) and
    +-(1, -1), which change q - r by +-1 or +-2, never by a multiple of 3.
    That gives exactly 3 groups for the 7- and 19-cell disks. Outer-ring
    cells never allocate and are not included.
    """
    cells = range(topology.cluster_size)
    colors = [(int(topology.axial[i, 0]) - int(topology.axial[i, 1])) % 3 for i in cells]
    if not _coloring_valid(topology, colors):
        raise ValueError("the reuse-3 colouring (q - r) mod 3 does not fit this topology's adjacency")
    groups: dict[int, list[int]] = {}
    for i, c in zip(cells, colors):
        groups.setdefault(c, []).append(i)
    return [groups[c] for c in sorted(groups)]


def _coloring_valid(topology: CellTopology, colors: Sequence[int]) -> bool:
    k = topology.cluster_size
    for i in range(k):
        for j in topology.neighbors(i):
            if j < k and j != i and colors[i] == colors[int(j)]:
                return False
    return True
