"""Closed-form rate expressions for ZF multicell systems.

Each closed form rates user n of the target cell as log2(1 + SINR_n), noise
power 1, with the SINR

    uplink lower bound     p_n b_n (M-N)   / (S + 1)
    uplink approximation   p_n b_n (M-N+1) / (S + 1)
    uplink upper bound     p_n b_n (M-N+1) * E{1/(v+1)}
    downlink lower bound   p_n ((M-N)/L_0) / (D_n + 1)

where b_n is the user's own-cell large-scale gain, S = sum p_cl beta_cl over
interfering users, and v is the hypoexponential interference power: a sum of
independent exponentials with means zeta_k = p_cl beta_cl. The three uplink
forms lie in that order for every input (two Jensen bounds around a
mean-ratio approximation), and the gap closes as M grows. On the downlink
L_l = sum_k 1/beta_lk and D_n = sum_{l,c} p_cl beta_ln / (beta_lc L_l).

A profile is a stack of rows, each one target cell's view in one drop (one
per drop, or per drop and cell); one view is a stack of one row. Every
formula reads all rows in one array expression, each row with the bits of
its own evaluation.

``PROFILE_COEFFICIENTS`` holds these four SINRs, each written once. At p = 1
they are the coefficients c_n of the strategies, which water-fill
sum_n log2(1 + c_n p_n): each maximises the rate of the form it is named for.

E{1/(v+1)} has one evaluation, the Laplace-domain integral

    E{1/(v+1)} = int_0^inf e^{-s} prod_k (1 + zeta_k s)^{-1} ds

(the product is the Laplace transform of v), by Gauss-Legendre quadrature,
clamped to the provable envelope [1/(1 + sum zeta), 1]. The paper writes the
same quantity as a partial-fraction expansion of the hypoexponential density
against the exponential integral E1; that form cancels catastrophically for
close means, so it lives in ``tests/hypoexp_oracle.py`` as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mcrate import _power_rows, _target_cells, _topology_stack


# ---------------------------------------------------------------------------
# E{1/(v+1)} of the hypoexponential interference
# ---------------------------------------------------------------------------

# the 32-point Gauss-Legendre rule on [-1, 1], bit for bit numpy's
# polynomial.legendre.leggauss(32): importing numpy.polynomial and solving for
# the rule would cost several E{1/(v+1)} evaluations. The nodes >= 0 and their
# weights, mirrored for the nodes below 0.
_GL_HALF_NODES = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_GL_HALF_WEIGHTS = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])


def _laplace_product_integral(zetas: np.ndarray) -> float:
    """int_0^inf e^{-s} prod_k (1 + zeta_k s)^{-1} ds.

    The integrand is positive, smooth and decreasing, integrated on
    geometrically growing panels sized to the initial decay rate.
    """
    rate = 1.0 + float(zetas.sum())
    a, b = 0.0, 1.0 / rate
    total = 0.0
    while True:
        half = 0.5 * (b - a)
        s = (a + half) + half * _GL_NODES
        ln = -s - np.log1p(np.outer(zetas, s)).sum(axis=0)
        total += half * float(_GL_WEIGHTS @ np.exp(ln))
        if b >= 46.0:  # e^{-46} ~ 1e-20: tail is negligible
            return total
        a, b = b, min(2.0 * b, 46.0)


def interference_factor(zetas) -> float:
    """E{1/(v+1)} for hypoexponential interference v with means ``zetas``.

    Equals 1 with no active interferers; a mean that is not finite and
    positive is a ValueError.
    """
    z = np.ascontiguousarray(zetas, dtype=float).ravel()
    if z.size == 0:
        return 1.0
    if not np.isfinite(z).all() or (z <= 0.0).any():
        raise ValueError("all zeta values must be finite and positive")
    # the clamp keeps the Jensen ordering of the rate expressions exact in
    # floating point
    return min(max(_laplace_product_integral(z), 1.0 / (1.0 + float(z.sum()))), 1.0)


# ---------------------------------------------------------------------------
# interference profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InterferenceProfile:
    """Uplink large-scale view of a stack of target cells, one view per row
    (one drop or one (drop, cell) each, say).

    Row d's ``beta_self[d, n]`` is user n's gain to its own BS; its
    ``cross_powers[d]`` and ``cross_betas[d]`` list (p, beta) for every user of
    every interfering cell. The interference power seen at the BS is
    user-independent. ``beta_self`` is (D, N), the cross arrays are (D, L),
    and ``cross_sum`` and ``interference_factor()`` are (D, 1) columns, so
    every rate and coefficient formula evaluates all rows in one expression
    with the same bits as row by row. One view is a stack of one row.

    Rows may hold fewer than L cross terms (cells with 3, 4 or 6 neighbours):
    ``cross_lengths`` (D,) then counts each row's terms, and the entries past
    them are padding with power 0. A row's cross sum takes its own terms
    only, because zero-padding moves the last bits once a row spans BLAS's
    unrolled blocks; the rows of one length share one batched matmul, bit for
    bit each row's ``np.dot`` of its terms.
    """

    beta_self: np.ndarray
    cross_powers: np.ndarray
    cross_betas: np.ndarray
    cross_lengths: np.ndarray | None = None
    cross_sum: np.ndarray = field(init=False)
    _factor: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        bs = np.asarray(self.beta_self, dtype=float)
        cp = np.asarray(self.cross_powers, dtype=float)
        cb = np.asarray(self.cross_betas, dtype=float)
        if bs.ndim != 2 or cp.ndim != 2 or cp.shape[0] != bs.shape[0]:
            raise ValueError(f"a profile needs beta_self (D, N) and cross arrays (D, L), one "
                             f"row per view, got {bs.shape} and {cp.shape}")
        # method reductions cost less than np.any/np.all on arrays this small
        if (bs <= 0).any() or not np.isfinite(bs).all():
            raise ValueError("beta_self must be finite and positive")
        if cp.shape != cb.shape:
            raise ValueError("cross_powers and cross_betas must have equal length")
        if not ((cp >= 0) & np.isfinite(cp)).all():
            raise ValueError("cross_powers must be finite and >= 0")
        if not ((cb > 0) & np.isfinite(cb)).all():
            raise ValueError("cross_betas must be finite and > 0")
        for name, arr in (("beta_self", bs), ("cross_powers", cp), ("cross_betas", cb)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        lengths = _cross_lengths(self.cross_lengths, cp)
        object.__setattr__(self, "cross_lengths", lengths)
        # each row's total interference power sum p_cl beta_cl (0 with no interferers):
        # one (R, 1, L) @ (R, L, 1) matmul over the R rows of each length L
        cross_sum = np.zeros((len(cp), 1))
        for k in set(lengths.tolist()):  # not np.unique: its first call imports numpy.ma
            rows = np.flatnonzero(lengths == k)
            cross_sum[rows] = (cp[rows, None, :k] @ cb[rows, :k, None])[:, 0]
        object.__setattr__(self, "cross_sum", cross_sum)

    @property
    def n_users(self) -> int:
        return self.beta_self.shape[1]

    def interference_factor(self) -> np.ndarray:
        """E{1/(v+1)} of each row's interference, a read-only (D, 1) column.

        The interference means stay fixed while a profile is swept over M,
        rated at several powers or allocated by several strategies, so the
        profile computes its factor once, on first use, and keeps it.
        """
        if self._factor is None:
            # a row's means are its positive p_cl beta_cl: padding and silent users drop out
            z = self.cross_powers * self.cross_betas
            factor = np.array([[interference_factor(row[row > 0])] for row in z])
            factor.setflags(write=False)
            object.__setattr__(self, "_factor", factor)
        return self._factor


def _cross_lengths(lengths, cross_powers: np.ndarray) -> np.ndarray:
    """Checked per-row term counts of a stacked profile: all L when None."""
    rows, width = cross_powers.shape
    if lengths is None:
        out = np.full(rows, width)
    else:
        out = np.array(lengths)
        if out.shape != (rows,) or out.dtype.kind not in "iu" or np.any((out < 0) | (out > width)):
            raise ValueError(f"cross_lengths must be {rows} integers in [0, {width}]")
        if np.any(cross_powers[np.arange(width) >= out[:, None]] != 0):
            raise ValueError("cross powers past a row's cross_lengths must be 0")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DownlinkProfile:
    """Downlink large-scale view of a stack of target cells, one view per row:
    the own-cell inverse-gain sum ``lambda_self`` (D, 1) and the per-user
    normalised interference load D_n, ``cross_load`` (D, N)."""

    lambda_self: np.ndarray
    cross_load: np.ndarray

    def __post_init__(self):
        lam = np.array(self.lambda_self, dtype=float)
        cl = np.array(self.cross_load, dtype=float)
        if not (np.isfinite(lam).all() and (lam > 0).all()):
            raise ValueError("lambda_self must be finite and positive")
        if not (cl.ndim == 2 and lam.shape == (cl.shape[0], 1)):
            raise ValueError(f"a downlink profile needs lambda_self (D, 1) beside cross_load "
                             f"(D, N), one row per view, got {lam.shape} and {cl.shape}")
        if (cl < 0).any() or not np.isfinite(cl).all():
            raise ValueError("cross_load must be non-negative and finite")
        lam.setflags(write=False)
        cl.setflags(write=False)
        object.__setattr__(self, "lambda_self", lam)
        object.__setattr__(self, "cross_load", cl)

    @property
    def n_users(self) -> int:
        return self.cross_load.shape[1]


def _profile_inputs(topology, interfering_powers, target_cell, direction: str):
    """(topologies, (D, C, N) powers read in the heard cells, target cells, heard
    cells) of a profile builder."""
    tops = _topology_stack(topology)
    cells = _target_cells(target_cell, tops[0].n_cells)
    heard = np.flatnonzero(tops[0].adjacency[cells].any(axis=0))  # one layout for the stack
    powers, _ = _power_rows(tops[0], interfering_powers, heard, direction)
    if len(powers) != len(tops):
        raise ValueError("interfering_powers must be one allocation set per topology")
    return tops, powers, cells, heard


def uplink_profile(topology, interfering_powers, target_cell) -> InterferenceProfile:
    """Build the uplink interference profile of ``target_cell`` from the
    current powers of its edge-adjacent neighbours.

    ``target_cell`` is one cell or a sequence of cells, and ``topology`` one
    drop or a sequence of D drops of one layout, with one allocation set
    each. The result is a stack of (drop, cell) rows, drop-major (one row
    for one drop and one cell), each listing its neighbours' terms in
    ascending neighbour order and padded to the widest row.
    """
    tops, powers, cells, _ = _profile_inputs(topology, interfering_powers, target_cell, "uplink")
    adj, k, n = tops[0].adjacency[cells], cells.size, powers.shape[2]
    counts = adj.sum(axis=1)
    # row j's neighbours in ascending order, then other cells as padding
    nbrs = np.argsort(~adj, axis=1, kind="stable")[:, :counts.max()]
    real = (np.arange(nbrs.shape[1]) < counts[:, None])[None, :, :, None]
    rows = int(cells.max()) + 1  # only the target cells' BS rows are read
    gains = np.stack([top.large_scale_rows(rows)[cells] for top in tops])  # (D, k, C, N)
    shape = (len(tops) * k, nbrs.shape[1] * n)
    cross_powers = np.where(real, powers[:, nbrs], 0.0).reshape(shape)
    cross_betas = np.where(real, gains[:, np.arange(k)[:, None], nbrs], 1.0).reshape(shape)
    beta_self = gains[:, np.arange(k), cells].reshape(-1, n)
    return InterferenceProfile(beta_self, cross_powers, cross_betas, np.tile(counts * n, len(tops)))


def downlink_profile(topology, interfering_powers, target_cell) -> DownlinkProfile:
    """Build the downlink profile of ``target_cell`` from the current powers
    of its edge-adjacent neighbours.

    ``target_cell`` and ``topology`` are one or a sequence each, as for
    ``uplink_profile``, and the result is a stack of (drop, cell) rows. Each
    row adds its neighbours' loads in ascending order, as one cell alone does.
    """
    tops, powers, cells, heard = _profile_inputs(topology, interfering_powers, target_cell,
                                                 "downlink")
    adj = tops[0].adjacency[cells]  # one layout for the stack
    every = np.arange(max(cells.max(), heard.max(initial=0)) + 1)  # the BS rows it reads
    rows = [top.large_scale_rows(every.size) for top in tops]
    own = np.stack([g[every, every] for g in rows])  # beta_ll of those l, (D, rows, N)
    gains = np.stack([g[np.ix_(heard, cells)] for g in rows])  # (D, H, k, N)
    lam = (1.0 / own).sum(axis=2)[:, :, None, None]  # L_l, (D, rows, 1, 1)
    load = np.zeros((len(tops), cells.size, powers.shape[2]))
    for h, l in enumerate(heard):
        # sum_c p_c / beta_lc, shared by all target users; beta_ln scales it.
        # The rows of cells that l does not neighbour add exactly 0.
        shared = (powers[:, l] / own[:, l]).sum(axis=1)[:, None, None]
        load += gains[:, h] * shared / lam[:, l] * adj[:, l, None]
    return DownlinkProfile(lam[:, cells].reshape(-1, 1), load.reshape(-1, load.shape[2]))


# ---------------------------------------------------------------------------
# SINR formulas and rate expressions
# ---------------------------------------------------------------------------

# Each formula is one closed form's SINR of a profile's (D, N) rows
# (InterferenceProfile or DownlinkProfile) at the powers ``p``.
# ``p`` is the first factor and 1.0 * x == x: at the default p = 1 a formula
# gives the bits of the strategies' coefficients c_n, at the powers the rate's.
# ``m`` is an int or an integer array of shape (..., 1, 1), such as a (K, 1, 1)
# column of Ms, that broadcasts over leading sweep axes: (K, D, N), each with
# its scalar bits.

def _gap(m, n: int):
    """M - N, an int or an array like ``m``, which no closed form admits below 0.

    An array M must end in two axes of 1, so that it cannot broadcast against
    a profile's drops or users."""
    if np.ndim(m) and np.shape(m)[-2:] != (1, 1):
        raise ValueError(f"an array of Ms must have shape (..., 1, 1), got {np.shape(m)}")
    if (np.asarray(m) < n).any():
        raise ValueError(f"the closed forms require M >= N, got M={np.min(m)}, N={n}")
    return m - n


def _lower(prof, m, n, p=1.0) -> np.ndarray:
    """d_n = beta_n (M-N) / (S + 1)."""
    return p * prof.beta_self * _gap(m, n) / (prof.cross_sum + 1.0)


def _upper(prof, m, n, p=1.0) -> np.ndarray:
    """k_n = beta_n (M-N+1) E{1/(v+1)}; users differ only through beta_n."""
    # the interference seen at the BS is user-independent, so one
    # hypoexponential factor serves every user
    return p * prof.beta_self * (_gap(m, n) + 1) * prof.interference_factor()


def _approx(prof, m, n, p=1.0) -> np.ndarray:
    """t_n = beta_n (M-N+1) / (S + 1)."""
    return p * prof.beta_self * (_gap(m, n) + 1) / (prof.cross_sum + 1.0)


def _downlink(prof, m, n, p=1.0) -> np.ndarray:
    """s_n = ((M-N)/L_0) / (D_n + 1)."""
    return p * (_gap(m, n) / prof.lambda_self) / (prof.cross_load + 1.0)


# strategy name -> SINR formula; f(profile, m, n) is its water-filling coefficients
PROFILE_COEFFICIENTS = {"lower": _lower, "upper": _upper, "approx": _approx, "downlink": _downlink}


# Each rate takes ``powers`` of shape (N,) or (R, N), one allocation per row,
# and a profile of D rows; the per-user rates come out in the broadcast shape,
# (D, N) or (R, N) with D = 1 or R = D, every row with the bits of its own
# evaluation. The powers may carry an array ``m``'s leading axes: a (K, 1, 1)
# column of Ms with (K, D, N) powers rates each row's K allocations at K Ms.

def _rate(sinr, profile, m, n: int, powers) -> np.ndarray:
    """log2(1 + sinr(profile, m, n, p)) at the checked N and powers p."""
    if n != profile.n_users:
        raise ValueError(f"N={n} must equal the profile's {profile.n_users} users")
    p = np.asarray(powers, dtype=float)
    if not 0 < p.ndim <= max(2, np.ndim(m)) or p.shape[-1] != profile.n_users:
        raise ValueError(f"powers must have shape ({profile.n_users},) or (rows, "
                         f"{profile.n_users}), with the leading axes of an array of Ms")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("powers must be finite and non-negative")
    return np.log2(1.0 + sinr(profile, m, n, p))


def uplink_lower_bound(profile: InterferenceProfile, m: int, n: int, powers) -> np.ndarray:
    """Jensen lower bound on the per-user ergodic ZF uplink rate."""
    return _rate(_lower, profile, m, n, powers)


def uplink_approximation(profile: InterferenceProfile, m: int, n: int, powers) -> np.ndarray:
    """Mean-ratio approximation of the per-user ergodic ZF uplink rate.

    Identical to the lower bound with M-N replaced by M-N+1; lies between the
    lower and upper bounds and becomes exact as M grows.
    """
    return _rate(_approx, profile, m, n, powers)


def uplink_upper_bound(profile: InterferenceProfile, m: int, n: int, powers) -> np.ndarray:
    """Jensen upper bound on the per-user ergodic ZF uplink rate.

    With no active interferers E{1/(v+1)} = 1 and the bound reduces to
    log2(1 + p beta (M-N+1)).
    """
    return _rate(_upper, profile, m, n, powers)


def downlink_lower_bound(profile: DownlinkProfile, m: int, n: int, powers) -> np.ndarray:
    """Jensen lower bound on the per-user ergodic ZF downlink rate."""
    return _rate(_downlink, profile, m, n, powers)
