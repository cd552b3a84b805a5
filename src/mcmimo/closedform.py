"""Closed-form rate expressions for ZF multicell systems.

Uplink (per user n of the target cell, noise power 1):

    lower bound     log2(1 + p_n b_n (M-N)   / (S + 1))
    approximation   log2(1 + p_n b_n (M-N+1) / (S + 1))
    upper bound     log2(1 + p_n b_n (M-N+1) * E{1/(v+1)})

where b_n is the user's own-cell large-scale gain, S = sum p_cl beta_cl over
interfering users, and v is the hypoexponential interference power: a sum of
independent exponentials with means zeta_k = p_cl beta_cl. The three lie in
that order for every input (two Jensen bounds around a mean-ratio
approximation), and the gap closes as M grows.

Downlink lower bound:

    log2(1 + p_n (M-N)/L_0 / (D_n + 1)),   L_l = sum_k 1/beta_lk,
    D_n = sum_{l,c} p_cl beta_ln / (beta_lc L_l)

E{1/(v+1)} is evaluated through the characteristic-coefficient expansion of
the hypoexponential density (partial fractions of its Laplace transform),
the exponential integral E1, and per-multiplicity finite sums. Those finite
sums cancel catastrophically in some regimes, so every piece is guarded and
falls back to a numerically stable integral representation

    E{1/(v+1)} = int_0^inf e^{-s} prod_k (1 + zeta_k s)^{-1} ds

which is mathematically identical. Results are clamped to the provable
envelope [1/(1 + sum zeta), 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mcrate import _power_rows, _target_cells
from .topology import CellTopology

_EULER_GAMMA = 0.5772156649015328606065120900824024
_SERIES_SWITCH = 1.5  # series below, continued fraction at or above
_MERGE_RTOL = 1e-9
_LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_1^inf e^(-x t)/t dt, x > 0.

    Power series for x < 1.5, Lentz continued fraction above; absolute error
    is far below the 1e-12 target across the whole domain.
    """
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"E1 requires finite x > 0, got {x}")
    if x < _SERIES_SWITCH:
        return _e1_series(x)
    return math.exp(-x) * _e1_cf_scaled(x)


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k k!)
    total = -_EULER_GAMMA - math.log(x)
    term = 1.0  # holds (-x)^k / k!
    for k in range(1, 200):
        term *= -x / k
        total -= term / k
        if abs(term) / k < 1e-18:
            return total
    raise RuntimeError("E1 series did not converge")  # pragma: no cover


def _e1_cf_scaled(x: float) -> float:
    # e^x E1(x) via the modified-Lentz continued fraction; no underflow for
    # large x, which keeps products like e^(1/zeta) E1(1/zeta) computable.
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise RuntimeError("E1 continued fraction did not converge")  # pragma: no cover


def _e1_scaled(x: float) -> float:
    """e^x E1(x), stable for any x > 0."""
    if x < _SERIES_SWITCH:
        return math.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


# ---------------------------------------------------------------------------
# hypoexponential interference distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HypoexpSpec:
    """Distribution of a sum of independent exponentials with means ``zetas``.

    ``distinct`` holds the strictly decreasing distinct means (values equal
    within 1e-9 relative are merged), ``multiplicities`` their counts, and
    ``char_coeffs[h][j-1]`` the characteristic coefficient lambda_{h,j} of the
    partial-fraction expansion prod_k (1 + zeta_k s)^{-1} =
    sum_h sum_j lambda_{h,j} (1 + zeta_h s)^{-j}.
    """

    zetas: np.ndarray
    distinct: np.ndarray
    multiplicities: np.ndarray
    char_coeffs: tuple

    @property
    def mean(self) -> float:
        return float(self.zetas.sum())


def characteristic_coefficients(zetas) -> HypoexpSpec:
    """Partial-fraction weights of prod_k (1 + zeta_k s)^{-1}.

    Near-equal means (1e-9 relative) are merged into one value with higher
    multiplicity before expanding; the expansion is numerically meaningless
    for closer-but-unequal values and the merge is the correct limit.
    """
    z = np.asarray(zetas, dtype=float).ravel()
    if z.size == 0:
        raise ValueError("at least one zeta value is required")
    if not np.all(np.isfinite(z)) or np.any(z <= 0.0):
        raise ValueError("all zeta values must be finite and positive")

    z_sorted = np.sort(z)[::-1]
    distinct: list[float] = []
    groups: list[list[float]] = []
    for val in z_sorted:
        if distinct and (distinct[-1] - val) <= _MERGE_RTOL * distinct[-1]:
            groups[-1].append(val)
            g = groups[-1]
            # exactly equal values keep their exact representative
            distinct[-1] = g[0] if min(g) == max(g) else float(np.mean(g))
        else:
            distinct.append(float(val))
            groups.append([val])
    dist = np.array(distinct)
    mult = np.array([len(g) for g in groups], dtype=int)

    # Taylor coefficients of Gh(s) = prod_{g != h} (1 + zeta_g s)^{-tau_g}
    # around s = -1/zeta_h, in powers of u = (1 + zeta_h s): coefficient
    # c_m = Gh^(m) / (m! zeta_h^m) and lambda_{h,j} = c_{tau-j}. Row h of the
    # (K, K-1) arrays holds the g != h terms in np.delete(dist, h) order.
    k_ = dist.size
    cols = np.arange(k_ - 1)
    others = cols + (cols >= np.arange(k_)[:, None])
    zg, tg = dist[others], mult[others]
    zh_col = dist[:, None]
    base = 1.0 - zg / zh_col
    signs = np.prod(np.sign(base) ** tg, axis=1).tolist()
    log_g0 = np.sum(tg * np.log(np.abs(base)), axis=1).tolist()
    ratio = zg * zh_col / (zh_col - zg)

    coeffs = []
    for h in range(k_):
        tau = int(mult[h])
        g0 = signs[h] * math.exp(-log_g0[h])
        if tau == 1:
            lam = np.array([g0])
            finite = math.isfinite(g0)
        else:
            zh = dist[h]
            G = np.zeros(tau)
            G[0] = g0
            # log-derivatives of Gh at the expansion point
            L = [0.0] * tau
            for k in range(1, tau):
                L[k] = (-1.0) ** k * math.factorial(k - 1) * float(np.sum(tg[h] * ratio[h]**k))
            for m_ in range(1, tau):
                G[m_] = sum(math.comb(m_ - 1, i) * L[m_ - i] * G[i] for i in range(m_))
            lam = np.array(
                [G[tau - j] / (math.factorial(tau - j) * zh ** (tau - j)) for j in range(1, tau + 1)]
            )
            finite = np.all(np.isfinite(lam))
        if not finite:
            raise ValueError(
                "zeta spacing too small for a stable partial-fraction expansion; "
                "values this close should be merged"
            )
        coeffs.append(lam)

    zc = z.copy()
    zc.setflags(write=False)
    dist.setflags(write=False)
    mult.setflags(write=False)
    return HypoexpSpec(zc, dist, mult, tuple(coeffs))


@lru_cache(maxsize=1)
def _gauss_legendre(nodes: int = 32):
    return np.polynomial.legendre.leggauss(nodes)


def _laplace_product_integral(zetas: np.ndarray, mults: np.ndarray) -> float:
    """int_0^inf e^{-s} prod_k (1 + zeta_k s)^{-tau_k} ds.

    Equals E{1/(v+1)} because prod (1+zeta s)^{-tau} is the Laplace transform
    of v. The integrand is positive, smooth and decreasing, integrated on
    geometrically growing panels sized to the initial decay rate.
    """
    nodes, weights = _gauss_legendre()
    rate = 1.0 + float(np.dot(mults, zetas))
    a, b = 0.0, 1.0 / rate
    total = 0.0
    while True:
        half = 0.5 * (b - a)
        s = (a + half) + half * nodes
        ln = -s - (mults[:, None] * np.log1p(np.outer(zetas, s))).sum(axis=0)
        total += half * float(weights @ np.exp(ln))
        if b >= 46.0:  # e^{-46} ~ 1e-20: tail is negligible
            return total
        a, b = b, min(2.0 * b, 46.0)


def _erlang_mean_inv_one_plus(j: int, zeta: float) -> float:
    """E{1/(V+1)} for V ~ Erlang(j) with mean j*zeta.

    Uses the closed form (j-1 alternating factorial terms against
    e^(1/zeta) E1(1/zeta)); when those terms cancel to fewer than ~3 safe
    digits the stable integral is used instead.
    """
    x = 1.0 / zeta
    e1s = _e1_scaled(x)
    if j == 1:
        return x * e1s
    s = 0.0
    comp = 0.0  # Neumaier compensation
    term = zeta  # (-1)^m zeta^(m+1) m!, starting at m = 0
    maxmag = abs(e1s)
    overflow = False
    for m_ in range(j - 1):
        if m_ > 0:
            term *= -zeta * m_
        if abs(term) > 1e280:
            overflow = True
            break
        maxmag = max(maxmag, abs(term))
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
    if not overflow:
        bracket = (e1s - (s + comp)) * (-1.0) ** (j - 1)
        if bracket > 1e-3 * maxmag:
            log_val = math.log(bracket) - math.lgamma(j) - j * math.log(zeta)
            if log_val < 700.0:
                val = math.exp(log_val)
                if 0.0 < val <= 1.0:
                    return val
    return _laplace_product_integral(np.array([zeta]), np.array([j]))


def mean_inv_one_plus(spec: HypoexpSpec) -> float:
    """E{1/(v+1)} for a hypoexponential v.

    Combines the characteristic coefficients with the per-multiplicity closed
    forms; if the signed combination leaves the provable envelope
    [1/(1+E{v}), 1] it is recomputed from the stable Laplace-domain integral,
    and the result is clamped to that envelope either way (which also keeps
    the Jensen ordering of the rate expressions exact in floating point).
    """
    floor = 1.0 / (1.0 + spec.mean)
    total = 0.0
    comp = 0.0
    maxmag = 0.0
    for zh, lam in zip(spec.distinct, spec.char_coeffs):
        for j, l in enumerate(lam, start=1):
            if l == 0.0:
                continue
            term = l * _erlang_mean_inv_one_plus(j, float(zh))
            maxmag = max(maxmag, abs(term))
            t = total + term
            if abs(total) >= abs(term):
                comp += (total - t) + term
            else:
                comp += (term - t) + total
            total = t
    total += comp
    # the signed terms can exceed the result by many orders of magnitude
    # (close-but-unmerged means); keep the expansion only while it retains
    # ~10 reliable digits, as judged from the observed cancellation
    ill_conditioned = not math.isfinite(total) or abs(total) < 1e-6 * maxmag
    if ill_conditioned or total < floor * (1.0 - 1e-6) or total > 1.0 + 1e-6:
        total = _laplace_product_integral(spec.distinct, spec.multiplicities.astype(float))
    return min(max(total, floor), 1.0)


# E{1/(v+1)} depends only on the interference means, which stay fixed while one
# drop is swept over M, evaluated at several powers or allocated by several
# strategies; jobs visit one drop at a time, so a few entries catch every reuse.
_FACTOR_CACHE_SIZE = 16


def interference_factor(zetas) -> float:
    """E{1/(v+1)} for hypoexponential interference v with means ``zetas``.

    Equals 1 with no active interferers. Memoised on the exact bytes of
    ``zetas``, so a repeated call returns the identical float.
    """
    z = np.ascontiguousarray(zetas, dtype=float)
    if z.size == 0:
        return 1.0
    return _factor_of_bytes(z.tobytes())


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _factor_of_bytes(key: bytes) -> float:
    return mean_inv_one_plus(characteristic_coefficients(np.frombuffer(key)))


# ---------------------------------------------------------------------------
# interference profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InterferenceProfile:
    """Uplink large-scale view of one target cell, or a stack of such views.

    ``beta_self[n]`` is user n's gain to its own BS; ``cross_powers`` and
    ``cross_betas`` list (p, beta) for every user of every interfering cell.
    The interference power seen at the BS is user-independent.

    A stacked profile (see ``stack``) has a leading axis of rows, one view per
    row (one drop or one cell each, say): ``beta_self`` is (D, N), the cross
    arrays are (D, L), and ``cross_sum`` and ``interference_factor()`` are
    (D, 1) columns, so every rate and coefficient formula evaluates all rows
    in one expression with the same bits as row by row.

    Rows may hold fewer than L cross terms (cells with 3, 4 or 6 neighbours):
    ``cross_lengths`` (D,) then counts each row's terms, and the entries past
    them are padding with power 0. A row's cross sum is ``np.dot`` over its
    own terms only, because zero-padding moves the last bits of ``np.dot``
    once a row spans BLAS's unrolled blocks.
    """

    beta_self: np.ndarray
    cross_powers: np.ndarray
    cross_betas: np.ndarray
    cross_lengths: np.ndarray | None = None
    cross_sum: float | np.ndarray = field(init=False)

    def __post_init__(self):
        bs = np.asarray(self.beta_self, dtype=float)
        cp = np.asarray(self.cross_powers, dtype=float)
        cb = np.asarray(self.cross_betas, dtype=float)
        if bs.ndim == 1:
            cp, cb = cp.ravel(), cb.ravel()
            if self.cross_lengths is not None:
                raise ValueError("cross_lengths belongs to a stacked profile")
        elif bs.ndim != 2 or cp.ndim != 2 or cp.shape[0] != bs.shape[0]:
            raise ValueError(
                "a stacked profile needs beta_self (D, N) and cross arrays (D, L)")
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
        # total interference power sum p_cl beta_cl (0 with no interferers)
        if bs.ndim == 1:
            cross_sum = float(np.dot(cp, cb))
        else:
            lengths = _cross_lengths(self.cross_lengths, cp)
            object.__setattr__(self, "cross_lengths", lengths)
            cross_sum = np.array([[np.dot(p[:k], b[:k])] for p, b, k in zip(cp, cb, lengths)])
        object.__setattr__(self, "cross_sum", cross_sum)

    @classmethod
    def stack(cls, profiles) -> "InterferenceProfile":
        """One profile whose row d is ``profiles[d]`` (equal N and L)."""
        return cls(np.stack([p.beta_self for p in profiles]),
                   np.stack([p.cross_powers for p in profiles]),
                   np.stack([p.cross_betas for p in profiles]))

    @property
    def n_users(self) -> int:
        return self.beta_self.shape[-1]

    def zetas(self) -> np.ndarray:
        """Exponential means p_cl beta_cl of the active interference terms
        (of an unstacked profile)."""
        if self.cross_powers.ndim != 1:
            raise ValueError("zetas() needs an unstacked profile; a stack has one set per row")
        z = self.cross_powers * self.cross_betas
        return z[z > 0]

    def interference_factor(self) -> float | np.ndarray:
        """E{1/(v+1)} of the interference: a float, or a (D, 1) column for a stack."""
        if self.cross_powers.ndim == 1:
            return interference_factor(self.zetas())
        z = self.cross_powers * self.cross_betas
        return np.array([[interference_factor(row[row > 0])] for row in z])


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
    """Downlink large-scale view: own-cell inverse-gain sum and the per-user
    normalised interference load D_n.

    A stacked profile (see ``stack``) holds one view per row: ``lambda_self``
    is then a (D, 1) column and ``cross_load`` is (D, N).
    """

    lambda_self: float | np.ndarray
    cross_load: np.ndarray

    def __post_init__(self):
        lam = np.array(self.lambda_self, dtype=float)
        cl = np.array(self.cross_load, dtype=float)
        if not (np.isfinite(lam).all() and (lam > 0).all()):
            raise ValueError("lambda_self must be finite and positive")
        one_view = lam.ndim == 0 and cl.ndim == 1
        if not (one_view or (cl.ndim == 2 and lam.shape == (cl.shape[0], 1))):
            raise ValueError("cross_load must be a 1-D vector, or (D, N) beside a (D, 1) lambda_self")
        if (cl < 0).any() or not np.isfinite(cl).all():
            raise ValueError("cross_load must be non-negative and finite")
        lam.setflags(write=False)
        cl.setflags(write=False)
        object.__setattr__(self, "lambda_self", float(lam) if one_view else lam)
        object.__setattr__(self, "cross_load", cl)

    @classmethod
    def stack(cls, profiles) -> "DownlinkProfile":
        """One profile whose row d is ``profiles[d]`` (equal N)."""
        return cls(np.array([[p.lambda_self] for p in profiles]),
                   np.stack([p.cross_load for p in profiles]))

    @property
    def n_users(self) -> int:
        return self.cross_load.shape[-1]


def uplink_profile(topology: CellTopology, interfering_powers, target_cell) -> InterferenceProfile:
    """Build the uplink interference profile of ``target_cell`` from the
    current powers of its edge-adjacent neighbours.

    ``target_cell`` may also be a sequence of cells; the result is then a
    stack with one row per cell, each listing its neighbours' terms in
    ascending neighbour order and padded to the widest row.
    """
    cells, single = _target_cells(target_cell, topology.n_cells)
    adj = topology.adjacency[cells]
    powers, one, _ = _power_rows(topology, interfering_powers, np.flatnonzero(adj.any(axis=0)),
                                 "uplink")
    if not one:
        raise ValueError("interfering_powers must be one allocation set")
    beta = topology.large_scale
    terms = [(powers[0, nbrs].ravel(), beta[cell, nbrs].ravel()) for cell, nbrs in zip(cells, adj)]
    if single:
        return InterferenceProfile(beta[cells[0], cells[0]], *terms[0])
    lengths = np.array([p.size for p, _ in terms])
    cross_powers = np.zeros((cells.size, lengths.max()))
    cross_betas = np.ones_like(cross_powers)
    for row, (p, b) in enumerate(terms):
        cross_powers[row, :p.size] = p
        cross_betas[row, :b.size] = b
    return InterferenceProfile(beta[cells, cells], cross_powers, cross_betas, lengths)


def downlink_profile(topology: CellTopology, interfering_powers, target_cell) -> DownlinkProfile:
    """Build the downlink profile of ``target_cell`` from the current powers
    of its edge-adjacent neighbours.

    ``target_cell`` may also be a sequence of cells; the result is then a
    stack with one row per cell. Each row adds its neighbours' loads in
    ascending order, as one cell alone does.
    """
    cells, single = _target_cells(target_cell, topology.n_cells)
    beta = topology.large_scale
    lam_self = [float((1.0 / beta[i, i]).sum()) for i in cells]
    adj = topology.adjacency[cells]
    read = np.flatnonzero(adj.any(axis=0))
    powers, one, _ = _power_rows(topology, interfering_powers, read, "downlink")
    if not one:
        raise ValueError("interfering_powers must be one allocation set")
    load = np.zeros((cells.size, topology.n_users))
    for l in read:
        beta_ll = beta[l, l]
        lam_l = float((1.0 / beta_ll).sum())
        # sum_c p_c / beta_lc, shared by all target users; beta_ln scales it.
        # The rows of cells that l does not neighbour add exactly 0.
        load += beta[l, cells] * float((powers[0, l] / beta_ll).sum()) / lam_l * adj[:, l, None]
    if single:
        return DownlinkProfile(lam_self[0], load[0])
    return DownlinkProfile(np.array(lam_self)[:, None], load)


# ---------------------------------------------------------------------------
# rate expressions
# ---------------------------------------------------------------------------

# Each rate takes ``powers`` of shape (N,) or (R, N), one allocation per row,
# and a profile of one view or a stack of D views; the per-user rates come
# out in the broadcast shape, every row with the bits of its own evaluation.

def _check_powers(powers, n: int) -> np.ndarray:
    p = np.asarray(powers, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != n:
        raise ValueError(f"powers must have shape ({n},) or (rows, {n})")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("powers must be finite and non-negative")
    return p


def uplink_lower_bound(profile: InterferenceProfile, m: int, n: int, powers) -> np.ndarray:
    """Jensen lower bound on the per-user ergodic ZF uplink rate."""
    if m < n:
        raise ValueError("uplink lower bound requires M >= N")
    p = _check_powers(powers, profile.n_users)
    return np.log2(1.0 + p * profile.beta_self * (m - n) / (profile.cross_sum + 1.0))


def uplink_approximation(profile: InterferenceProfile, m: int, n: int, powers) -> np.ndarray:
    """Mean-ratio approximation of the per-user ergodic ZF uplink rate.

    Identical to the lower bound with M-N replaced by M-N+1; lies between the
    lower and upper bounds and becomes exact as M grows.
    """
    if m < n:
        raise ValueError("uplink approximation requires M >= N")
    p = _check_powers(powers, profile.n_users)
    return np.log2(1.0 + p * profile.beta_self * (m - n + 1) / (profile.cross_sum + 1.0))


def uplink_upper_bound(profile: InterferenceProfile, m: int, n: int, powers) -> np.ndarray:
    """Jensen upper bound on the per-user ergodic ZF uplink rate.

    With no active interferers the hypoexponential machinery degenerates and
    the bound reduces to log2(1 + p beta (M-N+1)), i.e. E{1/(v+1)} = 1.
    """
    if m < n:
        raise ValueError("uplink upper bound requires M >= N")
    p = _check_powers(powers, profile.n_users)
    eta = profile.interference_factor()
    return np.log2(1.0 + p * profile.beta_self * (m - n + 1) * eta)


def downlink_lower_bound(profile: DownlinkProfile, m: int, n: int, powers) -> np.ndarray:
    """Jensen lower bound on the per-user ergodic ZF downlink rate."""
    if m < n:
        raise ValueError("downlink lower bound requires M >= N")
    p = _check_powers(powers, profile.n_users)
    return np.log2(1.0 + p * ((m - n) / profile.lambda_self) / (profile.cross_load + 1.0))
