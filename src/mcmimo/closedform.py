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

``PROFILE_COEFFICIENTS`` holds these four SINRs, each written once. At p = 1
they are the coefficients c_n of the strategies, which water-fill
sum_n log2(1 + c_n p_n): each maximises the rate of the form it is named for.

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

from .mcrate import _power_rows, _target_cells, _topology_stack

_EULER_GAMMA = 0.5772156649015328606065120900824024
_SERIES_SWITCH = 1.5  # series below, continued fraction at or above
_MERGE_RTOL = 1e-9


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

    A stacked profile has a leading axis of rows, one view per row (one drop
    or one (drop, cell) each, say): ``beta_self`` is (D, N), the cross arrays
    are (D, L), and ``cross_sum`` and ``interference_factor()`` are (D, 1)
    columns, so every rate and coefficient formula evaluates all rows in one
    expression with the same bits as row by row.

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

    A stacked profile holds one view per row: ``lambda_self`` (D, 1), ``cross_load`` (D, N).
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

    @property
    def n_users(self) -> int:
        return self.cross_load.shape[-1]


def _profile_inputs(topology, interfering_powers, target_cell, direction: str):
    """(topologies, (D, C, N) powers read in the heard cells, target cells, heard
    cells, whether the result is one unstacked view) of a profile builder."""
    tops, one_top = _topology_stack(topology)
    cells, one_cell = _target_cells(target_cell, tops[0].n_cells)
    heard = np.flatnonzero(tops[0].adjacency[cells].any(axis=0))  # one layout for the stack
    powers, one_set, _ = _power_rows(tops[0], interfering_powers, heard, direction)
    if one_set != one_top or len(powers) != len(tops):
        raise ValueError("interfering_powers must be one allocation set per topology")
    return tops, powers, cells, heard, one_top and one_cell


def uplink_profile(topology, interfering_powers, target_cell) -> InterferenceProfile:
    """Build the uplink interference profile of ``target_cell`` from the
    current powers of its edge-adjacent neighbours.

    ``target_cell`` may also be a sequence of cells, and ``topology`` one of D
    drops of one layout with one allocation set each: the result is then a
    stack of (drop, cell) rows, drop-major, each listing its neighbours' terms
    in ascending neighbour order and padded to the widest row.
    """
    tops, powers, cells, _, single = _profile_inputs(topology, interfering_powers, target_cell,
                                                     "uplink")
    adj, k, n = tops[0].adjacency[cells], cells.size, powers.shape[2]
    counts = adj.sum(axis=1)
    # row j's neighbours in ascending order, then other cells as padding
    nbrs = np.argsort(~adj, axis=1, kind="stable")[:, :counts.max()]
    real = (np.arange(nbrs.shape[1]) < counts[:, None])[None, :, :, None]
    gains = np.stack([top.large_scale[cells] for top in tops])  # (D, k, C, N)
    shape = (len(tops) * k, nbrs.shape[1] * n)
    cross_powers = np.where(real, powers[:, nbrs], 0.0).reshape(shape)
    cross_betas = np.where(real, gains[:, np.arange(k)[:, None], nbrs], 1.0).reshape(shape)
    beta_self = gains[:, np.arange(k), cells].reshape(-1, n)
    lengths = np.tile(counts * n, len(tops))
    if single:
        return InterferenceProfile(beta_self[0], cross_powers[0, :lengths[0]],
                                   cross_betas[0, :lengths[0]])
    return InterferenceProfile(beta_self, cross_powers, cross_betas, lengths)


def downlink_profile(topology, interfering_powers, target_cell) -> DownlinkProfile:
    """Build the downlink profile of ``target_cell`` from the current powers
    of its edge-adjacent neighbours.

    ``target_cell`` and ``topology`` may also be sequences, as for
    ``uplink_profile``, for a stack of (drop, cell) rows. Each row adds its
    neighbours' loads in ascending order, as one cell alone does.
    """
    tops, powers, cells, heard, single = _profile_inputs(topology, interfering_powers,
                                                         target_cell, "downlink")
    adj, every = tops[0].adjacency[cells], np.arange(tops[0].n_cells)  # one layout for the stack
    own = np.stack([top.large_scale[every, every] for top in tops])  # beta_ll of every l, (D, C, N)
    gains = np.stack([top.large_scale[np.ix_(heard, cells)] for top in tops])  # (D, H, k, N)
    lam = (1.0 / own).sum(axis=2)[:, :, None, None]  # L_l, (D, C, 1, 1)
    load = np.zeros((len(tops), cells.size, powers.shape[2]))
    for h, l in enumerate(heard):
        # sum_c p_c / beta_lc, shared by all target users; beta_ln scales it.
        # The rows of cells that l does not neighbour add exactly 0.
        shared = (powers[:, l] / own[:, l]).sum(axis=1)[:, None, None]
        load += gains[:, h] * shared / lam[:, l] * adj[:, l, None]
    if single:
        return DownlinkProfile(float(lam[0, cells[0], 0, 0]), load[0, 0])
    return DownlinkProfile(lam[:, cells].reshape(-1, 1), load.reshape(-1, load.shape[2]))


# ---------------------------------------------------------------------------
# SINR formulas and rate expressions
# ---------------------------------------------------------------------------

# Each formula is one closed form's SINR of a profile (InterferenceProfile or
# DownlinkProfile, of one (N,) view or a (D, N) stack) at the powers ``p``.
# ``p`` is the first factor and 1.0 * x == x: at the default p = 1 a formula
# gives the bits of the strategies' coefficients c_n, at the powers the rate's.

def _gap(m: int, n: int) -> int:
    """M - N, which no closed form admits below 0."""
    if m < n:
        raise ValueError(f"the closed forms require M >= N, got M={m}, N={n}")
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
# and a profile of one view or a stack of D views; the per-user rates come
# out in the broadcast shape, every row with the bits of its own evaluation.

def _rate(sinr, profile, m: int, n: int, powers) -> np.ndarray:
    """log2(1 + sinr(profile, m, n, p)) at the checked powers p."""
    p = np.asarray(powers, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != profile.n_users:
        raise ValueError(f"powers must have shape ({profile.n_users},) or (rows, {profile.n_users})")
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

    With no active interferers the hypoexponential machinery degenerates and
    the bound reduces to log2(1 + p beta (M-N+1)), i.e. E{1/(v+1)} = 1.
    """
    return _rate(_upper, profile, m, n, powers)


def downlink_lower_bound(profile: DownlinkProfile, m: int, n: int, powers) -> np.ndarray:
    """Jensen lower bound on the per-user ergodic ZF downlink rate."""
    return _rate(_downlink, profile, m, n, powers)
