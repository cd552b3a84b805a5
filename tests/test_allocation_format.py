"""The one allocation format: every reader of per-cell powers accepts the same
inputs and rejects the same faults, naming the cell.

An allocation set is indexed by cell; its entries are None, a PowerAllocation
or an (N,) vector of linear powers. A sequence of sets is a stack of rows.
"""

import numpy as np
import pytest

from mcmimo.closedform import InterferenceProfile, downlink_profile, uplink_profile
from mcmimo.mcrate import PowerAllocation, _power_rows, downlink_rate_mc, uplink_rate_mc
from mcmimo.network import network_sum_rate
from mcmimo.topology import NetworkConfig, build_topology

N = 3
TOP = build_topology(NetworkConfig(users_per_cell=N, bs_antennas=8, cell_count=7, seed=5))
POWERS = np.random.default_rng(8).uniform(0.5, 4.0, (TOP.n_cells, N))


def allocations(direction):
    return [PowerAllocation(p, direction) for p in POWERS]


def _fields(result):
    """The arrays that make up a result, for a bit-for-bit comparison."""
    if isinstance(result, InterferenceProfile):
        return [result.beta_self, result.cross_powers, result.cross_betas, result.cross_sum]
    if isinstance(result, float):
        return [result]
    if hasattr(result, "per_user_rate"):
        return [result.per_user_rate, result.ci_half_width]
    return [result.lambda_self, result.cross_load]


# (name, call(allocations), direction, whether cell 0 is read); the target is cell 0
READERS = {
    "uplink_profile": (lambda a: uplink_profile(TOP, a, 0), "uplink", False),
    "downlink_profile": (lambda a: downlink_profile(TOP, a, 0), "downlink", False),
    "uplink_rate_mc": (lambda a: uplink_rate_mc(TOP, a, 0, 40, 3), "uplink", True),
    "downlink_rate_mc": (lambda a: downlink_rate_mc(TOP, a, 0, 40, 3), "downlink", True),
    "network_sum_rate[uplink]": (lambda a: network_sum_rate(TOP, a), "uplink", True),
    "network_sum_rate[downlink]": (lambda a: network_sum_rate(TOP, a), "downlink", True),
}

OTHER = {"uplink": "downlink", "downlink": "uplink"}

# case -> (cell, its entry given the reader's direction, the error it raises)
FAULTS = {
    "none_in_read_cell": (1, lambda d: None, "no allocation for cell 1"),
    "wrong_direction": (2, lambda d: PowerAllocation(POWERS[2], OTHER[d]), "cell 2 allocation is"),
    "too_long": (3, lambda d: np.ones(N + 1), r"cell 3 powers must have shape \(3,\)"),
    "scalar": (3, lambda d: 2.0, r"cell 3 powers must have shape \(3,\), got \(\)"),
    "nan": (4, lambda d: np.array([1.0, np.nan, 1.0]), "cell 4 powers must be finite"),
    "negative": (4, lambda d: np.array([1.0, -0.5, 1.0]), "cell 4 powers must be finite"),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("case", FAULTS)
def test_fault_names_the_cell(reader, case):
    call, direction, _ = READERS[reader]
    cell, entry, match = FAULTS[case]
    allocs = allocations(direction)
    allocs[cell] = entry(direction)
    with pytest.raises(ValueError, match=match):
        call(allocs)
    # and in any row of a stack
    if reader.endswith("_mc") or reader.startswith("network"):
        with pytest.raises(ValueError, match=match):
            call([allocations(direction), allocs])


@pytest.mark.parametrize("reader", READERS)
def test_none_in_cell_zero(reader):
    call, direction, reads_cell_0 = READERS[reader]
    allocs = allocations(direction)
    allocs[0] = None
    if reads_cell_0:
        with pytest.raises(ValueError, match="no allocation for cell 0"):
            call(allocs)
    else:  # the profile of cell 0 reads its neighbours only
        for got, want in zip(_fields(call(allocs)), _fields(call(allocations(direction)))):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("reader", READERS)
def test_raw_vectors_give_the_powerallocation_bits(reader):
    call, direction, _ = READERS[reader]
    want = _fields(call(allocations(direction)))
    # network_sum_rate takes the direction from its PowerAllocations: cell 0 keeps one
    first = 1 if reader.startswith("network") else 0
    for raw in (POWERS, list(POWERS), [p.tolist() for p in POWERS]):
        allocs = [*allocations(direction)[:first], *raw[first:]] if first else raw
        for got, w in zip(_fields(call(allocs)), want):
            assert np.array_equal(got, w)


def test_power_rows_reads_only_the_given_cells():
    allocs = [None] * TOP.n_cells
    allocs[2], allocs[5] = POWERS[2], PowerAllocation(POWERS[5], "uplink")
    powers, single, direction = _power_rows(TOP, allocs, [2, 5], "uplink")
    assert single and direction == "uplink" and powers.shape == (1, TOP.n_cells, N)
    want = np.zeros((TOP.n_cells, N))
    want[[2, 5]] = POWERS[[2, 5]]
    assert np.array_equal(powers[0], want)  # unread cells are 0, never NaN


def test_power_rows_tells_one_set_from_rows():
    ups = allocations("uplink")
    mixed = [ups[0], *POWERS[1:]]
    for one in (ups, mixed, POWERS, list(POWERS)):
        assert _power_rows(TOP, one, range(TOP.n_cells), "uplink")[1]
    for rows in ([ups, mixed], np.stack([POWERS, 2 * POWERS]), [POWERS, ups]):
        powers, single, _ = _power_rows(TOP, rows, range(TOP.n_cells), "uplink")
        assert not single and powers.shape == (2, TOP.n_cells, N)
    with pytest.raises(ValueError, match="at least one row"):
        _power_rows(TOP, [], [0], "uplink")
    with pytest.raises(ValueError, match="must hold 7 cells, got 6"):
        _power_rows(TOP, ups[:6], [0], "uplink")


def test_network_sum_rate_takes_one_direction_from_its_allocations():
    ups = allocations("uplink")
    mixed = list(ups)
    mixed[3] = PowerAllocation(POWERS[3], "downlink")
    with pytest.raises(ValueError, match="cell 3 allocation is downlink, not uplink"):
        network_sum_rate(TOP, mixed)
    with pytest.raises(ValueError, match="cell 3 allocation is downlink, not uplink"):
        network_sum_rate(TOP, [ups, mixed], "monteCarlo", trials=10)
    with pytest.raises(ValueError, match="no PowerAllocation to give their direction"):
        network_sum_rate(TOP, POWERS)


@pytest.mark.parametrize("build", [uplink_profile, downlink_profile])
def test_profiles_take_one_set(build):
    direction = "uplink" if build is uplink_profile else "downlink"
    with pytest.raises(ValueError, match="one allocation set"):
        build(TOP, [allocations(direction)] * 2, 0)


@pytest.mark.parametrize("call", [
    lambda cell: uplink_profile(TOP, POWERS, cell),
    lambda cell: downlink_profile(TOP, POWERS, cell),
    lambda cell: uplink_rate_mc(TOP, POWERS, cell, 10, 0),
    lambda cell: downlink_rate_mc(TOP, POWERS, cell, 10, 0),
], ids=["uplink_profile", "downlink_profile", "uplink_rate_mc", "downlink_rate_mc"])
@pytest.mark.parametrize("cell", [-1, 7, 2.0, True, [0, 7], [-1]])
def test_target_cell_is_an_index_in_range(call, cell):
    with pytest.raises(ValueError, match=r"target_cell must be a cell index in \[0, 7\)"):
        call(cell)


@pytest.mark.parametrize("estimator", [uplink_rate_mc, downlink_rate_mc])
def test_estimators_rate_one_target_cell(estimator):
    with pytest.raises(ValueError, match="target_cell"):
        estimator(TOP, POWERS, [0, 1], 10, 0)
    # a numpy integer is an index
    assert np.array_equal(estimator(TOP, POWERS, np.int64(6), 10, 0).per_user_rate,
                          estimator(TOP, POWERS, 6, 10, 0).per_user_rate)


@pytest.mark.parametrize("field, powers, betas", [
    ("cross_powers", [np.nan], [1.0]),
    ("cross_powers", [np.inf], [1.0]),
    ("cross_betas", [1.0], [np.inf]),
    ("cross_betas", [1.0], [np.nan]),
])
def test_profile_rejects_non_finite_cross_terms(field, powers, betas):
    with pytest.raises(ValueError, match=field):
        InterferenceProfile(np.ones(2), powers, betas)
    with pytest.raises(ValueError, match=field):  # stacked
        InterferenceProfile(np.ones((2, 2)), [powers, [1.0]], [betas, [1.0]])
