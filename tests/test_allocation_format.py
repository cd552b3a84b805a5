"""The one allocation format: every reader of per-cell powers takes the same
array-likes and rejects the same faults through one check.

Powers are linear and indexed by cell: one (C, N) set, or an (R, C, N) stack
of rows. A bad power in a cell read is named by its cell and row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmimo.closedform import InterferenceProfile, downlink_profile, uplink_profile
from mcmimo.mcrate import _power_rows, downlink_rate_mc, shared_draws, uplink_rate_mc
from mcmimo.network import PowerAllocation, network_sum_rate
from mcmimo.topology import NetworkConfig, build_topology

N = 3
TOP = build_topology(NetworkConfig(users_per_cell=N, bs_antennas=8, cell_count=7, seed=5))
POWERS = np.random.default_rng(8).uniform(0.5, 4.0, (TOP.n_cells, N))


def _fields(result):
    """The arrays that make up a result, for a bit-for-bit comparison."""
    if isinstance(result, InterferenceProfile):
        return [result.beta_self, result.cross_powers, result.cross_betas, result.cross_sum]
    if isinstance(result, float):
        return [result]
    if hasattr(result, "per_user_rate"):
        return [result.per_user_rate, result.ci_half_width]
    if hasattr(result, "blocks"):
        return [result.weights, *result.blocks]
    return [result.lambda_self, result.cross_load]


# name -> (call(allocations), whether cell 0 is read, whether it takes rows); the target is cell 0
READERS = {
    "uplink_profile": (lambda a: uplink_profile(TOP, a, 0), False, False),
    "downlink_profile": (lambda a: downlink_profile(TOP, a, 0), False, False),
    "uplink_rate_mc": (lambda a: uplink_rate_mc(TOP, a, 0, 40, 3), True, True),
    "downlink_rate_mc": (lambda a: downlink_rate_mc(TOP, a, 0, 40, 3), True, True),
    "shared_draws[uplink]": (lambda a: shared_draws(TOP, a, 0, 40, 3, "uplink"), True, True),
    "shared_draws[downlink]": (lambda a: shared_draws(TOP, a, 0, 40, 3, "downlink"), True, True),
    "network_sum_rate[uplink]": (lambda a: network_sum_rate(TOP, a, "uplink"), True, True),
    "network_sum_rate[downlink]": (lambda a: network_sum_rate(TOP, a, "downlink"), True, True),
}


def _with(cell, entry):
    """POWERS as a list of cell vectors, with ``cell``'s replaced by ``entry``."""
    rows = list(POWERS)
    rows[cell] = entry
    return rows


SHAPES = r"powers must be a \(7, 3\) set or \(rows, 7, 3\) rows"

# case -> (the malformed input, the error it raises)
FAULTS = {
    "none_for_a_cell": (_with(1, None), SHAPES + ", got a ragged sequence"),
    "none_for_a_user": (_with(1, [1.0, None, 1.0]), "powers must be real numbers, got dtype object"),
    "ragged": (_with(3, np.ones(N + 1)), SHAPES + ", got a ragged sequence"),
    "scalar_for_a_cell": (_with(3, 2.0), SHAPES + ", got a ragged sequence"),
    "object": (POWERS.astype(object), "powers must be real numbers, got dtype object"),
    "powerallocations": ([PowerAllocation(p, "uplink") for p in POWERS],
                         "powers must be real numbers, got dtype object"),
    # a bool or complex vector among float ones, which np.asarray would make float
    "bool": (_with(6, np.ones(N, bool)), "powers must be real numbers, got dtype bool"),
    "bool_list": (_with(6, [True, False, True]), "powers must be real numbers, got dtype bool"),
    "bool_in_a_row": ([POWERS, _with(6, np.ones(N, bool))],
                      "powers must be real numbers, got dtype bool"),
    "complex": (_with(5, np.ones(N, complex)), "powers must be real numbers, got dtype complex128"),
    "complex_list": (_with(5, [1.0, 2j, 1.0]), "powers must be real numbers, got dtype complex128"),
    "bool_array": (np.ones((TOP.n_cells, N), bool), "powers must be real numbers, got dtype bool"),
    "bool_nested_list": (np.ones((TOP.n_cells, N), bool).tolist(),
                         "powers must be real numbers, got dtype bool"),
    "complex_array": (np.ones((TOP.n_cells, N), complex),
                      "powers must be real numbers, got dtype complex128"),
    "string": (POWERS.astype(str), "powers must be real numbers, got dtype <U"),
    "too_few_cells": (POWERS[:-1], SHAPES + r", got shape \(6, 3\)"),
    "too_many_users": (np.ones((TOP.n_cells, N + 1)), SHAPES + r", got shape \(7, 4\)"),
    "empty_list": ([], SHAPES + r", got shape \(0,\)"),
    "empty_stack": (np.empty((0, TOP.n_cells, N)), SHAPES + r", got shape \(0, 7, 3\)"),
    "one_vector": (POWERS[0], SHAPES + r", got shape \(3,\)"),
    "scalar": (2.0, SHAPES + r", got shape \(\)"),
    "four_dims": (POWERS[None, None], SHAPES + r", got shape \(1, 1, 7, 3\)"),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("case", FAULTS)
def test_malformed_powers_are_refused(reader, case):
    call = READERS[reader][0]
    allocs, match = FAULTS[case]
    with pytest.raises(ValueError, match=match):
        call(allocs)


# case -> (the bad power, its cell); cell 4 neighbours cell 0, so every reader reads it
NAMED = {"nan": (np.nan, 4), "negative": (-0.5, 4), "infinite": (np.inf, 2)}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("case", NAMED)
def test_bad_power_names_the_cell_and_row(reader, case):
    call, _, takes_rows = READERS[reader]
    bad, cell = NAMED[case]
    powers = POWERS.copy()
    powers[cell, 1] = bad
    with pytest.raises(ValueError, match=rf"cell {cell} powers must be finite and non-negative "
                                         r"\(row 0\)"):
        call(powers)
    # and in any row of a stack
    if takes_rows:
        with pytest.raises(ValueError, match=rf"cell {cell} powers .* \(row 1\)"):
            call(np.stack([POWERS, powers]))


@pytest.mark.parametrize("reader", READERS)
def test_bad_power_in_cell_zero(reader):
    call, reads_cell_0, _ = READERS[reader]
    powers = POWERS.copy()
    powers[0, 2] = np.nan
    if reads_cell_0:
        with pytest.raises(ValueError, match=r"cell 0 powers must be finite"):
            call(powers)
    else:  # the profile of cell 0 reads its neighbours only
        for got, want in zip(_fields(call(powers)), _fields(call(POWERS))):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("reader", READERS)
def test_every_array_like_gives_the_same_bits(reader):
    call = READERS[reader][0]
    want = _fields(call(POWERS))
    frozen = POWERS.copy()
    frozen.setflags(write=False)
    for form in (list(POWERS), POWERS.tolist(), frozen, np.asfortranarray(POWERS)):
        for got, w in zip(_fields(call(form)), want):
            assert np.array_equal(got, w)


def test_power_rows_reads_only_the_given_cells():
    allocs = np.full((TOP.n_cells, N), np.nan)
    allocs[[2, 5]] = POWERS[[2, 5]]
    powers, single = _power_rows(TOP, allocs, [2, 5], "uplink")
    assert single and powers.shape == (1, TOP.n_cells, N)
    want = np.zeros((TOP.n_cells, N))
    want[[2, 5]] = POWERS[[2, 5]]
    assert np.array_equal(powers[0], want)  # unread cells are 0, never NaN


def test_power_rows_tells_one_set_from_rows():
    for one in (POWERS, list(POWERS), POWERS.tolist(), POWERS.astype(int)):
        assert _power_rows(TOP, one, range(TOP.n_cells), "uplink")[1]
    for rows in (np.stack([POWERS, 2 * POWERS]), [POWERS, list(POWERS)]):
        powers, single = _power_rows(TOP, rows, range(TOP.n_cells), "uplink")
        assert not single and powers.shape == (2, TOP.n_cells, N)
    with pytest.raises(ValueError, match=r"got shape \(0,\)"):
        _power_rows(TOP, [], [0], "uplink")
    with pytest.raises(ValueError, match=r"got shape \(6, 3\)"):
        _power_rows(TOP, POWERS[:6], [0], "uplink")


@st.composite
def power_arrays(draw, dtypes=(np.float64, np.float32)):
    """(array, cells, direction): one (C, N) set or an (R, C, N) stack of
    finite non-negative powers, and the non-empty cells read, in a given form."""
    rows = draw(st.sampled_from([None, 1, 2, 3]))  # None: one set
    shape = (TOP.n_cells, N) if rows is None else (rows, TOP.n_cells, N)
    value = st.sampled_from([0.0, 5e-324, 1e-3, 1.0, 1e30]) | st.floats(0.0, 1e6)
    values = draw(st.lists(value, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    arr = np.array(values).reshape(shape).astype(draw(st.sampled_from(dtypes)))
    cells = draw(st.lists(st.integers(0, TOP.n_cells - 1), min_size=1, unique=True))
    form = draw(st.sampled_from([list, np.array, lambda c: range(c[0], c[0] + 1)]))
    return arr, form(cells), draw(st.sampled_from(["uplink", "downlink"]))


def zeroed_outside(arr, cells):
    """The (R, C, N) float64 rows of ``arr`` with every cell not in ``cells`` set to 0."""
    want = arr.reshape(-1, TOP.n_cells, N).astype(np.float64)
    want[:, ~np.isin(np.arange(TOP.n_cells), list(cells))] = 0.0
    return want


@settings(max_examples=30, deadline=None)
@given(power_arrays())
def test_power_rows_reads_an_array_zeroed_outside_its_cells(case):
    arr, cells, direction = case
    want = zeroed_outside(arr, cells)
    for form in (arr, arr.tolist()):
        powers, single = _power_rows(TOP, form, cells, direction)
        assert single == (arr.ndim == 2) and powers.dtype == np.float64
        assert powers.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(power_arrays(), st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -1e-30]), st.data())
def test_power_rows_names_the_cell_and_row_of_a_bad_power_in_a_float_array(case, bad, data):
    arr, cells, direction = case
    stack = arr.reshape(-1, TOP.n_cells, N)  # a view: writes reach ``arr``
    r, cell = data.draw(st.integers(0, len(stack) - 1)), data.draw(st.sampled_from(list(cells)))
    unread = sorted(set(range(TOP.n_cells)) - set(cells))
    if unread:  # ignored where it is not read
        stack[r, data.draw(st.sampled_from(unread)), data.draw(st.integers(0, N - 1))] = np.nan
        want = zeroed_outside(arr, cells)
        assert _power_rows(TOP, arr, cells, direction)[0].tobytes() == want.tobytes()
    stack[r, cell, data.draw(st.integers(0, N - 1))] = bad
    message = rf"cell {cell} powers must be finite and non-negative \(row {r}\)"
    for form in (arr, arr.tolist()):
        with pytest.raises(ValueError, match=message):
            _power_rows(TOP, form, cells, direction)


@settings(max_examples=30, deadline=None)
@given(power_arrays(dtypes=(bool, complex, np.complex64)))
def test_power_rows_refuses_a_bool_or_complex_array(case):
    arr, cells, direction = case
    for form in (arr, arr.tolist()):
        message = rf"{direction} powers must be real numbers, got dtype {np.asarray(form).dtype}"
        with pytest.raises(ValueError, match=message):
            _power_rows(TOP, form, cells, direction)


@pytest.mark.parametrize("powers, dtype", [
    (np.array([True, False]), "bool"),
    ([True, False, True], "bool"),
    (np.array([1 + 2j, 1]), "complex128"),
    ([1.0, 2j], "complex128"),
])
def test_powerallocation_refuses_bool_and_complex_powers(powers, dtype):
    # neither 0/1 flags nor a vector that would lose its imaginary part are powers
    with pytest.raises(ValueError, match=f"powers must be real, got dtype {dtype}"):
        PowerAllocation(powers, "uplink")


def test_powerallocation_copies_real_powers():
    given = np.array([1, 2, 3])
    alloc = PowerAllocation(given, "downlink")
    given[0] = 9
    assert alloc.powers.dtype == float and alloc.powers.tolist() == [1.0, 2.0, 3.0]
    assert not alloc.powers.flags.writeable


@pytest.mark.parametrize("build", [uplink_profile, downlink_profile])
def test_profiles_take_one_set(build):
    with pytest.raises(ValueError, match="one allocation set"):
        build(TOP, np.stack([POWERS, POWERS]), 0)


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
