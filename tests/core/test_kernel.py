"""The quantized integer kernel: overflow bounds, exactness, adapters.

The kernel's whole contract is *exact* arithmetic: dtype selection must
never let a reduction wrap (it must refuse instead), the dgemm and the
literal gather + blocked reduction must agree bit-for-bit, and the
array-module facade must degrade to numpy without ever raising on a
missing optional dependency.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import kernel as kernel_module
from repro.core.kernel import (
    EXACT_FLOAT_BITS,
    TOP_K_MIN_COLUMNS,
    TOP_K_MIN_ELEMENTS,
    KernelOverflowError,
    LUTKernel,
    accumulator_bound,
    select_accumulator,
    select_quantum,
    top_k_stable,
)
from repro.core.xp import (
    ArrayModule,
    available_modules,
    get_array_module,
)


class TestAccumulatorSelection:
    def test_bound_is_worst_case_mixed_sign_sum(self):
        assert accumulator_bound(10, 7) == 2 * 10 * 7

    def test_bound_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            accumulator_bound(-1, 7)
        with pytest.raises(ValueError):
            accumulator_bound(1, -7)

    @pytest.mark.parametrize("dims", [1, 16, 1024, 4096, 16384])
    def test_never_wraps_for_paper_geometries(self, dims):
        """The issue's floor: dims up to 16384 at 3 bits.  The largest
        3-bit per-element metric entry is 49 (squared L2 of 7), and the
        selected dtype must hold the bound with room for the sum."""
        max_entry = 49
        dtype = select_accumulator(dims, max_entry)
        bound = accumulator_bound(dims, max_entry)
        assert bound < np.iinfo(dtype).max
        # Explicit no-wrap check: reduce the worst-case row in the
        # selected dtype and compare against python's exact integers.
        worst = np.full(dims, max_entry, dtype=dtype)
        assert int(worst.sum(dtype=dtype)) == dims * max_entry

    def test_small_geometries_stay_int32(self):
        assert select_accumulator(16384, 49) == np.dtype(np.int32)

    def test_large_geometries_promote_to_int64(self):
        assert select_accumulator(1 << 24, 1 << 8) == np.dtype(np.int64)

    def test_beyond_exact_range_raises_clearly(self):
        with pytest.raises(KernelOverflowError, match="53-bit"):
            select_accumulator(1 << 30, 1 << 30)

    def test_property_dtype_always_holds_bound(self):
        """Randomised sweep: whenever selection succeeds the bound fits
        the dtype; whenever it refuses the bound is beyond 2**53."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            cells = int(rng.integers(1, 1 << 20))
            max_entry = int(rng.integers(0, 1 << 40))
            bound = accumulator_bound(cells, max_entry)
            try:
                dtype = select_accumulator(cells, max_entry)
            except KernelOverflowError:
                assert bound >= 1 << EXACT_FLOAT_BITS
            else:
                assert bound < 1 << EXACT_FLOAT_BITS
                assert bound < np.iinfo(dtype).max


class TestQuantumSelection:
    def test_quantum_is_a_power_of_two(self):
        q = select_quantum(1e-6, 1024, 1e-7)
        mantissa, _ = np.frexp(q)
        assert mantissa == 0.5

    def test_reduction_stays_exact_at_the_selected_quantum(self):
        q = select_quantum(3.7e-6, 16384, 1e-7)
        bound = accumulator_bound(16384, int(np.ceil(3.7e-6 / q)))
        assert bound < 1 << EXACT_FLOAT_BITS

    def test_zero_peak_returns_the_resolution_ceiling(self):
        assert select_quantum(0.0, 64, 1e-7) == 1e-7 * 2.0**-24

    def test_oversized_geometry_raises_instead_of_coarsening(self):
        # Forcing the needed quantum above the resolution ceiling must
        # refuse, not silently produce a lossy LUT.
        with pytest.raises(KernelOverflowError, match="resolution floor"):
            select_quantum(1e6, 1 << 40, 1e-7)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            select_quantum(1.0, 0, 1e-7)
        with pytest.raises(ValueError):
            select_quantum(1.0, 4, 0.0)


def _random_kernel(rng, rows=13, cells=9, n_values=4, n_symbols=5):
    codes = rng.integers(0, n_symbols, size=(rows, cells))
    lut = rng.integers(-50, 50, size=(n_values, n_symbols))
    return LUTKernel(codes, lut)


class TestLUTKernel:
    def test_gather_and_dgemm_agree_bitwise(self, rng):
        kernel = _random_kernel(rng)
        value_index = rng.integers(0, kernel.n_values, size=(37, 9))
        dgemm = kernel.scores(value_index)
        gather = kernel.scores_gather(value_index)
        assert np.array_equal(dgemm, gather)
        # Bit-identical across block sizes too (exactness => order
        # independence).
        assert np.array_equal(gather, kernel.scores_gather(value_index, 3))

    def test_scores_match_bruteforce(self, rng):
        kernel = _random_kernel(rng, rows=5, cells=4)
        value_index = rng.integers(0, kernel.n_values, size=(6, 4))
        expected = np.array(
            [
                [
                    sum(
                        kernel.lut[value_index[q, c], kernel.codes[r, c]]
                        for c in range(4)
                    )
                    for r in range(5)
                ]
                for q in range(6)
            ],
            dtype=float,
        )
        assert np.array_equal(kernel.scores(value_index), expected)

    def test_scores_with_numpy_adapter_is_bit_identical(self, rng):
        kernel = _random_kernel(rng)
        value_index = rng.integers(0, kernel.n_values, size=(21, 9))
        xp = get_array_module("numpy")
        assert np.array_equal(
            kernel.scores_with(xp, value_index), kernel.scores(value_index)
        )

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError, match="symbol range"):
            LUTKernel(np.array([[0, 3]]), np.zeros((2, 3), dtype=int))

    def test_rejects_float_lut(self):
        with pytest.raises(ValueError, match="integer"):
            LUTKernel(np.zeros((2, 2), int), np.zeros((2, 2)))

    def test_rejects_out_of_range_value_index(self, rng):
        kernel = _random_kernel(rng, n_values=3)
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            kernel.scores(np.full((2, 9), 3))

    def test_rejects_wrong_width_value_index(self, rng):
        kernel = _random_kernel(rng, cells=9)
        with pytest.raises(ValueError, match="value index"):
            kernel.scores(np.zeros((2, 8), dtype=int))

    def test_oversized_lut_refuses_at_construction(self):
        codes = np.zeros((2, 1 << 10), dtype=int)
        lut = np.full((2, 1), 1 << 44, dtype=np.int64)
        with pytest.raises(KernelOverflowError):
            LUTKernel(codes, lut)


def _stable_prefix(values, k):
    return np.argsort(values, axis=1, kind="stable")[:, :k]


def _partition_path_everywhere():
    """Send every shape with 0 < k < m down the partition path, one
    row per partition block where rows are wider than 7 columns and a
    ragged last block where they are narrower."""
    return mock.patch.multiple(
        kernel_module,
        TOP_K_MIN_ELEMENTS=0,
        TOP_K_MIN_COLUMNS=0,
        TOP_K_BLOCK_ELEMENTS=7,
    )


@st.composite
def selector_inputs(draw):
    """Tie-heavy small-integer arrays, float64 or int64, with masked
    (``+inf`` / int64 max) and, for floats, NaN columns; shapes drawn on
    both sides of the :data:`TOP_K_MIN_ELEMENTS` /
    :data:`TOP_K_MIN_COLUMNS` crossover; ``k`` in {1, m - 1, m} or
    anywhere below m."""
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    if draw(st.booleans()):  # below the crossover: argsort fallback
        n = draw(st.integers(0, 4))
        m = draw(st.integers(1, 40))
    else:
        m = draw(st.integers(TOP_K_MIN_COLUMNS, 2 * TOP_K_MIN_ELEMENTS))
        n = draw(st.integers(-(-TOP_K_MIN_ELEMENTS // m), 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, draw(st.integers(1, 8)), size=(n, m))
    values = values.astype(dtype)
    masked = rng.random(m) < draw(st.sampled_from([0.0, 0.1, 0.6]))
    values[:, masked] = (
        np.inf if dtype is np.float64 else np.iinfo(np.int64).max
    )
    if dtype is np.float64 and draw(st.booleans()):
        values[rng.random((n, m)) < draw(st.sampled_from([0.3, 0.9]))] = (
            np.nan
        )
    k = draw(st.sampled_from([1, m - 1, m]) | st.integers(1, m))
    return values, k


#: Pinned edge shapes: no rows, one row past the crossover with k in
#: {1, m - 1, m}, and a two-row int64 block, all tie-only with masked
#: columns.
_MASKED = np.arange(3000) % 7 == 0
_TIES = np.where(_MASKED, np.inf, np.arange(3000) % 3)[None, :]
_INT_TIES = np.where(_MASKED, np.iinfo(np.int64).max, np.arange(3000) % 3)
EDGE_CASES = [
    (np.empty((0, 3000)), 10),
    (_TIES, 1),
    (_TIES, 2999),
    (_TIES, 3000),
    (np.tile(_INT_TIES, (2, 1)), 5),
]


class TestTopKStable:
    @given(selector_inputs())
    @example(EDGE_CASES[0])
    @example(EDGE_CASES[1])
    @example(EDGE_CASES[2])
    @example(EDGE_CASES[3])
    @example(EDGE_CASES[4])
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_stable_argsort_prefix(self, case):
        values, k = case
        picked = top_k_stable(values, k)
        assert picked.dtype == np.intp
        assert np.array_equal(picked, _stable_prefix(values, k))
        # Memory layout is not part of the answer.
        assert np.array_equal(
            top_k_stable(np.asfortranarray(values), k), picked
        )
        # Unordered: the same columns, ascending.
        assert np.array_equal(
            top_k_stable(values, k, ordered=False), np.sort(picked, axis=1)
        )

    @given(selector_inputs())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_partition_path_equals_prefix_at_any_size(self, case):
        """With the crossover at zero every shape with k < m takes the
        partition path, tiny and empty ones included."""
        values, k = case
        with _partition_path_everywhere():
            picked = top_k_stable(values, k)
            unordered = top_k_stable(values, k, ordered=False)
        prefix = _stable_prefix(values, k)
        assert np.array_equal(picked, prefix)
        assert np.array_equal(unordered, np.sort(prefix, axis=1))

    def test_nan_boundary_regression(self):
        """The k-th smallest value is NaN: the boundary comparisons are
        all false, which used to crash the reshape."""
        nan = np.nan
        values = np.array([[nan, nan, 1, 0, 2]])
        assert top_k_stable(values, 4).tolist() == [[3, 2, 4, 0]]
        # Through the partition path, same answer.
        wide = np.array([[nan, nan, 1, 0, 2] + [nan] * 6])
        with _partition_path_everywhere():
            assert top_k_stable(values, 4).tolist() == [[3, 2, 4, 0]]
            assert top_k_stable(wide, 4).tolist() == [[3, 2, 4, 0]]
            assert np.array_equal(
                top_k_stable(wide, 5), _stable_prefix(wide, 5)
            )

    def test_k_zero_and_empty_rows(self):
        values = np.arange(64 * 64, dtype=float).reshape(64, 64)
        assert top_k_stable(values, 0).shape == (64, 0)
        assert top_k_stable(np.empty((0, 64)), 3).shape == (0, 3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="2-D"):
            top_k_stable(np.zeros(5), 1)
        with pytest.raises(ValueError, match="k must be"):
            top_k_stable(np.zeros((2, 5)), -1)


class TestArrayModuleFacade:
    def test_numpy_is_always_available(self):
        assert "numpy" in available_modules()

    def test_default_resolution_returns_a_module(self):
        xp = get_array_module()
        assert isinstance(xp, ArrayModule)
        assert xp.name in ("numpy", "cupy", "torch")

    def test_missing_optional_dependency_degrades_to_numpy(self):
        # cupy/torch may or may not be installed; asking for them must
        # never raise — numpy is the guaranteed floor.
        xp = get_array_module(("cupy", "torch"))
        assert xp.name in ("numpy", "cupy", "torch")

    def test_unknown_module_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown array module"):
            get_array_module("numpyy")

    def test_roundtrip_matmul(self, rng):
        xp = get_array_module("numpy")
        a = rng.integers(0, 5, size=(3, 4)).astype(float)
        b = rng.integers(0, 5, size=(4, 2)).astype(float)
        out = xp.to_numpy(xp.matmul(xp.asarray(a), xp.asarray(b)))
        assert np.array_equal(out, a @ b)
