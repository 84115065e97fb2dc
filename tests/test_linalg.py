import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from folkwalk.dataset import _checked_matrix
from folkwalk.linalg import (
    PIVOT_EPS,
    NegativeEntryError,
    ShapeError,
    SingularMatrixError,
    invert_in_place,
    invert_spd_in_place,
    row_normalize,
)

from gen import csr, entry_list


def dense(m):
    """Dense copy of a matrix the pipeline computed, after checking it is
    what every stage expects to receive: float64 CSR storing no zeros, so
    the stored pattern is the nonzero pattern."""
    assert m.format == "csr" and m.dtype == np.float64
    assert np.all(m.data != 0)
    return m.toarray()


def rand_sparse(rng, rows, cols, density=0.4, nonneg=True):
    mask = rng.random((rows, cols)) < density
    vals = rng.random((rows, cols))
    if not nonneg:
        vals = vals - 0.5
    return sp.csr_matrix(np.where(mask, vals, 0.0))


def csr_lists(rows, i, j, v) -> dict:
    """The CSR arrays, as JSON lists, of the entries ``(i[k], j[k], v[k])``
    given in row order."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=rows))))
    indices, data = np.asarray(j).tolist(), np.asarray(v).tolist()
    return {"indptr": indptr.tolist(), "indices": indices, "data": data}


def checked(rows, cols, i, j, v):
    """:func:`_checked_matrix` of the entries ``(i[k], j[k], v[k])`` given in
    row order."""
    return _checked_matrix(rows, cols, csr_lists(rows, i, j, v), check_booleans=True)


class TestSparseMatrix:
    """Where a sparse matrix enters the program: the dataset reader's
    :func:`_checked_matrix` check of a matrix's CSR arrays."""

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            checked(2, 2, [0, 0], [0, 0], [1.0, 2.0])

    def test_out_of_bounds_rejected(self):
        # CSR arrays hold rows 0 .. rows - 1, so only a column can be out of bounds
        with pytest.raises(ValueError, match="out of bounds"):
            checked(2, 2, [0], [2], [1.0])
        with pytest.raises(ValueError, match="out of bounds"):
            checked(2, 2, [1], [-1], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            checked(1, 1, [0], [0], [float("nan")])
        with pytest.raises(ValueError, match="non-finite"):
            checked(1, 1, [0], [0], [float("inf")])

    def test_explicit_zeros_dropped(self):
        m = checked(2, 2, [0, 1], [0, 1], [0.0, 3.0])
        assert m.nnz == 1
        assert entry_list(m) == [(1, 1, 3.0)]

    def test_entries_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rand_sparse(rng, 6, 4)
        again = checked(6, 4, *zip(*entry_list(m)))
        np.testing.assert_array_equal(m.toarray(), dense(again))

    def test_unsorted_rows_sorted(self):
        m = checked(3, 3, [0, 0, 2], [2, 1, 0], [2.0, 1.0, 1.5])
        assert m.indices.tolist() == [1, 2, 0] and m.data.tolist() == [1.0, 2.0, 1.5]
        assert m.has_canonical_format
        assert entry_list(m) == [(0, 1, 1.0), (0, 2, 2.0), (2, 0, 1.5)]
        assert all(type(x) is t for e in entry_list(m) for x, t in zip(e, (int, int, float)))

    def test_matches_the_scipy_build(self):
        rng = np.random.default_rng(1)
        entries = entry_list(rand_sparse(rng, 5, 7)) + [(4, 6, 0.0)]
        got = checked(5, 7, *zip(*entries))
        want = csr(5, 7, entries)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        empty = checked(2, 3, [], [], [])
        assert empty.shape == (2, 3) and empty.nnz == 0 and empty.dtype == np.float64

    # ingest hands the check numpy arrays, with no boolean scan
    @pytest.mark.parametrize(
        "j, v, error",
        [
            ([0, 0], [1.0, 2.0], "duplicate"),
            ([1, 0, 1], [1.0, 1.0, 1.0], "duplicate"),
            ([2], [1.0], "out of bounds"),
            ([-1], [1.0], "out of bounds"),
            ([0], [np.nan], "non-finite"),
            ([0], [np.inf], "non-finite"),
            ([0], [-1.0], "negative entry"),
        ],
    )
    def test_numpy_arrays_run_the_entry_checks(self, j, v, error):
        arrays = {"indptr": np.array([0, len(j)]), "indices": np.array(j), "data": np.array(v)}
        with pytest.raises(ValueError, match=error):
            _checked_matrix(1, 2, arrays, check_booleans=False)


class TestRowNormalize:
    def test_basic(self):
        m = sp.csr_matrix([[1.0, 1.0], [0.0, 2.0]])
        np.testing.assert_allclose(dense(row_normalize(m)), [[0.5, 0.5], [0, 1]])

    def test_zero_row_stays_zero(self):
        m = sp.csr_matrix([[0.0, 0.0], [3.0, 1.0]])
        np.testing.assert_allclose(dense(row_normalize(m)), [[0, 0], [0.75, 0.25]])

    def test_negative_entry_names_coordinate(self):
        m = sp.csr_matrix([[1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(NegativeEntryError, match=r"\(1, 1\)"):
            row_normalize(m)

    def test_random_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        m = rand_sparse(rng, 20, 15)
        arr = m.toarray()
        sums = arr.sum(axis=1, keepdims=True)
        expected = np.divide(arr, sums, out=np.zeros_like(arr), where=sums > 0)
        np.testing.assert_allclose(dense(row_normalize(m)), expected, atol=1e-15)
        out_sums = dense(row_normalize(m)).sum(axis=1)
        for i in range(20):
            if arr[i].sum() > 0:
                assert abs(out_sums[i] - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        m = rand_sparse(rng, 12, 9)
        once = row_normalize(m)
        twice = row_normalize(once)
        assert np.abs(dense(once) - dense(twice)).max() < 1e-12

    def test_pattern_unchanged(self):
        rng = np.random.default_rng(3)
        m = rand_sparse(rng, 10, 10)
        normed = row_normalize(m)
        assert [(i, j) for i, j, _ in entry_list(m)] == [(i, j) for i, j, _ in entry_list(normed)]


class TestMatmul:
    """The similarity chains are scipy ``@`` products of checked CSR
    matrices; their results go on to the next stage unchecked."""

    def test_identity_law(self):
        rng = np.random.default_rng(1)
        m = rand_sparse(rng, 3, 3)
        eye = sp.csr_matrix(np.eye(3))
        np.testing.assert_allclose(dense(eye @ m), m.toarray())

    def test_hand_checked(self):
        a = sp.csr_matrix([[1.0, 2.0], [0.0, 1.0]])
        b = sp.csr_matrix([[1.0], [1.0]])
        np.testing.assert_allclose(dense(a @ b), [[3], [1]])

    def test_random_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        a, b = rand_sparse(rng, 10, 12), rand_sparse(rng, 12, 8)
        da, db = a.toarray(), b.toarray()
        expected = np.zeros((10, 8))
        for i in range(10):
            for j in range(8):
                for k in range(12):
                    expected[i, j] += da[i, k] * db[k, j]
        assert np.abs(dense(a @ b) - expected).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rand_sparse(rng, 6, 7), rand_sparse(rng, 7, 5), rand_sparse(rng, 5, 4)
        left = dense((a @ b) @ c)
        right = dense(a @ (b @ c))
        assert np.abs(left - right).max() < 1e-10

    @pytest.mark.parametrize("seed", [3, 4])
    def test_stochastic_product_is_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        a = row_normalize(sp.csr_matrix(rng.random((6, 6)) + 0.01))
        b = row_normalize(sp.csr_matrix(rng.random((6, 6)) + 0.01))
        sums = dense(a @ b).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-10


class TestTranspose:
    """Transposes are taken as ``.T.tocsr()``, which stays CSR."""

    def test_basic(self):
        m = sp.csr_matrix([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(dense(m.T.tocsr()), [[1, 3], [2, 4]])

    def test_involution_exact(self):
        rng = np.random.default_rng(9)
        m = rand_sparse(rng, 30, 7)
        np.testing.assert_array_equal(dense(m.T.tocsr().T.tocsr()), m.toarray())

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        m = rand_sparse(rng, 30, 7)
        np.testing.assert_array_equal(dense(m.T.tocsr()), m.toarray().T)


class TestInvertInPlace:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_inverse_in_own_buffer(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 40))
        # off-diagonal row sums stay below 1, the diagonal is 1 + k/2
        a = np.asfortranarray(rng.random((k, k)) / k + (0.5 * k + 1.0) * np.eye(k))
        expected = np.linalg.inv(a)
        inv = invert_in_place(a)
        assert np.shares_memory(inv, a)
        np.testing.assert_allclose(inv, expected, rtol=0, atol=1e-12)

    def test_one_by_one_and_empty(self):
        a = np.full((1, 1), 4.0, order="F")
        np.testing.assert_array_equal(invert_in_place(a), [[0.25]])
        assert invert_in_place(np.zeros((0, 0), order="F")).shape == (0, 0)

    def test_singular_raises(self):
        a = np.asfortranarray([[1.0, 2.0], [2.0, 4.0 + PIVOT_EPS / 10]])
        with pytest.raises(SingularMatrixError):
            invert_in_place(a)

    def test_non_finite_raises(self):
        a = np.eye(3, order="F")
        a[1, 2] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            invert_in_place(a)

    @pytest.mark.parametrize(
        "a,error",
        [
            (np.ones((2, 3), order="F"), ShapeError),
            (np.eye(3), ValueError),  # C-ordered
            (np.eye(3, dtype=np.float32, order="F"), ValueError),
        ],
    )
    def test_rejects_other_buffers(self, a, error):
        with pytest.raises(error):
            invert_in_place(a)

    def test_concurrent_inversions_match_sequential(self):
        # nothing in the pipeline inverts on threads, but the kernel stays
        # safe there: each call has its own pivot and work arrays
        rng = np.random.default_rng(13)
        mats = [rng.random((60, 60)) + 60 * np.eye(60) for _ in range(6)]
        expected = [invert_in_place(np.asfortranarray(m)) for m in mats]

        def invert(i):
            if i % 3 == 2:
                with pytest.raises(SingularMatrixError):
                    invert_in_place(np.ones((60, 60), order="F"))
                return None
            return invert_in_place(np.asfortranarray(mats[i % 6]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(invert, range(120), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for i, inv in enumerate(results):
            if i % 3 != 2:
                np.testing.assert_allclose(inv, expected[i % 6], rtol=0, atol=1e-12)


def spd(rng, k):
    """A random k x k symmetric positive definite matrix, Fortran-ordered."""
    b = rng.random((k, k))
    return np.asfortranarray(b @ b.T / k + np.eye(k))


class TestInvertSpdInPlace:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_inverse_in_own_buffer(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 40))
        a = spd(rng, k)
        expected = np.linalg.inv(a)
        inv = invert_spd_in_place(a)
        assert np.shares_memory(inv, a)
        assert np.abs(inv - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_unscaled_inverse_is_symmetric(self):
        a = spd(np.random.default_rng(5), 300)
        expected = np.linalg.inv(a)
        inv = invert_spd_in_place(a)
        # the lower triangle is mirrored from potri's upper one, across
        # several column blocks at k = 300
        np.testing.assert_array_equal(inv, inv.T)
        assert np.abs(inv - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_reads_only_the_upper_triangle(self):
        a = spd(np.random.default_rng(6), 7)
        expected = np.linalg.inv(a)
        a[np.tril_indices(7, -1)] = 99.0
        np.testing.assert_allclose(invert_spd_in_place(a), expected, rtol=0, atol=1e-12)

    def test_one_by_one_and_empty(self):
        a = np.full((1, 1), 4.0, order="F")
        np.testing.assert_array_equal(invert_spd_in_place(a), [[0.25]])
        empty = np.zeros((0, 0), order="F")
        assert invert_spd_in_place(empty).shape == (0, 0)

    @pytest.mark.parametrize(
        "a",
        [
            [[1.0, 2.0], [2.0, 1.0]],  # indefinite
            [[-1.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0 + PIVOT_EPS / 10]],  # second pivot below PIVOT_EPS
        ],
    )
    def test_not_positive_definite_raises(self, a):
        with pytest.raises(SingularMatrixError):
            invert_spd_in_place(np.asfortranarray(a))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("column", [2, 40, 69])
    def test_non_finite_raises(self, bad, column):
        # finiteness is checked a block of columns at a time: a bad entry
        # in the first, a middle or the last, partial block is found
        a = np.eye(70, order="F")
        a[0, column] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            invert_spd_in_place(a)

    @pytest.mark.parametrize("k", [600, 1500])
    def test_allocates_no_k_by_k_temporary(self, k):
        a = spd(np.random.default_rng(k), k)
        # the first call imports scipy.linalg, whose objects would be traced
        invert_spd_in_place(np.eye(2, order="F"))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            invert_spd_in_place(a)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # the check and the mirroring work a column or a block of columns
        # at a time
        assert peak <= 0.05 * 8 * k * k

    @pytest.mark.parametrize(
        "a,error",
        [
            (np.ones((2, 3), order="F"), ShapeError),
            (np.eye(3), ValueError),  # C-ordered
            (np.eye(3, dtype=np.float32, order="F"), ValueError),
        ],
    )
    def test_rejects_other_buffers(self, a, error):
        with pytest.raises(error):
            invert_spd_in_place(a)
