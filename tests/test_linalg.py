import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from folkwalk.dataset import _checked_matrix, _entry_columns
from folkwalk.linalg import (
    PIVOT_EPS,
    NegativeEntryError,
    ShapeError,
    SingularMatrixError,
    csr_from_coo,
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


class TestSparseMatrix:
    """Where a sparse matrix enters the program: the :func:`csr_from_coo`
    check, and the sorted entry lists a format-1 dataset snapshot stores."""

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            csr(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ShapeError):
            csr(2, 2, [(0, 2, 1.0)])
        with pytest.raises(ShapeError):
            csr(2, 2, [(2, 0, 1.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            csr(1, 1, [(0, 0, float("nan"))])
        with pytest.raises(ValueError, match="non-finite"):
            csr(1, 1, [(0, 0, float("inf"))])

    def test_explicit_zeros_dropped(self):
        m = csr(2, 2, [(0, 0, 0.0), (1, 1, 3.0)])
        assert m.nnz == 1
        assert entry_list(m) == [(1, 1, 3.0)]

    def test_entries_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rand_sparse(rng, 6, 4)
        again = csr(6, 4, entry_list(m))
        np.testing.assert_array_equal(m.toarray(), dense(again))

    def test_entries_are_sorted_python_scalars(self):
        m = csr(3, 3, [(2, 0, 1.5), (0, 2, 2.0), (0, 1, 1.0)])
        assert entry_list(m) == [(0, 1, 1.0), (0, 2, 2.0), (2, 0, 1.5)]
        assert all(type(x) is t for e in entry_list(m) for x, t in zip(e, (int, int, float)))

    def test_from_coo_matches_entry_constructor(self):
        # the snapshot reader builds its matrices from [row, col, value] lists
        rng = np.random.default_rng(1)
        entries = entry_list(rand_sparse(rng, 5, 7)) + [(4, 6, 0.0)]
        i, j, v = (np.array(column) for column in zip(*entries))
        got = csr_from_coo(5, 7, i, j, v)
        want = _checked_matrix(5, 7, *_entry_columns([list(e) for e in entries]), check_booleans=True)
        assert entry_list(got) == entry_list(want)
        assert got.shape == (5, 7) and csr_from_coo(2, 3, [], [], []).shape == (2, 3)

    @pytest.mark.parametrize(
        "shape, i, j, v, error",
        [
            ((2, 2), [0, 0], [0, 0], [1.0, 2.0], "duplicate"),
            ((2, 2), [0], [2], [1.0], "out of bounds"),
            ((2, 2), [-1], [0], [1.0], "out of bounds"),
            ((1, 1), [0], [0], [np.nan], "non-finite"),
            ((1, 1), [0], [0], [np.inf], "non-finite"),
            ((-1, 2), [], [], [], "negative dimensions"),
        ],
    )
    def test_from_coo_runs_the_entry_checks(self, shape, i, j, v, error):
        with pytest.raises(ValueError, match=error):
            csr_from_coo(*shape, np.array(i), np.array(j), np.array(v))
        with pytest.raises(ValueError, match=error):
            _checked_matrix(*shape, i, j, v, check_booleans=False)


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

    def test_non_finite_raises(self):
        for bad in (np.inf, np.nan):
            a = np.eye(3, order="F")
            a[0, 2] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                invert_spd_in_place(a)

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
