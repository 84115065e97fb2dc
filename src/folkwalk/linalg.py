"""Sparse real-matrix kernel.

Storage is CSR (scipy) behind an immutable :class:`SparseMatrix` wrapper.
Provides the small set of operations the recommender pipeline needs: row
normalization, products, transpose, and a dense partial-pivot LU solver used
by the closed-form walk. Matrices are never mutated after construction, and
no function writes to its arguments except ``solve_dense`` when asked to.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
import scipy.sparse as sp

PIVOT_EPS = 1e-12


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NegativeEntryError(ValueError):
    """A non-negative matrix contains a negative entry."""


class SingularMatrixError(ArithmeticError):
    """Dense solve hit a pivot below the singularity threshold."""


def _checked_csr(rows: int, cols: int, i, j, values) -> sp.csr_matrix:
    """CSR matrix with ``values[k]`` at ``(i[k], j[k])`` after the
    constructor checks: shape, index bounds, no repeated coordinate, finite
    values. Stored zeros are dropped."""
    if rows < 0 or cols < 0:
        raise ShapeError(f"negative dimensions ({rows}, {cols})")
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    v = np.asarray(values, dtype=np.float64)
    if not len(i):
        return sp.csr_matrix((rows, cols), dtype=np.float64)
    if i.min() < 0 or j.min() < 0 or i.max() >= rows or j.max() >= cols:
        raise ShapeError(f"entry index out of bounds for shape ({rows}, {cols})")
    flat = i * cols + j
    if len(np.unique(flat)) != len(flat):
        raise ValueError("duplicate (row, col) coordinates in entry list")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite value in entry list")
    mat = sp.coo_matrix((v, (i, j)), shape=(rows, cols)).tocsr()
    mat.eliminate_zeros()
    return mat


class SparseMatrix:
    """Immutable sparse real matrix with explicit dimensions.

    Invariants enforced where a matrix enters the program (entry lists,
    coordinate arrays, dense arrays): no duplicate coordinates, indices
    within the declared shape, all values finite. Results of the operations
    below are not re-checked. Explicitly stored zeros are dropped, so the
    stored pattern equals the nonzero pattern.
    """

    __slots__ = ("_csr",)

    def __init__(self, rows: int, cols: int, entries: Iterable[tuple[int, int, float]] = ()):
        triples = list(entries)
        self._csr = _checked_csr(
            rows, cols, [t[0] for t in triples], [t[1] for t in triples], [t[2] for t in triples]
        )

    @classmethod
    def from_coo(cls, rows: int, cols: int, i, j, values) -> "SparseMatrix":
        """Matrix with ``values[k]`` at ``(i[k], j[k])`` from coordinate
        arrays, checked as the entry-list constructor checks its entries."""
        obj = cls.__new__(cls)
        obj._csr = _checked_csr(rows, cols, i, j, values)
        return obj

    @classmethod
    def _wrap(cls, mat: sp.spmatrix) -> "SparseMatrix":
        """Wrap a scipy matrix produced by a trusted internal operation; its
        operands were checked where they entered the program."""
        obj = cls.__new__(cls)
        obj._csr = sp.csr_matrix(mat, dtype=np.float64)
        obj._csr.eliminate_zeros()
        return obj

    @classmethod
    def from_dense(cls, array: np.ndarray | list) -> "SparseMatrix":
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"expected a 2-d array, got ndim={arr.ndim}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("non-finite value in dense input")
        return cls._wrap(sp.csr_matrix(arr))

    @property
    def rows(self) -> int:
        return self._csr.shape[0]

    @property
    def cols(self) -> int:
        return self._csr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    @property
    def entries(self) -> list[tuple[int, int, float]]:
        """Stored entries as (row, col, value), sorted by (row, col)."""
        coo = self._csr.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return list(
            zip(coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist())
        )

    def csr(self) -> sp.csr_matrix:
        """Read-only view of the underlying CSR storage."""
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def row_sums(self) -> np.ndarray:
        return np.asarray(self._csr.sum(axis=1)).ravel()

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def row_normalize(m: SparseMatrix) -> SparseMatrix:
    """Scale each row to unit sum; rows with no entries stay all-zero.

    Raises :class:`NegativeEntryError` if any entry is negative, naming the
    offending coordinate.
    """
    csr = m.csr()
    if csr.nnz and csr.data.min() < 0:
        coo = csr.tocoo()
        k = int(np.argmin(coo.data))
        raise NegativeEntryError(
            f"negative entry {coo.data[k]} at ({coo.row[k]}, {coo.col[k]})"
        )
    sums = np.asarray(csr.sum(axis=1)).ravel()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return SparseMatrix._wrap(sp.diags(scale) @ csr)


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Sparse product A @ B."""
    if a.cols != b.rows:
        raise ShapeError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    return SparseMatrix._wrap(a.csr() @ b.csr())


def transpose(m: SparseMatrix) -> SparseMatrix:
    return SparseMatrix._wrap(m.csr().T)


def lincomb(wa: float, a: SparseMatrix, wb: float, b: SparseMatrix) -> SparseMatrix:
    """Entrywise wa * A + wb * B."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return SparseMatrix._wrap(wa * a.csr() + wb * b.csr())


def solve_dense(a: np.ndarray, b: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Solve A @ X = B by LU.

    Uses partial-pivot LU; a pivot with absolute value below ``PIVOT_EPS``
    raises :class:`SingularMatrixError`, and a non-finite entry in ``a`` or
    ``b`` raises ``ValueError``. With ``overwrite`` the factorization
    and the solve may use ``a`` and ``b`` as their workspace (they do so
    without a copy when both are float64 and Fortran-ordered), leaving
    their contents undefined. Safe to call from several threads at once:
    LAPACK's status codes are read directly, so no warning filter changes.
    """
    # imported here, not at module load: only the pRW walks solve
    import scipy.linalg

    a = np.asarray_chkfinite(a, dtype=np.float64)
    b = np.asarray_chkfinite(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"coefficient matrix must be square, got {a.shape}")
    b2 = np.atleast_2d(b)
    if b2.shape[0] != a.shape[0]:
        raise ShapeError(f"rhs rows {b2.shape[0]} != system size {a.shape[0]}")
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (a, b2))
    lu, piv, info = getrf(a, overwrite_a=overwrite)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    # info > 0 marks an exactly zero pivot, which the threshold also catches
    if np.abs(np.diag(lu)).min() < PIVOT_EPS:
        raise SingularMatrixError(
            f"pivot below {PIVOT_EPS:g}; matrix is singular or near-singular"
        )
    x, info = getrs(lu, piv, b2, overwrite_b=overwrite)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x if b.ndim == 2 else x.ravel()
