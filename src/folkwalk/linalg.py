"""Matrix checks and kernels of the recommender pipeline.

Sparse matrices are plain scipy CSR (float64) throughout; products,
transposes and blends are scipy's own operators. This module holds what
scipy does not: the entry check where a matrix enters the program
(:func:`csr_from_coo`), row normalization, and two dense kernels that
invert a matrix in its own buffer. :func:`invert_spd_in_place` is the
Cholesky inverse of a symmetric positive definite matrix: it builds each
base of the pRW operator. :func:`invert_in_place` is the LU inverse of
any square matrix: it serves the operator's small Woodbury systems and
the reference closed forms. No function writes to its arguments except
these two, which exist to.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

PIVOT_EPS = 1e-12
_SINGULAR = f"pivot below {PIVOT_EPS:g}; matrix is singular or near-singular"
# columns per step of the SPD inverse's triangle mirroring
_MIRROR_BLOCK = 256


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NegativeEntryError(ValueError):
    """A non-negative matrix contains a negative entry."""


class SingularMatrixError(ArithmeticError):
    """A factorization (LU or Cholesky) hit a pivot below ``PIVOT_EPS``."""


def csr_from_coo(rows: int, cols: int, i, j, values) -> sp.csr_matrix:
    """CSR matrix with ``values[k]`` at ``(i[k], j[k])``: the check every
    matrix passes where it enters the program. Rejects a negative shape,
    indices out of bounds, a repeated coordinate and non-finite values;
    drops stored zeros, so the stored pattern equals the nonzero pattern.
    Results computed from checked matrices are not re-checked."""
    if rows < 0 or cols < 0:
        raise ShapeError(f"negative dimensions ({rows}, {cols})")
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    v = np.asarray(values, dtype=np.float64)
    if not len(i):
        return sp.csr_matrix((rows, cols), dtype=np.float64)
    if i.min() < 0 or j.min() < 0 or i.max() >= rows or j.max() >= cols:
        raise ShapeError(f"entry index out of bounds for shape ({rows}, {cols})")
    # sorted, a repeated coordinate sits next to its twin; a sort is many
    # times faster than np.unique's hash table here
    flat = np.sort(i * cols + j)
    if np.any(flat[1:] == flat[:-1]):
        raise ValueError("duplicate (row, col) coordinates in entry list")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite value in entry list")
    mat = sp.coo_matrix((v, (i, j)), shape=(rows, cols)).tocsr()
    mat.eliminate_zeros()
    return mat


def row_normalize(m: sp.csr_matrix) -> sp.csr_matrix:
    """Scale each row to unit sum; rows with no entries stay all-zero.

    Raises :class:`NegativeEntryError` if any entry is negative, naming the
    offending coordinate.
    """
    if m.nnz and m.data.min() < 0:
        coo = m.tocoo()
        k = int(np.argmin(coo.data))
        raise NegativeEntryError(
            f"negative entry {coo.data[k]} at ({coo.row[k]}, {coo.col[k]})"
        )
    sums = np.asarray(m.sum(axis=1)).ravel()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return sp.diags(scale) @ m


def _check_square_buffer(a: np.ndarray) -> None:
    """Raise unless ``a`` is a square, Fortran-ordered, finite float64 array."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix to invert must be square, got {a.shape}")
    if a.dtype != np.float64 or not a.flags.f_contiguous:
        raise ValueError("matrix to invert must be a Fortran-ordered float64 array")
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def invert_in_place(a: np.ndarray) -> np.ndarray:
    """A^-1 for a square, float64, Fortran-ordered ``a``, computed in ``a``'s
    own buffer (``getrf``, then ``getri``) and returned: no second k × k
    array is allocated.

    A pivot with absolute value below ``PIVOT_EPS`` raises
    :class:`SingularMatrixError`, leaving part of the LU factorization in
    ``a``; a non-finite entry raises ``ValueError``. Each call has its own
    pivot and work arrays, so inversions of distinct matrices on several
    threads are safe.
    """
    import scipy.linalg

    _check_square_buffer(a)
    if not a.shape[0]:
        return a
    getrf, getri, getri_lwork = scipy.linalg.get_lapack_funcs(
        ("getrf", "getri", "getri_lwork"), (a,)
    )
    lu, piv, info = getrf(a, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    # info > 0 marks an exactly zero pivot, which the threshold also catches
    if np.abs(np.diag(lu)).min() < PIVOT_EPS:
        raise SingularMatrixError(_SINGULAR)
    lwork = max(int(getri_lwork(a.shape[0])[0]), 1)
    inv, info = getri(lu, piv, lwork=lwork, overwrite_lu=True)
    if info != 0:
        raise ValueError(f"getri failed with status {info}")
    return inv


def invert_spd_in_place(a: np.ndarray) -> np.ndarray:
    """A^-1 for a symmetric positive definite, float64, Fortran-ordered
    ``a``, computed in ``a``'s own buffer and returned. Only ``a``'s upper
    triangle enters the inverse.

    ``potrf`` factors A = U^T U and ``potri`` writes A^-1's upper triangle
    over it, k^3 flops against ``getrf``+``getri``'s 2k^3; the lower
    triangle is then mirrored in place. A Cholesky pivot below
    ``PIVOT_EPS`` (a matrix that is not positive definite has a
    non-positive one) raises :class:`SingularMatrixError`; a non-finite
    entry raises ``ValueError``.
    """
    import scipy.linalg

    _check_square_buffer(a)
    k = a.shape[0]
    if not k:
        return a
    potrf, potri = scipy.linalg.get_lapack_funcs(("potrf", "potri"), (a,))
    u, info = potrf(a, lower=False, clean=False, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    # info > 0 marks a non-positive pivot; U's diagonal holds the pivots'
    # square roots
    if info > 0 or np.diag(u).min() ** 2 < PIVOT_EPS:
        raise SingularMatrixError(_SINGULAR)
    inv, info = potri(u, lower=False, overwrite_c=True)
    if info != 0:
        raise ValueError(f"potri failed with status {info}")
    # mirror the upper triangle a block of columns at a time, so no k x k
    # index or copy array is made
    for lo in range(0, k, _MIRROR_BLOCK):
        hi = min(lo + _MIRROR_BLOCK, k)
        diag = inv[lo:hi, lo:hi]
        lower = np.tril_indices(hi - lo, -1)
        diag[lower] = diag.T[lower]
        inv[hi:, lo:hi] = inv[lo:hi, hi:].T
    return inv
