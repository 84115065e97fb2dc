"""Matrix kernels of the recommender pipeline.

Sparse matrices are plain scipy CSR (float64) throughout. A dataset's
matrices enter the program through one check,
:func:`folkwalk.dataset._checked_matrix`, and what is computed from them
is not re-checked; products, transposes and blends are scipy's own
operators. This module holds what scipy does not: row normalization, a
diagonal matrix built directly as CSR, and two dense kernels that invert a
matrix in its own buffer.
:func:`invert_spd_in_place` is the Cholesky inverse of a symmetric
positive definite matrix: it builds each base of the pRW operator.
:func:`invert_in_place` is the LU inverse of any square matrix: it serves
the operator's small Woodbury systems and the reference closed forms. No
function writes to its arguments except these two, which exist to.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

PIVOT_EPS = 1e-12
_SINGULAR = f"pivot below {PIVOT_EPS:g}; matrix is singular or near-singular"
# columns per step of the finiteness check on a matrix to invert
_CHECK_COLUMNS = 32


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NegativeEntryError(ValueError):
    """A non-negative matrix contains a negative entry."""


class SingularMatrixError(ArithmeticError):
    """A factorization (LU or Cholesky) hit a pivot below ``PIVOT_EPS``."""


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
    return diagonal(scale) @ m


def diagonal(v: np.ndarray) -> sp.csr_matrix:
    """diag(v) as CSR, one stored entry a row. A product with it is the
    CSR product that ``sp.diags(v)`` gives (scipy converts DIA to CSR to
    multiply), with the same data, stored index order and indptr, a zero
    of ``v`` included: the product drops the zeros it makes. ``sp.diags``
    would also load ``numpy.ma``, as its DIA constructor calls
    ``np.unique``, which the scoring commands otherwise never run."""
    k = len(v)
    return sp.csr_matrix((v, np.arange(k), np.arange(k + 1)), shape=(k, k))


def _check_square_buffer(a: np.ndarray) -> None:
    """Raise unless ``a`` is a square, Fortran-ordered, finite float64 array.
    Finiteness is checked a block of columns at a time, so no k x k boolean
    array is made."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix to invert must be square, got {a.shape}")
    if a.dtype != np.float64 or not a.flags.f_contiguous:
        raise ValueError("matrix to invert must be a Fortran-ordered float64 array")
    for lo in range(0, a.shape[1], _CHECK_COLUMNS):
        if not np.isfinite(a[:, lo:lo + _CHECK_COLUMNS]).all():
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
    triangle is then mirrored in place, one column at a time, so the
    function allocates no k x k temporary and no index array: its own
    memory beyond ``a`` is O(k). A Cholesky pivot below
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
    # column j below the diagonal is row j right of it; the two 1-d views
    # do not overlap, so numpy copies one into the other without a temporary
    for j in range(k - 1):
        inv[j + 1:, j] = inv[j, j + 1:]
    return inv
