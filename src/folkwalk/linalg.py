"""Matrix checks and kernels of the recommender pipeline.

Sparse matrices are plain scipy CSR (float64) throughout; products,
transposes and blends are scipy's own operators. This module holds what
scipy does not: the entry check where a matrix enters the program
(:func:`csr_from_coo`), row normalization, and the one dense kernel: the
in-place LU inverse that turns each walk system, the pRW operator's and
the reference closed forms' alike, into its inverse in the system's own
buffer. No function writes to its arguments except ``invert_in_place``,
which exists to.
"""

from __future__ import annotations

import ctypes
from functools import cache

import numpy as np
import scipy.sparse as sp

PIVOT_EPS = 1e-12


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NegativeEntryError(ValueError):
    """A non-negative matrix contains a negative entry."""


class SingularMatrixError(ArithmeticError):
    """LU factorization hit a pivot below the singularity threshold."""


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


@cache
def _dgetri():
    """LAPACK's ``dgetri`` as a ctypes function over scipy's Cython LAPACK
    export. scipy's Python wrapper of ``getri`` holds the GIL for the whole
    inversion; a ctypes call releases it, so inversions on two threads
    overlap."""
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["dgetri"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )(capsule, name)
    # dgetri(n, a, lda, ipiv, work, lwork, info), every argument by pointer
    int_p, double_p = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    return ctypes.CFUNCTYPE(None, int_p, double_p, int_p, int_p, double_p, int_p, int_p)(address)


def invert_in_place(a: np.ndarray) -> np.ndarray:
    """A^-1 for a square, float64, Fortran-ordered ``a``, computed in ``a``'s
    own buffer (``getrf``, then ``getri``) and returned: no second k × k
    array is allocated.

    A pivot with absolute value below ``PIVOT_EPS`` raises
    :class:`SingularMatrixError`, leaving part of the LU factorization in
    ``a``; a non-finite entry raises ``ValueError``. Each call has its own
    pivot and work arrays and both LAPACK calls release the GIL, so
    inversions of distinct matrices on several threads run at once.
    """
    import scipy.linalg

    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix to invert must be square, got {a.shape}")
    if a.dtype != np.float64 or not a.flags.f_contiguous:
        raise ValueError("matrix to invert must be a Fortran-ordered float64 array")
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    k = a.shape[0]
    if not k:
        return a
    getrf, getri_lwork = scipy.linalg.get_lapack_funcs(("getrf", "getri_lwork"), (a,))
    lu, piv, info = getrf(a, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    # info > 0 marks an exactly zero pivot, which the threshold also catches
    if np.abs(np.diag(lu)).min() < PIVOT_EPS:
        raise SingularMatrixError(
            f"pivot below {PIVOT_EPS:g}; matrix is singular or near-singular"
        )
    # scipy returns pivot rows counted from 0; LAPACK counts them from 1
    ipiv = np.add(piv, 1, dtype=np.intc)
    lwork = max(int(getri_lwork(k)[0]), 1)
    work = np.empty(lwork)
    n, lw, status = ctypes.c_int(k), ctypes.c_int(lwork), ctypes.c_int(0)
    double_p, int_p = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int)
    _dgetri()(
        ctypes.byref(n), lu.ctypes.data_as(double_p), ctypes.byref(n),
        ipiv.ctypes.data_as(int_p), work.ctypes.data_as(double_p), ctypes.byref(lw),
        ctypes.byref(status),
    )
    if status.value != 0:
        raise ValueError(f"getri failed with status {status.value}")
    return lu
