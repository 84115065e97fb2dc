"""Random walks with restart over the item and user graphs.

The user-centric walk iterates X(t+1) = lambda * S_user @ X(t) + (1 - lambda) * R
from X(0) = R, where R is the row-normalized interaction matrix. The
item-centric walk X(t+1) = eta * X(t) @ S_item + (1 - eta) * R is the same
walk on transposed inputs, so both sides share one iteration and one closed
form. The pipeline runs the closed form, one dense LU solve per walk; the
iteration is the reference implementation of the paper's algorithm. The two
walks are independent until fused, so the pipeline solves them on two
threads at once (LAPACK releases the GIL) and fuses into the item walk's
buffer. Score matrices are dense ndarrays from the walk to the ranking.
:func:`fuse` and :func:`recommend_all` serve every algorithm: fuse also
blends Fusion CF's user and item scores, and recommend_all ranks every
non-random algorithm's score matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import ShapeError, solve_dense


@dataclass(frozen=True)
class WalkConfig:
    """Hyperparameters for the two walks and their fusion."""

    eta: float = 0.8
    lambda_: float = 0.8
    mu: float = 0.5

    def __post_init__(self):
        _check_damping(self.eta, "eta")
        _check_damping(self.lambda_, "lambda")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {self.mu}")


def _check_damping(value: float, name: str) -> None:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value}")


def _check_similarity(s: sp.csr_matrix, size: int, side: str, scores_shape) -> None:
    if s.shape != (size, size):
        raise ShapeError(f"{side} similarity {s.shape} incompatible with scores {scores_shape}")


def _walk(
    restart: np.ndarray,
    s: sp.csr_matrix,
    damping: float,
    tol: float,
    max_iters: int,
    trace: list[float] | None,
) -> tuple[np.ndarray, int]:
    """Iterate X <- damping * S @ X + (1 - damping) * R from X = R until the
    max-abs change drops below ``tol`` or ``max_iters`` steps ran."""
    x = restart
    for it in range(1, max_iters + 1):
        x_next = damping * (s @ x) + (1.0 - damping) * restart
        change = float(np.max(np.abs(x_next - x))) if x.size else 0.0
        if trace is not None:
            trace.append(change)
        x = x_next
        if change < tol:
            return x, it
    return x, max_iters


def walk_item(
    ui_norm: sp.csr_matrix,
    s_item: sp.csr_matrix,
    eta: float,
    tol: float = 1e-6,
    max_iters: int = 100,
    trace: list[float] | None = None,
) -> tuple[np.ndarray, int]:
    """Item-centric walk; returns the score matrix and the number of
    iterations performed. ``trace`` collects per-iteration max-abs changes.
    """
    _check_damping(eta, "eta")
    _check_similarity(s_item, ui_norm.shape[1], "item", ui_norm.shape)
    x, iters = _walk(ui_norm.T.toarray(), s_item.T.tocsr(), eta, tol, max_iters, trace)
    return x.T, iters


def walk_user(
    ui_norm: sp.csr_matrix,
    s_user: sp.csr_matrix,
    lambda_: float,
    tol: float = 1e-6,
    max_iters: int = 100,
    trace: list[float] | None = None,
) -> tuple[np.ndarray, int]:
    """User-centric walk: left multiplication by the user similarity."""
    _check_damping(lambda_, "lambda")
    _check_similarity(s_user, ui_norm.shape[0], "user", ui_norm.shape)
    return _walk(ui_norm.toarray(), s_user, lambda_, tol, max_iters, trace)


def _solve_walk(s_dense: np.ndarray, restart: np.ndarray, damping: float) -> np.ndarray:
    """(1 - damping) * (I - damping * S)^{-1} @ R, built in the Fortran-ordered
    dense buffers of S and R, which the LU factorization and solve then
    overwrite: no further dense copy is made."""
    s_dense *= -damping
    s_dense[np.diag_indices_from(s_dense)] += 1.0
    restart *= 1.0 - damping
    return solve_dense(s_dense, restart, overwrite=True)


def closed_form_user(ui_norm: sp.csr_matrix, s_user: sp.csr_matrix, lambda_: float) -> np.ndarray:
    """Limit of the user walk: (1 - lambda) * (I - lambda * S_user)^{-1} @ R,
    computed by a linear solve (never an explicit inverse).

    The system is built in fresh dense buffers, so the inputs are left
    unchanged. The reference to ``s_user`` is dropped once it is dense: a
    caller that passes the similarity without keeping it holds no sparse
    copy during the LU."""
    _check_damping(lambda_, "lambda")
    a = s_user.toarray(order="F")
    del s_user
    return _solve_walk(a, ui_norm.toarray(order="F"), lambda_)


def closed_form_item(ui_norm: sp.csr_matrix, s_item: sp.csr_matrix, eta: float) -> np.ndarray:
    """Limit of the item walk: (1 - eta) * R @ (I - eta * S_item)^{-1}, the
    user walk's system on transposed inputs; ``s_item`` is dropped as in
    :func:`closed_form_user`."""
    _check_damping(eta, "eta")
    # the transpose of a C-ordered dense matrix is its Fortran-ordered
    # dense transpose, so no sparse transpose is built
    a = s_item.toarray().T
    del s_item
    return _solve_walk(a, ui_norm.toarray().T, eta).T


def fuse(first: np.ndarray, second: np.ndarray, mu: float) -> np.ndarray:
    """Entrywise convex combination mu * first + (1 - mu) * second of two
    score matrices of one shape.

    Consumes its inputs: both float64 arrays are scaled in place, and the
    sum is written into ``first`` and returned, so no third score matrix is
    allocated. The result keeps ``first``'s memory order."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if first.shape != second.shape:
        raise ShapeError(f"shape mismatch {first.shape} vs {second.shape}")
    first *= mu
    second *= 1.0 - mu
    first += second
    return first


def smallest_k_mask(keys: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of each row's k smallest keys, ties broken by lower
    column index: every key below the row's k-th smallest, then the
    lowest-indexed keys equal to it. Selects by partition, not a sort."""
    m, n = keys.shape
    if k >= n:
        return np.ones((m, n), dtype=bool)
    if k < 1:
        return np.zeros((m, n), dtype=bool)
    # fancy indexing copies the k-th column, so the partitioned copy is freed
    kth = np.partition(keys, k - 1, axis=1)[:, [k - 1]]
    mask = keys <= kth
    # where ties at the k-th key overflow a row, keep its lowest-indexed ones
    excess = np.count_nonzero(mask, axis=1) - k
    over = np.flatnonzero(excess > 0)
    if len(over):
        tied = (keys == kth)[over]
        keep = np.count_nonzero(tied, axis=1) - excess[over]
        mask[over] &= ~tied | (np.cumsum(tied, axis=1, dtype=np.int32) <= keep[:, None])
    return mask


def recommend_all(
    scores: np.ndarray, train_ui: sp.csr_matrix, top_n: int
) -> dict[int, list[int]]:
    """Top-N items per user by descending score, excluding the user's
    training items; ties broken by ascending item index. A user with fewer
    than ``top_n`` candidates gets all of them."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != train_ui.shape:
        raise ShapeError(f"scores {scores.shape} do not match training matrix {train_ui.shape}")
    rows, cols = train_ui.nonzero()
    # scores are finite, so +inf sorts every training item behind all candidates
    key = np.negative(scores, order="C")
    key[rows, cols] = np.inf
    m, n = key.shape
    # the selected columns come out ascending per row, so a stable sort of
    # their keys keeps the lower index first among ties
    picked = np.nonzero(smallest_k_mask(key, top_n))[1].reshape(m, min(top_n, n))
    order = np.argsort(np.take_along_axis(key, picked, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(picked, order, axis=1)
    counts = np.minimum(top_n, n - np.diff(train_ui.indptr))
    return {u: top[u, :k].tolist() for u, k in enumerate(counts.tolist())}
