"""The paper's formulas, the references the pRW pipeline is tested against;
no pipeline module imports them.

The item similarity blends two two-hop transition chains: item -> tag -> item
(from the item-tag matrix) and item -> user -> item (from the interaction
matrix). Each hop is row-normalized over its target set, so every chain is
row-stochastic wherever the data gives the row any support. The user
similarity is the same blend with roles swapped: user -> tag -> user and
user -> item -> user chains.

The user-centric walk iterates X(t+1) = lambda * S_user @ X(t) + (1 - lambda) * R
from X(0) = R, where R is the row-normalized interaction matrix. The
item-centric walk X(t+1) = eta * X(t) @ S_item + (1 - eta) * R is the same
walk on transposed inputs, so both sides share one iteration and one
closed form, R times (1 - d) * (I - d * S)^{-1} on the walk's side, an
explicit inverse from :func:`linalg.invert_in_place`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .dataset import TaggingDataset
from .linalg import ShapeError, row_normalize
from .params import _check_damping, _check_weight
from .walker import _damped_inverse, chain_weight


def _two_hop(out_hop: sp.csr_matrix) -> sp.csr_matrix:
    """rownorm(out_hop) @ rownorm(out_hop^T): probability of a two-step jump
    out over the columns and back."""
    return row_normalize(out_hop) @ row_normalize(out_hop.T.tocsr())


def _similarity(tags: sp.csr_matrix, interactions: sp.csr_matrix, weight: float) -> sp.csr_matrix:
    """k x k transition matrix over the k rows of ``tags`` and ``interactions``.

    weight blends the tag chain rownorm(T) @ rownorm(T^T) with the interaction
    chain rownorm(X) @ rownorm(X^T).
    """
    weight = chain_weight(tags, interactions, weight)
    if weight == 1.0:
        return _two_hop(tags)
    if weight == 0.0:
        return _two_hop(interactions)
    return weight * _two_hop(tags) + (1.0 - weight) * _two_hop(interactions)


def item_similarity(ds: TaggingDataset, alpha: float) -> sp.csr_matrix:
    """n x n item transition matrix.

    alpha weights the tag chain rownorm(IT) @ rownorm(IT^T) against the
    interaction chain rownorm(UI^T) @ rownorm(UI).
    """
    _check_weight(alpha, "alpha")
    return _similarity(ds.IT, ds.UI.T.tocsr(), alpha)


def user_similarity(ds: TaggingDataset, beta: float) -> sp.csr_matrix:
    """m x m user transition matrix; the item similarity with roles swapped:
    chains rownorm(UT) @ rownorm(UT^T) and rownorm(UI) @ rownorm(UI^T)."""
    _check_weight(beta, "beta")
    return _similarity(ds.UT, ds.UI, beta)


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


def closed_form_user(ui_norm: sp.csr_matrix, s_user: sp.csr_matrix, lambda_: float) -> np.ndarray:
    """Limit of the user walk: (1 - lambda) * (I - lambda * S_user)^{-1} @ R.
    The inputs are left unchanged."""
    _check_damping(lambda_, "lambda")
    _check_similarity(s_user, ui_norm.shape[0], "user", ui_norm.shape)
    return (1.0 - lambda_) * _damped_inverse(s_user, lambda_) @ ui_norm


def closed_form_item(ui_norm: sp.csr_matrix, s_item: sp.csr_matrix, eta: float) -> np.ndarray:
    """Limit of the item walk: (1 - eta) * R @ (I - eta * S_item)^{-1}.
    The inputs are left unchanged."""
    _check_damping(eta, "eta")
    _check_similarity(s_item, ui_norm.shape[1], "item", ui_norm.shape)
    return ui_norm @ ((1.0 - eta) * _damped_inverse(s_item, eta))
