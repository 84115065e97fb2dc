"""Transition-probability similarity matrices.

The item similarity blends two two-hop transition chains: item -> tag -> item
(from the item-tag matrix) and item -> user -> item (from the interaction
matrix). Each hop is row-normalized over its target set, so every chain is
row-stochastic wherever the data gives the row any support. The user
similarity is the same blend with roles swapped: user -> tag -> user and
user -> item -> user chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import scipy.sparse as sp

from .dataset import TaggingDataset
from .linalg import row_normalize


@dataclass(frozen=True)
class SimilarityConfig:
    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self):
        _check_weight(self.alpha, "alpha")
        _check_weight(self.beta, "beta")


def _check_weight(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def _two_hop(out_hop: sp.csr_matrix) -> sp.csr_matrix:
    """rownorm(out_hop) @ rownorm(out_hop^T): probability of a two-step jump
    out over the columns and back."""
    return row_normalize(out_hop) @ row_normalize(out_hop.T.tocsr())


def chain_weight(tags: sp.csr_matrix, interactions: sp.csr_matrix, weight: float) -> float:
    """The weight the tag chain of ``tags`` gets against the interaction
    chain of ``interactions``: ``weight``, unless a component is completely
    empty. An empty component contributes no chain at all; its weight falls
    to the other component, so tag-free data degrades gracefully."""
    if tags.nnz == 0:
        return 0.0
    if interactions.nnz == 0:
        return 1.0
    return weight


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
