"""Seeded planted-cluster corpora for the benchmark workloads.

Same structure as ``tests/gen.py::planted_cluster_posts``: user cluster c
saves each item of item cluster c with probability ``p_within`` and every
other item with ``p_cross``; each save carries one tag drawn uniformly from
the item cluster's dedicated tag block. Ids are ``u<k>``, ``i<k>``, ``t<k>``
and saves are emitted in (user, item) order. The Bernoulli draws are
vectorised per block of users, so a 5000 x 6000 corpus takes about a second
instead of the ~28 s the per-pair loop needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ROWS_PER_BLOCK = 256


@dataclass(frozen=True)
class CorpusSpec:
    n_users: int
    n_items: int
    n_tags: int
    p_within: float
    p_cross: float
    n_user_clusters: int = 5
    n_item_clusters: int = 5

    @property
    def label(self) -> str:
        return (
            f"{self.n_users}x{self.n_items}x{self.n_tags}"
            f"_w{self.p_within:g}_c{self.p_cross:g}"
        )


def planted_cluster_tsv(spec: CorpusSpec, seed: int) -> str:
    """``user<TAB>item<TAB>tag`` lines of one seeded planted-cluster corpus."""
    rng = np.random.default_rng(seed)
    tags_per_cluster = spec.n_tags // spec.n_item_clusters
    item_cluster = np.arange(spec.n_items) * spec.n_item_clusters // spec.n_items
    lines = []
    for start in range(0, spec.n_users, _ROWS_PER_BLOCK):
        users = np.arange(start, min(start + _ROWS_PER_BLOCK, spec.n_users))
        user_cluster = users * spec.n_user_clusters // spec.n_users
        p = np.where(
            user_cluster[:, None] == item_cluster[None, :], spec.p_within, spec.p_cross
        )
        rows, items = np.nonzero(rng.random(p.shape) < p)
        tags = item_cluster[items] * tags_per_cluster + rng.integers(
            tags_per_cluster, size=len(items)
        )
        lines.extend(
            f"u{u}\ti{i}\tt{t}\n"
            for u, i, t in zip(users[rows].tolist(), items.tolist(), tags.tolist())
        )
    return "".join(lines)
