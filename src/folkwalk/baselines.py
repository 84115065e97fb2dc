"""Comparison recommenders: random, user-based CF, item-based CF, the
tag-extended fusion CF, and the ablation wiring for the walk variants.

Every recommender reads one dataset, which in an experiment is the split's
training dataset (``Split.train``), so no held-out save reaches a model; its
tag matrices are still the full dataset's. :func:`run_algorithm` is the one
entry point: every algorithm but Random has a row-block scorer,
:func:`block_scorer`, and :func:`run_algorithm` ranks its scores with
:func:`recommend_all` a block of users at a time. The CF similarities are
CSR; the user side forms only a block's rows of its users x users
similarity at a time, and the untruncated item side never forms its items
x items similarity: it scores a block of users by associativity."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from .dataset import TaggingDataset
from .params import ABLATION_KINDS, AlgorithmSpec, SimilarityConfig, WalkConfig
from .walker import FusedOperator, chain_weight, fuse, fused_operator, recommend_all

# users whose scores are computed and ranked at once
BLOCK_USERS = 128


def random_recommender(
    ds: TaggingDataset, seed: int, top_n: int, stop: int | None = None
) -> np.ndarray:
    """Uniform sample without replacement from each user's unsaved items,
    for users 0..stop-1 (default: every user; later rows stay -1).

    Each user draws positions among their unsaved items in ascending item
    order, which is what drawing from those items themselves draws; a
    position maps to its item by counting the saved items below it."""
    rng = np.random.default_rng(seed)
    ui = ds.UI.sorted_indices()
    lists = np.full((ui.shape[0], top_n), -1)
    for u in range(ui.shape[0] if stop is None else stop):
        saved = ui.indices[ui.indptr[u]:ui.indptr[u + 1]]
        unsaved = ui.shape[1] - len(saved)
        k = min(top_n, unsaved)
        if not k:
            continue
        picked = rng.choice(unsaved, size=k, replace=False)
        # saved[r] - r unsaved items lie below the r-th saved item
        below = np.searchsorted(saved - np.arange(len(saved)), picked, side="right")
        lists[u, :k] = picked + below
    return lists


def _unit_rows(profile: sp.csr_matrix) -> sp.csr_matrix:
    """A sparse profile's rows scaled to unit length; zero rows stay zero."""
    norms = np.sqrt(np.asarray(profile.multiply(profile).sum(axis=1)).ravel())
    safe = np.where(norms > 0, norms, 1.0)
    data = profile.data / np.repeat(safe, np.diff(profile.indptr))
    return sp.csr_matrix((data, profile.indices, profile.indptr), shape=profile.shape)


def _cosine(profile: sp.csr_matrix) -> sp.csr_matrix:
    """Pairwise cosine similarity between the rows of a sparse profile, as
    the CSR matrix of one sparse product, so the cost follows
    co-occurrences; zero rows give zero similarity. The diagonal (a row's
    similarity to itself) is still stored: :func:`_truncate_neighbors`
    drops or zeroes it."""
    unit = _unit_rows(profile)
    return unit @ unit.T


def _entry_rows(matrix: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))


def _truncate_neighbors(
    sim: sp.csr_matrix, k_neighbors: int | None, offset: int = 0
) -> sp.csr_matrix:
    """Each row's neighborhood in rows ``offset``.. of a pairwise similarity,
    as CSR, never the row itself: row r of ``sim`` stands for row
    ``offset + r``, so its self entry is in column ``offset + r``. With
    ``k_neighbors``, the row's k largest stored similarities (ties by lower
    index) with ascending column indices, so a product with it sums
    neighbors in index order as a dense one does. None keeps every
    neighbor: it zeroes the self entries of ``sim`` in place and returns
    ``sim``, its sparsity structure unchanged."""
    if k_neighbors is None:
        # only stored entries are written, so none is inserted
        stored = np.flatnonzero(sim.diagonal(offset))
        sim[stored, stored + offset] = 0.0
        return sim
    sim = sim.sorted_indices()
    rows = _entry_rows(sim)
    off_diagonal = np.flatnonzero(sim.indices != rows + offset)
    # by row, then descending similarity; the sort is stable, so ties stay
    # in ascending column order and a row's first k entries are its neighbors
    order = off_diagonal[np.lexsort((-sim.data[off_diagonal], rows[off_diagonal]))]
    counts = np.bincount(rows[off_diagonal], minlength=sim.shape[0])
    rank = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    kept = np.zeros(sim.nnz, dtype=bool)
    kept[order[rank < k_neighbors]] = True
    indptr = np.concatenate([[0], np.cumsum(np.minimum(counts, k_neighbors))])
    return sp.csr_matrix((sim.data[kept], sim.indices[kept], indptr), shape=sim.shape)


def _profile(interactions: sp.csr_matrix, profile_ext: sp.csr_matrix | None) -> sp.csr_matrix:
    """Interaction rows, optionally extended with extra profile columns."""
    if profile_ext is None:
        return interactions
    return sp.hstack([interactions, profile_ext], format="csr")


# rows lo:hi of a users x items score matrix
BlockScorer = Callable[[int, int], np.ndarray]


def _cf_scorer(
    train_ui: sp.csr_matrix,
    user_based: bool,
    k_neighbors: int | None = None,
    profile_ext: sp.csr_matrix | None = None,
) -> BlockScorer:
    """Rows of user-based (sim @ UI) or item-based (UI @ sim) CF scores,
    with the cosine similarity of user or item profiles, its diagonal (a
    profile's similarity to itself) zero.

    Only the truncated item side forms a whole cosine, as CSR. The user side
    forms a block's own rows of the users x users one; scipy computes each
    row of a sparse product from that row alone, so they are bitwise the
    rows of the whole product. The untruncated item side never forms the
    items x items cosine U @ U^T of the unit item profiles U: by
    associativity it scores a block B as (UI[B] @ U) @ U^T, less each saved
    item's self-similarity. That sums in another order than UI[B] @ (U @
    U^T), so it matches that product to rounding, and an exact tie may rank
    either way. Every other score sums the same terms in the same order as
    the product with the similarity densified, so it is bitwise that
    product's."""
    if user_based:
        # an untruncated block of rows is too dense to multiply as CSR. A
        # dense block leading sparse UI sums over neighbors in index order;
        # scipy computes it as (UI^T @ block^T)^T, so a Fortran-ordered block
        # is read without a copy and the result is Fortran-ordered, as the
        # item side's is made, so Fusion adds the two in one memory order
        unit = _unit_rows(_profile(train_ui, profile_ext))
        unit_t = unit.T.tocsr()

        def scores(lo: int, hi: int) -> np.ndarray:
            sim = _truncate_neighbors(unit[lo:hi] @ unit_t, k_neighbors, lo)
            if k_neighbors is None:
                # written straight into a Fortran-ordered block:
                # toarray(order="F") would convert the rows to CSC first
                dense = np.zeros(sim.shape, order="F")
                dense[_entry_rows(sim), sim.indices] = sim.data
                return dense @ train_ui
            return (sim @ train_ui).toarray()

        return scores
    profile = _profile(train_ui.T.tocsr(), profile_ext)
    if k_neighbors is not None:
        # with k neighbors a row the product stays small: form it once
        product = train_ui @ _truncate_neighbors(_cosine(profile), k_neighbors)
        return lambda lo, hi: product[lo:hi].toarray()
    unit = _unit_rows(profile)
    self_similarity = np.asarray(unit.multiply(unit).sum(axis=1)).ravel()

    def scores(lo: int, hi: int) -> np.ndarray:
        block = train_ui[lo:hi]
        # both factors stay sparse, so the work follows their nonzeros; the
        # product U @ (UI[B] @ U)^T is the block's scores transposed, so
        # densified C-ordered the block comes out Fortran-ordered
        out = (unit @ (block @ unit).T).toarray().T
        out[_entry_rows(block), block.indices] -= block.data * self_similarity[block.indices]
        return out

    return scores


def _fusion_scorer(ds: TaggingDataset, fuse_weight: float) -> BlockScorer:
    """Rows of the convex combination of user-based CF with tag-extended
    user profiles and item-based CF with tag-extended item profiles. Tags
    act only as profile features; scores cover real items only."""
    user = _cf_scorer(ds.UI, True, profile_ext=ds.UT)
    item = _cf_scorer(ds.UI, False, profile_ext=ds.IT)
    return lambda lo, hi: fuse(user(lo, hi), item(lo, hi), fuse_weight)


def _walk_operator(
    kind: str, ds: TaggingDataset, walk: WalkConfig | None, similarity: SimilarityConfig | None
) -> FusedOperator:
    """The fused score operator of one walk variant, each walk solved
    exactly. pRW-IT: tag-only item similarity, item walk alone. pRW-UT:
    tag-only user similarity, user walk alone. pRW-UI: interaction-only
    similarities, both walks fused. pRW: the full configured pipeline."""
    walk = walk or WalkConfig()
    similarity = similarity or SimilarityConfig()
    alpha, beta, mu = similarity.alpha, similarity.beta, walk.mu
    if kind == "pRW-IT":
        alpha, mu = 1.0, 1.0
    elif kind == "pRW-UT":
        beta, mu = 1.0, 0.0
    elif kind == "pRW-UI":
        alpha, beta = 0.0, 0.0
    return fused_operator(
        ds.UI, ds.UT, ds.IT, replace(walk, mu=mu),
        chain_weight(ds.IT, ds.UI, alpha), chain_weight(ds.UT, ds.UI, beta),
    )


def block_scorer(spec: AlgorithmSpec, ds: TaggingDataset) -> BlockScorer:
    """The row-block scorer of a non-Random algorithm trained on ``ds``:
    ``block_scorer(spec, ds)(lo, hi)`` is rows lo:hi of its scores."""
    params = spec.params
    if spec.kind in ABLATION_KINDS:
        return _walk_operator(spec.kind, ds, params.get("walk"), params.get("similarity")).scores
    if spec.kind == "Fusion":
        return _fusion_scorer(ds, params.get("fuse_weight", 0.5))
    return _cf_scorer(ds.UI, spec.kind == "UserCF", params.get("k_neighbors"))


def run_algorithm(
    spec: AlgorithmSpec, ds: TaggingDataset, top_n: int, seed: int, user: int | None = None
) -> np.ndarray:
    """:func:`recommend_all`'s top-N lists of one algorithm trained on
    ``ds``, never naming an item the user saved in ``ds``. Random draws with
    ``seed``. Every other algorithm is scored and ranked ``BLOCK_USERS``
    users at a time, so no users x items score matrix is built.

    With ``user``, only that user's block is ranked (Random, whose draws
    are sequential, draws for users 0..user); the other rows stay -1.

    The lists are ``min(top_n, num_items)`` wide: no list is longer."""
    top_n = min(top_n, ds.num_items)
    if spec.kind == "Random":
        return random_recommender(ds, seed, top_n, None if user is None else user + 1)
    scores = block_scorer(spec, ds)
    starts = range(0, ds.num_users, BLOCK_USERS)
    if user is not None:
        starts = [user - user % BLOCK_USERS]
    # every block is ranked in one buffer
    work = np.empty(2 * BLOCK_USERS * ds.num_items)
    lists = np.full((ds.num_users, top_n), -1)
    for lo in starts:
        hi = min(lo + BLOCK_USERS, ds.num_users)
        lists[lo:hi] = recommend_all(scores(lo, hi), ds.UI[lo:hi], top_n, work)
    return lists
