"""Comparison recommenders: random, user-based CF, item-based CF, the
tag-extended fusion CF, and the walk variants: pRW at the values
:func:`~folkwalk.params.walk_params` fixes; and the one top-N ranking.

Every recommender reads one dataset, which in an experiment is the split's
training dataset (``Split.train``), so no held-out save reaches a model; its
tag matrices are still the full dataset's. :func:`run_algorithm` is the one
entry point: every algorithm but Random has a row-block scorer,
:func:`block_scorer`, and :func:`run_algorithm` ranks its scores with
:func:`recommend_all` a block of users at a time, in one work buffer. Each
CF cosine is the product of the unit profiles with their transpose, in
three branches: the user side forms a block's rows at a time, the truncated
item side (k clamped to the row width) forms it once, and the untruncated
item side scores by associativity. An untruncated block is a CSR x dense
product, with bitwise the scores of the CSR product."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import scipy.sparse as sp

from .dataset import TaggingDataset
from .linalg import ShapeError
from .params import ABLATION_KINDS, FUSE_WEIGHT, AlgorithmSpec, walk_params
from .walker import fused_operator

# users whose scores are computed and ranked at once
BLOCK_USERS = 128


def random_recommender(
    ds: TaggingDataset, seed: int, top_n: int, stop: int | None = None
) -> np.ndarray:
    """Uniform sample without replacement from each user's unsaved items,
    for users 0..stop-1 (default: every user; later rows stay -1).

    Each user draws positions among their unsaved items in ascending item
    order, which is what drawing from those items themselves draws; a
    position maps to its item by counting the saved items below it. Only
    the draws run a user at a time, in user order; the counting is one
    search over all users' saved items."""
    rng = np.random.default_rng(seed)
    ui = ds.UI.sorted_indices()
    n_users, n_items = ui.shape
    users = n_users if stop is None else stop
    ptr = ui.indptr[:users + 1]
    n_saved = np.diff(ptr)
    k = np.minimum(top_n, n_items - n_saved)
    picked = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        rng.choice(n_items - int(n_saved[u]), size=int(k[u]), replace=False)
        for u in np.flatnonzero(k)
    ])
    # the r-th saved item of user u has item - r unsaved items below it;
    # keyed as u * width + (item - r), all users' keys ascend in CSR order
    width = n_items + 1
    rows = np.repeat(np.arange(users), n_saved)
    keys = rows * width + ui.indices[:ptr[-1]] - (np.arange(ptr[-1]) - ptr[rows])
    owner = np.repeat(np.arange(users), k)
    below = np.searchsorted(keys, owner * width + picked, side="right") - ptr[owner]
    lists = np.full((n_users, top_n), -1)
    lists[:users][np.arange(top_n) < k[:, None]] = picked + below
    return lists


def _unit_rows(profile: sp.csr_matrix) -> sp.csr_matrix:
    """A sparse profile's rows scaled to unit length; zero rows stay zero."""
    norms = np.sqrt(np.asarray(profile.multiply(profile).sum(axis=1)).ravel())
    safe = np.where(norms > 0, norms, 1.0)
    data = profile.data / np.repeat(safe, np.diff(profile.indptr))
    return sp.csr_matrix((data, profile.indices, profile.indptr), shape=profile.shape)


def _entry_rows(matrix: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))


def _truncate_neighbors(sim: sp.csr_matrix, k_neighbors: int, offset: int = 0) -> sp.csr_matrix:
    """Each row's k largest stored similarities (ties by lower index) in
    rows ``offset``.. of a pairwise similarity, as CSR with ascending column
    indices, never the row itself: row r of ``sim`` stands for row
    ``offset + r``, so its self entry is in column ``offset + r``. A
    product with the result sums neighbors in index order as a dense one
    does. A k at or above the row width keeps every neighbor."""
    k_neighbors = min(k_neighbors, sim.shape[1])
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


def _dense_cosine(unit: sp.csr_matrix, x: sp.csr_matrix) -> np.ndarray:
    """x @ unit^T as a Fortran-ordered dense array, made as the transpose of
    the CSR x dense product unit @ D for D = x^T. D is written straight into
    a C-ordered array, which scipy reads without a copy (a Fortran-ordered
    one it copies). Each entry sums the same terms along unit's row in its
    stored order as the CSR product unit @ x^T, and D's zeros add exact
    zeros, so the block is bitwise that product's; with x's and unit's rows
    in ascending column order, it is bitwise x @ unit^T's too."""
    dense_t = np.zeros((x.shape[1], x.shape[0]))
    dense_t[x.indices, _entry_rows(x)] = x.data
    return (unit @ dense_t).T


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
    profile's similarity to itself) zero, and with ``k_neighbors`` only each
    row's k nearest neighbors, all of them if k is at least the row width.

    Each cosine is the product of the unit profiles U with U^T. The
    untruncated item side never forms U @ U^T: it scores a block B as
    (UI[B] @ U) @ U^T, less each saved item's self-similarity, which matches
    UI[B] @ (U @ U^T) to rounding, so an exact tie may rank either way. The
    truncated item side forms U @ U^T once as CSR; the truncated user side
    forms a block's rows, U[B] @ U^T, which scipy computes bitwise as the
    rows of the whole product. Both untruncated sides make their block as
    the CSR x dense product of U with a sparse factor x, U[B] or UI[B] @ U
    (see :func:`_dense_cosine`), bitwise the CSR product's. Every other
    score sums the same terms in the same order as the product with the
    similarity densified, so it is bitwise that product's."""
    unit = _unit_rows(_profile(train_ui if user_based else train_ui.T.tocsr(), profile_ext))
    if user_based:
        if k_neighbors is not None:
            unit_t = unit.T.tocsr()
            return lambda lo, hi: (
                _truncate_neighbors(unit[lo:hi] @ unit_t, k_neighbors, lo) @ train_ui
            ).toarray()

        def user_scores(lo: int, hi: int) -> np.ndarray:
            # a dense block leading sparse UI sums over neighbors in index
            # order; scipy computes it as (UI^T @ block^T)^T, so a
            # Fortran-ordered block is read without a copy and the result is
            # Fortran-ordered, as the item side's is made, so Fusion adds the
            # two in one memory order
            dense = _dense_cosine(unit, unit[lo:hi])
            np.fill_diagonal(dense[:, lo:hi], 0.0)  # row r's self entry is column lo + r
            return dense @ train_ui

        return user_scores
    if k_neighbors is not None:
        # with k neighbors a row the product stays small: form it once
        product = train_ui @ _truncate_neighbors(unit @ unit.T.tocsr(), k_neighbors)
        return lambda lo, hi: product[lo:hi].toarray()
    self_similarity = np.asarray(unit.multiply(unit).sum(axis=1)).ravel()

    def item_scores(lo: int, hi: int) -> np.ndarray:
        block = train_ui[lo:hi]
        # U @ (UI[B] @ U)^T is the block's scores transposed
        out = _dense_cosine(unit, block @ unit)
        out[_entry_rows(block), block.indices] -= block.data * self_similarity[block.indices]
        return out

    return item_scores


def fuse(first: np.ndarray, second: np.ndarray, mu: float) -> np.ndarray:
    """Entrywise convex combination mu * first + (1 - mu) * second of two
    score blocks of one shape, with mu in [0, 1].

    Consumes its inputs: both float64 arrays are scaled in place, and the
    sum is written into ``first`` and returned, so no third score matrix is
    allocated. The result keeps ``first``'s memory order."""
    first *= mu
    second *= 1.0 - mu
    first += second
    return first


def _fusion_scorer(ds: TaggingDataset, fuse_weight: float) -> BlockScorer:
    """Rows of the convex combination of user-based CF with tag-extended
    user profiles and item-based CF with tag-extended item profiles. Tags
    act only as profile features; scores cover real items only."""
    user = _cf_scorer(ds.UI, True, profile_ext=ds.UT)
    item = _cf_scorer(ds.UI, False, profile_ext=ds.IT)
    return lambda lo, hi: fuse(user(lo, hi), item(lo, hi), fuse_weight)


def block_scorer(spec: AlgorithmSpec, ds: TaggingDataset) -> BlockScorer:
    """The row-block scorer of a non-Random algorithm trained on ``ds``:
    ``block_scorer(spec, ds)(lo, hi)`` is rows lo:hi of its scores. A walk
    variant runs at :func:`walk_params`' values: its spec's, with those the
    variant fixes in their place."""
    params = spec.params
    if spec.kind in ABLATION_KINDS:
        return fused_operator(ds.UI, ds.UT, ds.IT, walk_params(spec.kind, params)).scores
    if spec.kind == "Fusion":
        return _fusion_scorer(ds, params.get("fuse_weight", FUSE_WEIGHT))
    return _cf_scorer(ds.UI, spec.kind == "UserCF", params.get("k_neighbors"))


def recommend_all(
    scores: np.ndarray, train_ui: sp.csr_matrix, top_n: int, work: np.ndarray | None = None
) -> np.ndarray:
    """Top-N items per user by descending score, excluding the user's
    training items; ties broken by ascending item index. Row u of the
    (users x top_n) int array is user u's list; a user with fewer than
    ``top_n`` candidates gets all of them, then -1 to the width.

    ``work``, a 1-d float64 buffer of at least twice the scores' size, holds
    the keys (negated scores) and the copy in which each row's
    k = min(top_n, items) smallest are found by partition, not a sort. A
    caller that ranks blocks of users in turn passes each the same buffer,
    so the blocks reuse memory instead of each faulting in fresh pages."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if scores.shape != train_ui.shape:
        raise ShapeError(f"scores {scores.shape} do not match training matrix {train_ui.shape}")
    m, n = scores.shape
    size, k = m * n, min(top_n, n)
    if work is None:
        work = np.empty(2 * size)
    elif (work.dtype != np.float64 or work.ndim != 1 or not work.flags.c_contiguous
          or work.size < 2 * size):
        raise ValueError(f"work must be a contiguous float64 vector of at least {2 * size} entries")
    key, part = work[:size].reshape(m, n), work[size:2 * size].reshape(m, n)
    # scores are finite, so +inf sorts every training item behind all candidates
    if scores.flags.c_contiguous:
        np.negative(scores, out=key)
    else:
        # the user-space blocks are Fortran-ordered: one transposing copy of
        # the whole block misses cache on every row, so copy 256 columns at
        # a time, each read and written while it is in cache
        for lo in range(0, n, 256):
            np.negative(scores[:, lo:lo + 256], out=key[:, lo:lo + 256])
    key[train_ui.nonzero()] = np.inf
    np.copyto(part, key)
    part.partition(k - 1, axis=1)
    # fancy indexing copies the k-th column out of the partitioned buffer
    kth = part[:, [k - 1]]
    mask = key <= kth
    # where ties at the k-th key overflow a row, keep its lowest-indexed ones
    excess = np.count_nonzero(mask, axis=1) - k
    over = np.flatnonzero(excess > 0)
    if len(over):
        # the overflowing rows' tied keys, row by row in column order: each
        # row keeps its first ones and drops its last `excess`
        tied = np.flatnonzero((key == kth)[over])
        runs = np.bincount(tied // n, minlength=len(over)) - excess[over]
        runs = np.column_stack([runs, excess[over]]).ravel()
        dropped = tied[np.repeat(np.tile([False, True], len(over)), runs)]
        mask[over[dropped // n], dropped % n] = False
    # the selected columns come out ascending per row, so a stable sort of
    # their keys keeps the lower index first among ties
    picked = (np.flatnonzero(mask) % n).reshape(m, k)
    order = np.argsort(np.take_along_axis(key, picked, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(picked, order, axis=1)
    counts = np.minimum(top_n, n - np.diff(train_ui.indptr))
    lists = np.full((m, top_n), -1)
    lists[:, :k] = np.where(np.arange(k) < counts[:, None], top, -1)
    return lists


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
