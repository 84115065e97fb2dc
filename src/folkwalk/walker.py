"""The pRW pipeline: the item and user walks with restart solved exactly,
fused and ranked. :mod:`folkwalk.similarity` holds the paper's formulas,
the references the pipeline is tested against.

The pipeline never forms either similarity. Both walks restart from
R = rownorm(UI) and both similarities hold the interaction chain R @ C
(C = rownorm(UI^T)) or its mirror C @ R, so the fused score matrix is
exactly F = s * R + G @ R + P @ Q, where G is one dense k x k matrix with
k = min(users, items) and P @ Q has rank at most twice the number of tags.
When there are fewer items than users, the same builder runs on transposed
inputs and F's rows come from R @ G^T. Each walk's system is I - c * RC
minus its tag chain's term, of rank at most tags, with c = d * (1 - w) the
interaction chain's weight. RC is similar to a symmetric matrix, so
X_c = (I - c * RC)^{-1} is one Cholesky inverse
(:func:`linalg.invert_spd_in_place`), and Woodbury's identity adds the tag
term to it. The walk whose space is k's (the direct walk) adds its whole
inverse to G. The other one is pushed through R into k's space: it adds
its base X_c to G, and its Woodbury term is already a product with R, so
it joins P @ Q as one block of rank tags. G is thus the walks' bases plus
the direct walk's rank-tags update alone. Walks with equal c, as at the
paper's defaults, share one X_c, and G is built in its buffer. A walk
whose similarity is its tag chain alone (pRW-IT, pRW-UT, alpha or
beta = 1) needs no k x k system, only a tags x tags inverse; its whole
term joins P @ Q. :class:`FusedOperator` evaluates F a block of users at
a time, so no users x items score matrix is needed to rank; each block is
made in the sparse product's buffer and the low-rank term is added there.
Every dense product on this path runs in scipy's ``dgemm``
(:func:`_gemm`), the BLAS library that also inverts the base, so the
process pages in one library's work buffers. Score matrices are dense
ndarrays. :func:`fuse` blends Fusion CF's user and item scores, and
:func:`recommend_all` ranks the scores of every non-random algorithm, one
block of users at a time, each block in the same work buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import ShapeError, invert_in_place, invert_spd_in_place, row_normalize
from .params import SimilarityConfig, WalkConfig, _check_weight

# rows of X U per product with K in :func:`_woodbury`
_ROW_BLOCK = 256


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


def _gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b by scipy's ``dgemm``, Fortran-ordered; with ``out``, added
    into ``out``'s own buffer, which is returned.

    Every dense product of the pRW path runs here, in the BLAS library
    that also inverts the base, so one library's work buffers are paged
    in, not numpy's as well. Each operand is handed over in the order it
    is stored, as itself when Fortran-ordered or as the transpose of a
    C-ordered one, so a contiguous operand is not copied. A C-ordered
    ``out`` takes out^T += b^T @ a^T, which is Fortran-ordered."""
    from scipy.linalg.blas import dgemm

    if out is not None and not out.flags.f_contiguous:
        _gemm(b.T, a.T, out.T)
        return out
    trans_a, trans_b = not a.flags.f_contiguous, not b.flags.f_contiguous
    return dgemm(
        1.0, a.T if trans_a else a, b.T if trans_b else b, trans_a=trans_a, trans_b=trans_b,
        beta=0.0 if out is None else 1.0, c=out, overwrite_c=out is not None,
    )


def _damped_inverse(x: sp.csr_matrix, damping: float) -> np.ndarray:
    """(I - damping * X)^{-1} for a square sparse ``X``, built in one
    Fortran-ordered buffer and inverted there."""
    system = x.toarray(order="F")
    system *= -damping
    system[np.diag_indices_from(system)] += 1.0
    return invert_in_place(system)


@dataclass(frozen=True)
class FusedOperator:
    """The fused pRW score matrix F = scale * R + G @ R + left @ right, held
    as its factors and evaluated a block of users at a time.

    ``restart`` is R = rownorm(UI), m x n. ``system`` is G: m x m in user
    space, or n x n in item space, where its term is R @ system^T; None when
    neither walk needed a k x k system. It holds the walks' bases and the
    direct walk's tag term. ``left`` (m x r) and ``right`` (r x n) are the
    low-rank term: the pushed walk's tag term, and the tag term of a walk
    with no interaction chain."""

    restart: sp.csr_matrix
    system: np.ndarray | None
    item_space: bool
    scale: float
    left: np.ndarray
    right: np.ndarray

    def scores(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of F, in one buffer: the sparse product allocates the
        block, and ``dgemm`` adds left[lo:hi] @ right into it in place. The
        block is Fortran-ordered in user space, where scipy forms
        G[B] @ R as (R^T G[B]^T)^T, and when there is no system; it is
        C-ordered in item space, where it is R[B] @ G^T."""
        block = self.restart[lo:hi]
        if self.system is None:
            out = _gemm(self.left[lo:hi], self.right)
        else:
            if self.item_space:
                out = block @ self.system.T
            else:
                out = self.system[lo:hi] @ self.restart
            _gemm(self.left[lo:hi], self.right, out)
        if self.scale:
            entries = block.tocoo()
            out[entries.row, entries.col] += self.scale * entries.data
        return out


@dataclass(frozen=True)
class _Side:
    """One walk of the fusion: its damping, its tag chain's weight in its
    similarity, and its coefficient in F (fusion weight times 1 - damping)."""

    damping: float
    weight: float
    coef: float

    @property
    def tag(self) -> float:
        """The tag chain's weight in the walk's system, d * w."""
        return self.damping * self.weight

    @property
    def interaction(self) -> float:
        """The interaction chain's weight in the walk's system, d * (1 - w)."""
        return self.damping * (1.0 - self.weight)


def fused_operator(
    ui: sp.csr_matrix,
    ut: sp.csr_matrix,
    it: sp.csr_matrix,
    walk: WalkConfig,
    alpha: float,
    beta: float,
) -> FusedOperator:
    """mu * (item walk limit) + (1 - mu) * (user walk limit) on the
    interactions ``ui``, exactly, as a :class:`FusedOperator`. ``alpha`` and
    ``beta`` weight the tag chains of ``it`` and ``ut`` in the item and user
    similarities; an empty chain's fallback weight must already be applied.

    The dense system lives in the smaller side's space: users when there
    are no more users than items, else items."""
    r, c = row_normalize(ui), row_normalize(ui.T.tocsr())
    item_tags = row_normalize(it), row_normalize(it.T.tocsr())
    user_tags = row_normalize(ut), row_normalize(ut.T.tocsr())
    item = _Side(walk.eta, alpha, walk.mu * (1.0 - walk.eta))
    user = _Side(walk.lambda_, beta, (1.0 - walk.mu) * (1.0 - walk.lambda_))
    item_space = ui.shape[0] > ui.shape[1]
    interactions = {side.interaction for side in (item, user) if side.coef and side.interaction}
    systems, g = _interaction_systems(ui, item_space, interactions)
    if not item_space:
        system, scale, p, q = _operator(r, c, systems, g, item_tags, user_tags, item, user)
        return FusedOperator(r, system, False, scale, p, q)
    # F^T = c_u * R^T (I - lambda S_user^T)^-1 + c_i (I - eta S_item^T)^-1 R^T is
    # the same operator on the transposed factors, with the two walks swapped
    transposed = [(b.T, a.T) for a, b in (user_tags, item_tags)]
    system, scale, p, q = _operator(r.T, c.T, systems, g, *transposed, user, item)
    return FusedOperator(r, system, True, scale, q.T, p.T)


def _interaction_systems(
    ui: sp.csr_matrix, item_space: bool, interactions: set[float]
) -> tuple[dict[float, np.ndarray], np.ndarray | None]:
    """({c: I - c * S for each c in ``interactions``}, g), each system in
    its own Fortran-ordered k x k buffer, with S symmetric and the walk
    space's interaction chain equal to diag(g)^-1 @ S @ diag(g): RC in user
    space, (CR)^T in item space. The sparse S is dropped on return, so it
    is not held while the systems are inverted; g is None when
    ``interactions`` is empty.

    With D_u and D_i the row and column sums of UI (1 for an entity with no
    saves) and Z = D_u^-1/2 UI D_i^-1/2, RC = D_u^-1 UI D_i^-1 UI^T is
    D_u^-1/2 (Z Z^T) D_u^1/2, and (CR)^T = UI^T D_u^-1 UI D_i^-1 is
    D_i^1/2 (Z^T Z) D_i^-1/2. S's eigenvalues lie in [0, 1], so I - c * S
    is positive definite for every c < 1 (Zhou et al., NIPS 2003)."""
    if not interactions:
        return {}, None
    degrees = [np.asarray(ui.sum(axis=axis)).ravel() for axis in (1, 0)]
    for d in degrees:
        d[d == 0] = 1.0
    root_u, root_i = (np.sqrt(d) for d in degrees)
    z = sp.diags(1.0 / root_u) @ ui @ sp.diags(1.0 / root_i)
    s, g = ((z.T @ z).tocsr(), 1.0 / root_i) if item_space else ((z @ z.T).tocsr(), root_u)
    systems = {}
    for interaction in interactions:
        # S is symmetric, so its C-ordered dense form written into the
        # transposed view fills the Fortran-ordered buffer with S^T = S
        system = np.empty(s.shape, order="F")
        s.toarray(out=system.T)
        system *= -interaction
        system[np.diag_indices_from(system)] += 1.0
        systems[interaction] = system
    return systems, g


@dataclass
class _Fold:
    """A side with an interaction chain: its system is N = X^-1 - weight * U V,
    where X is the base (I - c * RC)^-1 of the side's interaction weight c,
    and ``u`` (k x r) and ``v`` (r x k, sparse) are None when it has no tag
    chain. Woodbury's identity gives N^-1 = X + weight * (X U K) @ (V X)
    with K = (I - weight * V X U)^-1.

    A direct side (``b`` None) adds coef * N^-1 to G. A pushed side's term
    is coef * N^-1 R + q_coef * N^-1 U B, with ``b`` its tag chain's sparse
    B (r x n), so coef * X joins G and the rest is F's low-rank block
    (X U K) @ (q_coef * B + coef * weight * (V X) R).

    :func:`_woodbury` takes ``u`` out of the fold, so a pushed side's dense
    U, its W, is freed as soon as X U exists."""

    coef: float
    u: np.ndarray | sp.spmatrix | None = None
    v: sp.spmatrix | None = None
    weight: float = 0.0
    b: sp.spmatrix | None = None
    q_coef: float = 0.0


def _operator(r, c, systems, g, pushed_tags, direct_tags, pushed: _Side, direct: _Side):
    """(G, s, P, Q) with s * R + G @ R + P @ Q equal to

        pushed.coef * R (I - d1 * (w1 * A1 B1 + (1 - w1) * C R))^-1
      + direct.coef * (I - d2 * (w2 * A2 B2 + (1 - w2) * R C))^-1 R,

    where R is k x n' with k <= n', (A1, B1) = ``pushed_tags``,
    (A2, B2) = ``direct_tags``, and ``systems`` and ``g`` are
    :func:`_interaction_systems`' for RC; each system is taken out of
    ``systems`` and inverted in its buffer. G is k x k, or None when
    neither side needs a system.

    A side with interaction weight c = d * (1 - w) > 0 has the system
    I - c * RC - t * U V, with a tag term of rank at most tags. Sides that
    share c share one base X_c = (I - c * RC)^-1, a Cholesky inverse, and
    Woodbury's identity adds each side's tag term to it (Tong, Faloutsos
    and Pan, ICDM 2006). G is (coef1 + coef2) * X_c plus the direct side's
    rank-r update alone, built in X_c's buffer. P @ Q holds the pushed
    side's tag term and the whole tag term of a side with no interaction
    chain: rank at most twice the tags.

    Each side's block of P is C-ordered and its block of Q
    Fortran-ordered, so :class:`FusedOperator`'s ``left`` (P, or Q^T in
    item space) is C-ordered and a block of its rows is contiguous. A
    single block, the default case, is returned as it is; several are
    copied side by side."""
    k, n = r.shape
    ps, qs = [], []
    folds: dict[float, list[_Fold]] = {}
    if pushed.coef:
        _pushed_side(r, c, *pushed_tags, pushed, folds, ps, qs)
    if direct.coef:
        _direct_side(r, *direct_tags, direct, folds, ps, qs)
    # a side with no interaction chain contributes coef * R
    scale = sum(side.coef for side in (pushed, direct) if not side.interaction)
    system = None
    for interaction, sides in folds.items():
        part = _fold_in(_base(systems.pop(interaction), g), sides, r, ps, qs)
        if system is None:
            system = part
        else:
            system += part
    if len(ps) == 1:
        return system, scale, ps[0], qs[0]
    return system, scale, np.hstack([np.zeros((k, 0)), *ps]), np.vstack([np.zeros((0, n)), *qs])


def _pushed_side(r, c, a, b, side: _Side, folds: dict, ps: list, qs: list) -> None:
    """The side coef * R (I - d (w A B + (1 - w) C R))^-1, pushed through
    into R's row space: coef * N^-1 R + coef*d*w * N^-1 W B, where
    K = (I - d*w B A)^-1, W = R A K and
    N = I - d*(1 - w) * RC - d*(1 - w) * d*w * W (B C). With an interaction
    chain it joins ``folds``, B still sparse; without one N is the
    identity, and its low-rank term joins ``ps`` and ``qs``."""
    tag, interaction = side.tag, side.interaction
    # W made C-ordered, as (K^T (R A)^T)^T
    w_mat = _gemm(_damped_inverse(b @ a, tag).T, (r @ a).toarray().T).T if tag else None
    if interaction:
        fold = _Fold(side.coef)
        if tag:
            fold = _Fold(side.coef, w_mat, b @ c, interaction * tag, b, side.coef * tag)
        folds.setdefault(interaction, []).append(fold)
    elif tag:
        w_mat *= side.coef * tag
        ps.append(w_mat)
        qs.append(b.toarray(order="F"))


def _direct_side(r, a, b, side: _Side, folds: dict, ps: list, qs: list) -> None:
    """The side coef * N^-1 R with N = I - d*(1 - w) * RC - d*w * A B. With
    an interaction chain it joins ``folds``; without one the inverse is
    Woodbury's alone, (I - d*w A B)^-1 R = R + d*w * A (I - d*w B A)^-1 (B R),
    and its low-rank term joins ``ps`` and ``qs``."""
    tag, interaction = side.tag, side.interaction
    if interaction:
        fold = _Fold(side.coef, a, b, tag) if tag else _Fold(side.coef)
        folds.setdefault(interaction, []).append(fold)
    elif tag:
        ps.append((side.coef * tag) * a.toarray(order="C"))
        qs.append(_gemm(_damped_inverse(b @ a, tag), (b @ r).toarray()))


def _fold_in(base: np.ndarray, sides: list[_Fold], r, ps: list, qs: list) -> np.ndarray:
    """G, the sum of ``sides``' coef * X plus the direct side's rank-r
    update coef * weight * (X U K) @ (V X), written into the base X's
    buffer and returned. A pushed side's block of F's low-rank term,
    P = X U K and Q = q_coef * B + coef * weight * (V X) R (see
    :class:`_Fold`), is appended to ``ps`` and ``qs``.

    Every factor is taken from X before X is scaled. ``sides`` lists the
    pushed side first and is emptied as it is used, so the pushed side's
    inputs and its V X are freed before the direct side's factors are
    allocated."""
    coef = sum(fold.coef for fold in sides)
    update = None
    while sides:
        fold = sides.pop(0)
        if fold.u is None:
            continue
        if fold.b is None:
            left, right = _woodbury(base, fold)
            left *= fold.coef * fold.weight
            update = left, right
        else:
            p, q = _pushed_block(base, fold, r)
            ps.append(p)
            qs.append(q)
    base *= coef
    if update is None:
        return base
    return _gemm(*update, base)


def _pushed_block(x: np.ndarray, fold: _Fold, r) -> tuple[np.ndarray, np.ndarray]:
    """A pushed side's block (P, Q) of F's low-rank term: P = X U K and
    Q = q_coef * B + coef * weight * (V X) R, with B added entry by entry,
    so it is never dense on its own."""
    left, right = _woodbury(x, fold)
    # R^T (V X)^T reads V X's Fortran-ordered buffer as the C-ordered
    # (V X)^T, and Q comes out Fortran-ordered
    q = (r.T @ right.T).T
    del right
    q *= fold.coef * fold.weight
    b = fold.b.tocoo()
    q[b.row, b.col] += fold.q_coef * b.data
    return left, q


def _base(system: np.ndarray, g: np.ndarray) -> np.ndarray:
    """X_c = (I - c * RC)^-1 = diag(g)^-1 (I - c * S)^-1 diag(g), from the
    system I - c * S, in its own buffer."""
    inv = invert_spd_in_place(system)
    inv /= g[:, None]
    inv *= g
    return inv


def _woodbury(x: np.ndarray, fold: _Fold) -> tuple[np.ndarray, np.ndarray]:
    """(X U K, V X) of ``fold``'s U, V and weight, with
    K = (I - weight * V X U)^-1: the factors of Woodbury's
    (X^-1 - weight * U V)^-1 = X + weight * (X U K) @ (V X). X U K is also
    (X^-1 - weight * U V)^-1 U. V X is Fortran-ordered; X U K is
    C-ordered when U is dense, Fortran-ordered when it is sparse.

    V X is formed first, while V's dense copy lives, then V X U. X U is
    made last, in the buffer it is returned in, and U is taken out of the
    fold, so a dense U is freed as soon as X U exists. K is applied to
    X U there, a block of rows at a time."""
    u, fold.u = fold.u, None
    # V is made dense, since a sparse V times X would copy X
    right = _gemm(fold.v.toarray(), x)
    if sp.issparse(u):
        inner = (u.T @ right.T).T
        # U^T X^T reads X's buffer as the C-ordered X^T
        left = (u.T @ x.T).T
    else:
        inner = _gemm(right, u)
        # X U made C-ordered, as (U^T X^T)^T, so its rows are contiguous
        left = _gemm(u.T, x.T).T
    del u
    inner *= -fold.weight
    inner[np.diag_indices_from(inner)] += 1.0
    inner = invert_in_place(np.asfortranarray(inner))
    for lo in range(0, len(left), _ROW_BLOCK):
        rows = left[lo:lo + _ROW_BLOCK]
        rows[...] = _gemm(rows, inner)
    return left, right


def fuse(first: np.ndarray, second: np.ndarray, mu: float) -> np.ndarray:
    """Entrywise convex combination mu * first + (1 - mu) * second of two
    score matrices of one shape.

    Consumes its inputs: both float64 arrays are scaled in place, and the
    sum is written into ``first`` and returned, so no third score matrix is
    allocated. The result keeps ``first``'s memory order."""
    _check_weight(mu, "mu")
    if first.shape != second.shape:
        raise ShapeError(f"shape mismatch {first.shape} vs {second.shape}")
    first *= mu
    second *= 1.0 - mu
    first += second
    return first


def _work_view(work: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
    """A C-ordered float64 array of ``shape`` on the front of the 1-d
    buffer ``work``, or a new array without one."""
    if work is None:
        return np.empty(shape)
    size = shape[0] * shape[1]
    if work.dtype != np.float64 or work.ndim != 1 or not work.flags.c_contiguous or work.size < size:
        raise ValueError(f"work must be a contiguous 1-d float64 buffer of at least {size} entries")
    return work[:size].reshape(shape)


def smallest_k_mask(keys: np.ndarray, k: int, work: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of each row's k smallest keys, ties broken by lower
    column index: every key below the row's k-th smallest, then the
    lowest-indexed keys equal to it. Selects by partition, not a sort; the
    partitioned copy of ``keys`` is made in ``work`` when given."""
    m, n = keys.shape
    if k >= n:
        return np.ones((m, n), dtype=bool)
    if k < 1:
        return np.zeros((m, n), dtype=bool)
    part = _work_view(work, keys.shape)
    np.copyto(part, keys)
    part.partition(k - 1, axis=1)
    # fancy indexing copies the k-th column out of the partitioned buffer
    kth = part[:, [k - 1]]
    mask = keys <= kth
    # where ties at the k-th key overflow a row, keep its lowest-indexed ones
    excess = np.count_nonzero(mask, axis=1) - k
    over = np.flatnonzero(excess > 0)
    if len(over):
        # the overflowing rows' tied keys, row by row in column order: each
        # row keeps its first ones and drops its last `excess`
        tied = np.flatnonzero((keys == kth)[over])
        runs = np.bincount(tied // n, minlength=len(over)) - excess[over]
        runs = np.column_stack([runs, excess[over]]).ravel()
        dropped = tied[np.repeat(np.tile([False, True], len(over)), runs)]
        mask[over[dropped // n], dropped % n] = False
    return mask


def recommend_all(
    scores: np.ndarray, train_ui: sp.csr_matrix, top_n: int, work: np.ndarray | None = None
) -> np.ndarray:
    """Top-N items per user by descending score, excluding the user's
    training items; ties broken by ascending item index. Row u of the
    (users x top_n) int array is user u's list; a user with fewer than
    ``top_n`` candidates gets all of them, then -1 to the width.

    ``work``, a 1-d float64 buffer of at least twice the scores' size, holds
    the ranking's two users x items temporaries. A caller that ranks blocks
    of users in turn passes each the same buffer, so the blocks reuse
    memory instead of each faulting in fresh pages."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != train_ui.shape:
        raise ShapeError(f"scores {scores.shape} do not match training matrix {train_ui.shape}")
    m, n = scores.shape
    if work is None:
        work = np.empty(2 * m * n)
    rows, cols = train_ui.nonzero()
    # scores are finite, so +inf sorts every training item behind all candidates
    key = _work_view(work, (m, n))
    np.negative(scores, out=key)
    key[rows, cols] = np.inf
    # the selected columns come out ascending per row, so a stable sort of
    # their keys keeps the lower index first among ties
    mask = smallest_k_mask(key, top_n, work[m * n:])
    picked = (np.flatnonzero(mask) % n).reshape(m, min(top_n, n))
    order = np.argsort(np.take_along_axis(key, picked, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(picked, order, axis=1)
    counts = np.minimum(top_n, n - np.diff(train_ui.indptr))
    lists = np.full((m, top_n), -1)
    lists[:, :top.shape[1]] = np.where(np.arange(top.shape[1]) < counts[:, None], top, -1)
    return lists
