"""The pRW operator: the item and user walks with restart solved exactly
and fused, evaluated a block of users at a time. :mod:`folkwalk.similarity`
holds the paper's formulas, the references the operator is tested against,
and :mod:`folkwalk.baselines` ranks its blocks.

The operator never forms either similarity. Both walks restart from
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
term joins P @ Q. The build inverts each base first, the direct walk's
before the pushed walk's, and each walk then makes its term from the base
it holds: the pushed walk its block of P @ Q, the direct walk its update
of G, or coef * X_c alone. :class:`FusedOperator` evaluates F a block of
users at a time, so no users x items score matrix is needed to rank; each
block is made in the sparse product's buffer and the low-rank term is
added there.
Every dense product on this path runs in scipy's ``dgemm``
(:func:`_gemm`), the BLAS library that also inverts the base, so the
process pages in one library's work buffers. Score matrices are dense
ndarrays.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import diagonal, invert_in_place, invert_spd_in_place, row_normalize
from .params import WalkConfig

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
) -> FusedOperator:
    """mu * (item walk limit) + (1 - mu) * (user walk limit) on the
    interactions ``ui``, exactly, as a :class:`FusedOperator`, with ``walk``'s
    hyperparameters. Its ``alpha`` and ``beta`` weight the tag chains of
    ``it`` and ``ut`` in the item and user similarities, or fall to
    :func:`chain_weight`'s fallback when a chain is empty.

    The dense system lives in the smaller side's space: users when there
    are no more users than items, else items. The walk of that space is
    the direct one and the other is pushed through R; the direct walk's
    base comes first in ``systems``, so it is inverted first."""
    r, c = row_normalize(ui), row_normalize(ui.T.tocsr())
    item_tags = row_normalize(it), row_normalize(it.T.tocsr())
    user_tags = row_normalize(ut), row_normalize(ut.T.tocsr())
    item = _Side(walk.eta, chain_weight(it, ui, walk.alpha), walk.mu * (1.0 - walk.eta))
    user = _Side(
        walk.lambda_, chain_weight(ut, ui, walk.beta), (1.0 - walk.mu) * (1.0 - walk.lambda_)
    )
    item_space = ui.shape[0] > ui.shape[1]
    pushed, direct = (user, item) if item_space else (item, user)
    interactions = dict.fromkeys(
        side.interaction for side in (direct, pushed) if side.coef and side.interaction
    )
    systems, g = _interaction_systems(ui, item_space, interactions)
    if not item_space:
        system, scale, p, q = _operator(r, c, systems, g, item_tags, user_tags, pushed, direct)
        return FusedOperator(r, system, False, scale, p, q)
    # F^T = c_u * R^T (I - lambda S_user^T)^-1 + c_i (I - eta S_item^T)^-1 R^T is
    # the same operator on the transposed factors, with the two walks swapped
    transposed = [(b.T, a.T) for a, b in (user_tags, item_tags)]
    system, scale, p, q = _operator(r.T, c.T, systems, g, *transposed, pushed, direct)
    return FusedOperator(r, system, True, scale, q.T, p.T)


def _interaction_systems(
    ui: sp.csr_matrix, item_space: bool, interactions: Collection[float]
) -> tuple[dict[float, np.ndarray], np.ndarray | None]:
    """({c: I - c * S for each c in ``interactions``, in its order}, g),
    each system in its own Fortran-ordered k x k buffer, with S symmetric
    and the walk space's interaction chain equal to
    diag(g)^-1 @ S @ diag(g): RC in user space, (CR)^T in item space. The
    sparse S is dropped on return, so it is not held while the systems are
    inverted; g is None when ``interactions`` is empty.

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
    z = diagonal(1.0 / root_u) @ ui @ diagonal(1.0 / root_i)
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


def _operator(r, c, systems, g, pushed_tags, direct_tags, pushed: _Side, direct: _Side):
    """(G, s, P, Q) with s * R + G @ R + P @ Q equal to

        pushed.coef * R (I - d1 * (w1 * A1 B1 + (1 - w1) * C R))^-1
      + direct.coef * (I - d2 * (w2 * A2 B2 + (1 - w2) * R C))^-1 R,

    where R is k x n' with k <= n', (A1, B1) = ``pushed_tags``,
    (A2, B2) = ``direct_tags``, and ``systems`` and ``g`` are
    :func:`_interaction_systems`' for RC, the direct walk's system first.
    G is k x k, or None when neither walk needs a system.

    A walk with interaction weight c = d * (1 - w) > 0 has the system
    I - c * RC - t * U V, with a tag term of rank at most tags. Walks that
    share c share one base X_c = (I - c * RC)^-1, a Cholesky inverse, and
    Woodbury's identity adds each walk's tag term to it (Tong, Faloutsos
    and Pan, ICDM 2006). The bases are inverted in ``systems``' order, each
    in its system's buffer, and each walk on X_c makes its term from it
    before the next base is inverted: the pushed walk its block of P @ Q
    (:func:`_pushed_block`), the direct walk its rank-r update
    (:func:`_woodbury`). X_c is then scaled by the sum of its walks'
    coefficients and the update is added in its buffer, so G is
    (coef1 + coef2) * X_c plus the direct walk's update alone. With two
    bases the direct walk's comes first: its update is in G before the
    second base is inverted, so only the pushed walk's block is made
    beside both bases, where the other order would hold that block while
    the direct walk's update is made. A walk with no interaction chain
    needs no base: it adds coef * R to s, and its whole tag term, made
    before any base, joins P @ Q, whose rank is thus at most twice the
    tags.

    Each walk's block of P is C-ordered and its block of Q
    Fortran-ordered, so :class:`FusedOperator`'s ``left`` (P, or Q^T in
    item space) is C-ordered and a block of its rows is contiguous. A
    single block, the default case, is returned as it is; several are
    copied side by side, a walk with no interaction chain's first."""
    k, n = r.shape
    ps, qs = [], []
    scale = sum(side.coef for side in (pushed, direct) if not side.interaction)
    if pushed.coef and pushed.tag and not pushed.interaction:
        # (I - d A B)^-1 pushed through R is R + d * W B
        a, b = pushed_tags
        p = _tag_walk(r, a, b, pushed.tag)
        p *= pushed.coef * pushed.tag
        ps.append(p)
        qs.append(b.toarray(order="F"))
    if direct.coef and direct.tag and not direct.interaction:
        # (I - d A B)^-1 R = R + d * A (I - d B A)^-1 (B R)
        a, b = direct_tags
        ps.append((direct.coef * direct.tag) * a.toarray(order="C"))
        qs.append(_gemm(_damped_inverse(b @ a, direct.tag), (b @ r).toarray()))
    system = None
    for interaction, x in systems.items():
        x = _base(x, g)
        walks = [side for side in (pushed, direct) if side.coef and side.interaction == interaction]
        if walks[0] is pushed and pushed.tag:
            p, q = _pushed_block(x, r, c, *pushed_tags, pushed)
            ps.append(p)
            qs.append(q)
        left = None
        if walks[-1] is direct and direct.tag:
            left, right = _woodbury(x, *direct_tags, direct.tag)
            left *= direct.coef * direct.tag
        x *= sum(side.coef for side in walks)
        if left is not None:
            _gemm(left, right, x)
            del left, right
        if system is None:
            system = x
        else:
            system += x
    if len(ps) == 1:
        return system, scale, ps[0], qs[0]
    return system, scale, np.hstack([np.zeros((k, 0)), *ps]), np.vstack([np.zeros((0, n)), *qs])


def _tag_walk(r, a, b, tag: float) -> np.ndarray:
    """W = R A (I - tag * B A)^-1, C-ordered, made as (K^T (R A)^T)^T: the
    tag chain A B of a walk pushed through R, as (I - tag * A B)^-1 pushed
    through R is R + tag * W B."""
    return _gemm(_damped_inverse(b @ a, tag).T, (r @ a).toarray().T).T


def _pushed_block(x: np.ndarray, r, c, a, b, side: _Side) -> tuple[np.ndarray, np.ndarray]:
    """The pushed walk's block (P, Q) of F's low-rank term, from its base X.

    The walk's term coef * R (I - d (w A B + (1 - w) C R))^-1, pushed
    through into R's row space, is coef * N^-1 R + coef*d*w * N^-1 W B,
    with W = :func:`_tag_walk`'s R A (I - d*w B A)^-1 and
    N = X^-1 - t * W V, where V = B C and t = d*(1 - w) * d*w. Woodbury's
    identity (:func:`_woodbury`) gives N^-1 = X + t * P (V X) with
    P = N^-1 W, so coef * X joins G and the rest is P @ Q with
    Q = coef*d*w * B + coef * t * (V X) R, B added entry by entry, so it is
    never dense on its own. W is made in the call to :func:`_woodbury`,
    which drops it once X W exists."""
    weight = side.interaction * side.tag
    left, right = _woodbury(x, _tag_walk(r, a, b, side.tag), b @ c, weight)
    # R^T (V X)^T reads V X's Fortran-ordered buffer as the C-ordered
    # (V X)^T, and Q comes out Fortran-ordered
    q = (r.T @ right.T).T
    del right
    q *= side.coef * weight
    b = b.tocoo()
    q[b.row, b.col] += (side.coef * side.tag) * b.data
    return left, q


def _base(system: np.ndarray, g: np.ndarray) -> np.ndarray:
    """X_c = (I - c * RC)^-1 = diag(g)^-1 (I - c * S)^-1 diag(g), from the
    system I - c * S, in its own buffer."""
    inv = invert_spd_in_place(system)
    inv /= g[:, None]
    inv *= g
    return inv


def _woodbury(x: np.ndarray, u, v: sp.spmatrix, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """(X U K, V X) with K = (I - weight * V X U)^-1: the factors of
    Woodbury's (X^-1 - weight * U V)^-1 = X + weight * (X U K) @ (V X),
    made from a base X that its caller holds. X U K is also
    (X^-1 - weight * U V)^-1 U. V X is Fortran-ordered; X U K is
    C-ordered when U is dense, Fortran-ordered when it is sparse.

    V X is formed first, while V's dense copy lives, then V X U. X U is
    made last, in the buffer it is returned in, and ``u`` is dropped
    there, so a dense U made in the call (the pushed walk's W) is freed as
    soon as X U exists. K is applied to X U there, a block of rows at a
    time."""
    # V is made dense, since a sparse V times X would copy X
    right = _gemm(v.toarray(), x)
    if sp.issparse(u):
        inner = (u.T @ right.T).T
        # U^T X^T reads X's buffer as the C-ordered X^T
        left = (u.T @ x.T).T
    else:
        inner = _gemm(right, u)
        # X U made C-ordered, as (U^T X^T)^T, so its rows are contiguous
        left = _gemm(u.T, x.T).T
    del u
    inner *= -weight
    inner[np.diag_indices_from(inner)] += 1.0
    inner = invert_in_place(np.asfortranarray(inner))
    for lo in range(0, len(left), _ROW_BLOCK):
        rows = left[lo:lo + _ROW_BLOCK]
        rows[...] = _gemm(rows, inner)
    return left, right
