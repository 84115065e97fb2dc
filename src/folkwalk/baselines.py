"""Comparison recommenders: random, user-based CF, item-based CF, the
tag-extended fusion CF, and the ablation wiring for the walk variants.

Every recommender reads one dataset, which in an experiment is the split's
training dataset (``Split.train``), so no held-out save reaches a model; its
tag matrices are still the full dataset's. :func:`run_algorithm` is the one
entry point, and it ranks every score matrix with :func:`recommend_all`."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dataset import TaggingDataset
from .linalg import row_normalize
from .similarity import SimilarityConfig, item_similarity, user_similarity
from .walker import (
    WalkConfig,
    closed_form_item,
    closed_form_user,
    fuse,
    recommend_all,
    smallest_k_mask,
)

ABLATION_KINDS = ("pRW-IT", "pRW-UT", "pRW-UI", "pRW")
ALGORITHM_KINDS = ("Random", "UserCF", "ItemCF", "Fusion") + ABLATION_KINDS


@dataclass(frozen=True)
class AlgorithmSpec:
    """Algorithm selector plus its kind-specific parameters.

    Recognized params: ``seed`` (Random), ``k_neighbors`` (UserCF/ItemCF),
    ``fuse_weight`` (Fusion), ``walk`` (WalkConfig) and ``similarity``
    (SimilarityConfig) for the walk variants.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ALGORITHM_KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        known = {
            "Random": {"seed"},
            "UserCF": {"k_neighbors"},
            "ItemCF": {"k_neighbors"},
            "Fusion": {"fuse_weight"},
        }.get(self.kind, {"walk", "similarity"})
        extra = set(self.params) - known
        if extra:
            raise ValueError(f"unknown params for {self.kind}: {sorted(extra)}")
        k_neighbors = self.params.get("k_neighbors")
        if k_neighbors is not None and k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")


def walk_params(values: dict[str, float]) -> dict:
    """A walk variant's ``walk`` and ``similarity`` params from hyperparameter
    values named alpha, beta, eta, lambda or mu; a missing one takes its
    default. An unknown name or an out-of-range value raises ``ValueError``."""
    unknown = set(values) - {"alpha", "beta", "eta", "lambda", "mu"}
    if unknown:
        raise ValueError(f"unknown hyperparameters: {sorted(unknown)}")
    similarity = {k: v for k, v in values.items() if k in ("alpha", "beta")}
    walk = {"lambda_" if k == "lambda" else k: v for k, v in values.items() if k not in similarity}
    return {"walk": WalkConfig(**walk), "similarity": SimilarityConfig(**similarity)}


def random_recommender(ds: TaggingDataset, seed: int, top_n: int) -> dict[int, list[int]]:
    """Uniform sample without replacement from each user's unsaved items."""
    rng = np.random.default_rng(seed)
    ui = ds.UI
    recs = {}
    for u in range(ui.shape[0]):
        unsaved = np.ones(ui.shape[1], dtype=bool)
        unsaved[ui.indices[ui.indptr[u]:ui.indptr[u + 1]]] = False
        candidates = np.flatnonzero(unsaved)
        k = min(top_n, len(candidates))
        recs[u] = [int(j) for j in rng.choice(candidates, size=k, replace=False)] if k else []
    return recs


def _cosine(profile: sp.csr_matrix) -> np.ndarray:
    """Dense pairwise cosine similarity between the rows of a sparse profile;
    zero rows give zero similarity; the diagonal is zeroed (no
    self-neighbors). One sparse product, so the cost follows co-occurrences."""
    norms = np.sqrt(np.asarray(profile.multiply(profile).sum(axis=1)).ravel())
    safe = np.where(norms > 0, norms, 1.0)
    data = profile.data / np.repeat(safe, np.diff(profile.indptr))
    unit = sp.csr_matrix((data, profile.indices, profile.indptr), shape=profile.shape)
    sim = (unit @ unit.T).toarray()
    np.fill_diagonal(sim, 0.0)
    return sim


def _truncate_neighbors(sim: np.ndarray, k_neighbors: int | None) -> np.ndarray:
    """Keep each row's k largest similarities (ties by lower index); None
    keeps all neighbors."""
    if k_neighbors is None or k_neighbors >= sim.shape[1]:
        return sim
    return np.where(smallest_k_mask(-sim, k_neighbors), sim, 0.0)


def _profile(
    interactions: sp.csr_matrix, profile_ext: sp.csr_matrix | np.ndarray | None
) -> sp.csr_matrix:
    """Interaction rows, optionally extended with extra profile columns (a
    CSR matrix or an ndarray)."""
    if profile_ext is None:
        return interactions
    return sp.hstack([interactions, sp.csr_matrix(profile_ext)], format="csr")


def user_cf_scores(
    train_ui: sp.csr_matrix,
    k_neighbors: int | None = None,
    profile_ext: sp.csr_matrix | np.ndarray | None = None,
) -> np.ndarray:
    """score(u, j) = sum over neighbors v of sim(u, v) * train[v, j], with
    cosine similarity over user rows (optionally extended with extra profile
    columns that do not contribute to the scored items)."""
    sim = _truncate_neighbors(_cosine(_profile(train_ui, profile_ext)), k_neighbors)
    # the sparse operand must lead the product, which then comes out
    # transposed; rows are read whole downstream, so return C order
    return np.ascontiguousarray((train_ui.T @ sim.T).T)


def item_cf_scores(
    train_ui: sp.csr_matrix,
    k_neighbors: int | None = None,
    profile_ext: sp.csr_matrix | np.ndarray | None = None,
) -> np.ndarray:
    """score(u, j) = sum over u's training items i of sim(i, j), with cosine
    similarity over item columns (optionally extended)."""
    sim = _truncate_neighbors(_cosine(_profile(train_ui.T.tocsr(), profile_ext)), k_neighbors)
    return train_ui @ sim


def fusion_cf_scores(ds: TaggingDataset, fuse_weight: float) -> np.ndarray:
    """Convex combination of user-based CF with tag-extended user profiles
    and item-based CF with tag-extended item profiles. Tags act only as
    profile features; scores cover real items only."""
    if not 0.0 <= fuse_weight <= 1.0:
        raise ValueError(f"fuse_weight must be in [0, 1], got {fuse_weight}")
    user_scores = user_cf_scores(ds.UI, profile_ext=ds.UT)
    item_scores = item_cf_scores(ds.UI, profile_ext=ds.IT)
    return fuse(user_scores, item_scores, fuse_weight)


def ablation_scores(
    kind: str,
    ds: TaggingDataset,
    walk: WalkConfig | None = None,
    similarity: SimilarityConfig | None = None,
) -> np.ndarray:
    """Score matrix of one walk variant on the dataset's interactions.

    pRW-IT: tag-only item similarity, item walk alone. pRW-UT: tag-only user
    similarity, user walk alone. pRW-UI: interaction-only similarities, both
    walks fused. pRW: the full configured pipeline. Each walk is solved
    exactly in closed form; when both run, they run on two threads.
    """
    if kind not in ABLATION_KINDS:
        raise ValueError(f"unknown ablation kind {kind!r}")
    walk = walk or WalkConfig()
    similarity = similarity or SimilarityConfig()
    alpha, beta, mu = similarity.alpha, similarity.beta, walk.mu
    if kind == "pRW-IT":
        alpha, mu = 1.0, 1.0
    elif kind == "pRW-UT":
        beta, mu = 1.0, 0.0
    elif kind == "pRW-UI":
        alpha, beta = 0.0, 0.0
    ui_norm = row_normalize(ds.UI)

    # each side passes its similarity on without keeping it, so no sparse
    # copy stays alive during the side's LU
    def item_scores() -> np.ndarray:
        return closed_form_item(ui_norm, item_similarity(ds, alpha), walk.eta)

    def user_scores() -> np.ndarray:
        return closed_form_user(ui_norm, user_similarity(ds, beta), walk.lambda_)

    if mu == 1.0:
        return item_scores()
    if mu == 0.0:
        return user_scores()
    # the walks are independent until fused, and LAPACK and most of scipy's
    # sparse products release the GIL, so the two sides run concurrently
    with ThreadPoolExecutor(max_workers=2) as pool:
        item, user = pool.submit(item_scores), pool.submit(user_scores)
        ui_item, ui_user = item.result(), user.result()
    return fuse(ui_item, ui_user, mu)


def run_algorithm(
    spec: AlgorithmSpec, ds: TaggingDataset, top_n: int, seed: int
) -> dict[int, list[int]]:
    """Top-N lists of one algorithm trained on ``ds``, never naming an item
    the user saved in ``ds``. Random draws with its own ``seed`` param if it
    has one, else with ``seed``."""
    params = spec.params
    if spec.kind == "Random":
        return random_recommender(ds, params.get("seed", seed), top_n)
    if spec.kind == "UserCF":
        scores = user_cf_scores(ds.UI, params.get("k_neighbors"))
    elif spec.kind == "ItemCF":
        scores = item_cf_scores(ds.UI, params.get("k_neighbors"))
    elif spec.kind == "Fusion":
        scores = fusion_cf_scores(ds, params.get("fuse_weight", 0.5))
    else:
        scores = ablation_scores(spec.kind, ds, params.get("walk"), params.get("similarity"))
    return recommend_all(scores, ds.UI, top_n)
