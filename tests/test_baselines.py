import gc
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from folkwalk import baselines
from folkwalk.baselines import (
    _cosine,
    _profile,
    _truncate_neighbors,
    _unit_rows,
    _walk_operator,
    block_scorer,
    random_recommender,
    run_algorithm,
)
from folkwalk.dataset import PostTable, TaggingDataset, ingest, split
from folkwalk.linalg import SingularMatrixError, invert_in_place, invert_spd_in_place, row_normalize
from folkwalk.params import ABLATION_KINDS, AlgorithmSpec, SimilarityConfig, WalkConfig
from folkwalk.similarity import (
    closed_form_item,
    closed_form_user,
    item_similarity,
    user_similarity,
    walk_item,
    walk_user,
)
from folkwalk.walker import fuse, fused_operator, recommend_all, smallest_k_mask

from gate import certified, flips
from gen import edge_user_dataset, padded, planted_cluster_posts, random_dataset


def make_split(ds, fraction=0.4, seed=7):
    return split(ds, fraction, seed)


def top_n_lists(kind, ds, top_n=5, **params):
    return run_algorithm(AlgorithmSpec(kind, params), ds, top_n, 0)


def all_scores(kind, ds, **params):
    """Every user's scores from one algorithm's row-block scorer."""
    return block_scorer(AlgorithmSpec(kind, params), ds)(0, ds.num_users)


def dense_ds(ui: np.ndarray, ut=None, it=None) -> TaggingDataset:
    m, n = ui.shape
    ut = np.zeros((m, 0)) if ut is None else np.asarray(ut, float)
    it = np.zeros((n, 0)) if it is None else np.asarray(it, float)
    l = ut.shape[1]
    return TaggingDataset(
        users=tuple(f"u{i}" for i in range(m)),
        items=tuple(f"i{j}" for j in range(n)),
        tags=tuple(f"t{k}" for k in range(l)),
        UI=scipy.sparse.csr_matrix(ui, dtype=float),
        UT=scipy.sparse.csr_matrix(ut),
        IT=scipy.sparse.csr_matrix(it),
    )


def per_user_random(ds, seed, top_n):
    """Random as a per-user loop: each user draws from a dense list of their
    unsaved items."""
    rng = np.random.default_rng(seed)
    ui = ds.UI
    recs = []
    for u in range(ui.shape[0]):
        unsaved = np.ones(ui.shape[1], dtype=bool)
        unsaved[ui.indices[ui.indptr[u]:ui.indptr[u + 1]]] = False
        candidates = np.flatnonzero(unsaved)
        k = min(top_n, len(candidates))
        recs.append([int(j) for j in rng.choice(candidates, size=k, replace=False)] if k else [])
    return padded(recs, top_n)


class TestRandomRecommender:
    def test_returns_all_candidates_when_scarce(self):
        ds = dense_ds(np.array([[1.0, 1.0, 0.0, 0.0]]))
        sp = make_split(ds, 0.5, 0)
        recs = random_recommender(sp.train, seed=3, top_n=5)
        assert sorted(j for j in recs[0] if j >= 0) == sorted(
            j for j in range(4) if sp.train.UI.toarray()[0, j] == 0
        )

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n_users=6, n_items=12)
        sp = make_split(ds)
        first, second = random_recommender(sp.train, 11, 4), random_recommender(sp.train, 11, 4)
        assert np.array_equal(first, second)

    def test_matches_dense_candidate_lists(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n_users=9, n_items=14)
        sp = make_split(ds)
        for seed in range(5):
            got = random_recommender(sp.train, seed, 4)
            assert np.array_equal(got, per_user_random(sp.train, seed, 4))

    @pytest.mark.parametrize("sorted_rows", [True, False])
    @pytest.mark.parametrize("fraction", [0.05, 0.2, 0.5, 0.95])
    def test_matches_per_user_loop_on_edge_users(self, fraction, sorted_rows):
        ds = edge_user_dataset(np.random.default_rng(8), sorted_rows)
        full = ds.num_users - 1
        for seed in range(5):
            assert np.array_equal(random_recommender(ds, seed, 4), per_user_random(ds, seed, 4))
            assert np.all(random_recommender(ds, seed, 4)[full] == -1)
            train = make_split(ds, fraction, seed).train
            for top_n in (1, 4, 20):
                got = random_recommender(train, seed, top_n)
                assert np.array_equal(got, per_user_random(train, seed, top_n))

    def test_stop_draws_the_first_users_lists(self):
        ds = edge_user_dataset(np.random.default_rng(8))
        everyone = random_recommender(ds, 3, 4)
        for stop in (0, 1, 7, ds.num_users):
            got = random_recommender(ds, 3, 4, stop)
            assert np.array_equal(got[:stop], everyone[:stop]) and np.all(got[stop:] == -1)

    def test_top1_frequency_is_uniform(self):
        # one user, 1 train item, 10 candidates: each should lead ~10% of trials
        ds = dense_ds(np.ones((1, 11)))
        sp = make_split(ds, 0.05, 0)
        assert sp.train.UI.nnz == 1
        counts = np.zeros(11)
        for trial in range(10000):
            counts[random_recommender(sp.train, trial, 3)[0][0]] += 1
        freqs = counts[counts > 0] / 10000
        assert len(freqs) == 10
        assert np.all(np.abs(freqs - 0.1) < 0.01)


def cosine_oracle(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[0]
    sim = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            na, nb = np.linalg.norm(rows[a]), np.linalg.norm(rows[b])
            if na > 0 and nb > 0:
                sim[a, b] = float(rows[a] @ rows[b]) / (na * nb)
    return sim


def dense_cf_scores(train, side, k_neighbors=None, profile_ext=None):
    """Dense reference of the CF scores: cosine over dense profiles, per-row
    sort truncation (ties by lower index) and dense products."""
    profile = train if side == "user" else train.T
    if profile_ext is not None:
        profile = np.hstack([profile, profile_ext])
    norms = np.linalg.norm(profile, axis=1)
    unit = profile / np.where(norms > 0, norms, 1.0)[:, None]
    sim = unit @ unit.T
    np.fill_diagonal(sim, 0.0)
    if k_neighbors is not None and k_neighbors < sim.shape[1]:
        truncated = np.zeros_like(sim)
        for r, row in enumerate(sim):
            keep = sorted(range(len(row)), key=lambda c: (-row[c], c))[:k_neighbors]
            truncated[r, keep] = row[keep]
        sim = truncated
    return sim @ train if side == "user" else train @ sim


class TestCosine:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle(self, data):
        rows = data.draw(st.integers(1, 7), label="rows")
        cols = data.draw(st.integers(1, 7), label="cols")
        ext_cols = data.draw(st.integers(0, 4), label="ext cols")
        values = st.sampled_from([0.0, 0.0, 1.0, 2.0, 0.3])

        def matrix(m, n, label):
            cells = data.draw(st.lists(values, min_size=m * n, max_size=m * n), label=label)
            return np.array(cells).reshape(m, n)

        profile = matrix(rows, cols, "profile")
        profile[data.draw(st.integers(0, rows - 1), label="zero row")] = 0.0
        ext = matrix(rows, ext_cols, "ext")
        if data.draw(st.booleans(), label="profile_ext"):
            profile_ext = scipy.sparse.csr_matrix(ext)
        else:
            ext, profile_ext = ext[:, :0], None
        sim = _cosine(_profile(scipy.sparse.csr_matrix(profile), profile_ext))
        want = cosine_oracle(np.hstack([profile, ext]))
        assert np.abs(_truncate_neighbors(sim, None).toarray() - want).max() < 1e-12
        # k >= rows keeps every neighbor, sparse
        assert np.abs(_truncate_neighbors(sim, rows).toarray() - want).max() < 1e-12


class TestUserCF:
    def test_identical_users_swap_items(self):
        ui = np.array(
            [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]
        )
        ds = dense_ds(ui)
        sp = make_split(ds, 0.5, 1)
        train = sp.train.UI.toarray()
        scores = all_scores("UserCF", sp.train)
        # user 0's top score among its candidates comes from its twin's items
        for j in np.flatnonzero(train[1]):
            if train[0, j] == 0:
                assert scores[0, j] >= scores[0, 2] and scores[0, j] >= scores[0, 3]

    def test_orthogonal_users_score_zero(self):
        ds = dense_ds(np.eye(3))
        sp = make_split(ds, 0.5, 0)
        scores = all_scores("UserCF", sp.train)
        assert np.all(scores == 0)
        recs = top_n_lists("UserCF", sp.train, top_n=2)
        assert recs[0].tolist() == sorted(recs[0])  # tie rule: ascending index

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n_users=6, n_items=8)
        sp = make_split(ds)
        train = sp.train.UI.toarray()
        expected = cosine_oracle(train) @ train
        assert np.abs(all_scores("UserCF", sp.train) - expected).max() < 1e-12

    def test_k_neighbors_restricts(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n_users=7, n_items=9)
        sp = make_split(ds)
        full = all_scores("UserCF", sp.train)
        k1 = all_scores("UserCF", sp.train, k_neighbors=1)
        train = sp.train.UI.toarray()
        sim = cosine_oracle(train)
        for u in range(7):
            best = min(range(7), key=lambda v: (-sim[u, v], v))
            np.testing.assert_allclose(k1[u], sim[u, best] * train[best], atol=1e-12)
        assert not np.allclose(full, k1)


class TestItemCF:
    def test_correlated_item_promoted_over_unrelated(self):
        # items 0 and 1 co-saved by user 1; user 0 holds item 0 only
        ds = dense_ds(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        scores = all_scores("ItemCF", ds)
        assert scores[0, 1] > scores[0, 2]
        assert top_n_lists("ItemCF", ds, top_n=1)[0].tolist() == [1]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed + 10)
        ds = random_dataset(rng, n_users=6, n_items=8)
        sp = make_split(ds)
        train = sp.train.UI.toarray()
        expected = train @ cosine_oracle(train.T)
        assert np.abs(all_scores("ItemCF", sp.train) - expected).max() < 1e-12


class TestFusionCF:
    def test_empty_tag_matrices_reduce_to_plain_combination(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n_users=6, n_items=8)
        bare = dense_ds(ds.UI.toarray())
        sp = make_split(bare)
        got = all_scores("Fusion", sp.train, fuse_weight=0.3)
        expected = 0.3 * all_scores("UserCF", sp.train) + 0.7 * all_scores("ItemCF", sp.train)
        assert np.abs(got - expected).max() < 1e-12

    def test_weight_one_is_tag_extended_user_ranking(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_users=6, n_items=8, n_tags=4)
        sp = make_split(ds)
        got = top_n_lists("Fusion", sp.train, top_n=3, fuse_weight=1.0)
        expected_scores = full_cf_scores(sp.train.UI, True, profile_ext=ds.UT)
        assert np.array_equal(got, recommend_all(expected_scores, sp.train.UI, 3))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_concatenation_oracle(self, seed):
        rng = np.random.default_rng(seed + 20)
        ds = random_dataset(rng, n_users=6, n_items=8, n_tags=5)
        sp = make_split(ds)
        train = sp.train.UI.toarray()
        user_ext = np.hstack([train, ds.UT.toarray()])
        item_ext = np.hstack([train.T, ds.IT.toarray()])
        expected = 0.5 * (cosine_oracle(user_ext) @ train) + 0.5 * (
            train @ cosine_oracle(item_ext)
        )
        assert np.abs(all_scores("Fusion", sp.train, fuse_weight=0.5) - expected).max() < 1e-12

    def test_tags_never_recommended(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, n_users=5, n_items=6, n_tags=4)
        sp = make_split(ds)
        recs = top_n_lists("Fusion", sp.train, top_n=6)
        for lst in recs:
            assert all(0 <= j < ds.num_items for j in lst[lst >= 0])


def assert_lists_certified(kind, ds, want, **params):
    """The algorithm's top-5 lists differ from ``want`` only by ties at
    rounding level."""
    spec = AlgorithmSpec(kind, params)
    assert certified(flips(ds, spec, run_algorithm(spec, ds, 5, 0), want))


def test_cf_lists_match_dense_oracle_on_planted_clusters():
    # the untruncated item side sums in another order than the dense
    # product, so its lists may break exact ties differently: they go
    # through the rounding gate; every other list is equal
    ds = ingest(PostTable.from_posts(planted_cluster_posts(np.random.default_rng(7))))
    ut, it = ds.UT.toarray(), ds.IT.toarray()
    for seed in range(3):
        sp = make_split(ds, 0.2, seed)
        train = sp.train.UI.toarray()
        for k in (None, 20):
            assert np.array_equal(
                top_n_lists("UserCF", sp.train, k_neighbors=k),
                recommend_all(dense_cf_scores(train, "user", k), sp.train.UI, 5),
            )
        assert np.array_equal(
            top_n_lists("ItemCF", sp.train, k_neighbors=20),
            recommend_all(dense_cf_scores(train, "item", 20), sp.train.UI, 5),
        )
        want = recommend_all(dense_cf_scores(train, "item"), sp.train.UI, 5)
        assert_lists_certified("ItemCF", sp.train, want)
        fused = 0.5 * dense_cf_scores(train, "user", profile_ext=ut) + 0.5 * dense_cf_scores(
            train, "item", profile_ext=it
        )
        assert_lists_certified("Fusion", sp.train, recommend_all(fused, sp.train.UI, 5))


def dense_truncation_scores(train_ui, side, k_neighbors):
    """UserCF/ItemCF scores from a dense similarity: the cosine densified
    with its diagonal zeroed, each row truncated by partition (ties by lower
    index), and a product of the dense similarity with the interactions."""
    profile = train_ui if side == "user" else train_ui.T.tocsr()
    norms = np.sqrt(np.asarray(profile.multiply(profile).sum(axis=1)).ravel())
    safe = np.where(norms > 0, norms, 1.0)
    data = profile.data / np.repeat(safe, np.diff(profile.indptr))
    unit = scipy.sparse.csr_matrix((data, profile.indices, profile.indptr), shape=profile.shape)
    sim = (unit @ unit.T).toarray()
    np.fill_diagonal(sim, 0.0)
    if k_neighbors is not None and k_neighbors < sim.shape[1]:
        sim = np.where(smallest_k_mask(-sim, k_neighbors), sim, 0.0)
    if side == "user":
        return np.ascontiguousarray((train_ui.T @ sim.T).T)
    return train_ui @ sim


def test_cf_scores_bitwise_equal_dense_truncation():
    # sparse neighborhoods sum the same terms in the same order as the dense
    # product, so not even the last bit of a score moves; the untruncated
    # item side sums by associativity, so it matches to rounding and its
    # lists go through the rounding gate
    ds = ingest(PostTable.from_posts(planted_cluster_posts(np.random.default_rng(7))))
    for seed in range(3):
        train = make_split(ds, 0.2, seed).train
        for k in (1, 5, 20, None):
            for kind, side in (("UserCF", "user"), ("ItemCF", "item")):
                got = all_scores(kind, train, k_neighbors=k)
                want = dense_truncation_scores(train.UI, side, k)
                if kind == "UserCF" or k is not None:
                    assert np.array_equal(got, want)
                    continue
                assert np.abs(got - want).max() < 1e-12
                assert_lists_certified(kind, train, recommend_all(want, train.UI, 5))


def full_cf_scores(train_ui, user_based, k_neighbors=None, profile_ext=None):
    """UserCF/ItemCF scores by the full-matrix formulas, as one product over
    every user: the user side and a truncated item side multiply the
    interactions with the cosine, for k = None densified with its diagonal
    zeroed; the untruncated item side is (UI @ U) @ U^T for the unit item
    profiles U, less each save's self-similarity."""
    profile = train_ui if user_based else train_ui.T.tocsr()
    profile = _profile(profile, profile_ext)
    if not user_based and k_neighbors is None:
        unit = _unit_rows(profile)
        self_similarity = np.asarray(unit.multiply(unit).sum(axis=1)).ravel()
        scores = (unit @ (train_ui @ unit).T).toarray().T
        return scores - train_ui.multiply(self_similarity).toarray()
    sim = _cosine(profile)
    if k_neighbors is None:
        sim = sim.toarray()
        np.fill_diagonal(sim, 0.0)
    else:
        sim = _truncate_neighbors(sim, k_neighbors)
    scores = sim @ train_ui if user_based else train_ui @ sim
    return scores.toarray() if scipy.sparse.issparse(scores) else scores


def ranked_blocks(monkeypatch):
    """Record the score block of every ``recommend_all`` call that
    ``run_algorithm`` makes, and rank it as before."""
    blocks = []

    def recording_recommend_all(scores, train_ui, top_n, work=None):
        blocks.append(np.array(scores))
        return recommend_all(scores, train_ui, top_n, work)

    monkeypatch.setattr("folkwalk.baselines.recommend_all", recording_recommend_all)
    return blocks


def cf_fixtures():
    planted = ingest(PostTable.from_posts(planted_cluster_posts(np.random.default_rng(7))))
    return [make_split(planted, 0.2, seed).train for seed in range(3)] + [
        edge_user_dataset(np.random.default_rng(8))
    ]


def test_blocked_cf_scores_bitwise_equal_full_formulas(monkeypatch):
    # 7-user blocks score every entry from the same terms in the same order
    # as the full-matrix product, so not even the last bit moves
    monkeypatch.setattr("folkwalk.baselines.BLOCK_USERS", 7)
    blocks = ranked_blocks(monkeypatch)

    def blocked(kind, ds, **params):
        blocks.clear()
        run_algorithm(AlgorithmSpec(kind, params), ds, 5, 0)
        assert len(blocks) == -(-ds.num_users // 7)
        return np.vstack(blocks)

    for ds in cf_fixtures():
        for k in (1, 5, 20, None):
            assert np.array_equal(
                blocked("UserCF", ds, k_neighbors=k), full_cf_scores(ds.UI, True, k)
            )
            assert np.array_equal(
                blocked("ItemCF", ds, k_neighbors=k), full_cf_scores(ds.UI, False, k)
            )
        user = full_cf_scores(ds.UI, True, profile_ext=ds.UT)
        item = full_cf_scores(ds.UI, False, profile_ext=ds.IT)
        for weight in (0.0, 0.3, 1.0):
            want = fuse(user.copy(), item.copy(), weight)
            assert np.array_equal(blocked("Fusion", ds, fuse_weight=weight), want)
            assert np.array_equal(all_scores("Fusion", ds, fuse_weight=weight), want)


@pytest.mark.parametrize("kind", ("UserCF", "ItemCF", "Fusion") + ABLATION_KINDS)
def test_no_users_by_items_matrix_is_ranked(monkeypatch, kind):
    monkeypatch.setattr("folkwalk.baselines.BLOCK_USERS", 7)
    blocks = ranked_blocks(monkeypatch)
    ds = make_split(random_dataset(np.random.default_rng(2), 30, 20, n_tags=5)).train
    for params in ({}, {"k_neighbors": 3}) if kind.endswith("CF") else ({},):
        blocks.clear()
        run_algorithm(AlgorithmSpec(kind, params), ds, 5, 0)
        assert max(len(b) for b in blocks) <= 7
        assert sum(len(b) for b in blocks) == ds.num_users


@pytest.mark.parametrize("kind", ("Random", "UserCF", "ItemCF", "Fusion") + ABLATION_KINDS)
def test_lists_are_at_most_num_items_wide(kind):
    # a (users x top_n) allocation of this width fails at once with MemoryError
    ds = make_split(random_dataset(np.random.default_rng(2), 30, 20, n_tags=5)).train
    spec = AlgorithmSpec(kind)
    wide = run_algorithm(spec, ds, 10**12, 4)
    assert wide.shape == (ds.num_users, ds.num_items)
    assert np.array_equal(wide, run_algorithm(spec, ds, ds.num_items, 4))
    assert np.array_equal(run_algorithm(spec, ds, 10**12, 4, user=9)[9], wide[9])


@pytest.mark.parametrize(
    "kind,params",
    [("UserCF", {}), ("UserCF", {"k_neighbors": 1}), ("Fusion", {})],
)
def test_no_users_by_users_similarity_is_formed(monkeypatch, kind, params):
    # 30 users, 20 items: a sparse product with a users-wide result is one
    # of the user cosine's products, and each covers one 7-user block
    monkeypatch.setattr("folkwalk.baselines.BLOCK_USERS", 7)
    ds = make_split(random_dataset(np.random.default_rng(2), 30, 20, n_tags=5)).train
    matmul = scipy.sparse.csr_matrix.__matmul__
    user_rows = []

    def recording_matmul(a, b):
        product = matmul(a, b)
        if product.shape[1] == ds.num_users:
            user_rows.append(a.shape[0])
        return product

    monkeypatch.setattr(scipy.sparse.csr_matrix, "__matmul__", recording_matmul)
    run_algorithm(AlgorithmSpec(kind, params), ds, 5, 0)
    assert max(user_rows) <= 7
    assert sum(user_rows) == ds.num_users


@pytest.mark.parametrize("kind", ["ItemCF", "Fusion"])
def test_no_items_by_items_similarity_is_formed(monkeypatch, kind):
    # the untruncated item side scores a block by associativity: no cosine
    # is built and no product comes out items wide
    monkeypatch.setattr("folkwalk.baselines.BLOCK_USERS", 7)
    ds = make_split(
        ingest(PostTable.from_posts(planted_cluster_posts(np.random.default_rng(7))))
    ).train

    def no_cosine(profile):
        raise AssertionError("the items x items cosine was built")

    monkeypatch.setattr("folkwalk.baselines._cosine", no_cosine)
    matmul = scipy.sparse.csr_matrix.__matmul__
    widths = []

    def recording_matmul(a, b):
        product = matmul(a, b)
        widths.append(product.shape[1])
        return product

    monkeypatch.setattr(scipy.sparse.csr_matrix, "__matmul__", recording_matmul)
    run_algorithm(AlgorithmSpec(kind), ds, 5, 0)
    assert widths and ds.num_items not in widths


def iterated_scores(ds, walk, sim):
    """The pRW scores from the reference iteration run to tol=1e-12."""
    ui_norm = row_normalize(ds.UI)
    s_item = item_similarity(ds, sim.alpha)
    s_user = user_similarity(ds, sim.beta)
    x, _ = walk_item(ui_norm, s_item, walk.eta, tol=1e-12, max_iters=10_000)
    y, _ = walk_user(ui_norm, s_user, walk.lambda_, tol=1e-12, max_iters=10_000)
    return fuse(x, y, walk.mu)


def closed_form_scores(kind, ds, walk, sim):
    """The reference scores of a walk variant: each walk's closed form on
    its similarity, then the two fused."""
    alpha, beta, mu = sim.alpha, sim.beta, walk.mu
    if kind == "pRW-IT":
        alpha, mu = 1.0, 1.0
    elif kind == "pRW-UT":
        beta, mu = 1.0, 0.0
    elif kind == "pRW-UI":
        alpha, beta = 0.0, 0.0
    ui_norm = row_normalize(ds.UI)
    item = closed_form_item(ui_norm, item_similarity(ds, alpha), walk.eta)
    user = closed_form_user(ui_norm, user_similarity(ds, beta), walk.lambda_)
    return fuse(item, user, mu)


def record_inversions(monkeypatch, build):
    """Run ``build`` and return the shapes of the matrices the walk build
    inverted: (Cholesky bases, LU inverses)."""
    bases, lu = [], []

    def recording(log, invert):
        def wrapped(a, *args):
            log.append(a.shape)
            return invert(a, *args)

        return wrapped

    monkeypatch.setattr("folkwalk.walker.invert_spd_in_place", recording(bases, invert_spd_in_place))
    monkeypatch.setattr("folkwalk.walker.invert_in_place", recording(lu, invert_in_place))
    build()
    monkeypatch.undo()
    return bases, lu


def without_saves(ds, user, item):
    """``ds`` with the saves of one user and of one item removed."""
    keep_users, keep_items = np.ones(ds.num_users), np.ones(ds.num_items)
    keep_users[user] = keep_items[item] = 0.0
    ui = (scipy.sparse.diags(keep_users) @ ds.UI @ scipy.sparse.diags(keep_items)).tocsr()
    ui.eliminate_zeros()
    return replace(ds, UI=ui)


def assert_same_top_n(got, want, train, top_n=5, atol=1e-9):
    """Equal top-N lists, except that items whose reference scores agree
    within the score tolerance ``atol`` may trade places: the tie rule then
    sees rounding noise."""
    got_lists = recommend_all(got, train, top_n)
    want_lists = recommend_all(want, train, top_n)
    for u, (lst, want_lst) in enumerate(zip(got_lists, want_lists)):
        if not np.array_equal(lst, want_lst):
            lst, want_lst = lst[lst >= 0], want_lst[want_lst >= 0]
            np.testing.assert_allclose(want[u, lst], want[u, want_lst], rtol=0, atol=atol)


class TestAblation:
    def test_item_only_variant_ignores_user_tags(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n_users=6, n_items=8, n_tags=4)
        sp = make_split(ds)
        scrambled = replace(
            sp.train, UT=scipy.sparse.csr_matrix(np.roll(ds.UT.toarray(), 2, axis=0))
        )
        assert np.array_equal(top_n_lists("pRW-IT", sp.train), top_n_lists("pRW-IT", scrambled))

    def test_parameter_identity_with_full_walk(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n_users=6, n_items=8, n_tags=4)
        sp = make_split(ds)
        full_item = top_n_lists(
            "pRW", sp.train, walk=WalkConfig(mu=1.0), similarity=SimilarityConfig(alpha=1.0)
        )
        assert np.array_equal(full_item, top_n_lists("pRW-IT", sp.train))
        full_user = top_n_lists(
            "pRW", sp.train, walk=WalkConfig(mu=0.0), similarity=SimilarityConfig(beta=1.0)
        )
        assert np.array_equal(full_user, top_n_lists("pRW-UT", sp.train))

    def test_tag_free_dataset_makes_ui_variant_equal_full(self):
        rng = np.random.default_rng(9)
        base = random_dataset(rng, n_users=6, n_items=8)
        ds = dense_ds(base.UI.toarray())  # strip all tags
        sp = make_split(ds)
        assert np.array_equal(top_n_lists("pRW-UI", sp.train), top_n_lists("pRW", sp.train))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown algorithm kind"):
            AlgorithmSpec("pRW-XX")

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        damping=st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 0.95)),
        weights=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        fraction=st.floats(0.1, 0.9),
    )
    def test_pipeline_matches_iterative_walks(self, seed, damping, weights, fraction):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, int(rng.integers(2, 15)), int(rng.integers(2, 15)),
                            int(rng.integers(1, 6)))
        sp = make_split(ds, fraction, seed)
        walk = WalkConfig(eta=damping[0], lambda_=damping[1], mu=weights[0])
        sim = SimilarityConfig(alpha=weights[1], beta=weights[2])
        got = all_scores("pRW", sp.train, walk=walk, similarity=sim)
        want = iterated_scores(sp.train, walk, sim)
        assert np.abs(got - want).max() < 1e-9
        assert_same_top_n(got, want, sp.train.UI)

    def test_pipeline_matches_iterative_walks_on_planted_clusters(self):
        ds = ingest(PostTable.from_posts(planted_cluster_posts(np.random.default_rng(7))))
        walk = WalkConfig(eta=0.9, lambda_=0.8, mu=0.7)
        sim = SimilarityConfig(alpha=1.0, beta=0.5)
        for seed in range(3):
            sp = make_split(ds, 0.2, seed)
            got = all_scores("pRW", sp.train, walk=walk, similarity=sim)
            want = iterated_scores(sp.train, walk, sim)
            assert np.abs(got - want).max() < 1e-9
            assert np.array_equal(
                recommend_all(got, sp.train.UI, 5), recommend_all(want, sp.train.UI, 5)
            )

    @pytest.mark.parametrize("kind", ABLATION_KINDS)
    def test_operator_matches_sequential_fusion(self, kind):
        walk = WalkConfig(eta=0.9, lambda_=0.7, mu=0.3)
        sim = SimilarityConfig(alpha=0.6, beta=0.4)
        planted = ingest(PostTable.from_posts(planted_cluster_posts(np.random.default_rng(7))))
        fixtures = [random_dataset(np.random.default_rng(s), 9, 12, 4) for s in range(3)] + [planted]
        filters = list(warnings.filters)
        for ds in fixtures:
            sp = make_split(ds, 0.3, 5)
            want = closed_form_scores(kind, sp.train, walk, sim)
            got = all_scores(kind, sp.train, walk=walk, similarity=sim)
            atol = 1e-12 * np.abs(want).max()
            assert np.abs(got - want).max() <= atol
            # items tied in exact arithmetic may trade places on rounding noise
            assert_same_top_n(got, want, sp.train.UI, atol=atol)
        assert warnings.filters == filters

    def test_worker_error_propagates_and_threads_end(self, monkeypatch):
        # the build runs on the calling thread: a failed base inversion
        # reaches the caller, and no thread is left behind
        ds = random_dataset(np.random.default_rng(11), n_users=6, n_items=8, n_tags=4)
        sp = make_split(ds)
        calls = []

        def fails(a):
            calls.append(threading.current_thread())
            raise SingularMatrixError("injected")

        monkeypatch.setattr("folkwalk.walker.invert_spd_in_place", fails)
        threads = threading.active_count()
        filters = list(warnings.filters)
        with pytest.raises(SingularMatrixError, match="injected"):
            all_scores("pRW", sp.train)
        assert calls == [threading.main_thread()]
        assert threading.active_count() == threads
        assert warnings.filters == filters

    def test_default_settings_converge_silently(self):
        ds = random_dataset(np.random.default_rng(10), n_users=6, n_items=8, n_tags=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            top_n_lists("pRW", make_split(ds).train)


class TestFusedOperator:
    WALK = WalkConfig(eta=0.85, lambda_=0.6, mu=0.4)

    @pytest.mark.parametrize("shape", [(9, 12), (12, 9), (10, 10)])
    @pytest.mark.parametrize(
        "kind,alpha,beta,systems",
        [
            ("pRW", 0.3, 0.7, 2),
            ("pRW-UI", 0.3, 0.7, 2),
            ("pRW-IT", 0.3, 0.7, 0),
            ("pRW-UT", 0.3, 0.7, 0),
            # a walk whose similarity is its tag chain alone needs no k x k system
            ("pRW", 1.0, 0.7, 1),
            ("pRW", 0.3, 1.0, 1),
            ("pRW", 1.0, 1.0, 0),
        ],
    )
    def test_systems_live_in_smaller_space(self, monkeypatch, shape, kind, alpha, beta, systems):
        ds = make_split(random_dataset(np.random.default_rng(sum(shape)), *shape, n_tags=4)).train
        assert ds.UI.shape == shape
        k = min(shape)
        sim = SimilarityConfig(alpha=alpha, beta=beta)
        # eta and lambda differ, so each walk with an interaction chain has
        # its own Cholesky base
        params = {"walk": self.WALK, "similarity": sim}
        bases, lu = record_inversions(monkeypatch, lambda: all_scores(kind, ds, **params))
        assert bases == [(k, k)] * systems
        # the LU inverses are the r x r ones of Woodbury's identity, r <= tags
        assert all(inner[0] <= ds.num_tags for inner in lu)
        got = all_scores(kind, ds, **params)
        want = closed_form_scores(kind, ds, self.WALK, sim)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        operator = _walk_operator(kind, ds, self.WALK, sim)
        assert operator.item_space == (shape[0] > shape[1])
        assert (operator.system is None) == (systems == 0)
        if systems:
            assert operator.system.shape == (k, k)

    @pytest.mark.parametrize("shape", [(9, 12), (12, 9)])
    @pytest.mark.parametrize("empty", [False, True], ids=["saves", "empty_user_and_item"])
    @pytest.mark.parametrize(
        "walk,alpha,beta,bases",
        [
            # eta (1 - alpha) = lambda (1 - beta): the walks share one base,
            # whether their tag chains have equal weights or not
            (WalkConfig(mu=0.4), 0.5, 0.5, 1),
            (WalkConfig(eta=0.8, lambda_=0.5, mu=0.3), 0.5, 0.2, 1),
            (WalkConfig(mu=0.4), 0.0, 0.0, 1),
            # unequal interaction weights: one base per walk
            (WalkConfig(eta=0.85, lambda_=0.6, mu=0.4), 0.3, 0.7, 2),
            # w = 0: a walk with no tag chain is its base alone
            (WalkConfig(eta=0.85, lambda_=0.6, mu=0.4), 0.0, 0.7, 2),
            (WalkConfig(eta=0.85, lambda_=0.6, mu=0.4), 0.3, 0.0, 2),
            # w = 1: a walk with no interaction chain needs no base
            (WalkConfig(mu=0.4), 1.0, 0.5, 1),
            (WalkConfig(mu=0.4), 0.5, 1.0, 1),
            (WalkConfig(mu=0.4), 1.0, 1.0, 0),
        ],
    )
    def test_cholesky_bases_match_closed_forms(self, monkeypatch, shape, empty, walk, alpha, beta, bases):
        ds = make_split(random_dataset(np.random.default_rng(sum(shape)), *shape, n_tags=4)).train
        if empty:
            ds = without_saves(ds, user=1, item=2)
            assert ds.UI[1].nnz == 0 and ds.UI[:, 2].nnz == 0
        sim = SimilarityConfig(alpha=alpha, beta=beta)
        params = {"walk": walk, "similarity": sim}
        built, lu = record_inversions(monkeypatch, lambda: all_scores("pRW", ds, **params))
        assert built == [(min(shape),) * 2] * bases
        assert all(inner[0] <= ds.num_tags for inner in lu)
        got = all_scores("pRW", ds, **params)
        want = closed_form_scores("pRW", ds, walk, sim)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("shape", [(9, 12), (12, 9)])
    @pytest.mark.parametrize("kind", ["pRW", "pRW-UI"])
    def test_default_build_runs_one_cholesky_base_and_no_k_by_k_lu(self, monkeypatch, shape, kind):
        ds = make_split(random_dataset(np.random.default_rng(3), *shape, n_tags=4)).train
        k = min(shape)
        bases, lu = record_inversions(monkeypatch, lambda: _walk_operator(kind, ds, None, None))
        assert bases == [(k, k)]
        assert (k, k) not in lu and all(inner[0] <= ds.num_tags for inner in lu)

    @staticmethod
    def dense_parts(ds, walk, sim):
        """The operator's system G and its low-rank term P @ Q in closed
        form, by ``np.linalg.inv``. The pushed walk's term is
        coef * R' (I - d S)^-1 with R' the restart in the system's space;
        its base, coef * (I - d (1 - w) chain)^-1, joins G and the rest is
        P @ Q, while the direct walk's whole coef * (I - d S)^-1 joins G."""
        r = row_normalize(ds.UI).toarray()
        c = row_normalize(ds.UI.T.tocsr()).toarray()
        s_item = item_similarity(ds, sim.alpha).toarray()
        s_user = user_similarity(ds, sim.beta).toarray()
        coef_item, coef_user = walk.mu * (1 - walk.eta), (1 - walk.mu) * (1 - walk.lambda_)
        inv = np.linalg.inv
        if ds.num_users <= ds.num_items:
            eye = np.eye(ds.num_users)
            base = coef_item * inv(eye - walk.eta * (1 - sim.alpha) * r @ c)
            system = base + coef_user * inv(eye - walk.lambda_ * s_user)
            pushed = coef_item * r @ inv(np.eye(ds.num_items) - walk.eta * s_item) - base @ r
            return system, pushed
        eye = np.eye(ds.num_items)
        base = coef_user * inv(eye - walk.lambda_ * (1 - sim.beta) * c @ r)
        system = base + coef_item * inv(eye - walk.eta * s_item)
        pushed = coef_user * inv(np.eye(ds.num_users) - walk.lambda_ * s_user) @ r - r @ base
        return system.T, pushed

    @pytest.mark.parametrize("shape", [(9, 12), (12, 9)])
    @pytest.mark.parametrize(
        "walk,sim",
        [(WalkConfig(mu=0.4), SimilarityConfig()), (WALK, SimilarityConfig(alpha=0.3, beta=0.7))],
        ids=["one_base", "two_bases"],
    )
    def test_system_is_the_bases_and_the_direct_update_alone(self, shape, walk, sim):
        ds = make_split(random_dataset(np.random.default_rng(sum(shape)), *shape, n_tags=4)).train
        operator = _walk_operator("pRW", ds, walk, sim)
        system, pushed = self.dense_parts(ds, walk, sim)
        assert np.abs(operator.system - system).max() <= 1e-12 * np.abs(system).max()
        # left and right are the pushed walk's block, of rank its tags
        assert operator.left.shape[1] == operator.right.shape[0] == ds.num_tags
        low_rank = operator.left @ operator.right
        assert np.abs(low_rank - pushed).max() <= 1e-12 * np.abs(pushed).max()

    @pytest.mark.parametrize("shape", [(600, 800), (800, 600)])
    def test_build_peak_is_the_base_and_four_tag_factors(self, shape):
        ds = random_dataset(np.random.default_rng(0), *shape, n_tags=100)
        k, tags = min(shape), ds.num_tags
        args = (ds.UI, ds.UT, ds.IT, WalkConfig(), 0.5, 0.5)
        # the first build imports scipy.linalg, whose objects would be traced
        fused_operator(*args)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fused_operator(*args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # the k x k base and four k x tags factors, with 30% for the sparse
        # inputs and the small temporaries
        assert peak <= 1.3 * (8 * k * k + 4 * 8 * k * tags)

    @pytest.mark.parametrize("shape", [(600, 800), (800, 600)])
    def test_blocks_add_one_score_block_and_the_work_buffer(self, monkeypatch, shape):
        ds = random_dataset(np.random.default_rng(0), *shape, n_tags=100)
        spec = AlgorithmSpec("pRW")
        # the first run imports scipy.linalg, whose objects would be traced
        run_algorithm(spec, ds, 5, 0)
        scorer, built = baselines.block_scorer, []

        def scorer_then_reset_peak(*args):
            scores = scorer(*args)
            built.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return scores

        monkeypatch.setattr(baselines, "block_scorer", scorer_then_reset_peak)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            run_algorithm(spec, ds, 5, 0)
            peak = tracemalloc.get_traced_memory()[1] - built[0]
        finally:
            if not was_tracing:
                tracemalloc.stop()
        m, n = shape
        block = 8 * baselines.BLOCK_USERS * n
        g_rows = 8 * baselines.BLOCK_USERS * m if m <= n else 0
        # scoring and ranking every block adds to the built operator the
        # ranking's two-block work buffer, one block of scores and two
        # boolean masks of its shape, and in user space the row slice of G
        # that scipy copies to form G[B] @ R; 10% covers the lists and the
        # small temporaries
        assert peak <= 1.1 * (3 * block + 2 * block / 8 + g_rows)

    @pytest.mark.parametrize("shape", [(9, 12), (12, 9)])
    @pytest.mark.parametrize("walk", [WalkConfig(), WALK], ids=["one_base", "two_bases"])
    def test_sparse_chain_is_freed_before_any_inversion(self, monkeypatch, shape, walk):
        ds = make_split(random_dataset(np.random.default_rng(3), *shape, n_tags=4)).train
        k = min(shape)

        def square_sparse():
            gc.collect()
            return sum(scipy.sparse.issparse(o) and o.shape == (k, k) for o in gc.get_objects())

        before = square_sparse()
        during = []

        def counting(a):
            during.append(square_sparse())
            return invert_spd_in_place(a)

        monkeypatch.setattr("folkwalk.walker.invert_spd_in_place", counting)
        _walk_operator("pRW", ds, walk, None)
        # S (k x k, symmetric) is dropped once every base's dense system is written
        assert during == [before] * (1 if walk == WalkConfig() else 2)

    @pytest.mark.parametrize("shape", [(30, 20), (16, 25)])
    def test_blocked_ranking_equals_ranking_all_scores(self, monkeypatch, shape):
        # 7-user blocks: several whole blocks, then a partial one
        monkeypatch.setattr("folkwalk.baselines.BLOCK_USERS", 7)
        ds = make_split(random_dataset(np.random.default_rng(shape[0]), *shape, n_tags=5)).train
        for kind in ABLATION_KINDS:
            want = recommend_all(all_scores(kind, ds, walk=self.WALK), ds.UI, 5)
            got = run_algorithm(AlgorithmSpec(kind, {"walk": self.WALK}), ds, 5, 0)
            assert np.array_equal(got, want)


def tag_matrices(posts, ds, saves):
    """``ds``'s UT and IT counted over only the posts whose (user, item)
    save is nonzero in the dense ``saves``."""
    item_index = {item: j for j, item in enumerate(ds.items)}
    tag_index = {tag: k for k, tag in enumerate(ds.tags)}
    ut = np.zeros((ds.num_users, ds.num_tags))
    it = np.zeros((ds.num_items, ds.num_tags))
    for post in posts:
        u, j = ds.user_index(post.user), item_index[post.item]
        if saves[u, j]:
            for tag in post.tags:
                ut[u, tag_index[tag]] += 1
                it[j, tag_index[tag]] += 1
    return scipy.sparse.csr_matrix(ut), scipy.sparse.csr_matrix(it)


def test_training_dataset_keeps_held_out_tags():
    # a split's training dataset shares UT and IT with the full dataset, so
    # the tags of held-out posts reach the walks: counting tags over the
    # training posts alone moves the tag-driven pRW-IT lists and leaves the
    # tag-free pRW-UI lists as they are
    posts = planted_cluster_posts(np.random.default_rng(7))
    ds = ingest(PostTable.from_posts(posts))
    sp = make_split(ds, 0.2, 0)
    assert sp.train.UT is ds.UT and sp.train.IT is ds.IT
    ut, it = tag_matrices(posts, ds, ds.UI.toarray())
    assert (ut != ds.UT).nnz == 0 and (it != ds.IT).nnz == 0
    ut, it = tag_matrices(posts, ds, sp.train.UI.toarray())
    train_tags = replace(sp.train, UT=ut, IT=it)
    assert not np.array_equal(top_n_lists("pRW-IT", train_tags), top_n_lists("pRW-IT", sp.train))
    assert np.array_equal(top_n_lists("pRW-UI", train_tags), top_n_lists("pRW-UI", sp.train))


def assert_neighborhoods(sim: scipy.sparse.csr_matrix, k: int) -> None:
    """``sim`` is a CSR neighborhood: at most k neighbors per row, none on
    the diagonal, column indices ascending within each row."""
    assert scipy.sparse.issparse(sim) and sim.format == "csr"
    counts = np.diff(sim.indptr)
    assert counts.max(initial=0) <= k
    rows = np.repeat(np.arange(sim.shape[0]), counts)
    assert np.all(sim.indices != rows)
    assert np.all(np.diff(sim.indices)[np.diff(rows) == 0] > 0)


class TestInvariants:
    @pytest.mark.parametrize("kind", ("Random", "UserCF", "ItemCF", "Fusion") + ABLATION_KINDS)
    def test_never_recommends_training_items(self, kind):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, n_users=7, n_items=9, n_tags=4)
        sp = make_split(ds)
        recs = run_algorithm(AlgorithmSpec(kind), sp.train, top_n=5, seed=7)
        train = sp.train.UI.toarray()
        for u, lst in enumerate(recs):
            lst = lst[lst >= 0]
            assert len(lst) == min(5, int((train[u] == 0).sum()))
            assert all(train[u, j] == 0 for j in lst)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_truncate_neighbors_matches_row_sort(self, data):
        m = data.draw(st.integers(1, 6), label="m")
        n = data.draw(st.integers(1, 8), label="n")
        cells = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=m * n, max_size=m * n)
        sim = np.array(data.draw(cells, label="sim")).reshape(m, n)
        k = data.draw(st.integers(0, n + 1), label="k")
        # a sparse product leaves each row's column indices in no order
        stored = scipy.sparse.csr_matrix(sim)
        shuffle = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="shuffle"))
        for i in range(m):
            row = slice(stored.indptr[i], stored.indptr[i + 1])
            order = shuffle.permutation(row.stop - row.start)
            stored.indices[row], stored.data[row] = stored.indices[row][order], stored.data[row][order]
        stored.has_sorted_indices = False
        off_diagonal = sim.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        expected = np.zeros_like(sim)
        for i in range(m):
            keep = sorted(range(n), key=lambda j: (-off_diagonal[i, j], j))[:k]
            expected[i, keep] = off_diagonal[i, keep]
        got = _truncate_neighbors(stored, k)
        assert_neighborhoods(got, k)
        np.testing.assert_array_equal(got.toarray(), expected)
        # without k every neighbor stays: the diagonal is zeroed in place,
        # in the stored pattern
        indices = stored.indices.copy()
        assert _truncate_neighbors(stored, None) is stored
        np.testing.assert_array_equal(stored.indices, indices)
        np.testing.assert_array_equal(stored.toarray(), off_diagonal)

    @pytest.mark.parametrize(
        "k,expected",
        [
            # row 0 ties at the 2nd value, row 1 has one neighbor, row 2 none
            (2, [[0, 0.5, 0.5, 0, 0], [0.3, 0, 0, 0, 0], [0] * 5, [0, 0.9, 0.9, 0, 0]]),
            (1, [[0, 0.5, 0, 0, 0], [0.3, 0, 0, 0, 0], [0] * 5, [0, 0.9, 0, 0, 0]]),
            # k >= n keeps every neighbor
            (5, [[0, 0.5, 0.5, 0.5, 0], [0.3, 0, 0, 0, 0], [0] * 5, [0.2, 0.9, 0.9, 0, 0.1]]),
            (9, [[0, 0.5, 0.5, 0.5, 0], [0.3, 0, 0, 0, 0], [0] * 5, [0.2, 0.9, 0.9, 0, 0.1]]),
        ],
    )
    def test_truncate_neighbors_edge_rows(self, k, expected):
        sim = np.array(
            [
                [1.0, 0.5, 0.5, 0.5, 0.0],
                [0.3, 1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [0.2, 0.9, 0.9, 1.0, 0.1],
            ]
        )
        got = _truncate_neighbors(scipy.sparse.csr_matrix(sim), k)
        assert_neighborhoods(got, k)
        np.testing.assert_array_equal(got.toarray(), np.array(expected))

    def test_cosine_symmetric_and_bounded(self):
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, n_users=8, n_items=9)
        sim = cosine_oracle(make_split(ds).train.UI.toarray())
        assert np.abs(sim - sim.T).max() < 1e-12
        assert sim.min() >= 0.0 and sim.max() <= 1.0 + 1e-12


def test_algorithm_spec_validation():
    AlgorithmSpec("Random")
    # Random draws with the split's seed; it takes no seed of its own
    with pytest.raises(ValueError, match="unknown params for Random"):
        AlgorithmSpec("Random", {"seed": 1})
    with pytest.raises(ValueError):
        AlgorithmSpec("PLSA")
    with pytest.raises(ValueError):
        AlgorithmSpec("UserCF", {"fuse_weight": 0.5})
    AlgorithmSpec("ItemCF", {"k_neighbors": None})
    AlgorithmSpec("ItemCF", {"k_neighbors": 1})
    for kind in ("UserCF", "ItemCF"):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k_neighbors"):
                AlgorithmSpec(kind, {"k_neighbors": k})


def test_fuse_weight_is_checked_when_the_spec_is_built():
    # an out-of-range weight fails before any algorithm is scored
    for weight in (0.0, 0.5, 1.0):
        AlgorithmSpec("Fusion", {"fuse_weight": weight})
    for weight in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"fuse_weight must be in \[0, 1\]"):
            AlgorithmSpec("Fusion", {"fuse_weight": weight})
