import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from folkwalk.linalg import (
    ShapeError,
    SingularMatrixError,
    row_normalize,
)
from folkwalk.similarity import (
    closed_form_item,
    closed_form_user,
    item_similarity,
    user_similarity,
    walk_item,
    walk_user,
)
from folkwalk.walker import SimilarityConfig, WalkConfig, _base, chain_weight, fuse, recommend_all

from gen import random_dataset, slow_mix_dataset


def eye_matrix(n):
    return csr_matrix(np.eye(n))


def random_instance(seed, n_users=8, n_items=8):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n_users=n_users, n_items=n_items, n_tags=5)
    return (
        row_normalize(ds.UI),
        item_similarity(ds, 0.5),
        user_similarity(ds, 0.5),
    )


def truncated_neumann_item(ui_norm, s, eta, terms=200):
    total = np.zeros(s.shape)
    power = np.eye(s.shape[0])
    sd = s.toarray()
    for _ in range(terms + 1):
        total += power
        power = power @ (eta * sd)
    return (1 - eta) * ui_norm.toarray() @ total


def truncated_neumann_user(ui_norm, s, lam, terms=200):
    total = np.zeros(s.shape)
    power = np.eye(s.shape[0])
    sd = s.toarray()
    for _ in range(terms + 1):
        total += power
        power = (lam * sd) @ power
    return (1 - lam) * total @ ui_norm.toarray()


class TestWalkItem:
    def test_zero_damping_is_pure_restart(self):
        ui_norm, s, _ = random_instance(0)
        x, iters = walk_item(ui_norm, s, eta=0.0)
        assert iters == 1
        np.testing.assert_allclose(x, ui_norm.toarray())

    def test_identity_similarity_is_stationary(self):
        ui_norm, _, _ = random_instance(1)
        x, _ = walk_item(ui_norm, eye_matrix(ui_norm.shape[1]), eta=0.7, tol=1e-12)
        assert np.abs(x - ui_norm.toarray()).max() < 1e-10

    def test_converges_to_closed_form(self):
        ui_norm, s, _ = random_instance(2)
        x, _ = walk_item(ui_norm, s, eta=0.8, tol=1e-12, max_iters=1000)
        cf = closed_form_item(ui_norm, s, 0.8)
        assert np.abs(x - cf).max() < 1e-8


@pytest.mark.parametrize(
    "limit", [walk_item, walk_user, closed_form_item, closed_form_user], ids=lambda f: f.__name__
)
def test_dimension_and_damping_validation(limit):
    # more items than users, so a similarity of the other side is rejected too
    ui_norm, s_item, s_user = random_instance(3, n_users=6, n_items=9)
    user_side = limit.__name__.endswith("user")
    s, other = (s_user, s_item) if user_side else (s_item, s_user)
    with pytest.raises(ValueError, match="must be in"):
        limit(ui_norm, s, 1.0)
    for wrong in (other, eye_matrix(s.shape[0] + 1)):
        with pytest.raises(ShapeError, match="similarity .* incompatible with scores"):
            limit(ui_norm, wrong, 0.5)


class TestWalkUser:
    def test_zero_damping_is_pure_restart(self):
        ui_norm, _, s = random_instance(4)
        x, _ = walk_user(ui_norm, s, lambda_=0.0)
        np.testing.assert_allclose(x, ui_norm.toarray())

    def test_identity_similarity_is_stationary(self):
        ui_norm, _, _ = random_instance(5)
        x, _ = walk_user(ui_norm, eye_matrix(ui_norm.shape[0]), lambda_=0.6, tol=1e-12)
        assert np.abs(x - ui_norm.toarray()).max() < 1e-10

    def test_converges_to_closed_form(self):
        ui_norm, _, s = random_instance(6)
        x, _ = walk_user(ui_norm, s, lambda_=0.8, tol=1e-12, max_iters=1000)
        cf = closed_form_user(ui_norm, s, 0.8)
        assert np.abs(x - cf).max() < 1e-8


class TestClosedForms:
    def test_zero_damping_identity(self):
        ui_norm, s, s_u = random_instance(7)
        np.testing.assert_allclose(closed_form_item(ui_norm, s, 0.0), ui_norm.toarray())
        np.testing.assert_allclose(closed_form_user(ui_norm, s_u, 0.0), ui_norm.toarray())

    def test_identity_similarity_cancels(self):
        ui_norm, _, _ = random_instance(8)
        out = closed_form_item(ui_norm, eye_matrix(ui_norm.shape[1]), 0.5)
        assert np.abs(out - ui_norm.toarray()).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_truncated_series(self, seed):
        ui_norm, s_item, s_user = random_instance(seed + 20)
        cf = closed_form_item(ui_norm, s_item, 0.8)
        assert np.abs(cf - truncated_neumann_item(ui_norm, s_item, 0.8)).max() < 1e-10
        cfu = closed_form_user(ui_norm, s_user, 0.8)
        assert np.abs(cfu - truncated_neumann_user(ui_norm, s_user, 0.8)).max() < 1e-10

    def test_inputs_unchanged(self):
        ui_norm, s_item, s_user = random_instance(10)
        before = [m.copy() for m in (ui_norm, s_item, s_user)]
        closed_form_item(ui_norm, s_item, 0.8)
        closed_form_user(ui_norm, s_user, 0.8)
        for m, copy in zip((ui_norm, s_item, s_user), before):
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(m, part), getattr(copy, part))

    def test_singular_system_raises(self):
        ui_norm, _, _ = random_instance(9, n_users=6, n_items=9)
        # I - 0.5 * 2I is zero
        for limit, size in ((closed_form_item, ui_norm.shape[1]), (closed_form_user, ui_norm.shape[0])):
            with pytest.raises(SingularMatrixError):
                limit(ui_norm, csr_matrix(2.0 * np.eye(size)), 0.5)


class TestFuse:
    def test_endpoints(self):
        a = np.array([[2.0, 0.0]])
        b = np.array([[0.0, 2.0]])
        np.testing.assert_array_equal(fuse(a.copy(), b.copy(), 1.0), a)
        np.testing.assert_array_equal(fuse(a.copy(), b.copy(), 0.0), b)
        np.testing.assert_allclose(fuse(a.copy(), b.copy(), 0.5), [[1.0, 1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fuse(np.zeros((1, 2)), np.zeros((2, 1)), 0.5)

    def test_writes_into_item_scores(self):
        rng = np.random.default_rng(4)
        a, b = rng.random((5, 7)), np.asfortranarray(rng.random((5, 7)))
        want = 0.3 * a + 0.7 * b
        got = fuse(a, b, 0.3)
        assert got is a and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "item, user, mu, error",
        [
            (np.ones((2, 3)), np.ones((2, 3)), 1.5, ValueError),
            (np.ones((2, 3)), np.ones((2, 3)), -0.1, ValueError),
            (np.ones((3, 2)), np.ones((2, 3)), 0.5, ShapeError),
        ],
    )
    def test_validates_before_writing(self, item, user, mu, error):
        with pytest.raises(error):
            fuse(item, user, mu)
        np.testing.assert_array_equal(item, np.ones(item.shape))
        np.testing.assert_array_equal(user, np.ones((2, 3)))


class TestBase:
    @pytest.mark.parametrize("seed", range(5))
    def test_inverts_the_similar_unsymmetric_matrix_in_own_buffer(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 40))
        b = rng.random((k, k))
        system = np.asfortranarray(b @ b.T / k + np.eye(k))
        g = rng.uniform(0.2, 5.0, k)
        # diag(g)^-1 @ system @ diag(g) is not symmetric
        expected = np.linalg.inv(system / g[:, None] * g)
        base = _base(system, g)
        assert np.shares_memory(base, system)
        assert np.abs(base - expected).max() <= 1e-12 * np.abs(expected).max()


def sort_oracle(scores, train, top_n):
    """Per-user sort of the non-training items by (-score, item index)."""
    return {
        u: sorted(
            (j for j in range(scores.shape[1]) if train[u, j] == 0.0),
            key=lambda j: (-scores[u, j], j),
        )[:top_n]
        for u in range(scores.shape[0])
    }


class TestRecommend:
    def test_sort_and_exclusion(self):
        train = csr_matrix([[1.0, 0.0, 0.0]])
        assert recommend_all(np.array([[0.9, 0.1, 0.5]]), train, 2) == {0: [2, 1]}

    def test_tie_rule(self):
        train = csr_matrix([[0.0, 1.0, 0.0, 0.0]])
        assert recommend_all(np.full((1, 4), 0.3), train, 2) == {0: [0, 2]}

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(33)
        scores = rng.random((5, 12))
        train = csr_matrix((rng.random((5, 12)) < 0.3).astype(float))
        assert recommend_all(scores, train, 4) == sort_oracle(scores, train.toarray(), 4)

    def test_scarce_and_empty_candidates(self):
        train = csr_matrix([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        assert recommend_all(np.ones((2, 3)), train, 5) == {0: [2], 1: []}

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            recommend_all(np.zeros((2, 2)), csr_matrix((2, 2)), 0)
        with pytest.raises(ShapeError):
            recommend_all(np.zeros((2, 3)), csr_matrix((2, 2)), 1)

    def test_work_buffer(self):
        rng = np.random.default_rng(34)
        scores = rng.random((6, 9))
        scores[2] = 0.5
        held = rng.random((6, 9)) < 0.3
        train = csr_matrix(held.astype(float))
        want = sort_oracle(scores, held, 4)
        given_scores = scores.copy()
        work = np.full(2 * scores.size + 3, np.nan)
        assert recommend_all(scores, train, 4, work) == want
        # a block ranked next in the same buffer sees none of the first's keys
        assert recommend_all(scores[3:], train[3:], 4, work) == {u - 3: want[u] for u in range(3, 6)}
        assert np.array_equal(scores, given_scores)
        for bad in (np.empty(2 * scores.size - 1), np.empty((2, scores.size)),
                    np.empty(2 * scores.size, dtype=np.float32), np.empty(4 * scores.size)[::2]):
            with pytest.raises(ValueError, match="work"):
                recommend_all(scores, train, 4, bad)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_sort_oracle_property(self, data):
        m = data.draw(st.integers(1, 6), label="m")
        n = data.draw(st.integers(1, 8), label="n")
        cells = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=m * n, max_size=m * n)
        scores = np.array(data.draw(cells, label="scores")).reshape(m, n)
        held = np.array(data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n),
                                  label="train")).reshape(m, n)
        # in one row every candidate ties, so any top_n short of its candidate
        # count cuts a run of tied scores
        tied_row = data.draw(st.integers(0, m - 1), label="tied row")
        scores[tied_row] = data.draw(st.sampled_from([0.0, 0.5]), label="tied score")
        # some rows keep fewer than top_n candidates, some none at all
        held[data.draw(st.integers(0, m - 1), label="full row")] = True
        top_n = data.draw(st.integers(1, n + 2), label="top_n")
        train = csr_matrix(held.astype(float))
        assert recommend_all(scores, train, top_n) == sort_oracle(scores, held, top_n)


class TestProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_change_bounded_by_damping_power(self, seed):
        # each difference step multiplies by eta * S, so the change ratio
        # never exceeds eta for (sub)stochastic S
        ui_norm, s, _ = random_instance(seed + 40, n_users=10, n_items=10)
        trace = []
        walk_item(ui_norm, s, eta=0.5, tol=1e-14, max_iters=40, trace=trace)
        ratios = [trace[t + 1] / trace[t] for t in range(len(trace) - 1) if trace[t] > 0]
        assert all(r <= 0.5 + 1e-9 for r in ratios)
        assert all(trace[t] <= trace[0] * 0.5**t * (1 + 1e-9) for t in range(len(trace)))

    @pytest.mark.parametrize("seed", range(4))
    def test_contraction_rate_approaches_damping_on_slow_mixers(self, seed):
        ds = slow_mix_dataset(np.random.default_rng(seed + 40))
        ui_norm = row_normalize(ds.UI)
        s = item_similarity(ds, 0.5)
        trace = []
        walk_item(ui_norm, s, eta=0.5, tol=1e-14, max_iters=12, trace=trace)
        ratios = [trace[t + 1] / trace[t] for t in range(3, 9)]
        assert all(0.4 <= r <= 0.55 for r in ratios)

    def test_iterates_stay_non_negative(self):
        ui_norm, s, _ = random_instance(50)
        x, _ = walk_item(ui_norm, s, eta=0.9, tol=1e-12, max_iters=300)
        assert x.min() >= 0.0

    def test_fusion_invariant(self):
        ui_norm, s_item, s_user = random_instance(51)
        ui_item, _ = walk_item(ui_norm, s_item, 0.6, tol=1e-10, max_iters=500)
        ui_user, _ = walk_user(ui_norm, s_user, 0.6, tol=1e-10, max_iters=500)
        expected = 0.3 * ui_item + 0.7 * ui_user
        assert np.abs(fuse(ui_item, ui_user, 0.3) - expected).max() < 1e-12

    def test_fusion_endpoint_rankings(self):
        ui_norm, s_item, s_user = random_instance(52)
        train = csr_matrix(ui_norm.shape)
        ui_item, _ = walk_item(ui_norm, s_item, 0.8)
        ui_user, _ = walk_user(ui_norm, s_user, 0.8)
        for mu, side in ((1.0, ui_item), (0.0, ui_user)):
            fused = fuse(ui_item.copy(), ui_user.copy(), mu)
            assert recommend_all(fused, train, 5) == recommend_all(
                side, train, 5
            )


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(eta=1.0)
    with pytest.raises(ValueError):
        WalkConfig(mu=-0.2)


def test_similarity_config_validation():
    SimilarityConfig(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        SimilarityConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        SimilarityConfig(beta=1.5)


@pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
def test_chain_weight_falls_to_the_nonempty_component(weight):
    # 3 rows: tags over 2 columns, interactions over 4
    tags, no_tags = csr_matrix([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]), csr_matrix((3, 2))
    saves, no_saves = csr_matrix(np.eye(3, 4)), csr_matrix((3, 4))
    assert chain_weight(no_tags, saves, weight) == 0.0
    assert chain_weight(tags, no_saves, weight) == 1.0
    assert chain_weight(no_tags, no_saves, weight) == 0.0
    assert chain_weight(tags, saves, weight) == weight
