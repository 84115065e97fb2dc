import numpy as np
import pytest

from folkwalk.baselines import block_scorer, recommend_all, run_algorithm
from folkwalk.dataset import TaggingDataset, ingest, split
from folkwalk.params import AlgorithmSpec

from gate import TOLERANCE, Flip, certified, exact_scores, flips
from gen import csr, edge_user_dataset, planted_cluster_posts, post_table

# Every user saves item 0 and uses tag 0 a thousand times; users 1, 2 and 3
# also save items 1, 2 and 3, and user 2 uses tag 1 once. For user 0, items 1
# and 3 tie exactly under tag-extended UserCF, and item 2 scores 1 / (2 *
# (1000^2 + 2)), about 5e-7, of the top score below them.
NEAR_TIE = TaggingDataset(
    users=("u0", "u1", "u2", "u3"),
    items=("i0", "i1", "i2", "i3"),
    tags=("t0", "t1"),
    UI=csr(4, 4, [(u, 0, 1.0) for u in range(4)] + [(u, u, 1.0) for u in (1, 2, 3)]),
    UT=csr(4, 2, [(u, 0, 1000.0) for u in range(4)] + [(2, 1, 1.0)]),
    IT=csr(4, 2),
)
TAGGED_USER_CF = AlgorithmSpec("Fusion", {"fuse_weight": 1.0})


def planted_train(seed=0):
    ds = ingest(post_table(planted_cluster_posts(np.random.default_rng(7))))
    return split(ds, 0.2, seed).train


def test_an_entry_moved_across_a_real_gap_fails():
    lists = run_algorithm(TAGGED_USER_CF, NEAR_TIE, 2, 0)
    assert lists[0].tolist() == [1, 3]
    scores = block_scorer(TAGGED_USER_CF, NEAR_TIE)(0, 4)
    scores[0, 2] += 1e-6
    moved = recommend_all(scores, NEAR_TIE.UI, 2)
    assert moved[0].tolist() == [2, 1]
    found = flips(NEAR_TIE, TAGGED_USER_CF, lists, moved)
    assert {(f.user, f.first, f.second) for f in found} == {(0, 1, 2), (0, 3, 2)}
    assert all(f.gap == pytest.approx(0.5 / (1000**2 + 2)) for f in found)
    assert not certified(found)


def test_a_swap_of_exactly_tied_items_passes():
    lists = run_algorithm(TAGGED_USER_CF, NEAR_TIE, 2, 0)
    swapped = lists.copy()
    swapped[0] = [3, 1]
    found = flips(NEAR_TIE, TAGGED_USER_CF, lists, swapped)
    assert found == [Flip(0, 1, 3, 0.0)]
    assert certified(found)
    assert flips(NEAR_TIE, TAGGED_USER_CF, lists, lists) == []


@pytest.mark.parametrize(
    "params",
    [{"k_neighbors": 1}, {"k_neighbors": 20}, {}],
)
@pytest.mark.parametrize("kind", ["UserCF", "ItemCF"])
def test_exact_scores_match_the_pipeline(kind, params):
    for ds in (planted_train(), edge_user_dataset(np.random.default_rng(8))):
        spec = AlgorithmSpec(kind, params)
        scores = block_scorer(spec, ds)(0, ds.num_users)
        for user in range(0, ds.num_users, 5):
            assert np.abs(exact_scores(ds, spec, user) - scores[user]).max() < 1e-14


@pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
def test_exact_fusion_scores_match_the_pipeline(weight):
    ds = planted_train()
    spec = AlgorithmSpec("Fusion", {"fuse_weight": weight})
    scores = block_scorer(spec, ds)(0, ds.num_users)
    for user in range(0, ds.num_users, 5):
        assert np.abs(exact_scores(ds, spec, user) - scores[user]).max() < 1e-14


def test_a_real_swap_in_planted_lists_fails():
    # every user's first and last list entries swapped: unless they tie,
    # the gap is the user's whole spread of listed scores
    ds = planted_train()
    for kind in ("UserCF", "ItemCF", "Fusion"):
        spec = AlgorithmSpec(kind)
        lists = run_algorithm(spec, ds, 5, 0)
        # every list is full, so its first and last columns are its ends
        assert np.all(lists >= 0)
        swapped = lists.copy()
        swapped[:, [0, -1]] = lists[:, [-1, 0]]
        found = flips(ds, spec, lists, swapped)
        assert found and not certified(found)
        assert max(f.gap for f in found) > 1e-3 > TOLERANCE


@pytest.mark.parametrize("kind", ["pRW", "pRW-UI", "Random"])
def test_kinds_without_exact_scores_raise(kind):
    lists = np.array([[1, 2]])
    with pytest.raises(NotImplementedError):
        flips(NEAR_TIE, AlgorithmSpec(kind), lists, lists)
