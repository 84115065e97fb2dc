import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.sparse import csr_matrix

from folkwalk import evaluation
from folkwalk.baselines import run_algorithm
from folkwalk.cli import main
from folkwalk.params import AlgorithmSpec, walk_params
from folkwalk.dataset import EmptyDatasetError, ingest, split
from folkwalk.evaluation import (
    EvalReport,
    evaluate_lists,
    f_measure,
    format_report_table,
    paired_t_test,
    run_experiment,
    runs_to_csv,
)

from gen import covered_posts, held_out, padded, post_table, random_dataset, write_dataset


def oracle_precision_recall(recs: dict, test_sets: dict) -> tuple[float, float]:
    """The metrics' definition as per-user loops over dicts of lists and
    frozensets: mean per-user precision and recall over users with a
    non-empty test set, as percentages."""
    users = [u for u, t in test_sets.items() if t]
    precisions, recalls = [], []
    for u in users:
        hits = len(set(recs[u]) & test_sets[u])
        precisions.append(hits / len(recs[u]) if recs[u] else 0.0)
        recalls.append(hits / len(test_sets[u]))
    return 100.0 * float(np.mean(precisions)), 100.0 * float(np.mean(recalls))


def oracle_rankscore(recs: dict, test_sets: dict, half_life: int = 5) -> float:
    """Half-life rankscore as per-user loops, summed in (user, rank) order."""
    utility = max_utility = 0.0
    for u in [u for u, t in test_sets.items() if t]:
        for r, item in enumerate(recs[u], start=1):
            if item in test_sets[u]:
                utility += 2.0 ** (-(r - 1) / (half_life - 1))
        best = min(len(test_sets[u]), len(recs[u]))
        for r in range(1, best + 1):
            max_utility += 2.0 ** (-(r - 1) / (half_life - 1))
    return 100.0 * utility / max_utility if max_utility > 0 else 0.0


def metrics(lists, test_sets, n_items=30, half_life=5):
    """evaluate_lists on one list and one test set per user, given as Python
    lists, in the array form: lists padded with -1, test sets as CSR."""
    width = max(1, *map(len, lists))
    return evaluate_lists(padded(lists, width), held_out(test_sets, n_items), half_life)


class TestPrecisionRecall:
    def test_worked_example(self):
        m = metrics([[1, 2, 3, 4, 5]], [[*range(10, 18), 3]])
        assert m.precision == pytest.approx(20.0)
        assert m.recall == pytest.approx(100.0 / 9 * 1)  # 1 of 9 test items

    def test_exact_definition_values(self):
        # 1 hit in a 5-item list, 8 test items
        m = metrics([[1, 2, 3, 4, 5]], [[5, 20, 21, 22, 23, 24, 25, 26]])
        assert m.precision == pytest.approx(20.0)
        assert m.recall == pytest.approx(12.5)

    def test_perfect_list(self):
        m = metrics([[1, 2, 3, 4, 5]], [[1, 2, 3, 4, 5]])
        assert (m.precision, m.recall) == (100.0, 100.0)

    def test_empty_test_users_excluded(self):
        m = metrics([[1], [2]], [[1], []])
        assert (m.precision, m.recall) == (100.0, 100.0)

    def test_all_empty_errors(self):
        with pytest.raises(EmptyDatasetError, match="no user has a non-empty test set"):
            metrics([[1]], [[]])

    def test_missing_list_names_first_counted_user(self):
        # users 2 and 3 are counted; the lists stop after user 1
        test = held_out([[1], [], [4], [5]], 6)
        with pytest.raises(KeyError, match="no recommendation list for user 2"):
            evaluate_lists(padded([[1], [2]], 2), test)
        # user 2's test set is empty, so user 3 is the first one lacking a list
        test = held_out([[1], [], [], [5]], 6)
        with pytest.raises(KeyError, match="no recommendation list for user 3"):
            evaluate_lists(padded([[1], [2], [3]], 2), test)
        evaluate_lists(padded([[1], [2], [3], [5]], 2), test)

    def test_pads_are_never_hits(self):
        # every pad sits next to test sets holding the last item, n - 1, and
        # item 0: a pad read as the previous user's item n - 1, as the last
        # column, or as item 0 would count as a hit
        n = 6
        lists = [[1, 2], [3], [], [2], []]
        test_sets = [[0, n - 1], [0, n - 1], [0, n - 1], [0, 2, n - 1], [0]]
        m = metrics(lists, test_sets, n)
        recs = dict(enumerate(lists))
        tests = {u: frozenset(t) for u, t in enumerate(test_sets)}
        assert (m.precision, m.recall) == oracle_precision_recall(recs, tests)
        assert m.rankscore == oracle_rankscore(recs, tests)
        # user 3's one hit is the only one
        assert m.precision == pytest.approx(100.0 / 5)
        assert m.recall == pytest.approx(100.0 / 3 / 5)

    def test_matches_set_intersection_oracle(self):
        # equal to the last bit: a sum in another order than the loops' moves
        # the rankscore of most of these instances
        n_users, n_items, top_n = 40, 30, 6
        for seed in range(4):
            rng = np.random.default_rng(seed)
            # mixed lengths: empty, short and full lists
            lists = [
                rng.choice(n_items, size=rng.integers(0, top_n + 1), replace=False).tolist()
                for _ in range(n_users)
            ]
            test_sets = [
                rng.choice(n_items, size=rng.integers(0, 8), replace=False).tolist()
                for _ in range(n_users)
            ]
            recs = dict(enumerate(lists))
            tests = {u: frozenset(t) for u, t in enumerate(test_sets)}
            test = held_out(test_sets, n_items)
            for half_life in (2, 5, 7):
                m = evaluate_lists(padded(lists, top_n), test, half_life)
                assert (m.precision, m.recall) == oracle_precision_recall(recs, tests)
                assert m.rankscore == oracle_rankscore(recs, tests, half_life)

    def test_hits_match_isin_on_unsorted_rows(self):
        rng = np.random.default_rng(5)
        n_users, n_items, top_n = 40, 30, 6
        lists = padded(
            [rng.choice(n_items, size=rng.integers(0, top_n + 1), replace=False) for _ in range(n_users)],
            top_n,
        )
        test = held_out([rng.choice(n_items, size=rng.integers(0, 8)) for _ in range(n_users)], n_items)
        # each row's entries reversed: no row of several entries is sorted
        ptr = test.indptr
        indices = np.concatenate([test.indices[lo:hi][::-1] for lo, hi in zip(ptr[:-1], ptr[1:])])
        unsorted = csr_matrix((test.data, indices, ptr), shape=test.shape)
        assert not unsorted.has_sorted_indices
        users = np.flatnonzero(np.diff(ptr))
        want = np.array([np.isin(lists[u], unsorted.indices[ptr[u]:ptr[u + 1]]) for u in users])
        assert np.array_equal(evaluation._hits(lists[users], users, unsorted), want)
        assert evaluate_lists(lists, unsorted) == evaluate_lists(lists, test)


class TestFMeasure:
    def test_equal_inputs(self):
        assert f_measure(50, 50) == 50

    def test_zero_limit(self):
        assert f_measure(0, 0) == 0

    def test_arithmetic(self):
        assert f_measure(20, 12.5) == pytest.approx(15.384615384615385)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, r = rng.uniform(0, 100, 2)
            f = f_measure(p, r)
            assert 0 <= f <= (p + r) / 2 + 1e-12
            assert f <= math.sqrt(p * r) + 1e-12


class TestRankscore:
    def test_all_hits_at_top(self):
        assert metrics([[3, 1, 2]], [[1, 2, 3, 9]]).rankscore == pytest.approx(100.0)

    def test_no_hits(self):
        assert metrics([[1, 2]], [[9]]).rankscore == 0.0

    def test_single_hit_rank_three(self):
        # oracle: enumerate positions; single hit at rank 3, best case rank 1
        expected = 100 * (2 ** (-(3 - 1) / (5 - 1))) / (2 ** (-(1 - 1) / (5 - 1)))
        got = metrics([[10, 11, 7, 12, 13]], [[7]], half_life=5).rankscore
        assert got == pytest.approx(expected)
        assert got == pytest.approx(70.71067811865476)

    def test_hundred_iff_all_top_positions_hit(self):
        assert metrics([[1, 2, 9]], [[1, 2]]).rankscore == pytest.approx(100.0)
        assert metrics([[1, 9, 2]], [[1, 2]]).rankscore < 100.0

    def test_half_life_validation(self):
        with pytest.raises(ValueError):
            metrics([[1]], [[1]], half_life=1)


class TestRunExperiment:
    def test_single_run_means_equal_run(self):
        ds = random_dataset(np.random.default_rng(0), n_users=8, n_items=10)
        rep = run_experiment(ds, [AlgorithmSpec("Random")], 0.3, 3, 1, 5)[0][0]
        assert rep.means == rep.runs[0]
        assert rep.seeds == [5]

    def test_deterministic(self):
        ds = random_dataset(np.random.default_rng(1), n_users=8, n_items=10)
        spec = AlgorithmSpec("pRW")
        a = run_experiment(ds, [spec], 0.3, 3, 3, 7)[0][0]
        b = run_experiment(ds, [spec], 0.3, 3, 3, 7)[0][0]
        assert asdict(a) == asdict(b)

    def test_random_baseline_matches_analytic_expectation(self):
        # dense uniform saves: precision of a random list ~ test share of candidates
        rng = np.random.default_rng(2)
        from folkwalk.dataset import TaggingDataset
        from scipy.sparse import csr_matrix

        ui = (rng.random((100, 100)) < 0.5).astype(float)
        ui[:, 0] = 1.0  # no empty users
        ds = TaggingDataset(
            users=tuple(f"u{i}" for i in range(100)),
            items=tuple(f"i{j}" for j in range(100)),
            tags=(),
            UI=csr_matrix(ui),
            UT=csr_matrix((100, 0)),
            IT=csr_matrix((100, 0)),
        )
        rep = run_experiment(ds, [AlgorithmSpec("Random")], 0.2, 5, 10, 0)[0][0]
        per_user = []
        for u in range(100):
            saved = int(ui[u].sum())
            test = saved - math.ceil(0.2 * saved)
            per_user.append(test / (100 - math.ceil(0.2 * saved)))
        expected = 100 * np.mean(per_user)
        sd = rep.means.precision / math.sqrt(10) + 2.0
        assert abs(rep.means.precision - expected) < 3 * sd

    def test_runs_validated(self):
        ds = random_dataset(np.random.default_rng(3))
        with pytest.raises(ValueError):
            run_experiment(ds, [AlgorithmSpec("Random")], n_runs=0)


@pytest.fixture()
def split_calls(monkeypatch):
    """(training fraction, seed) of every split the experiment loop draws."""
    calls = []

    def counting_split(ds, train_fraction, seed):
        calls.append((train_fraction, seed))
        return split(ds, train_fraction, seed)

    monkeypatch.setattr(evaluation, "make_split", counting_split)
    return calls


def validation_seed(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed).spawn(1)[0]


def same_seed(a, b) -> bool:
    """Whether two split seeds, integers or seed sequences, are one seed."""
    state = lambda s: s.state if isinstance(s, np.random.SeedSequence) else s  # noqa: E731
    return state(a) == state(b)


class TestOneSplitPerSeed:
    def test_run_experiment_splits_once_per_seed(self, split_calls):
        ds = random_dataset(np.random.default_rng(12), n_users=8, n_items=10)
        specs = [AlgorithmSpec(kind) for kind in ("Random", "UserCF", "ItemCF", "Fusion")]
        reports, selection = run_experiment(ds, specs, 0.3, 3, 3, 4)
        assert split_calls == [(0.3, 4), (0.3, 5), (0.3, 6)]
        assert [r.algorithm for r in reports] == specs
        assert selection == {}

    def test_shared_split_reports_equal_single_algorithm_reports(self):
        ds = random_dataset(np.random.default_rng(13), n_users=8, n_items=10)
        specs = [AlgorithmSpec(kind) for kind in ("Random", "UserCF", "ItemCF", "Fusion", "pRW")]
        together, _ = run_experiment(ds, specs, 0.3, 3, 2, 1)
        alone = [run_experiment(ds, [spec], 0.3, 3, 2, 1)[0][0] for spec in specs]
        assert [asdict(r) for r in together] == [asdict(r) for r in alone]

    def test_tuned_algorithms_share_one_validation_split_per_seed(self, split_calls):
        ds = random_dataset(np.random.default_rng(14), n_users=8, n_items=10)
        specs = [AlgorithmSpec("pRW", {"alpha": a, "mu": m})
                 for a in (0.0, 0.5, 1.0) for m in (0.3, 0.5, 0.7)]
        specs += [AlgorithmSpec("UserCF", {"k_neighbors": k}) for k in (2, 4)]
        _, selection = run_experiment(ds, specs, 0.3, n_runs=2, base_seed=2)
        assert [len(s.candidates) for s in selection.values()] == [9, 2]
        # per run, its own split, then one validation split for both algorithms
        expected = [2, validation_seed(2), 3, validation_seed(3)]
        assert [f for f, _ in split_calls] == [0.3] * 4
        assert all(same_seed(seed, e) for (_, seed), e in zip(split_calls, expected))

    def test_validation_seed_is_no_run_seed(self):
        # the validation split's stream is that of no integer seed, so no
        # run of any experiment draws it as its own split
        draws = lambda seed: np.random.default_rng(seed).random(4).tolist()  # noqa: E731
        for seed in (0, 1, 7):
            child = draws(validation_seed(seed))
            assert all(child != draws(s) for s in (seed, seed + 1, seed + 2**32, 0, 1, 2))

    def test_evaluate_splits_once_per_fraction_and_seed(self, split_calls, tmp_path):
        path = tmp_path / "ds.json"
        write_dataset(path, covered_posts(np.random.default_rng(15), n_users=8, n_items=10))
        assert main([
            "evaluate", "--dataset", str(path), "--algorithms", "Random,UserCF", "--top-n", "3",
            "--runs", "2", "--train-fraction", "0.2,0.4", "--output-dir", str(tmp_path / "o"),
        ]) == 0
        assert split_calls == [(0.2, 0), (0.2, 1), (0.4, 0), (0.4, 1)]

    def test_no_algorithms(self):
        ds = random_dataset(np.random.default_rng(16))
        with pytest.raises(ValueError, match="no algorithms"):
            run_experiment(ds, [])


class TestTuning:
    def test_one_candidate_is_not_tuned(self, split_calls):
        ds = random_dataset(np.random.default_rng(7), n_users=8, n_items=10)
        spec = AlgorithmSpec("pRW", {"eta": 0.5})
        (report,), selection = run_experiment(ds, [spec], n_runs=1)
        assert report.algorithm == spec and selection == {}
        assert split_calls == [(0.2, 0)]

    def test_tie_keeps_first(self):
        # both neighbourhoods hold every other user, so the candidates score alike
        ds = random_dataset(np.random.default_rng(8), n_users=8, n_items=10)
        specs = [AlgorithmSpec("UserCF", {"k_neighbors": k}) for k in (8, 9)]
        (report,), selection = run_experiment(ds, specs, 0.5, n_runs=3)
        tuned = selection["UserCF"]
        assert tuned.chosen == [0, 0, 0]
        assert all(a == b for a, b in tuned.validation_precision)
        assert report.algorithm == AlgorithmSpec("UserCF")

    def test_choice_matches_reevaluation(self):
        # each run's validation precisions are the candidates' scores on the
        # validation split of its training dataset, the choice is the first
        # best of them, and the run's metrics are the choice's on test
        ds = random_dataset(np.random.default_rng(9), n_users=12, n_items=14)
        points = [{"alpha": a, "mu": m} for a in (0.0, 0.5, 1.0) for m in (0.3, 0.8, 1.0)]
        specs = [AlgorithmSpec("pRW", p) for p in points]
        (report,), selection = run_experiment(ds, specs, 0.4, 3, n_runs=2, base_seed=5)
        tuned = selection["pRW"]
        assert tuned.candidates == [spec.params for spec in specs]
        for run, seed, best, precision in zip(
            report.runs, report.seeds, tuned.chosen, tuned.validation_precision
        ):
            outer = split(ds, 0.4, seed)
            inner = split(outer.train, 0.4, validation_seed(seed))
            assert precision == [
                evaluate_lists(run_algorithm(c, inner.train, 3, seed), inner.test).precision
                for c in specs
            ]
            assert best == precision.index(max(precision))
            lists = run_algorithm(specs[best], outer.train, 3, seed)
            assert run == evaluate_lists(lists, outer.test)

    def test_candidates_see_training_saves_only(self, monkeypatch):
        # a candidate scored during selection is trained on a dataset whose
        # saves all lie in the run's training split
        ds = random_dataset(np.random.default_rng(10), n_users=12, n_items=14)
        splits, trained = [], []

        def spy_split(*args):
            splits.append(split(*args))
            return splits[-1]

        def spy_run(spec, train, *args):
            # the run's own split is the second to last drawn so far
            trained.append((train, splits[-2].train))
            return run_algorithm(spec, train, *args)

        monkeypatch.setattr(evaluation, "make_split", spy_split)
        monkeypatch.setattr(evaluation, "run_algorithm", spy_run)
        specs = [AlgorithmSpec("Fusion", {"fuse_weight": w}) for w in (0.2, 0.8)]
        run_experiment(ds, specs, 0.5, 3, n_runs=2)
        # per run: two candidates on the validation split, then the choice
        assert len(splits) == 4
        assert [train is run_train for train, run_train in trained] == [False, False, True] * 2
        for train, run_train in trained:
            assert (train.UI - train.UI.multiply(run_train.UI)).nnz == 0

    def test_empty_validation_split(self):
        # every user saved two items: half a user's saves train, and the
        # training half of one save leaves nothing for validation
        posts = [(f"u{u}", f"i{(u + k) % 6}", ("t",)) for u in range(6) for k in range(2)]
        ds = ingest(post_table(posts))
        specs = [AlgorithmSpec("ItemCF", {"k_neighbors": k}) for k in (1, 2)]
        with pytest.raises(EmptyDatasetError, match="held-out save in the validation split"):
            run_experiment(ds, specs, 0.5, n_runs=1)

    def test_unknown_hyperparameter_name(self):
        with pytest.raises(ValueError, match="gamma"):
            walk_params("pRW", {"gamma": 1.0})


class TestPairedTTest:
    def test_identical_lists(self):
        assert paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)

    def test_constant_difference_sentinel(self):
        t, p = paired_t_test([5.0, 6.0, 7.0], [1.0, 2.0, 3.0])
        assert t == math.inf and p == 0.0
        t, p = paired_t_test([1.0, 2.0], [2.0, 3.0])
        assert t == -math.inf and p == 0.0

    def test_matches_scipy_oracle(self):
        a, b = [5.0, 6.0, 7.0], [1.0, 3.0, 2.0]
        t, p = paired_t_test(a, b)
        ref = scipy_stats.ttest_rel(a, b)
        assert t == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue)

    @pytest.mark.parametrize("spread", [5e-4, 5e-2])
    def test_large_t_keeps_p(self, spread):
        # t is about 6000 and 60: the upper tail 1 - cdf rounds to 0 or
        # loses digits, the lower tail keeps them
        b = [float(x) for x in range(10)]
        a = [x + 1.0 + spread * (-1) ** k for k, x in enumerate(b)]
        t, p = paired_t_test(a, b)
        ref = scipy_stats.ttest_rel(a, b)
        assert p > 0.0
        assert t == pytest.approx(ref.statistic, rel=1e-9)
        assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=0.0)

    def test_degenerate_input(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])


class TestReports:
    def make_report(self):
        ds = random_dataset(np.random.default_rng(11), n_users=8, n_items=10)
        return run_experiment(ds, [AlgorithmSpec("Random")], 0.3, 3, 3, 0)[0][0]

    def test_means_and_bounds_invariant(self):
        rep = self.make_report()
        for name in ("precision", "recall", "f_measure", "rankscore"):
            vals = [getattr(r, name) for r in rep.runs]
            assert getattr(rep.means, name) == pytest.approx(float(np.mean(vals)), abs=1e-12)
            assert all(0 <= v <= 100 for v in vals)

    def test_json_and_csv_shapes(self):
        rep = self.make_report()
        doc = json.loads(json.dumps([asdict(rep)]))
        assert doc[0]["algorithm"]["kind"] == "Random"
        assert len(doc[0]["runs"]) == 3
        csv = runs_to_csv([rep]).splitlines()
        assert csv[0].startswith("algorithm,run_seed")
        assert len(csv) == 4

    def test_table_contains_metrics(self):
        rep = self.make_report()
        table = format_report_table([rep])
        assert "Random" in table and "Precision (%)" in table


def test_evaluate_lists_composite():
    m = metrics([[1, 2, 3, 4, 5]], [[5, 20, 21, 22, 23, 24, 25, 26]])
    assert (m.precision, m.recall) == (pytest.approx(20.0), pytest.approx(12.5))
    assert m.f_measure == pytest.approx(15.384615384615385)
