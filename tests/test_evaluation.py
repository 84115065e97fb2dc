import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.sparse import csr_matrix

from folkwalk import evaluation
from folkwalk.params import AlgorithmSpec
from folkwalk.dataset import EmptyDatasetError, split
from folkwalk.evaluation import (
    EvalReport,
    density_sweep,
    evaluate_lists,
    f_measure,
    format_report_table,
    format_sweep_table,
    grid_search,
    paired_t_test,
    run_experiment,
    runs_to_csv,
)

from gen import held_out, padded, random_dataset


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
        rep = run_experiment(ds, [AlgorithmSpec("Random")], 0.3, 3, 1, 5)[0]
        assert rep.means == rep.runs[0]
        assert rep.seeds == [5]

    def test_deterministic(self):
        ds = random_dataset(np.random.default_rng(1), n_users=8, n_items=10)
        spec = AlgorithmSpec("pRW")
        a = run_experiment(ds, [spec], 0.3, 3, 3, 7)[0]
        b = run_experiment(ds, [spec], 0.3, 3, 3, 7)[0]
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
        rep = run_experiment(ds, [AlgorithmSpec("Random")], 0.2, 5, 10, 0)[0]
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


class TestOneSplitPerSeed:
    def test_run_experiment_splits_once_per_seed(self, split_calls):
        ds = random_dataset(np.random.default_rng(12), n_users=8, n_items=10)
        specs = [AlgorithmSpec(kind) for kind in ("Random", "UserCF", "ItemCF", "Fusion")]
        reports = run_experiment(ds, specs, 0.3, 3, 3, 4)
        assert split_calls == [(0.3, 4), (0.3, 5), (0.3, 6)]
        assert [r.algorithm for r in reports] == specs

    def test_shared_split_reports_equal_single_algorithm_reports(self):
        ds = random_dataset(np.random.default_rng(13), n_users=8, n_items=10)
        specs = [AlgorithmSpec(kind) for kind in ("Random", "UserCF", "ItemCF", "Fusion", "pRW")]
        together = run_experiment(ds, specs, 0.3, 3, 2, 1)
        alone = [run_experiment(ds, [spec], 0.3, 3, 2, 1)[0] for spec in specs]
        assert [asdict(r) for r in together] == [asdict(r) for r in alone]

    def test_grid_search_splits_once(self, split_calls):
        ds = random_dataset(np.random.default_rng(14), n_users=8, n_items=10)
        grid = {"alpha": [0.0, 0.5, 1.0], "mu": [0.3, 0.5, 0.7]}
        _, results = grid_search(ds, grid, train_fraction=0.3, n_runs=1, base_seed=2)
        assert len(results) == 9
        assert split_calls == [(0.3, 2)]

    def test_density_sweep_splits_once_per_fraction_and_seed(self, split_calls):
        ds = random_dataset(np.random.default_rng(15), n_users=8, n_items=10)
        specs = [AlgorithmSpec("Random"), AlgorithmSpec("UserCF")]
        density_sweep(ds, specs, [0.2, 0.4], top_n=3, n_runs=2)
        assert split_calls == [(0.2, 0), (0.2, 1), (0.4, 0), (0.4, 1)]

    def test_no_algorithms(self):
        ds = random_dataset(np.random.default_rng(16))
        with pytest.raises(ValueError, match="no algorithms"):
            run_experiment(ds, [])


class TestDensitySweep:
    def test_single_cell_equals_run_experiment(self):
        ds = random_dataset(np.random.default_rng(4), n_users=8, n_items=10)
        spec = AlgorithmSpec("Random")
        grid = density_sweep(ds, [spec], [0.3], top_n=3, n_runs=2, base_seed=1)
        direct = run_experiment(ds, [spec], 0.3, 3, 2, 1)[0]
        assert grid[("Random", 0.3)].means == direct.means

    def test_layout(self):
        ds = random_dataset(np.random.default_rng(5), n_users=10, n_items=12)
        specs = [AlgorithmSpec("Random"), AlgorithmSpec("UserCF")]
        grid = density_sweep(ds, specs, [0.2, 0.4, 0.6], top_n=3, n_runs=1)
        assert set(grid) == {
            (k, f) for k in ("Random", "UserCF") for f in (0.2, 0.4, 0.6)
        }
        table = format_sweep_table(grid)
        assert table.splitlines()[0].split() == ["Algorithm", "20%", "40%", "60%"]

    def test_fraction_validation(self):
        ds = random_dataset(np.random.default_rng(6))
        with pytest.raises(ValueError):
            density_sweep(ds, [AlgorithmSpec("Random")], [1.5])


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


class TestGridSearch:
    def test_singleton_grid(self):
        ds = random_dataset(np.random.default_rng(7), n_users=8, n_items=10)
        best, results = grid_search(ds, {"eta": [0.5]}, n_runs=1)
        assert best == {"eta": 0.5}
        assert len(results) == 1

    def test_tie_keeps_first(self):
        ds = random_dataset(np.random.default_rng(8), n_users=8, n_items=10)
        best, results = grid_search(ds, {"eta": [0.5, 0.5]}, n_runs=1)
        assert best == {"eta": 0.5}
        assert results[0][1].means == results[1][1].means

    def test_argmax_matches_reevaluation(self):
        ds = random_dataset(np.random.default_rng(9), n_users=8, n_items=10)
        grid = {"alpha": [0.0, 0.5, 1.0], "mu": [0.3, 0.8, 1.0]}
        best, results = grid_search(ds, grid, objective="precision", n_runs=1)
        assert len(results) == 9
        scores = [rep.means.precision for _, rep in results]
        first_max = scores.index(max(scores))
        assert results[first_max][0] == best

    def test_validation(self):
        ds = random_dataset(np.random.default_rng(10))
        with pytest.raises(ValueError):
            grid_search(ds, {})
        with pytest.raises(ValueError):
            grid_search(ds, {"gamma": [1.0]})
        with pytest.raises(ValueError, match="unknown objective 'bogus'"):
            grid_search(ds, {"eta": [0.5]}, objective="bogus")


class TestReports:
    def make_report(self):
        ds = random_dataset(np.random.default_rng(11), n_users=8, n_items=10)
        return run_experiment(ds, [AlgorithmSpec("Random")], 0.3, 3, 3, 0)[0]

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
