import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy import stats as scipy_stats

from folkwalk import evaluation
from folkwalk.baselines import AlgorithmSpec
from folkwalk.dataset import split
from folkwalk.evaluation import (
    EvalReport,
    density_sweep,
    evaluate_lists,
    f_measure,
    format_report_table,
    format_sweep_table,
    grid_search,
    paired_t_test,
    precision_recall,
    rankscore,
    run_experiment,
    runs_to_csv,
)

from gen import random_dataset


class TestPrecisionRecall:
    def test_worked_example(self):
        recs = {0: [1, 2, 3, 4, 5]}
        test_sets = {0: frozenset(range(10, 18)) | {3}}
        p, r = precision_recall(recs, test_sets)
        assert p == pytest.approx(20.0)
        assert r == pytest.approx(100.0 / 9 * 1)  # 1 of 9 test items

    def test_exact_definition_values(self):
        # 1 hit in a 5-item list, 8 test items
        recs = {0: [1, 2, 3, 4, 5]}
        test_sets = {0: frozenset([5, 20, 21, 22, 23, 24, 25, 26])}
        p, r = precision_recall(recs, test_sets)
        assert p == pytest.approx(20.0)
        assert r == pytest.approx(12.5)

    def test_perfect_list(self):
        recs = {0: [1, 2, 3, 4, 5]}
        test_sets = {0: frozenset([1, 2, 3, 4, 5])}
        assert precision_recall(recs, test_sets) == (100.0, 100.0)

    def test_empty_test_users_excluded(self):
        recs = {0: [1], 1: [2]}
        test_sets = {0: frozenset([1]), 1: frozenset()}
        assert precision_recall(recs, test_sets) == (100.0, 100.0)

    def test_all_empty_errors(self):
        with pytest.raises(ValueError):
            precision_recall({0: [1]}, {0: frozenset()})

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(3)
        recs = {u: list(rng.choice(30, size=5, replace=False)) for u in range(8)}
        test_sets = {
            u: frozenset(int(x) for x in rng.choice(30, size=rng.integers(1, 8), replace=False))
            for u in range(8)
        }
        p, r = precision_recall(recs, test_sets)
        ps, rs = [], []
        for u in range(8):
            hits = sum(1 for j in recs[u] if j in test_sets[u])
            ps.append(hits / 5)
            rs.append(hits / len(test_sets[u]))
        assert p == pytest.approx(100 * sum(ps) / 8)
        assert r == pytest.approx(100 * sum(rs) / 8)


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
        recs = {0: [3, 1, 2]}
        test_sets = {0: frozenset([1, 2, 3, 9])}
        assert rankscore(recs, test_sets, half_life=5) == pytest.approx(100.0)

    def test_no_hits(self):
        assert rankscore({0: [1, 2]}, {0: frozenset([9])}, 5) == 0.0

    def test_single_hit_rank_three(self):
        recs = {0: [10, 11, 7, 12, 13]}
        test_sets = {0: frozenset([7])}
        # oracle: enumerate positions; single hit at rank 3, best case rank 1
        expected = 100 * (2 ** (-(3 - 1) / (5 - 1))) / (2 ** (-(1 - 1) / (5 - 1)))
        got = rankscore(recs, test_sets, half_life=5)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(70.71067811865476)

    def test_hundred_iff_all_top_positions_hit(self):
        recs = {0: [1, 2, 9]}
        test_sets = {0: frozenset([1, 2])}
        assert rankscore(recs, test_sets, 5) == pytest.approx(100.0)
        recs_miss = {0: [1, 9, 2]}
        assert rankscore(recs_miss, test_sets, 5) < 100.0

    def test_half_life_validation(self):
        with pytest.raises(ValueError):
            rankscore({0: [1]}, {0: frozenset([1])}, half_life=1)


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
    recs = {0: [1, 2, 3, 4, 5]}
    test_sets = {0: frozenset([5, 20, 21, 22, 23, 24, 25, 26])}
    m = evaluate_lists(recs, test_sets)
    assert (m.precision, m.recall) == (pytest.approx(20.0), pytest.approx(12.5))
    assert m.f_measure == pytest.approx(15.384615384615385)
