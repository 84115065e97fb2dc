"""Top-N evaluation: precision/recall/F-measure, half-life rankscore,
repeated-split experiments, density sweeps, paired t-tests, and grid search."""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .baselines import AlgorithmSpec, run_algorithm, walk_params
from .dataset import EmptyDatasetError, TaggingDataset, split as make_split

Recs = dict[int, list[int]]
TestSets = dict[int, frozenset[int]]


@dataclass(frozen=True)
class MetricTuple:
    precision: float
    recall: float
    f_measure: float
    rankscore: float


@dataclass(frozen=True)
class EvalReport:
    """One algorithm's runs and their means; ``dataclasses.asdict`` of it is
    one entry of ``report.json``."""

    algorithm: AlgorithmSpec
    runs: list[MetricTuple]
    means: MetricTuple
    top_n: int
    seeds: list[int]


def _counted_users(recs: Recs, test_sets: TestSets) -> list[int]:
    users = [u for u, t in test_sets.items() if t]
    if not users:
        raise EmptyDatasetError("no user has a non-empty test set")
    for u in users:
        if u not in recs:
            raise KeyError(f"no recommendation list for user {u}")
    return users


def precision_recall(recs: Recs, test_sets: TestSets) -> tuple[float, float]:
    """Mean per-user precision and recall over users with non-empty test
    sets, as percentages. A user's precision is hits over the length of the
    user's list."""
    users = _counted_users(recs, test_sets)
    precisions, recalls = [], []
    for u in users:
        hits = len(set(recs[u]) & test_sets[u])
        precisions.append(hits / len(recs[u]) if recs[u] else 0.0)
        recalls.append(hits / len(test_sets[u]))
    return 100.0 * float(np.mean(precisions)), 100.0 * float(np.mean(recalls))


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean 2PR/(P+R); zero when both are zero."""
    if precision < 0 or recall < 0:
        raise ValueError("precision and recall must be non-negative")
    total = precision + recall
    return 2.0 * precision * recall / total if total > 0 else 0.0


def rankscore(recs: Recs, test_sets: TestSets, half_life: int = 5) -> float:
    """Half-life utility: hits at 1-based rank r earn 2^{-(r-1)/(half_life-1)};
    normalized by the best achievable utility, as a percentage."""
    if half_life < 2:
        raise ValueError("half_life must be >= 2")
    users = _counted_users(recs, test_sets)
    utility = max_utility = 0.0
    for u in users:
        for r, item in enumerate(recs[u], start=1):
            if item in test_sets[u]:
                utility += 2.0 ** (-(r - 1) / (half_life - 1))
        best = min(len(test_sets[u]), len(recs[u]))
        for r in range(1, best + 1):
            max_utility += 2.0 ** (-(r - 1) / (half_life - 1))
    return 100.0 * utility / max_utility if max_utility > 0 else 0.0


def evaluate_lists(recs: Recs, test_sets: TestSets, half_life: int = 5) -> MetricTuple:
    p, r = precision_recall(recs, test_sets)
    return MetricTuple(p, r, f_measure(p, r), rankscore(recs, test_sets, half_life))


def run_experiment(
    ds: TaggingDataset,
    algorithms: list[AlgorithmSpec],
    train_fraction: float = 0.2,
    top_n: int = 5,
    n_runs: int = 10,
    base_seed: int = 0,
    half_life: int = 5,
) -> list[EvalReport]:
    """One report per algorithm over n_runs splits seeded base_seed,
    base_seed+1, ...; each seed's split is drawn once for every algorithm."""
    if not algorithms:
        raise ValueError("no algorithms given")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    seeds = [base_seed + r for r in range(n_runs)]
    runs: list[list[MetricTuple]] = [[] for _ in algorithms]
    for seed in seeds:
        sp = make_split(ds, train_fraction, seed)
        for spec, spec_runs in zip(algorithms, runs):
            recs = run_algorithm(spec, sp.train, top_n, seed)
            spec_runs.append(evaluate_lists(recs, sp.test_sets, half_life))
    return [
        EvalReport(spec, spec_runs, _means(spec_runs), top_n, seeds)
        for spec, spec_runs in zip(algorithms, runs)
    ]


def _means(runs: list[MetricTuple]) -> MetricTuple:
    return MetricTuple(*(float(np.mean(column)) for column in zip(*map(astuple, runs))))


def density_sweep(
    ds: TaggingDataset,
    algorithms: list[AlgorithmSpec],
    fractions: list[float],
    top_n: int = 5,
    n_runs: int = 10,
    base_seed: int = 0,
    half_life: int = 5,
) -> dict[tuple[str, float], EvalReport]:
    """One run_experiment of all algorithms per training fraction, keyed by
    (algorithm kind, fraction)."""
    for f in fractions:
        if not 0.0 < f < 1.0:
            raise ValueError(f"training fraction {f} outside (0, 1)")
    return {
        (report.algorithm.kind, frac): report
        for frac in fractions
        for report in run_experiment(ds, algorithms, frac, top_n, n_runs, base_seed, half_life)
    }


def paired_t_test(runs_a: list[float], runs_b: list[float]) -> tuple[float, float]:
    """Two-tailed paired t-test on per-run differences.

    Identical lists give (0, 1). A constant nonzero difference has zero
    variance; reported as (signed infinity, 0) rather than an error.
    """
    if len(runs_a) != len(runs_b):
        raise ValueError("run lists must have equal length")
    n = len(runs_a)
    if n < 2:
        raise ValueError("need at least 2 paired runs")
    diffs = np.asarray(runs_a, dtype=float) - np.asarray(runs_b, dtype=float)
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    # imported here, not at module load: no other command path needs it
    from scipy.special import stdtr

    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return t, p


def grid_search(
    ds: TaggingDataset,
    param_grid: dict[str, list[float]],
    objective: str = "precision",
    train_fraction: float = 0.2,
    top_n: int = 5,
    n_runs: int = 1,
    base_seed: int = 0,
    half_life: int = 5,
) -> tuple[dict[str, float], list[tuple[dict[str, float], EvalReport]]]:
    """Exhaustive search over walk/similarity hyperparameters for the full
    walk algorithm; ties keep the first grid point. Grid axes: any of alpha,
    beta, eta, lambda, mu."""
    if not param_grid:
        raise ValueError("param_grid must be non-empty")
    if objective not in MetricTuple.__dataclass_fields__:
        raise ValueError(f"unknown objective {objective!r}")
    keys = list(param_grid)
    points = [
        dict(zip(keys, values)) for values in itertools.product(*(param_grid[k] for k in keys))
    ]
    specs = [AlgorithmSpec("pRW", walk_params(p)) for p in points]
    reports = run_experiment(ds, specs, train_fraction, top_n, n_runs, base_seed, half_life)
    scores = [getattr(report.means, objective) for report in reports]
    return points[scores.index(max(scores))], list(zip(points, reports))


def format_report_table(reports: list[EvalReport]) -> str:
    """Aligned text table: one row per algorithm, one column per metric."""
    header = ["Alg.", "Precision (%)", "Recall (%)", "F-measure (%)", "Rankscore (%)"]
    rows = [[r.algorithm.kind] + [f"{v:.2f}" for v in astuple(r.means)] for r in reports]
    return _aligned(header, rows)


def format_sweep_table(
    grid: dict[tuple[str, float], EvalReport], metric: str = "precision"
) -> str:
    """Grid of one metric: algorithms as rows, training fractions as columns."""
    kinds = list(dict.fromkeys(k for k, _ in grid))
    fractions = sorted({f for _, f in grid})
    header = ["Algorithm"] + [f"{f * 100:g}%" for f in fractions]
    rows = [
        [kind] + [f"{getattr(grid[(kind, f)].means, metric):.2f}" for f in fractions]
        for kind in kinds
    ]
    return _aligned(header, rows)


def _aligned(header: list[str], rows: list[list[str]]) -> str:
    """Columns left-justified to their widest cell, two spaces apart."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return "\n".join("  ".join(map(str.ljust, row, widths)) for row in [header, *rows])


def runs_to_csv(reports: list[EvalReport]) -> str:
    """Per-run metric values for external analysis."""
    lines = ["algorithm,run_seed,precision,recall,f_measure,rankscore"]
    for r in reports:
        for seed, run in zip(r.seeds, r.runs):
            lines.append(
                f"{r.algorithm.kind},{seed},{run.precision:.10g},"
                f"{run.recall:.10g},{run.f_measure:.10g},{run.rankscore:.10g}"
            )
    return "\n".join(lines) + "\n"
