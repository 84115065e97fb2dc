"""Top-N evaluation: precision/recall/F-measure, half-life rankscore,
repeated-split experiments, density sweeps, paired t-tests, and grid search."""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np
import scipy.sparse as sp

from .baselines import run_algorithm
from .dataset import EmptyDatasetError, TaggingDataset, split as make_split
from .params import AlgorithmSpec, walk_params


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


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean 2PR/(P+R); zero when both are zero."""
    if precision < 0 or recall < 0:
        raise ValueError("precision and recall must be non-negative")
    total = precision + recall
    return 2.0 * precision * recall / total if total > 0 else 0.0


def _in_order(terms: np.ndarray) -> float:
    """The sum of ``terms`` from 0.0 in row-major order, one at a time as a
    loop adds them: ``np.cumsum`` adds in sequence, ``np.sum`` pairwise."""
    return float(np.cumsum(np.append(0.0, terms))[-1])


def _hits(rows: np.ndarray, users: np.ndarray, test: sp.csr_matrix) -> np.ndarray:
    """Whether each entry of ``rows``, the -1-padded lists of ``users``, is
    one of its user's held-out items in ``test``, which holds at least one.
    Each (user, item) is one integer key, found by binary search among the
    held-out keys."""
    n = test.shape[1]
    sizes = np.diff(test.indptr)
    # a checked CSR's keys are in order already; the sort serves any other
    held = np.sort(np.repeat(np.arange(len(sizes)), sizes) * n + test.indices)
    # a pad's key is -1, which no held-out item has
    keys = np.where(rows >= 0, users[:, None] * n + rows, -1)
    found = np.searchsorted(held, keys)
    return held[np.minimum(found, len(held) - 1)] == keys


def evaluate_lists(lists: np.ndarray, test: sp.csr_matrix, half_life: int = 5) -> MetricTuple:
    """Precision, recall, F-measure and half-life rankscore, as percentages,
    of top-N lists (row u: user u's distinct items, then -1) against the
    held-out items ``test``, from one hits matrix of the users with a
    non-empty test set. Precision and recall are means over those users; a
    user's precision is hits over the length of the user's list. A hit at
    1-based rank r earns 2^{-(r-1)/(half_life-1)}; rankscore is the utility
    over the best achievable one, each summed in (user, rank) order."""
    if half_life < 2:
        raise ValueError("half_life must be >= 2")
    sizes = np.diff(test.indptr)
    users = np.flatnonzero(sizes)
    if not len(users):
        raise EmptyDatasetError("no user has a non-empty test set")
    if users[-1] >= len(lists):
        raise KeyError(f"no recommendation list for user {users[users >= len(lists)][0]}")
    rows = lists[users]
    hits = _hits(rows, users, test)
    n_hits, lengths, sizes = hits.sum(axis=1), (rows >= 0).sum(axis=1), sizes[users]
    # an empty list has no hits, so dividing by 1 gives its precision of 0
    p = 100.0 * float(np.mean(n_hits / np.maximum(lengths, 1)))
    r = 100.0 * float(np.mean(n_hits / sizes))
    width = rows.shape[1]
    weights = np.array([2.0 ** (-(rank - 1) / (half_life - 1)) for rank in range(1, width + 1)])
    utility = _in_order(np.where(hits, weights, 0.0))
    best = np.minimum(sizes, lengths)[:, None]
    max_utility = _in_order(np.where(np.arange(width) < best, weights, 0.0))
    rankscore = 100.0 * utility / max_utility if max_utility > 0 else 0.0
    return MetricTuple(p, r, f_measure(p, r), rankscore)


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
        split = make_split(ds, train_fraction, seed)
        for spec, spec_runs in zip(algorithms, runs):
            lists = run_algorithm(spec, split.train, top_n, seed)
            spec_runs.append(evaluate_lists(lists, split.test, half_life))
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
