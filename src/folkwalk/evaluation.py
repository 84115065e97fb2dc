"""Top-N evaluation: precision/recall/F-measure, half-life rankscore,
repeated-split experiments that tune an algorithm with several candidates on
a validation split, paired t-tests, and the report writers."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np
import scipy.sparse as sp

from .baselines import run_algorithm
from .dataset import EmptyDatasetError, TaggingDataset, split as make_split
from .params import AlgorithmSpec


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


@dataclass(frozen=True)
class Selection:
    """A tuned algorithm's choices: its candidates' params and, per run,
    the index of the candidate chosen and every candidate's precision on
    the run's validation split. ``dataclasses.asdict`` of it is one entry
    of ``report.json``'s ``selection``."""

    candidates: list[dict]
    chosen: list[int]
    validation_precision: list[list[float]]


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
) -> tuple[list[EvalReport], dict[str, Selection]]:
    """One report per algorithm kind over n_runs splits seeded base_seed,
    base_seed+1, ...; each seed's split is drawn once for every algorithm.

    The specs of one kind are that algorithm's candidates. With more than
    one, the algorithm is tuned: each run scores every candidate on a
    validation split of the run's training dataset, and the candidate of
    best validation precision (the first on a tie) is trained on the whole
    training dataset and scored on test. Its report names the kind with no
    params, and its :class:`Selection`, keyed by kind, records the choices.
    A run's validation split is drawn once, by :func:`split`'s per-user
    rule at ``train_fraction``, from the first child of the run seed's
    ``SeedSequence``: a stream that no integer seed gives."""
    if not algorithms:
        raise ValueError("no algorithms given")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    candidates: dict[str, list[AlgorithmSpec]] = {}
    for spec in algorithms:
        candidates.setdefault(spec.kind, []).append(spec)
    seeds = [base_seed + r for r in range(n_runs)]
    runs: dict[str, list[MetricTuple]] = {kind: [] for kind in candidates}
    tuned = {kind: Selection([c.params for c in specs], [], [])
             for kind, specs in candidates.items() if len(specs) > 1}
    for seed in seeds:
        split = make_split(ds, train_fraction, seed)
        validation = None
        for kind, specs in candidates.items():
            spec = specs[0]
            if kind in tuned:
                if validation is None:
                    validation = make_split(
                        split.train, train_fraction, np.random.SeedSequence(seed).spawn(1)[0]
                    )
                    if not validation.test.nnz:
                        raise EmptyDatasetError(
                            f"run seed {seed}: no user has a held-out save in the validation split"
                        )
                precision = [
                    evaluate_lists(
                        run_algorithm(c, validation.train, top_n, seed), validation.test, half_life
                    ).precision
                    for c in specs
                ]
                best = precision.index(max(precision))
                tuned[kind].chosen.append(best)
                tuned[kind].validation_precision.append(precision)
                spec = specs[best]
            lists = run_algorithm(spec, split.train, top_n, seed)
            runs[kind].append(evaluate_lists(lists, split.test, half_life))
    reports = [
        EvalReport(AlgorithmSpec(kind) if kind in tuned else specs[0], runs[kind],
                   _means(runs[kind]), top_n, seeds)
        for kind, specs in candidates.items()
    ]
    return reports, tuned


def _means(runs: list[MetricTuple]) -> MetricTuple:
    return MetricTuple(*(float(np.mean(column)) for column in zip(*map(astuple, runs))))


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


def format_report_table(reports: list[EvalReport]) -> str:
    """Aligned text table: one row per algorithm, one column per metric."""
    header = ["Alg.", "Precision (%)", "Recall (%)", "F-measure (%)", "Rankscore (%)"]
    rows = [[r.algorithm.kind] + [f"{v:.2f}" for v in astuple(r.means)] for r in reports]
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
