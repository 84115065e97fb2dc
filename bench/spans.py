"""Span tracing from outside the program.

A :class:`Tracer` replaces each function a caller module looks up by name
(``folkwalk.baselines.walk_item``, ``folkwalk.evaluation.run_algorithm``, ...)
with a wrapper that records a span: name, start, end, parent span id, and
counts computed from the call's arguments and result. Spans stay in memory
until the invocation ends. :func:`layer_metrics` turns one invocation's spans
into the per-layer metrics, named after the modules in ``src/folkwalk``.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("cli", "dataset", "similarity", "walker", "linalg", "baselines", "evaluation")


def _posts(args, kwargs, result):
    return {"posts": len(result)}


def _ui_nnz(args, kwargs, result):
    return {"ui_nnz": result.UI.nnz}


def _json_written(args, kwargs, result):
    return {"json_bytes": len(result.encode("utf-8"))}


def _json_read(args, kwargs, result):
    return {"json_bytes": len(args[0].encode("utf-8")), "ui_nnz": result.UI.nnz}


def _similarity(args, kwargs, result):
    return {"nnz": result.nnz, "density": result.nnz / max(1, result.rows * result.cols)}


def _walk(dense_other_dim):
    """Counts of one walk: iterations, flops and computed bytes moved.

    One iteration multiplies the dense m x n iterate by the k x k CSR
    similarity S: 2 * (other dense dimension) * nnz(S) flops. Bytes moved
    are computed, not measured: read the iterate, write the product (8
    bytes per entry each), and read S once (values, column indices, row
    pointers).
    """

    def count(args, kwargs, result):
        ui_norm, s = args[0], args[1]
        iters = result[1]
        rows, cols = ui_norm.shape
        csr = s.csr()
        s_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        other = cols if dense_other_dim == "cols" else rows
        return {
            "iters": iters,
            "gflop": 2.0 * other * s.nnz * iters / 1e9,
            "computed_gbytes": iters * (16.0 * rows * cols + s_bytes) / 1e9,
        }

    return count


# (caller module, attribute, span name, counter). Each entry wraps the
# name where the caller looks it up, so the span covers every call that
# caller makes. Entries missing from the program are skipped and their
# metrics read 0.
TARGETS = (
    ("folkwalk.cli", "_load_dataset", "cli.load_dataset", None),
    ("folkwalk.cli", "_emit_reports", "cli.emit", None),
    ("folkwalk.cli", "_write_manifest", "cli.emit", None),
    ("folkwalk.cli", "parse_triples", "dataset.parse_triples", _posts),
    ("folkwalk.cli", "ingest", "dataset.ingest", None),
    ("folkwalk.dataset", "density_filter", "dataset.density_filter", None),
    ("folkwalk.dataset", "select_tags", "dataset.select_tags", None),
    ("folkwalk.dataset", "build_matrices", "dataset.build_matrices", _ui_nnz),
    ("folkwalk.cli", "dataset_to_json", "dataset.to_json", _json_written),
    ("folkwalk.cli", "dataset_from_json", "dataset.from_json", _json_read),
    ("folkwalk.evaluation", "make_split", "dataset.split", None),
    ("folkwalk.cli", "run_experiment", "evaluation.run_experiment", None),
    ("folkwalk.evaluation", "evaluate_lists", "evaluation.evaluate_lists", None),
    ("folkwalk.evaluation", "run_algorithm", "baselines.run_algorithm", None),
    ("folkwalk.baselines", "random_recommender", "baselines.random", None),
    ("folkwalk.baselines", "user_cf", "baselines.user_cf", None),
    ("folkwalk.baselines", "user_cf_scores", "baselines.user_cf_scores", None),
    ("folkwalk.baselines", "item_cf", "baselines.item_cf", None),
    ("folkwalk.baselines", "item_cf_scores", "baselines.item_cf_scores", None),
    ("folkwalk.baselines", "fusion_cf", "baselines.fusion_cf", None),
    ("folkwalk.baselines", "fusion_cf_scores", "baselines.fusion_cf_scores", None),
    ("folkwalk.baselines", "ablation", "baselines.ablation", None),
    ("folkwalk.baselines", "item_similarity", "similarity.item", _similarity),
    ("folkwalk.baselines", "user_similarity", "similarity.user", _similarity),
    ("folkwalk.baselines", "walk_item", "walker.walk_item", _walk("rows")),
    ("folkwalk.baselines", "walk_user", "walker.walk_user", _walk("cols")),
    ("folkwalk.baselines", "fuse", "walker.fuse", None),
    ("folkwalk.baselines", "recommend_all", "walker.recommend_all", None),
    ("folkwalk.baselines", "row_normalize", "linalg.row_normalize", None),
    ("folkwalk.similarity", "row_normalize", "linalg.row_normalize", None),
    ("folkwalk.similarity", "matmul", "linalg.matmul", None),
    ("folkwalk.walker", "SparseMatrix.from_dense", "linalg.from_dense", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded invocation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def _wrapped(self, func, name, counter):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
            if counter is not None:
                try:
                    record["counts"] = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    # the program changed the call's signature; keep the time
                    print(f"spans: no counts for {name}: {exc!r}", file=sys.stderr)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target present in the program."""
        missing = []
        for module_name, attr, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            func = getattr(owner, leaf, None)
            if func is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrapped(func, name, counter)
            setattr(owner, leaf, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
        if missing:
            print(f"spans: not in program, reads 0: {', '.join(missing)}", file=sys.stderr)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover. Spans nest
    strictly (one thread), so children never overlap."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Time metrics: metric -> (span name, required parent span name or None).
# A scores call made inside fusion_cf_scores belongs to Fusion, so the
# UserCF/ItemCF scoring time counts only calls made by user_cf / item_cf;
# then ranking time is each *_cf_s minus its *_scores_s.
_TIME_METRICS = {
    "dataset.parse_triples_s": ("dataset.parse_triples", None),
    "dataset.density_filter_s": ("dataset.density_filter", None),
    "dataset.select_tags_s": ("dataset.select_tags", None),
    "dataset.build_matrices_s": ("dataset.build_matrices", None),
    "dataset.to_json_s": ("dataset.to_json", None),
    "dataset.from_json_s": ("dataset.from_json", None),
    "dataset.split_s": ("dataset.split", None),
    "similarity.item_s": ("similarity.item", None),
    "similarity.user_s": ("similarity.user", None),
    "walker.walk_item_s": ("walker.walk_item", None),
    "walker.walk_user_s": ("walker.walk_user", None),
    "walker.fuse_s": ("walker.fuse", None),
    "walker.recommend_all_s": ("walker.recommend_all", None),
    "linalg.row_normalize_s": ("linalg.row_normalize", None),
    "linalg.matmul_s": ("linalg.matmul", None),
    "linalg.from_dense_s": ("linalg.from_dense", None),
    "baselines.random_s": ("baselines.random", None),
    "baselines.user_cf_s": ("baselines.user_cf", None),
    "baselines.user_cf_scores_s": ("baselines.user_cf_scores", "baselines.user_cf"),
    "baselines.item_cf_s": ("baselines.item_cf", None),
    "baselines.item_cf_scores_s": ("baselines.item_cf_scores", "baselines.item_cf"),
    "baselines.fusion_cf_s": ("baselines.fusion_cf", None),
    "baselines.fusion_cf_scores_s": ("baselines.fusion_cf_scores", None),
    "baselines.ablation_s": ("baselines.ablation", None),
    "evaluation.run_experiment_s": ("evaluation.run_experiment", None),
    "evaluation.evaluate_lists_s": ("evaluation.evaluate_lists", None),
    "cli.load_dataset_s": ("cli.load_dataset", None),
    "cli.emit_s": ("cli.emit", None),
}

# Count metrics: metric -> (span name, count key, unit). Summed over calls.
_COUNT_METRICS = {
    "dataset.posts": ("dataset.parse_triples", "posts", "count"),
    "dataset.ui_nnz": (("dataset.build_matrices", "dataset.from_json"), "ui_nnz", "count"),
    "dataset.json_bytes": (("dataset.to_json", "dataset.from_json"), "json_bytes", "bytes"),
    "similarity.item_nnz": ("similarity.item", "nnz", "count"),
    "similarity.user_nnz": ("similarity.user", "nnz", "count"),
    "similarity.item_density": ("similarity.item", "density", "fraction"),
    "similarity.user_density": ("similarity.user", "density", "fraction"),
    "walker.iters_item": ("walker.walk_item", "iters", "count"),
    "walker.iters_user": ("walker.walk_user", "iters", "count"),
    "walker.walk_item_gflop": ("walker.walk_item", "gflop", "GFLOP"),
    "walker.walk_user_gflop": ("walker.walk_user", "gflop", "GFLOP"),
    "walker.walk_item_computed_gbytes": ("walker.walk_item", "computed_gbytes", "GB"),
    "walker.walk_user_computed_gbytes": ("walker.walk_user", "computed_gbytes", "GB"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {name: "s" for name in _TIME_METRICS}
    units.update({name: unit for name, (_, _, unit) in _COUNT_METRICS.items()})
    units["linalg.from_dense_calls"] = "count"
    units["cli.import_s"] = "s"
    units.update({f"{module}.self_s": "s" for module in MODULES})
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (every metric but
    ``trace.overhead_s``, which needs an untraced invocation too).

    A time metric sums the spans of one name that are not nested inside
    another span of the same name, so a layer that calls itself is counted
    once. Counts of a layer that ran more than once are summed.
    """
    by_id = {s["id"]: s for s in spans}

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    out: dict[str, float] = {}
    for metric, (name, parent) in _TIME_METRICS.items():
        out[metric] = sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"] == name
            and not any(a["name"] == name for a in ancestors(s))
            and (parent is None or (s["parent"] is not None and by_id[s["parent"]]["name"] == parent))
        )
    for metric, (names, key, _) in _COUNT_METRICS.items():
        names = (names,) if isinstance(names, str) else names
        out[metric] = sum(s["counts"].get(key, 0) for s in spans if s["name"] in names)
    out["linalg.from_dense_calls"] = sum(1 for s in spans if s["name"] == "linalg.from_dense")
    out["cli.import_s"] = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.import")
    per_module: dict[str, float] = defaultdict(float)
    for sid, seconds in self_times(spans).items():
        per_module[by_id[sid]["name"].split(".", 1)[0]] += seconds
    for module in MODULES:
        out[f"{module}.self_s"] = per_module.get(module, 0.0)
    return out
