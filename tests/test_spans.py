"""The span targets of ``bench/spans.py`` that name a program function.

The traced benchmark wraps each target where its caller module looks it
up, and a target it cannot find reads 0 without failing the run. So a
function that moves out of the module a target names would silently zero
its per-layer metric. This test resolves every target as the tracer does,
without installing the tracer, whose wrappers would stay for the rest of
the session.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# targets that name functions the program no longer has; their metrics read 0
KNOWN_MISSING = {
    *(f"folkwalk.baselines.{name}" for name in (
        "ablation", "fusion_cf", "fusion_cf_scores", "item_cf", "item_cf_scores",
        "item_similarity", "row_normalize", "user_cf", "user_cf_scores", "user_similarity",
        "walk_item", "walk_user",
    )),
    "folkwalk.cli.dataset_to_json",
    "folkwalk.cli.ingest",
    "folkwalk.cli.run_experiment",
    "folkwalk.dataset.build_matrices",
    "folkwalk.similarity.matmul",
    "folkwalk.walker.SparseMatrix.from_dense",
}


def span_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_outside_the_known_missing_resolves():
    missing = set()
    for module_name, attr, _, _ in span_targets():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{attr}")
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)
