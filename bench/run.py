"""folkwalk benchmark: seeded planted-cluster corpora through ``folkwalk.cli.main``.

    python3 bench/run.py --workload prw_mid --seed 0 --seconds 12 --trace 0

Run from the checkout root; the program is imported from ``src/``. Each
invocation of the workload's command runs in a fresh child process
(``child.py``), so every number includes what a user of ``folkwalk evaluate``
or ``folkwalk ingest`` pays. The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from ``spans.py``, taken from traced invocations that alternate with
untraced ones so that the tracing overhead can be reported.

Corpora are generated from ``--seed`` (``seed % POOL`` picks one of POOL
corpora per workload, each with reference outputs recorded in
``reference.json``) and cached under ``.bench_cache/`` outside every timed
region. ``--write-reference`` records the observed outputs as the reference
for the seed instead of checking them; ``--record FILE`` merges the result
and the environment into FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corpus import CorpusSpec, planted_cluster_tsv
from spans import layer_metrics, metric_units

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"

POOL = 8
# One BLAS thread (at most nproc): the walks are single-threaded sparse
# products anyway, and one thread keeps the dense CF products steady on a
# shared machine.
BLAS_THREADS = 1
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# Reordered float arithmetic may flip near-ties in a top-N list; one flipped
# hit moves a 1500-user top-5 precision by 0.013 points.
QUALITY_TOL_PCT = 0.05

MID = CorpusSpec(1500, 2000, 200, p_within=0.05, p_cross=0.002)
LARGE = CorpusSpec(5000, 6000, 600, p_within=0.02, p_cross=0.001)


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    argv: tuple[str, ...]
    evaluates: bool  # evaluate a prepared dataset; otherwise ingest the TSV


WORKLOADS = {
    "prw_mid": Workload(
        MID, ("evaluate", "--algorithms", "pRW", "--runs", "1", "--train-fraction", "0.2"), True
    ),
    "cf_mid": Workload(
        MID,
        ("evaluate", "--algorithms", "Random,UserCF,ItemCF,Fusion", "--k-neighbors", "20",
         "--runs", "1", "--train-fraction", "0.2"),
        True,
    ),
    "ingest_large": Workload(
        LARGE,
        ("ingest", "--min-items-per-user", "20", "--min-users-per-item", "20",
         "--select-tags", "300", "--format", "json"),
        False,
    ),
}
# Quality of the ingested dataset, checked after ingest_large outside its
# timed region: the random baseline, so no walk or CF runs.
INGEST_CHECK_ARGV = ("evaluate", "--algorithms", "Random", "--runs", "1", "--train-fraction", "0.2")
INGEST_STATS = ("num_users", "num_items", "num_selected_tags", "num_transactions")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "precision_pct": "%",
    "rankscore_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad inputs)."""


class Ops:
    """Child processes started for the workload, and how many failed."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        self.attempted = 0
        self.failed = 0

    def child(self, args: list[str], stdout_path: Path | None = None) -> tuple[dict | None, float]:
        """Run child.py with ``args``; returns its result (None on failure)
        and the wall seconds from process start to exit."""
        self.attempted += 1
        out = self.work / "child.json"
        out.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        mode, rest = args[0], args[1:]
        stdout = open(stdout_path, "w", encoding="utf-8") if stdout_path else subprocess.DEVNULL
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), mode, str(out), *rest],
                cwd=self.root, env=env, stdout=stdout, stderr=subprocess.PIPE,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.fail([f"{mode} timed out after {CHILD_TIMEOUT_S} s"])
            return None, time.perf_counter() - start
        finally:
            if stdout_path:
                stdout.close()
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not out.exists():
            self.fail([f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
            return None, wall
        return json.loads(out.read_text(encoding="utf-8")), wall

    def fail(self, messages: list[str]) -> None:
        """Count one failed operation and say why."""
        self.failed += 1
        for message in messages:
            print(f"FAILED: {message}", file=sys.stderr)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + [BENCH / "corpus.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def prepare_inputs(root: Path, wl: Workload, corpus_seed: int) -> Path:
    """The workload's input file, generated (and for evaluation workloads
    ingested by the program) once per corpus seed and program version."""
    cache = root / ".bench_cache" / source_digest(root)[:16]
    cache.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.corpus.label}-s{corpus_seed}"
    tsv = cache / f"{stem}.tsv"
    if not tsv.exists():
        tmp = tsv.with_suffix(".tmp")
        tmp.write_text(planted_cluster_tsv(wl.corpus, corpus_seed), encoding="utf-8")
        tmp.replace(tsv)
    if not wl.evaluates:
        return tsv
    dataset = cache / f"{stem}.json"
    if not dataset.exists():
        tmp = cache / f"{stem}.tmp.json"
        prep = Ops(root, cache)  # preparing inputs is not a measured operation
        result, _ = prep.child(["run", "--", "ingest", "--input", str(tsv), "--dataset", str(tmp)])
        if result is None:
            raise BenchError(f"could not ingest the generated corpus {tsv.name}")
        tmp.replace(dataset)
    return dataset


def _reports(report_path: Path) -> dict[str, dict[str, float]]:
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    return {
        r["algorithm"]["kind"]: {
            "precision_pct": r["means"]["precision"],
            "rankscore_pct": r["means"]["rankscore"],
        }
        for r in doc
    }


def _flatten(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _matches(got, want) -> bool:
    if isinstance(want, float):
        return abs(got - want) <= QUALITY_TOL_PCT
    return got == want


class Checker:
    """Compares outputs with the reference recorded for the corpus seed, or
    records them there with ``write=True``."""

    def __init__(self, workload: str, corpus_seed: int, write: bool):
        self.workload, self.key, self.write = workload, str(corpus_seed), write
        self.all = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        self.expected = self.all.get(workload, {}).get(self.key)
        if self.expected is None and not write:
            raise BenchError(f"no reference for {workload} corpus seed {corpus_seed}")

    def check(self, section: str, got: dict) -> list[str]:
        """Mismatches between ``got`` and the reference section."""
        if self.write:
            self.all.setdefault(self.workload, {}).setdefault(self.key, {})[section] = got
            return []
        want, have = _flatten(self.expected.get(section, {})), _flatten(got)
        if set(want) != set(have):
            return [f"{section}: got {sorted(have)}, expected {sorted(want)}"]
        return [
            f"{section}.{key}: got {have[key]!r}, expected {want[key]!r}"
            for key in sorted(want)
            if not _matches(have[key], want[key])
        ]

    def reports(self, report_path: Path) -> tuple[list[str], dict]:
        try:
            got = _reports(report_path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable {report_path.name}: {exc}"], {}
        return self.check("reports", got), got

    def save(self) -> None:
        if self.write:
            REFERENCE.write_text(json.dumps(self.all, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _quality(reports: dict) -> dict[str, float]:
    return {
        name: statistics.fmean(r[name] for r in reports.values())
        for name in ("precision_pct", "rankscore_pct")
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool, write_ref: bool):
    wl = WORKLOADS[name]
    corpus_seed = seed % POOL
    work = root / ".bench_out" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops(root, work)
    checker = Checker(name, corpus_seed, write_ref)
    inputs = prepare_inputs(root, wl, corpus_seed)
    out_dir, dataset = work / "out", work / "dataset.json"
    stdout_path = work / "stdout.txt"
    if wl.evaluates:
        argv = [*wl.argv, "--dataset", str(inputs), "--seed", str(corpus_seed), "--output-dir", str(out_dir)]
        dataset = inputs
    else:
        argv = [*wl.argv, "--input", str(inputs), "--dataset", str(dataset)]

    quality: dict[str, float] = {}

    def check_reports(report_path: Path) -> list[str]:
        bad, got = checker.reports(report_path)
        if not bad:
            quality.update(_quality(got))
        return bad

    def invoke(traced: bool) -> tuple[dict | None, float]:
        shutil.rmtree(out_dir, ignore_errors=True)
        if not wl.evaluates:
            dataset.unlink(missing_ok=True)
        result, wall = ops.child(["run", *(["--trace"] if traced else []), "--", *argv], stdout_path)
        if result is None:
            return None, wall
        if wl.evaluates:
            bad = check_reports(out_dir / "report.json")
        else:
            try:
                stats = json.loads(stdout_path.read_text(encoding="utf-8"))
                bad = checker.check("stats", {k: stats[k] for k in INGEST_STATS})
            except (ValueError, KeyError) as exc:
                bad = [f"unreadable ingest stats: {exc}"]
        if bad:
            ops.fail([f"output check: {message}" for message in bad])
            return None, wall
        return result, wall

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        plain.append(invoke(False))
        if trace:
            traced.append(invoke(True))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - step) > seconds:
            break

    if not wl.evaluates:
        check_out = work / "check"
        result, _ = ops.child(["run", "--", *INGEST_CHECK_ARGV, "--dataset", str(dataset),
                               "--seed", str(corpus_seed), "--output-dir", str(check_out)])
        bad = [] if result is None else check_reports(check_out / "report.json")
        if bad:
            ops.fail([f"output check: {message}" for message in bad])

    ok_plain = [(r, w) for r, w in plain if r is not None]
    ok_traced = [(r, w) for r, w in traced if r is not None]
    if not ok_plain or (trace and not ok_traced):
        raise BenchError("every invocation of the workload failed")
    if trace:
        per_run = [layer_metrics(r["spans"]) for r, _ in ok_traced]
        metrics = {m: statistics.median(run[m] for run in per_run) for m in per_run[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(w for _, w in ok_traced) - statistics.median(w for _, w in ok_plain)
        )
        units = metric_units()
        spans_doc = {"workload": name, "seed": seed, "invocations": [r["spans"] for r, _ in ok_traced]}
        (work / "spans.json").write_text(json.dumps(spans_doc), encoding="utf-8")
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            result, _ = ops.child(["setup", str(dataset)])
            if result is not None:
                setups.append(result["setup_s"])
        if not setups or not quality:
            raise BenchError("set-up or the output check failed on every attempt")
        metrics = {
            "wall_s": statistics.median(w for _, w in ok_plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r, _ in ok_plain),
            **quality,
        }
        units = END_TO_END_UNITS
    checker.save()
    return metrics, units, ops, len(ok_plain) + len(ok_traced)


def _read_git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(root: Path) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "blas_threads": BLAS_THREADS,
        "git_commit": _read_git_commit(root),
        "source_sha256": source_digest(root),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="merge the result into this JSON file")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the outputs as the reference for this seed")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "folkwalk" / "cli.py").is_file():
        print("error: run from a folkwalk checkout root (no src/folkwalk/cli.py here)", file=sys.stderr)
        return 2
    env = environment(root)
    try:
        metrics, units, ops, succeeded = run_workload(
            root, args.workload, args.seed, args.seconds, bool(args.trace), args.write_reference
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"failed_ops: {ops.failed} count, of {ops.attempted} attempted")
    print(f"invocations measured: {succeeded}")
    print("environment: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.record:
        doc = json.loads(args.record.read_text(encoding="utf-8")) if args.record.exists() else {}
        doc.setdefault("runs", {})[args.workload] = {
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": env, **result,
        }
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
