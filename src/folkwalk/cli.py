"""Command-line front end: ingest, recommend, evaluate, ablate, sweep, grid.

Every command writes a run manifest (config snapshot, input digests, seeds,
tool version) next to its outputs so a run can be reproduced byte-for-byte.
Config precedence: CLI flag > config file > built-in default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict

from . import __version__
from .baselines import ABLATION_KINDS, ALGORITHM_KINDS, AlgorithmSpec, run_algorithm, walk_params
from .dataset import (
    EmptyDatasetError,
    InvalidDatasetError,
    ParseError,
    dataset_from_json,
    dataset_json_pieces,
    format_stats_table,
    ingest,
    parse_triples,
    stats,
)
from .evaluation import (
    density_sweep,
    format_report_table,
    format_sweep_table,
    grid_search,
    paired_t_test,
    run_experiment,
    runs_to_csv,
)
from .walker import SimilarityConfig, WalkConfig


class UsageError(Exception):
    pass


class InputError(Exception):
    """Input data that cannot be read (exit 1)."""


def _not_utf8(path: str, exc: UnicodeDecodeError) -> str:
    """The error for a file that is not UTF-8 text. The codec's position
    counts from the start of a read buffer, not of the file, so it is left
    out."""
    return f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: str, args: argparse.Namespace, inputs: list[str]) -> None:
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")},
        "inputs": {p: _sha256(p) for p in inputs},
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config_file(path: str) -> dict[str, str]:
    """Flat key-value config: one ``key = value`` per line, # comments."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"config line {line_no}: expected key = value")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except UnicodeDecodeError as exc:
        raise UsageError(_not_utf8(path, exc)) from None
    return values


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc


# hyperparameter defaults by option dest (lambda_ is the --lambda flag)
_HYPERPARAMETERS = {**asdict(SimilarityConfig()), **asdict(WalkConfig())}

# (option, valid range as text, predicate); an option a command lacks is skipped
_OPTION_RANGES = (
    ("train_fraction", "in (0, 1)", lambda v: 0.0 < v < 1.0),
    ("runs", ">= 1", lambda v: v >= 1),
    ("half_life", ">= 2", lambda v: v >= 2),
    ("fuse_weight", "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ("top_n", ">= 1", lambda v: v >= 1),
    ("seed", ">= 0", lambda v: v >= 0),
    ("k_neighbors", ">= 1", lambda v: v >= 1),
    ("min_items_per_user", ">= 1", lambda v: v >= 1),
    ("min_users_per_item", ">= 1", lambda v: v >= 1),
    ("unqualified_threshold", ">= 1", lambda v: v >= 1),
    ("select_tags", ">= 1", lambda v: v >= 1),
)

# the density filter needs both minimum degrees: one alone would do nothing
_DENSITY_MINIMUMS = ("min_items_per_user", "min_users_per_item")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_option_ranges(args: argparse.Namespace) -> None:
    """Reject out-of-range and unpaired options before any input is read."""
    for name, rule, ok in _OPTION_RANGES:
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise UsageError(f"{_flag(name)} must be {rule}, got {value}")
    for name, other in (_DENSITY_MINIMUMS, _DENSITY_MINIMUMS[::-1]):
        if getattr(args, name, None) is not None and getattr(args, other, None) is None:
            raise UsageError(f"{_flag(name)} must be given with {_flag(other)}")
    if getattr(args, "t_test", False):
        if args.runs < 2:
            raise UsageError(f"--t-test needs --runs >= 2, got {args.runs}")
        if len(_algorithm_kinds(args.algorithms)) < 2:
            raise UsageError(f"--t-test needs at least two --algorithms, got {args.algorithms!r}")


def _hyperparameters(values: dict[str, float]) -> dict:
    """:func:`walk_params` of the values; an out-of-range value is a usage
    error."""
    try:
        return walk_params(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _algorithm_spec(kind: str, args: argparse.Namespace) -> AlgorithmSpec:
    if kind == "Random":
        return AlgorithmSpec("Random")
    if kind in ("UserCF", "ItemCF"):
        return AlgorithmSpec(kind, {"k_neighbors": args.k_neighbors})
    if kind == "Fusion":
        return AlgorithmSpec(kind, {"fuse_weight": args.fuse_weight})
    return AlgorithmSpec(
        kind, _hyperparameters({k.rstrip("_"): getattr(args, k) for k in _HYPERPARAMETERS})
    )


def _load_dataset(path: str):
    """The dataset snapshot at ``path``; one with no users or no items is
    rejected here, before any algorithm runs on it."""
    try:
        with open(path, encoding="utf-8") as fh:
            ds = dataset_from_json(fh.read())
    except (UnicodeDecodeError, InvalidDatasetError) as exc:
        raise InvalidDatasetError(f"{path}: invalid dataset: {exc}") from None
    if ds.num_users == 0 or ds.num_items == 0:
        raise EmptyDatasetError(f"{path}: dataset has no users or no items")
    return ds


def cmd_ingest(args: argparse.Namespace) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            posts = parse_triples(fh)
    except UnicodeDecodeError as exc:
        raise InputError(_not_utf8(args.input, exc)) from None
    ds = ingest(
        posts,
        min_items_per_user=args.min_items_per_user,
        min_users_per_item=args.min_users_per_item,
        unqualified_item_threshold=args.unqualified_threshold,
        num_tags=args.select_tags,
    )
    if ds.num_users == 0 or ds.num_items == 0:
        print("error: dataset empty after filtering", file=sys.stderr)
        return 2
    with open(args.dataset, "w", encoding="utf-8") as fh:
        fh.writelines(dataset_json_pieces(ds))
    s = stats(ds)
    if args.format == "json":
        print(json.dumps(asdict(s), indent=2, sort_keys=True))
    else:
        print(format_stats_table(s))
    _write_manifest(args.dataset + ".manifest.json", args, [args.input])
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    spec = _algorithm_spec(args.algorithm, args)
    ds = _load_dataset(args.dataset)
    user = None
    if args.user is not None:
        try:
            user = ds.user_index(args.user)
        except KeyError:
            print(f"error: unknown user id {args.user!r}", file=sys.stderr)
            return 1
    # every save is training data, so no saved item is ever recommended;
    # with --user only that user's block is scored
    recs = run_algorithm(spec, ds, args.top_n, args.seed, user)
    users = range(ds.num_users) if user is None else [user]
    payload = {ds.users[u]: [ds.items[j] for j in recs[u]] for u in users}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for user_id in sorted(payload):
            print(f"{user_id}\t" + "\t".join(payload[user_id]))
    return 0


def _algorithm_kinds(text: str) -> list[str]:
    return [k.strip() for k in text.split(",") if k.strip()]


def _parse_algorithms(text: str, args: argparse.Namespace) -> list[AlgorithmSpec]:
    kinds = _algorithm_kinds(text)
    for k in kinds:
        if k not in ALGORITHM_KINDS:
            raise UsageError(f"unknown algorithm {k!r}; choose from {ALGORITHM_KINDS}")
    if not kinds:
        raise UsageError("no algorithms given")
    return [_algorithm_spec(k, args) for k in kinds]


def _run_options(args: argparse.Namespace) -> dict:
    """The repeated-split options, as the experiment functions name them."""
    return {"top_n": args.top_n, "n_runs": args.runs, "base_seed": args.seed,
            "half_life": args.half_life}


def _write_outputs(args: argparse.Namespace, files: dict[str, str]) -> None:
    """Write each named file, then manifest.json, into --output-dir,
    creating the directory if needed."""
    os.makedirs(args.output_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(args.output_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    _write_manifest(os.path.join(args.output_dir, "manifest.json"), args, [args.dataset])


def _emit_reports(reports, args, extras: dict | None = None) -> None:
    doc = [asdict(r) for r in reports]
    if extras:
        doc = {"reports": doc, **extras}
    report_json = json.dumps(doc, sort_keys=True, indent=2)
    table = format_report_table(reports)
    _write_outputs(args, {
        "report.json": report_json + "\n",
        "report.txt": table + "\n",
        "runs.csv": runs_to_csv(reports),
    })
    print(report_json if args.format == "json" else table)


def cmd_evaluate(args: argparse.Namespace) -> int:
    specs = _parse_algorithms(args.algorithms, args)
    ds = _load_dataset(args.dataset)
    reports = run_experiment(ds, specs, args.train_fraction, **_run_options(args))
    extras = None
    if args.t_test:
        best, second = sorted(reports, key=lambda r: -r.means.precision)[:2]
        t, p = paired_t_test([r.precision for r in best.runs], [r.precision for r in second.runs])
        extras = {
            "t_test": {
                "best": best.algorithm.kind,
                "second": second.algorithm.kind,
                "metric": "precision",
                "t": t,
                "p": p,
            }
        }
    _emit_reports(reports, args, extras)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    fractions = _csv_floats(args.fractions)
    if not fractions or not all(0.0 < f < 1.0 for f in fractions):
        raise UsageError("--fractions must be a non-empty list within (0, 1)")
    specs = _parse_algorithms(args.algorithms, args)
    ds = _load_dataset(args.dataset)
    grid = density_sweep(ds, specs, fractions, **_run_options(args))
    table = format_sweep_table(grid)
    doc = {f"{kind}@{frac:g}": asdict(report) for (kind, frac), report in grid.items()}
    _write_outputs(args, {
        "sweep.json": json.dumps(doc, sort_keys=True, indent=2) + "\n", "sweep.txt": table + "\n",
    })
    print(table)
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    grid_axes = {}
    for key in _HYPERPARAMETERS:
        raw = getattr(args, key)
        if raw is not None:
            name = key.rstrip("_")
            grid_axes[name] = _csv_floats(raw)
            if not grid_axes[name]:
                raise UsageError(f"--{name} needs at least one value")
            for value in grid_axes[name]:
                _hyperparameters({name: value})
    if not grid_axes:
        raise UsageError("give at least one grid axis (--alpha/--beta/--eta/--lambda/--mu)")
    ds = _load_dataset(args.dataset)
    best, results = grid_search(
        ds, grid_axes, args.objective, args.train_fraction, **_run_options(args)
    )
    doc = {
        "best": best,
        "objective": args.objective,
        "grid": [{"params": point, "means": asdict(report.means)} for point, report in results],
    }
    _write_outputs(args, {"grid.json": json.dumps(doc, sort_keys=True, indent=2) + "\n"})
    print(json.dumps({"best": best, "objective": args.objective}, sort_keys=True))
    return 0


def _add_walk_flags(p: argparse.ArgumentParser) -> None:
    for name, default in _HYPERPARAMETERS.items():
        p.add_argument(_flag(name.rstrip("_")), dest=name, type=float, default=default)


def _add_baseline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-neighbors", type=int, default=None)
    p.add_argument("--fuse-weight", type=float, default=0.5)


def _add_experiment_flags(
    p: argparse.ArgumentParser, runs: int = 10, train_fraction: bool = True
) -> None:
    p.add_argument("--dataset", required=True)
    if train_fraction:
        p.add_argument("--train-fraction", type=float, default=0.2)
    p.add_argument("--top-n", type=int, default=5)
    p.add_argument("--runs", type=int, default=runs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--half-life", type=int, default=5)
    p.add_argument("--output-dir", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="folkwalk", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse triples, filter, build a dataset snapshot")
    p.add_argument("--input", required=True)
    p.add_argument("--dataset", required=True, help="output dataset path (JSON)")
    p.add_argument("--min-items-per-user", type=int, default=None)
    p.add_argument("--min-users-per-item", type=int, default=None)
    p.add_argument("--unqualified-threshold", type=int, default=20)
    p.add_argument("--select-tags", type=int, default=None)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("recommend", help="top-N lists for one user or all users")
    p.add_argument("--dataset", required=True)
    p.add_argument("--algorithm", choices=ALGORITHM_KINDS, default="pRW")
    p.add_argument("--user", help="user id (default: every user)")
    p.add_argument("--top-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "table"), default="table")
    _add_walk_flags(p)
    _add_baseline_flags(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("evaluate", help="repeated-split evaluation of algorithms")
    p.add_argument("--algorithms", default="Random,UserCF,ItemCF,Fusion,pRW")
    p.add_argument("--t-test", action="store_true",
                   help="paired t-test of best vs second-best precision")
    _add_experiment_flags(p)
    _add_walk_flags(p)
    _add_baseline_flags(p)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="evaluate pRW-IT, pRW-UT, pRW-UI, pRW")
    _add_experiment_flags(p)
    _add_walk_flags(p)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_evaluate, algorithms=",".join(ABLATION_KINDS), t_test=False)

    p = sub.add_parser("sweep", help="evaluation across training-fraction levels")
    p.add_argument("--fractions", default="0.05,0.10,0.20")
    p.add_argument("--algorithms", default="UserCF,ItemCF,Fusion,pRW")
    _add_experiment_flags(p, train_fraction=False)
    _add_walk_flags(p)
    _add_baseline_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("grid", help="exhaustive hyperparameter search for pRW")
    for name in _HYPERPARAMETERS:
        p.add_argument(_flag(name.rstrip("_")), dest=name, default=None,
                       help="comma list, e.g. 0,0.5,1")
    p.add_argument("--objective", default="precision",
                   choices=("precision", "recall", "f_measure", "rankscore"))
    _add_experiment_flags(p, runs=1)
    p.set_defaults(func=cmd_grid)
    return parser


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _config_value(action: argparse.Action, key: str, raw: str) -> object:
    """Parse a config-file value as the option's own flag would."""
    if action.nargs == 0:  # a store_true switch
        if raw.lower() not in _BOOLEANS:
            raise UsageError(f"config key {key!r}: expected true or false, got {raw!r}")
        return _BOOLEANS[raw.lower()]
    if action.type is None:
        value: object = raw
    else:
        try:
            value = action.type(raw)
        except ValueError:
            raise UsageError(
                f"config key {key!r}: expected {action.type.__name__}, got {raw!r}"
            ) from None
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config key {key!r}: {raw!r} is not one of {list(action.choices)}")
    return value


def _apply_config(parser: argparse.ArgumentParser, command: str, cfg: dict[str, str]) -> None:
    """Make config-file values the defaults of ``command``'s options, so a
    flag on the command line, in any spelling argparse accepts, still wins.
    A key that names no option of any command is an error."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {
        a.dest for sub in subparsers.choices.values() for a in sub._actions if a.option_strings
    } - {"help"}
    subparser = subparsers.choices[command]
    own = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, raw in cfg.items():
        if key == "lambda":
            key = "lambda_"
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
        if key in own:
            defaults[key] = _config_value(own[key], key, raw)
    subparser.set_defaults(**defaults)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args.command, _load_config_file(args.config))
            args = parser.parse_args(argv)
        _check_option_ranges(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, InputError, EmptyDatasetError, InvalidDatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
