"""Command-line front end: ingest, recommend, evaluate, and evaluate's
presets ablate, sweep and grid.

``evaluate`` takes comma lists of training fractions and hyperparameters; an
algorithm with several candidates is tuned on a validation split in each run.
Every command writes a run manifest (config snapshot, input digests, seeds,
tool version) next to its outputs so a run can be reproduced byte-for-byte.
Config precedence: CLI flag > config file > built-in default.

Importing this module, ``--help`` and ``ingest`` load numpy only; the commands
that score import the scoring modules, and with them scipy, when they run.
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
from .dataset import (
    EmptyDatasetError,
    InvalidDatasetError,
    ParseError,
    dataset_from_json,
    format_stats_table,
    ingest_snapshot,
    json_pieces,
    parse_triples,
    snapshot_stats,
)
from .params import (
    ABLATION_KINDS, ALGORITHM_KINDS, ALGORITHMS, FUSE_WEIGHT, WALK_DEFAULTS, AlgorithmSpec,
    WalkConfig, walk_params,
)


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
        with open(path, encoding="utf-8-sig") as fh:
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


def _named_once(values: list, flag: str, show=repr) -> list:
    """``values``, given as ``flag``'s comma list; naming one twice is a
    usage error, whose message shows the value with ``show``."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise UsageError(f"{flag} names {show(v)} more than once")
    return values


def _comma_list(convert, flag: str):
    """The argparse type of ``flag``'s comma list: its values, each read by
    ``convert``. A value ``convert`` rejects is reported as a bad value of
    its type; an empty list or a value named twice is a usage error."""

    def values(text: str) -> list:
        parsed = [convert(x) for x in text.split(",") if x.strip()]
        if not parsed:
            raise UsageError(f"{flag} needs at least one value")
        return _named_once(parsed, flag, "{:g}".format)

    values.__name__ = convert.__name__
    return values


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

# (option, option it needs): an option given without the one it needs would
# do nothing. The density filter needs both minimum degrees, and its
# threshold needs the filter.
_NEEDS = (
    ("min_items_per_user", "min_users_per_item"),
    ("min_users_per_item", "min_items_per_user"),
    ("unqualified_threshold", "min_items_per_user"),
)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _as_list(value) -> list:
    """An option's values: its comma list, or its one value."""
    return value if isinstance(value, list) else [value]


def _check_option_ranges(args: argparse.Namespace) -> None:
    """Reject out-of-range and unpaired options, each value of a comma list
    included (walk hyperparameters by :class:`WalkConfig`), before any input is read."""
    for name, rule, ok in _OPTION_RANGES:
        for v in _as_list(getattr(args, name, None)):
            if v is not None and not ok(v):
                raise UsageError(f"{_flag(name)} must be {rule}, got {v}")
    for name in WALK_DEFAULTS:
        for v in _as_list(getattr(args, name, [])):
            try:
                WalkConfig(**{name: v})
            except ValueError as exc:
                raise UsageError(str(exc)) from None
    for name, other in _NEEDS:
        if getattr(args, name, None) is not None and getattr(args, other, None) is None:
            raise UsageError(f"{_flag(name)} must be given with {_flag(other)}")
    if getattr(args, "t_test", False):
        if args.runs < 2:
            raise UsageError(f"--t-test needs --runs >= 2, got {args.runs}")
        if len(_algorithm_kinds(args.algorithms)) < 2:
            raise UsageError(f"--t-test needs at least two --algorithms, got {args.algorithms!r}")


def _candidates(kind: str, args: argparse.Namespace) -> list[AlgorithmSpec]:
    """One spec of ``kind`` per combination of the values of the options it
    reads, the last option varying fastest; an option holds one value or a
    list. A walk variant's spec holds the values its walk runs with."""
    reads, _ = ALGORITHMS[kind]
    combinations = [{}]
    for name in reads:
        combinations = [{**c, name: v} for c in combinations for v in _as_list(getattr(args, name))]
    if kind in ABLATION_KINDS:
        combinations = [asdict(walk_params(kind, c)) for c in combinations]
    return [AlgorithmSpec(kind, params) for params in combinations]


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
        with open(args.input, encoding="utf-8-sig") as fh:
            posts = parse_triples(fh)
    except UnicodeDecodeError as exc:
        raise InputError(_not_utf8(args.input, exc)) from None
    if not len(posts):
        raise InputError(f"{args.input}: no triples")
    # without the flag the filter keeps the library's threshold
    threshold = args.unqualified_threshold
    snapshot = ingest_snapshot(
        posts,
        min_items_per_user=args.min_items_per_user,
        min_users_per_item=args.min_users_per_item,
        num_tags=args.select_tags,
        **({} if threshold is None else {"unqualified_item_threshold": threshold}),
    )
    if not snapshot["users"]:
        raise UsageError("dataset empty after filtering")
    with open(args.dataset, "w", encoding="utf-8") as fh:
        fh.writelines(json_pieces(snapshot))
    s = snapshot_stats(snapshot)
    if args.format == "json":
        print(json.dumps(asdict(s), indent=2, sort_keys=True))
    else:
        print(format_stats_table(s))
    _write_manifest(args.dataset + ".manifest.json", args, [args.input])
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    from .baselines import run_algorithm

    spec, = _candidates(args.algorithm, args)
    ds = _load_dataset(args.dataset)
    user = None
    if args.user is not None:
        try:
            user = ds.user_index(args.user)
        except KeyError:
            raise InputError(f"unknown user id {args.user!r}") from None
    # every save is training data, so no saved item is ever recommended;
    # with --user only that user's block is scored
    lists = run_algorithm(spec, ds, args.top_n, args.seed, user)
    users = range(ds.num_users) if user is None else [user]
    payload = {ds.users[u]: [ds.items[j] for j in lists[u].tolist() if j >= 0] for u in users}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for user_id in sorted(payload):
            print(f"{user_id}\t" + "\t".join(payload[user_id]))
    return 0


def _algorithm_kinds(text: str) -> list[str]:
    """The kinds ``--algorithms`` names; naming one twice is a usage error."""
    return _named_once([k.strip() for k in text.split(",") if k.strip()], "--algorithms")


def _parse_algorithms(text: str, args: argparse.Namespace) -> list[AlgorithmSpec]:
    """Every candidate of every algorithm ``text`` names, by algorithm."""
    kinds = _algorithm_kinds(text)
    for k in kinds:
        if k not in ALGORITHM_KINDS:
            raise UsageError(f"unknown algorithm {k!r}; choose from {ALGORITHM_KINDS}")
    if not kinds:
        raise UsageError("no algorithms given")
    return [spec for k in kinds for spec in _candidates(k, args)]


def _run_options(args: argparse.Namespace) -> dict:
    """The repeated-split options, as the experiment functions name them."""
    return {"top_n": args.top_n, "n_runs": args.runs, "base_seed": args.seed,
            "half_life": args.half_life}


def _emit_reports(reports, args, directory: str, extras: dict) -> tuple:
    """Write report.json, report.txt, runs.csv and manifest.json into
    ``directory``, creating it if needed; with ``extras``, report.json is an
    object of them beside its ``reports``. Returns report.json's document
    and the table."""
    from .evaluation import format_report_table, runs_to_csv

    doc = [asdict(r) for r in reports]
    if extras:
        doc = {"reports": doc, **extras}
    table = format_report_table(reports)
    os.makedirs(directory, exist_ok=True)
    for name, text in (("report.json", json.dumps(doc, sort_keys=True, indent=2) + "\n"),
                       ("report.txt", table + "\n"), ("runs.csv", runs_to_csv(reports))):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    _write_manifest(os.path.join(directory, "manifest.json"), args, [args.dataset])
    return doc, table


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Evaluate the algorithms at each training fraction. With several
    fractions, each one's files go into ``train-<fraction>/`` under
    --output-dir, and stdout shows each one's report under that name."""
    from .evaluation import paired_t_test, run_experiment

    specs = _parse_algorithms(args.algorithms, args)
    ds = _load_dataset(args.dataset)
    # an --output-dir that cannot be a directory fails here, not after every split has run
    os.makedirs(args.output_dir, exist_ok=True)
    shown = {}
    for fraction in args.train_fraction:
        # the shortest repr, which is :g's text up to six significant digits,
        # names no two fractions alike
        name = f"train-{fraction!r}"
        directory = args.output_dir
        if len(args.train_fraction) > 1:
            directory = os.path.join(directory, name)
        reports, selection = run_experiment(ds, specs, fraction, **_run_options(args))
        extras = {"selection": {k: asdict(s) for k, s in selection.items()}} if selection else {}
        if args.t_test:
            best, second = sorted(reports, key=lambda r: -r.means.precision)[:2]
            t, p = paired_t_test([r.precision for r in best.runs], [r.precision for r in second.runs])
            extras["t_test"] = {
                "best": best.algorithm.kind,
                "second": second.algorithm.kind,
                "metric": "precision",
                # a constant nonzero difference gives an infinite t, which JSON cannot hold
                "t": t if abs(t) != float("inf") else None,
                "p": p,
            }
        shown[name] = _emit_reports(reports, args, directory, extras)
    if len(shown) == 1:
        doc, table = shown[name]
        print(json.dumps(doc, sort_keys=True, indent=2) if args.format == "json" else table)
    elif args.format == "json":
        print(json.dumps({n: doc for n, (doc, _) in shown.items()}, sort_keys=True, indent=2))
    else:
        print("\n\n".join(f"{n}\n{table}" for n, (_, table) in shown.items()))
    return 0


def _add_value_flag(p: argparse.ArgumentParser, name: str, convert, default,
                    lists: bool) -> None:
    """Add the option ``name`` of one value, or with ``lists`` of a comma list."""
    flag = _flag(name.rstrip("_"))
    if lists:
        p.add_argument(flag, dest=name, type=_comma_list(convert, flag), default=[default],
                       help="comma list")
    else:
        p.add_argument(flag, dest=name, type=convert, default=default)


def _add_walk_flags(p: argparse.ArgumentParser, lists: bool = True) -> None:
    for name, default in WALK_DEFAULTS.items():
        _add_value_flag(p, name, float, default, lists)


def _add_baseline_flags(p: argparse.ArgumentParser, lists: bool = True) -> None:
    _add_value_flag(p, "k_neighbors", int, None, lists)
    _add_value_flag(p, "fuse_weight", float, FUSE_WEIGHT, lists)


def _add_experiment_flags(
    p: argparse.ArgumentParser, runs: int = 10, train_fraction: bool = True
) -> None:
    p.add_argument("--dataset", required=True)
    if train_fraction:
        _add_value_flag(p, "train_fraction", float, 0.2, lists=True)
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
    p.add_argument("--unqualified-threshold", type=int, default=None,
                   help="density filter threshold (default 20; needs the minimums)")
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
    _add_walk_flags(p, lists=False)
    _add_baseline_flags(p, lists=False)
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

    p = sub.add_parser("sweep", help="evaluate at training fractions 0.05, 0.1 and 0.2")
    p.add_argument("--algorithms", default="UserCF,ItemCF,Fusion,pRW")
    _add_experiment_flags(p, train_fraction=False)
    _add_walk_flags(p)
    _add_baseline_flags(p)
    p.set_defaults(func=cmd_evaluate, train_fraction=[0.05, 0.10, 0.20], t_test=False,
                   format="table")

    p = sub.add_parser("grid", help="evaluate pRW, tuned over comma lists of its hyperparameters")
    _add_experiment_flags(p, runs=1)
    _add_walk_flags(p)
    p.set_defaults(func=cmd_evaluate, algorithms="pRW", t_test=False, format="table")
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


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Before argv is parsed, make the values of its ``--config`` file the
    defaults of its command's options, and not required: a flag on the
    command line, in any spelling argparse accepts, still wins. A key that
    names no option of any command is an error. Without a command name after
    ``--config``, argparse's own error is left to the parse."""
    ahead = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    ahead.add_argument("--config")
    ahead.add_argument("command", nargs=argparse.REMAINDER)
    try:
        given = ahead.parse_known_args(argv)[0]
    except argparse.ArgumentError:  # e.g. --config without its value
        return
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = given.command[0] if given.command else None
    if not given.config or command not in subparsers.choices:
        return
    known = {
        a.dest for sub in subparsers.choices.values() for a in sub._actions if a.option_strings
    } - {"help"}
    subparser = subparsers.choices[command]
    own = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, raw in _load_config_file(given.config).items():
        if key == "lambda":
            key = "lambda_"
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
        # ingest writes its --dataset; the config's dataset is what the others read
        if key in own and (command, key) != ("ingest", "dataset"):
            defaults[key] = _config_value(own[key], key, raw)
    subparser.set_defaults(**defaults)
    for action in subparser._actions:
        action.required = action.required and action.dest not in defaults


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        _check_option_ranges(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, InputError, EmptyDatasetError, InvalidDatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # imported here, as linalg loads scipy: a scoring command, its only raiser, has loaded it
        from .linalg import SingularMatrixError

        if not isinstance(exc, SingularMatrixError):
            raise
        print(f"error: walk damping (--eta or --lambda) too close to 1: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
