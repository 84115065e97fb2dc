"""The command line as a user runs it: each command here is
``python -m folkwalk.cli`` in a fresh interpreter (see ``conftest.run_python``).

A separate process shows what an in-process ``cli.main`` call cannot: the
real ``-X importtime`` log, the exit status, and what reaches stderr, which
must be one ``error:`` line and never a traceback. Where a test elsewhere
already checks a result in process, the test here names it. Every
``report.json`` a command writes is read as strict JSON.
"""

import json
import re
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest

from conftest import run_python

DATA = Path(__file__).parent / "data"

# a module of scipy in an `-X importtime` log
SCIPY = re.compile(r"\| +scipy(\.|$)", re.M)


def folkwalk(*args: str, cwd: Path, flags: tuple[str, ...] = ()):
    return run_python(*flags, "-m", "folkwalk.cli", *args, cwd=cwd)


def succeeds(*args: str, cwd: Path, flags: tuple[str, ...] = ()):
    run = folkwalk(*args, cwd=cwd, flags=flags)
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
    return run


def fails(status: int, *args: str, cwd: Path) -> str:
    """The one stderr line, without its line end, of a command that must
    exit with ``status``."""
    run = folkwalk(*args, cwd=cwd)
    assert run.returncode == status, run.stderr
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    assert "Traceback" not in run.stderr
    return run.stderr.rstrip("\n")


def _not_json(name):
    raise ValueError(f"not JSON: {name}")


def experiment(out: Path, *args: str, flags: tuple[str, ...] = ()):
    """Run an experiment command with ``--output-dir out``; it must write at
    least one report.json there, each strict JSON (no NaN or Infinity)."""
    run = succeeds(*args, "--output-dir", str(out), cwd=out.parent, flags=flags)
    reports = sorted(out.rglob("report.json"))
    assert reports
    for path in reports:
        json.loads(path.read_text(), parse_constant=_not_json)
    return run


def report(out: Path):
    return json.loads((out / "report.json").read_text())


@pytest.fixture(scope="session")
def snapshots(tmp_path_factory):
    """tiny.tsv ingested, and so are its column-swapped, CRLF and BOM copies.
    tiny.tsv has fewer users than items, so pRW works in user space; with
    its first two columns swapped (15 users x 12 items) it runs the
    item-space orientation."""
    root = tmp_path_factory.mktemp("snapshots")
    plain = (DATA / "tiny.tsv").read_bytes()
    rows = [line.split(b"\t") for line in plain.splitlines()]
    copies = {
        "tiny": plain,
        "swapped": b"".join(b"\t".join((i, u, t)) + b"\n" for u, i, t in rows),
        "crlf": plain.replace(b"\n", b"\r\n"),
        "bom": b"\xef\xbb\xbf" + plain,
    }
    paths = {}
    for name, content in copies.items():
        (root / f"{name}.tsv").write_bytes(content)
        paths[name] = root / f"{name}.json"
        succeeds("ingest", "--input", f"{name}.tsv", "--dataset", paths[name].name, cwd=root)
    return paths


@pytest.fixture(scope="session")
def tiny_eval(snapshots, tmp_path_factory) -> Path:
    """The output directory of ``evaluate --runs 1`` on tiny.json."""
    out = tmp_path_factory.mktemp("tiny_eval") / "out"
    experiment(out, "evaluate", "--dataset", str(snapshots["tiny"]), "--runs", "1")
    return out


@pytest.mark.parametrize("command", ["", "ingest", "recommend", "evaluate", "ablate", "sweep",
                                     "grid"], ids=lambda command: command or "folkwalk")
def test_help(tmp_path, command):
    run = succeeds(*command.split(), "--help", cwd=tmp_path)
    assert run.stdout.startswith(f"usage: folkwalk {command}".rstrip())
    assert run.stderr == ""


class TestImportLog:
    def test_ingest_imports_no_scipy(self, tmp_path, snapshots):
        # test_cli.py::TestImports::test_leave_scipy_unloaded[ingest-tiny]
        run = succeeds("ingest", "--input", str(DATA / "tiny.tsv"), "--dataset", "tiny.json",
                       cwd=tmp_path, flags=("-X", "importtime"))
        assert "import time:" in run.stderr
        assert not SCIPY.search(run.stderr), SCIPY.findall(run.stderr)
        # ingest counts the tags in use without np.unique, which runs numpy.ma
        assert not re.search(r"\| +numpy\.ma\.core$", run.stderr, re.M)
        assert (tmp_path / "tiny.json").read_bytes() == snapshots["tiny"].read_bytes()

    def test_star_import_imports_no_scipy(self, tmp_path):
        # test_similarity.py::test_star_import_stays_light
        run = run_python("-X", "importtime", "-c", "from folkwalk import *", cwd=tmp_path)
        assert run.returncode == 0, run.stderr
        assert "import time:" in run.stderr
        assert not SCIPY.search(run.stderr), SCIPY.findall(run.stderr)

    def test_scoring_runs_no_deferred_numpy_body(self, tmp_path, snapshots):
        # test_cli.py::TestImports::test_scoring_leaves_deferred_numpy_modules_unexecuted;
        # the package registers numpy's f2py, testing and ma lazily, and
        # scipy.sparse only looks them up
        run = experiment(tmp_path / "out", "evaluate", "--dataset", str(snapshots["tiny"]),
                         "--runs", "1", flags=("-X", "importtime"))
        assert re.search(r"\| +scipy\.sparse$", run.stderr, re.M)
        body = re.search(r"\| +numpy\.(f2py\.crackfortran|testing\._private\.utils|ma\.core)$",
                         run.stderr, re.M)
        assert not body, body


class TestIngest:
    def test_writes_format_version_3(self, snapshots):
        # test_cli.py::TestIngest::test_writes_format_version_3
        assert json.loads(snapshots["tiny"].read_text())["format_version"] == 3

    @pytest.mark.parametrize("copy", ["crlf", "bom"])
    def test_line_ends_and_byte_order_mark_give_the_plain_snapshot(self, snapshots, copy):
        # test_cli.py::TestIngest::test_crlf_input_gives_the_lf_snapshot and
        # ::test_byte_order_mark_gives_the_plain_snapshot; ingest reads its input in
        # pieces, and a byte-order mark is no part of the first user's id
        assert snapshots[copy].read_bytes() == snapshots["tiny"].read_bytes()

    def test_triples_not_utf8_exit_1(self, tmp_path):
        # test_cli.py::TestBadInput::test_non_utf8_triple_file_exits_1
        (tmp_path / "not_utf8.tsv").write_bytes(b"u1\ti1\tt\xff\n")
        fails(1, "ingest", "--input", "not_utf8.tsv", "--dataset", "out.json", cwd=tmp_path)


def format_2(doc: dict) -> dict:
    """The format-2 document of format-3 ``doc``: PT replaced by UT and IT,
    PT's rows summed per user and per item, in canonical CSR arrays."""
    ptr, col = doc["UI"]["indptr"], doc["UI"]["indices"]
    pt = doc.pop("PT")
    user = [u for u in range(len(ptr) - 1) for _ in range(ptr[u], ptr[u + 1])]
    for key, owner, rows in (("UT", user, len(doc["users"])), ("IT", col, len(doc["items"]))):
        sums = [Counter() for _ in range(rows)]
        for p, r in enumerate(owner):
            for k in range(pt["indptr"][p], pt["indptr"][p + 1]):
                sums[r][pt["indices"][k]] += pt["data"][k]
        doc[key] = {"indptr": [0, *accumulate(map(len, sums))],
                    "indices": [t for row in sums for t in sorted(row)],
                    "data": [row[t] for row in sums for t in sorted(row)]}
    return {**doc, "format_version": 2}


class TestDatasetFile:
    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_format_exits_1_naming_it(self, tmp_path, snapshots, version):
        # test_cli.py::TestBadInput::test_bad_dataset_file_exits_1 (format_version 1
        # and 2); re-ingesting the triples is the whole migration
        doc = format_2(json.loads(snapshots["tiny"].read_text()))
        if version == 1:
            for key in ("UI", "UT", "IT"):
                ptr, col, val = (doc[key][name] for name in ("indptr", "indices", "data"))
                doc[key] = [[r, col[k], val[k]] for r in range(len(ptr) - 1)
                            for k in range(ptr[r], ptr[r + 1])]
            doc["format_version"] = 1
        (tmp_path / "old.json").write_text(json.dumps(doc))
        err = fails(1, "evaluate", "--dataset", "old.json", "--runs", "1", "--output-dir", "out",
                    cwd=tmp_path)
        assert err.endswith(f"format_version {version}"), err

    @staticmethod
    def _edit_a_multi_entry_row(snapshot: Path, out: Path, edit) -> None:
        doc = json.loads(snapshot.read_text())
        ptr, col, val = (doc["UI"][name] for name in ("indptr", "indices", "data"))
        r = next(r for r in range(len(ptr) - 1) if ptr[r + 1] - ptr[r] > 1)
        edit(ptr, col, val, r)
        out.write_text(json.dumps(doc))

    def test_reversed_row_exits_1(self, tmp_path, snapshots):
        # test_dataset.py::TestSnapshot::test_reader_rejects_a_reversed_row; PT's rows
        # follow UI's entries as written, so the reader does not sort a row
        def reverse(ptr, col, val, r):
            row = slice(ptr[r], ptr[r + 1])
            col[row], val[row] = col[row][::-1], val[row][::-1]

        self._edit_a_multi_entry_row(snapshots["tiny"], tmp_path / "reversed.json", reverse)
        err = fails(1, "evaluate", "--dataset", "reversed.json", "--runs", "1",
                    "--output-dir", "out", cwd=tmp_path)
        assert "UI: duplicate or out-of-order column index" in err, err

    def test_repeated_column_exits_1(self, tmp_path, snapshots):
        # test_dataset.py::TestSnapshot::test_repeat_split_apart_within_a_row_rejected
        def repeat(ptr, col, val, r):
            col.insert(ptr[r + 1], col[ptr[r]])
            val.insert(ptr[r + 1], 1.0)
            ptr[r + 1:] = [p + 1 for p in ptr[r + 1:]]

        self._edit_a_multi_entry_row(snapshots["tiny"], tmp_path / "repeat.json", repeat)
        err = fails(1, "evaluate", "--dataset", "repeat.json", "--runs", "1",
                    "--output-dir", "out", cwd=tmp_path)
        assert "duplicate" in err


class TestRecommend:
    @pytest.mark.parametrize("flags", ["", "--algorithm Fusion", "--algorithm Random",
                                       "--algorithm ItemCF --k-neighbors 1"],
                             ids=lambda flags: flags or "default")
    def test_one_line_per_user(self, tmp_path, snapshots, flags):
        # with --k-neighbors ItemCF forms the truncated neighbourhoods' product once
        run = succeeds("recommend", "--dataset", str(snapshots["tiny"]), *flags.split(),
                       cwd=tmp_path)
        users = json.loads(snapshots["tiny"].read_text())["users"]
        assert [line.split("\t")[0] for line in run.stdout.splitlines()] == sorted(users)

    @pytest.mark.parametrize("algorithm", ["pRW", "pRW-IT", "pRW --eta 0 --lambda 0",
                                           "pRW --beta 1"])
    @pytest.mark.parametrize("dataset", ["tiny", "swapped"])
    def test_top_20_names_exactly_the_unsaved_items(self, tmp_path, snapshots, dataset,
                                                    algorithm):
        # test_cli.py::TestRecommend::test_short_lists_name_exactly_the_unsaved_items
        # (pRW and Random on tiny.tsv). Both files have at most 15 items, so a
        # top-20 list is short. pRW and pRW-IT, whose walk has no interaction
        # chain, score each block in the sparse product's buffer and add the
        # low-rank term there, in both orientations; at eta = lambda = 0 the
        # low-rank term is empty, and at beta = 1 the user walk is tag-only
        # beside the item walk's base, so P has two blocks in user space
        run = succeeds("recommend", "--dataset", str(snapshots[dataset]), "--algorithm",
                       *algorithm.split(), "--top-n", "20", "--format", "json", cwd=tmp_path)
        doc, lists = json.loads(snapshots[dataset].read_text()), json.loads(run.stdout)
        ptr, col = doc["UI"]["indptr"], doc["UI"]["indices"]
        assert sorted(lists) == sorted(doc["users"])
        for u, user in enumerate(doc["users"]):
            unsaved = set(doc["items"]) - {doc["items"][j] for j in col[ptr[u]:ptr[u + 1]]}
            got = lists[user]
            assert len(got) == len(set(got)) and set(got) == unsaved, user

    @pytest.mark.parametrize("algorithm", ["ItemCF", "Fusion", "pRW", "UserCF",
                                           "UserCF --k-neighbors 1"])
    def test_one_user_gets_their_line_of_the_all_users_output(self, tmp_path, snapshots,
                                                              algorithm):
        # test_cli.py::TestRecommend::test_one_user_gets_their_entry_of_the_all_users_output;
        # --user scores and ranks only the user's block, and UserCF, with or
        # without --k-neighbors, forms only that block's rows of the user cosine
        argv = ("recommend", "--dataset", str(snapshots["tiny"]), "--algorithm",
                *algorithm.split())
        everyone = succeeds(*argv, cwd=tmp_path).stdout.splitlines()
        one = succeeds(*argv, "--user", "u7", cwd=tmp_path).stdout.splitlines()
        assert len(one) == 1 and one[0] in everyone


    def test_singular_walk_exits_1(self, tmp_path, snapshots):
        # test_cli.py::TestBadInput::test_singular_walk_exits_1_naming_the_damping
        err = fails(1, "recommend", "--dataset", str(snapshots["tiny"]), "--eta",
                    "0.99999999999999", "--lambda", "0.99999999999999", cwd=tmp_path)
        assert "damping (--eta or --lambda) too close to 1" in err, err


class TestEvaluate:
    def test_cf_with_k_neighbors(self, tmp_path, snapshots):
        experiment(tmp_path / "out", "evaluate", "--dataset", str(snapshots["tiny"]),
                   "--algorithms", "UserCF,ItemCF", "--k-neighbors", "2", "--runs", "2")

    def test_top_n_past_the_item_count_is_the_item_count(self, tmp_path, snapshots):
        # tiny.json has 15 items, so no list is wider than 15
        for top_n in ("1000000000", "15"):
            experiment(tmp_path / top_n, "evaluate", "--dataset", str(snapshots["tiny"]),
                       "--top-n", top_n, "--runs", "1")
        assert (tmp_path / "1000000000" / "runs.csv").read_bytes() == (
            tmp_path / "15" / "runs.csv").read_bytes()

    @pytest.mark.parametrize("dataset", ["tiny", "swapped"])
    def test_k_neighbors_past_int64_keeps_every_neighbour(self, tmp_path, snapshots, dataset):
        # as any k at or above the row width does; 15 is at least the user
        # and the item count of both files
        for k in ("100000000000000000000", "15"):
            experiment(tmp_path / k, "evaluate", "--dataset", str(snapshots[dataset]),
                       "--algorithms", "UserCF,ItemCF", "--runs", "2", "--k-neighbors", k)
        assert (tmp_path / "100000000000000000000" / "runs.csv").read_bytes() == (
            tmp_path / "15" / "runs.csv").read_bytes()

    def test_config_file_supplies_the_dataset(self, tmp_path, snapshots, tiny_eval):
        # test_cli.py::TestBadInput::test_config_supplies_required_options
        (tmp_path / "dataset.cfg").write_text(f"dataset = {snapshots['tiny']}\n")
        experiment(tmp_path / "out", "--config", "dataset.cfg", "evaluate", "--runs", "1")
        assert (tmp_path / "out" / "report.json").read_bytes() == (
            tiny_eval / "report.json").read_bytes()

    def test_negative_seed_exits_2(self, tmp_path, snapshots):
        # test_cli.py::TestBadInput::test_out_of_range_option_exits_2_before_loading
        fails(2, "evaluate", "--dataset", str(snapshots["tiny"]), "--seed", "-1", "--runs", "1",
              "--output-dir", "out", cwd=tmp_path)

    def test_walk_value_out_of_range_exits_2_whatever_the_algorithms(self, tmp_path,
                                                                     snapshots):
        # test_cli.py::TestBadInput::test_walk_value_is_checked_whatever_the_algorithms
        err = fails(2, "evaluate", "--dataset", str(snapshots["tiny"]), "--algorithms",
                    "Random", "--eta", "1", "--runs", "1", "--output-dir", "out", cwd=tmp_path)
        assert err == "error: eta must be in [0, 1), got 1.0"

    def test_walk_params_are_its_five_values_by_option_name(self, tmp_path, snapshots):
        # test_cli.py::test_params_are_named_after_evaluate_flags
        experiment(tmp_path / "out", "evaluate", "--dataset", str(snapshots["tiny"]),
                   "--algorithms", "pRW", "--runs", "1")
        params = report(tmp_path / "out")[0]["algorithm"]["params"]
        assert params == {"alpha": 0.5, "beta": 0.5, "eta": 0.8, "lambda_": 0.8, "mu": 0.5}

    def test_item_cf_by_associativity_with_more_users_than_items(self, tmp_path, snapshots):
        # untruncated ItemCF and Fusion's item half score each block of users
        # as (UI[B] @ U) @ U^T, never forming the items x items cosine
        experiment(tmp_path / "out", "evaluate", "--dataset", str(snapshots["swapped"]),
                   "--algorithms", "ItemCF,Fusion", "--runs", "1")

    @pytest.mark.parametrize("dataset", ["tiny", "swapped"])
    def test_each_walk_gets_its_own_base(self, tmp_path, snapshots, dataset):
        # eta (1 - alpha) != lambda (1 - beta)
        experiment(tmp_path / "out", "evaluate", "--dataset", str(snapshots[dataset]),
                   "--algorithms", "pRW", "--eta", "0.7", "--runs", "1")

    def test_each_fraction_is_tuned_on_validation(self, tmp_path, snapshots):
        # test_cli.py::TestFractions::test_one_directory_per_fraction
        experiment(tmp_path / "out", "evaluate", "--dataset", str(snapshots["tiny"]),
                   "--train-fraction", "0.2,0.4", "--alpha", "0,1", "--runs", "2")
        for fraction in ("0.2", "0.4"):
            assert "pRW" in report(tmp_path / "out" / f"train-{fraction}")["selection"]


class TestAblate:
    @pytest.mark.parametrize("dataset", ["tiny", "swapped"])
    def test_runs(self, tmp_path, snapshots, dataset):
        experiment(tmp_path / "out", "ablate", "--dataset", str(snapshots[dataset]),
                   "--runs", "1")

    def test_variant_is_tuned_only_over_the_flags_it_reads(self, tmp_path, snapshots):
        # test_cli.py::TestAblate::test_reports_the_values_each_variant_ran_with;
        # pRW-IT reads neither --alpha nor --mu and reports the values its walk ran with
        experiment(tmp_path / "out", "ablate", "--dataset", str(snapshots["tiny"]),
                   "--alpha", "0,1", "--mu", "0.5,1", "--runs", "2")
        doc = report(tmp_path / "out")
        assert set(doc["selection"]) == {"pRW", "pRW-UI"}, sorted(doc["selection"])
        params = next(r for r in doc["reports"]
                      if r["algorithm"]["kind"] == "pRW-IT")["algorithm"]["params"]
        assert (params["alpha"], params["mu"]) == (1.0, 1.0), params
