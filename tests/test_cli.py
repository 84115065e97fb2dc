import argparse
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from folkwalk import evaluation
from folkwalk.baselines import recommend_all, run_algorithm
from folkwalk.cli import build_parser, main
from folkwalk.dataset import (
    dataset_from_json, ingest, ingest_snapshot, json_pieces, parse_triples, stats,
)
from folkwalk.params import ABLATION_KINDS, ALGORITHM_KINDS, WALK_DEFAULTS

from conftest import run_python
from gen import covered_posts, random_posts, triple_lines, write_dataset

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def triples_file(tmp_path):
    rng = np.random.default_rng(0)
    posts = random_posts(rng, n_users=20, n_items=25, n_tags=6, items_per_user=(4, 9))
    path = tmp_path / "posts.tsv"
    path.write_text(triple_lines(posts))
    return str(path)


@pytest.fixture()
def dataset_file(triples_file, tmp_path):
    out = str(tmp_path / "ds.json")
    assert main(["ingest", "--input", triples_file, "--dataset", out]) == 0
    return out


class TestIngest:
    def test_stats_match_hand_count(self, tmp_path, capsys):
        src = tmp_path / "small.tsv"
        src.write_text("u1\ti1\ta\nu1\ti2\tb\nu2\ti1\ta\n")
        out = str(tmp_path / "small.json")
        assert main(["ingest", "--input", str(src), "--dataset", out, "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_users"] == 2
        assert stats["num_items"] == 2
        assert stats["num_selected_tags"] == 2
        assert stats["num_transactions"] == 3

    def test_empty_after_filter_exits_2(self, tmp_path, capsys):
        src = tmp_path / "small.tsv"
        src.write_text("u1\ti1\ta\n")
        out = str(tmp_path / "gone.json")
        code = main([
            "ingest", "--input", str(src), "--dataset", out,
            "--min-items-per-user", "5", "--min-users-per-item", "5",
        ])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n\r\n"])
    def test_input_with_no_triples_exits_1(self, tmp_path, capsys, text):
        # bad input data, not a filter that removed everything
        src, out = tmp_path / "empty.tsv", tmp_path / "empty.json"
        src.write_text(text)
        assert main(["ingest", "--input", str(src), "--dataset", str(out)]) == 1
        assert one_line_error(capsys) == f"error: {src}: no triples\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, options", [
        ([], {}),
        (["--select-tags", "3"], {"num_tags": 3}),
        (["--min-items-per-user", "3", "--min-users-per-item", "2", "--select-tags", "4"],
         {"min_items_per_user": 3, "min_users_per_item": 2, "num_tags": 4}),
    ])
    def test_snapshot_and_stats_are_those_of_ingest(self, tmp_path, capsys, flags, options):
        # the command writes count arrays without building the scipy dataset
        out = tmp_path / "ds.json"
        tsv = DATA / "tiny.tsv"
        assert main(["ingest", "--input", str(tsv), "--dataset", str(out), "--format", "json",
                     *flags]) == 0
        with open(tsv, encoding="utf-8") as fh:
            posts = parse_triples(fh)
        text = "".join(json_pieces(ingest_snapshot(posts, **options)))
        assert out.read_text(encoding="utf-8") == text
        assert json.loads(capsys.readouterr().out) == asdict(stats(ingest(posts, **options)))

    def test_reingest_is_byte_identical(self, triples_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["ingest", "--input", triples_file, "--dataset", str(a)]) == 0
        assert main(["ingest", "--input", triples_file, "--dataset", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_writes_format_version_3(self, tmp_path):
        out = tmp_path / "tiny.json"
        assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 3
        assert set(doc["UI"]) == set(doc["PT"]) == {"indptr", "indices", "data"}
        assert len(doc["PT"]["indptr"]) == len(doc["UI"]["data"]) + 1
        assert "UT" not in doc and "IT" not in doc

    def test_manifest_written(self, dataset_file):
        manifest = json.loads(Path(dataset_file + ".manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["tool_version"]
        assert len(manifest["inputs"]) == 1

    def test_parse_error_reports_line(self, tmp_path, capsys):
        src = tmp_path / "bad.tsv"
        src.write_text("u1\ti1\ta\nnot-a-triple\n")
        assert main(["ingest", "--input", str(src), "--dataset", str(tmp_path / "x.json")]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_crlf_input_gives_the_lf_snapshot(self, tmp_path):
        lf, crlf = DATA / "tiny.tsv", tmp_path / "tiny_crlf.tsv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = tmp_path / "lf.json", tmp_path / "crlf.json"
        assert main(["ingest", "--input", str(lf), "--dataset", str(a)]) == 0
        assert main(["ingest", "--input", str(crlf), "--dataset", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_order_mark_gives_the_plain_snapshot(self, tmp_path):
        # a UTF-8 byte-order mark is no part of the first user's id
        plain, bom = DATA / "tiny.tsv", tmp_path / "tiny_bom.tsv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = tmp_path / "plain.json", tmp_path / "bom.json"
        assert main(["ingest", "--input", str(plain), "--dataset", str(a)]) == 0
        assert main(["ingest", "--input", str(bom), "--dataset", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        two_users = tmp_path / "two.tsv"
        two_users.write_bytes(b"\xef\xbb\xbfu1\ti1\tt1\nu1\ti2\tt2\nu2\ti1\tt1\n")
        assert main(["ingest", "--input", str(two_users), "--dataset", str(a)]) == 0
        assert dataset_from_json(a.read_text()).users == ("u1", "u2")


class TestRecommend:
    def test_deterministic(self, dataset_file, capsys):
        argv = ["recommend", "--dataset", dataset_file, "--algorithm", "Random",
                "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_top_n_zero_is_usage_error(self, dataset_file, capsys):
        code = main(["recommend", "--dataset", dataset_file, "--top-n", "0"])
        assert code == 2
        assert "top-n" in capsys.readouterr().err

    def test_negative_seed_exits_2_before_loading(self, tmp_path, capsys):
        code = main(["recommend", "--dataset", str(tmp_path / "missing.json"),
                     "--algorithm", "Random", "--seed", "-1"])
        assert code == 2
        assert "--seed must be >= 0" in one_line_error(capsys)

    def test_unknown_user_named_in_error(self, dataset_file, capsys):
        code = main(["recommend", "--dataset", dataset_file, "--user", "nobody"])
        assert code == 1
        assert "nobody" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ALGORITHM_KINDS)
    def test_never_recommends_saved_items(self, kind, tmp_path, capsys):
        path = tmp_path / "ds.json"
        ds = write_dataset(path, covered_posts(np.random.default_rng(3), 6, 12, 4,
                                               items_per_user=(6, 8)))
        assert main([
            "recommend", "--dataset", str(path), "--algorithm", kind, "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        ui = ds.UI.toarray()
        for u, user in enumerate(ds.users):
            saved = {ds.items[j] for j in np.flatnonzero(ui[u])}
            assert doc[user] and not saved & set(doc[user])

    def test_json_output_for_one_user(self, dataset_file, capsys):
        assert main([
            "recommend", "--dataset", dataset_file, "--algorithm", "pRW",
            "--user", "u1", "--top-n", "3", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["u1"]
        assert len(doc["u1"]) == 3


    @pytest.mark.parametrize("one_user", [False, True])
    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize("kind", ["pRW", "Random"])
    def test_short_lists_name_exactly_the_unsaved_items(
        self, kind, output, one_user, tmp_path, capsys
    ):
        # tiny.tsv has 15 items, so a top-20 list is all of a user's unsaved
        # items; a pad printed as an item would repeat one or name a saved one
        path = tmp_path / "tiny.json"
        assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset", str(path)]) == 0
        ds = dataset_from_json(path.read_text())
        assert ds.num_items < 20
        argv = ["recommend", "--dataset", str(path), "--algorithm", kind, "--top-n", "20",
                "--format", output]
        users = list(ds.users)
        if one_user:
            users = [ds.users[7]]
            argv += ["--user", users[0]]
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        if output == "json":
            got = json.loads(out)
        else:
            got = {user: items for user, *items in (line.split("\t") for line in out.splitlines())}
        assert sorted(got) == sorted(users)
        ui = ds.UI.toarray()
        for user, items in got.items():
            unsaved = {ds.items[j] for j in np.flatnonzero(ui[ds.user_index(user)] == 0)}
            assert len(items) == len(set(items)) and set(items) == unsaved

    @pytest.mark.parametrize("fixture", ["tiny", "acceptance 9"])
    # with --k-neighbors, ItemCF slices a product formed once and UserCF
    # scores each block's truncated rows of the user cosine
    @pytest.mark.parametrize(
        "kind", ALGORITHM_KINDS + ("UserCF --k-neighbors 2", "ItemCF --k-neighbors 2")
    )
    def test_one_user_gets_their_entry_of_the_all_users_output(
        self, kind, fixture, tmp_path, capsys, monkeypatch
    ):
        # 4-user blocks: tiny.tsv's 12 users make 3, acceptance 9's 15 users 4
        monkeypatch.setattr("folkwalk.baselines.BLOCK_USERS", 4)
        ranked = []

        def recording_recommend_all(scores, train_ui, top_n, work=None):
            ranked.append(len(scores))
            return recommend_all(scores, train_ui, top_n, work)

        monkeypatch.setattr("folkwalk.baselines.recommend_all", recording_recommend_all)
        path = tmp_path / "ds.json"
        if fixture == "tiny":
            assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset", str(path)]) == 0
        else:
            write_dataset(path, covered_posts(np.random.default_rng(909), 15, 20, 6))
        users = dataset_from_json(path.read_text()).users
        argv = ["recommend", "--dataset", str(path), "--algorithm", *kind.split(), "--format", "json"]
        capsys.readouterr()
        assert main(argv) == 0
        everyone = json.loads(capsys.readouterr().out)
        # a user in the first, a middle and the last block
        for u in (1, len(users) // 2, len(users) - 1):
            ranked.clear()
            assert main(argv + ["--user", users[u]]) == 0
            assert json.loads(capsys.readouterr().out) == {users[u]: everyone[users[u]]}
            if kind != "Random":
                assert ranked == [min(4, len(users) - (u - u % 4))]


class TestEvaluate:
    def test_single_run_report(self, dataset_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main([
            "evaluate", "--dataset", dataset_file, "--algorithms", "Random",
            "--runs", "1", "--output-dir", out, "--format", "json",
        ]) == 0
        doc = json.loads(Path(out, "report.json").read_text())
        assert len(doc[0]["runs"]) == 1

    def test_byte_identical_reports(self, dataset_file, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            assert main([
                "evaluate", "--dataset", dataset_file,
                "--algorithms", "Random,UserCF,pRW", "--runs", "2",
                "--seed", "3", "--output-dir", out,
            ]) == 0
            outs.append(Path(out, "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_t_test_appended(self, dataset_file, tmp_path):
        out = str(tmp_path / "tt")
        assert main([
            "evaluate", "--dataset", dataset_file, "--algorithms", "Random,pRW",
            "--runs", "3", "--output-dir", out, "--t-test",
        ]) == 0
        doc = json.loads(Path(out, "report.json").read_text())
        assert {"best", "second", "t", "p"} <= set(doc["t_test"])

    def test_infinite_t_is_written_as_null(self, tmp_path):
        # UserCF and pRW-IT differ by the same precision in both runs: the
        # paired t is infinite, which strict JSON cannot hold
        src = tmp_path / "constant_gap.tsv"
        src.write_text("".join("\t".join(triple.split()) + "\n" for triple in (
            "u0 i0 t2", "u0 i2 t2", "u1 i0 t1", "u1 i1 t0", "u1 i2 t2", "u2 i1 t1", "u3 i0 t2",
            "u3 i2 t2", "u4 i0 t1", "u4 i1 t2", "u4 i2 t2", "u5 i0 t1", "u5 i1 t1", "u5 i2 t1",
        )))
        ds = str(tmp_path / "constant_gap.json")
        assert main(["ingest", "--input", str(src), "--dataset", ds]) == 0
        out = tmp_path / "tt"
        assert main([
            "evaluate", "--dataset", ds, "--algorithms", "UserCF,pRW-IT", "--runs", "2",
            "--top-n", "1", "--train-fraction", "0.5", "--t-test", "--output-dir", str(out),
        ]) == 0

        def not_json(name):
            raise ValueError(f"report.json holds {name}, which is not JSON")

        doc = json.loads((out / "report.json").read_text(), parse_constant=not_json)
        assert doc["t_test"]["t"] is None and doc["t_test"]["p"] == 0.0

    def test_one_value_list_is_the_scalar_flag(self, dataset_file, tmp_path):
        # 0.5 is --alpha's default: giving it as a list of one value changes no byte
        common = ["--dataset", dataset_file, "--algorithms", "UserCF,pRW", "--runs", "2"]
        for name, flags in (("default", []), ("given", ["--alpha", "0.5"])):
            assert main(["evaluate", *common, *flags, "--output-dir", str(tmp_path / name)]) == 0
        for name in ("report.json", "report.txt", "runs.csv"):
            assert (tmp_path / "default" / name).read_bytes() == (
                tmp_path / "given" / name).read_bytes()


class TestSelection:
    def test_each_run_records_its_choice(self, tmp_path, capsys):
        ds = str(tmp_path / "tiny.json")
        assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset", ds]) == 0
        out = tmp_path / "sel"
        assert main([
            "evaluate", "--dataset", ds, "--algorithms", "pRW,UserCF", "--alpha", "0,1",
            "--k-neighbors", "10,20", "--runs", "2", "--output-dir", str(out),
        ]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert [r["algorithm"] for r in doc["reports"]] == [
            {"kind": "pRW", "params": {}}, {"kind": "UserCF", "params": {}}
        ]
        prw, user_cf = doc["selection"]["pRW"], doc["selection"]["UserCF"]
        assert [c["alpha"] for c in prw["candidates"]] == [0.0, 1.0]
        assert user_cf["candidates"] == [{"k_neighbors": 10}, {"k_neighbors": 20}]
        for tuned in (prw, user_cf):
            assert len(tuned["chosen"]) == len(tuned["validation_precision"]) == 2
            for best, precision in zip(tuned["chosen"], tuned["validation_precision"]):
                assert len(precision) == 2 and best == precision.index(max(precision))

    def test_candidates_are_every_combination(self, dataset_file, tmp_path):
        out = tmp_path / "sel"
        assert main([
            "evaluate", "--dataset", dataset_file, "--algorithms", "pRW,Fusion", "--runs", "1",
            "--alpha", "0,1", "--mu", "0.5,1", "--lambda", "0.5,0.9", "--fuse-weight", "0.3,0.7",
            "--output-dir", str(out),
        ]) == 0
        selection = json.loads((out / "report.json").read_text())["selection"]
        assert [(c["alpha"], c["lambda_"], c["mu"]) for c in selection["pRW"]["candidates"]] == [
            (a, lam, mu) for a in (0.0, 1.0) for lam in (0.5, 0.9) for mu in (0.5, 1.0)
        ]
        assert selection["Fusion"]["candidates"] == [{"fuse_weight": 0.3}, {"fuse_weight": 0.7}]

    def test_empty_validation_split_exits_1(self, tmp_path, capsys):
        # each user saved two items: one trains and one is held out, and the
        # validation split of one training save holds nothing out
        src = tmp_path / "two_each.tsv"
        src.write_text("".join(f"u{u}\ti{(u + k) % 4}\tt\n" for u in range(4) for k in range(2)))
        path = str(tmp_path / "two_each.json")
        assert main(["ingest", "--input", str(src), "--dataset", path]) == 0
        capsys.readouterr()
        assert main([
            "evaluate", "--dataset", path, "--algorithms", "pRW", "--alpha", "0,1",
            "--train-fraction", "0.5", "--runs", "1", "--output-dir", str(tmp_path / "o"),
        ]) == 1
        assert "no user has a held-out save in the validation split" in one_line_error(capsys)


def test_output_keys_are_the_record_fields(tmp_path, capsys):
    # the keys that readers of the outputs rely on; renaming a record field
    # renames its key
    metric_keys = {"precision", "recall", "f_measure", "rankscore"}
    ds = str(tmp_path / "tiny.json")
    assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset", ds,
                 "--format", "json"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "num_users", "num_items", "num_selected_tags", "num_total_tags", "num_transactions",
        "density_percent", "avg_items_per_user", "avg_users_per_item",
    }
    out = tmp_path / "out"
    common = ["--dataset", ds, "--runs", "2", "--output-dir", str(out)]
    assert main(["evaluate", *common, "--algorithms", "Random,pRW"]) == 0
    entries = json.loads((out / "report.json").read_text())
    assert main(["evaluate", *common, "--algorithms", "UserCF", "--train-fraction", "0.5,0.6"]) == 0
    for fraction in ("0.5", "0.6"):
        entries += json.loads((out / f"train-{fraction}" / "report.json").read_text())
    assert main(["evaluate", *common, "--algorithms", "pRW", "--eta", "0.5,0.9"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert set(doc) == {"reports", "selection"}
    entries += doc["reports"]
    assert len(entries) == 5
    for entry in entries:
        assert set(entry) == {"algorithm", "means", "runs", "seeds", "top_n"}
        assert [set(m) for m in [entry["means"], *entry["runs"]]] == [metric_keys] * 3
    assert set(doc["selection"]) == {"pRW"}
    assert set(doc["selection"]["pRW"]) == {"candidates", "chosen", "validation_precision"}


def test_params_are_named_after_evaluate_flags(tmp_path):
    # every algorithm's params and candidates are its options by the dest of
    # evaluate's flag, and a walk variant's are the five its walk runs with
    ds = str(tmp_path / "tiny.json")
    assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset", ds]) == 0
    common = ["--dataset", ds, "--algorithms", ",".join(ALGORITHM_KINDS), "--runs", "1"]
    assert main(["evaluate", *common, "--output-dir", str(tmp_path / "one")]) == 0
    assert main(["evaluate", *common, "--alpha", "0,1", "--eta", "0.5,0.8", "--lambda", "0.5,0.8",
                 "--k-neighbors", "2,4",
                 "--fuse-weight", "0.3,0.7", "--output-dir", str(tmp_path / "tuned")]) == 0
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subparsers.choices["evaluate"]._actions if a.option_strings}
    reports = json.loads((tmp_path / "one" / "report.json").read_text())
    assert [r["algorithm"]["kind"] for r in reports] == list(ALGORITHM_KINDS)
    for report in reports:
        params = report["algorithm"]["params"]
        assert set(params) <= dests
        if report["algorithm"]["kind"] in ABLATION_KINDS:
            assert set(params) == set(WALK_DEFAULTS)
    selection = json.loads((tmp_path / "tuned" / "report.json").read_text())["selection"]
    assert set(selection) == set(ALGORITHM_KINDS) - {"Random"}
    for kind, tuned in selection.items():
        for candidate in tuned["candidates"]:
            assert set(candidate) <= dests
            assert kind not in ABLATION_KINDS or set(candidate) == set(WALK_DEFAULTS)


class TestAblate:
    def test_four_rows_with_identities(self, dataset_file, tmp_path):
        out = str(tmp_path / "ab")
        assert main([
            "ablate", "--dataset", dataset_file, "--runs", "1",
            "--alpha", "1.0", "--mu", "1.0", "--output-dir", out,
        ]) == 0
        doc = json.loads(Path(out, "report.json").read_text())
        kinds = [r["algorithm"]["kind"] for r in doc]
        assert kinds == ["pRW-IT", "pRW-UT", "pRW-UI", "pRW"]
        by_kind = {r["algorithm"]["kind"]: r["means"] for r in doc}
        # with alpha=1, mu=1 the full walk is the item-only variant
        assert by_kind["pRW"] == by_kind["pRW-IT"]

    def test_each_variant_is_tuned_over_the_options_it_reads(self, dataset_file, tmp_path,
                                                             monkeypatch):
        calls = []

        def spy_run(spec, *args):
            calls.append(spec.kind)
            return run_algorithm(spec, *args)

        monkeypatch.setattr(evaluation, "run_algorithm", spy_run)
        assert main([
            "ablate", "--dataset", dataset_file, "--runs", "2", "--alpha", "0,0.5,1",
            "--mu", "0.3,0.5,0.7", "--output-dir", str(tmp_path / "ab"),
        ]) == 0
        # per run: pRW's 9 candidates and pRW-UI's 3 (mu) on validation, then
        # each variant's choice on test; pRW-IT and pRW-UT read neither flag
        assert Counter(calls) == {"pRW": 2 * 10, "pRW-UI": 2 * 4, "pRW-IT": 2, "pRW-UT": 2}
        assert len(calls) == 2 * 16

    def test_reports_the_values_each_variant_ran_with(self, dataset_file, tmp_path):
        common = ["--dataset", dataset_file, "--runs", "2"]
        assert main(["ablate", *common, "--alpha", "0,1", "--mu", "0.5,1",
                     "--output-dir", str(tmp_path / "lists")]) == 0
        assert main(["ablate", *common, "--output-dir", str(tmp_path / "plain")]) == 0
        assert main(["evaluate", *common, "--algorithms", "pRW", "--alpha", "0", "--beta", "0",
                     "--mu", "0.5,1", "--output-dir", str(tmp_path / "ui")]) == 0
        doc = json.loads((tmp_path / "lists" / "report.json").read_text())
        plain = json.loads((tmp_path / "plain" / "report.json").read_text())
        ui = json.loads((tmp_path / "ui" / "report.json").read_text())
        selection = doc["selection"]
        assert {kind: len(s["candidates"]) for kind, s in selection.items()} == {
            "pRW": 4, "pRW-UI": 2}
        assert [c["mu"] for c in selection["pRW-UI"]["candidates"]] == [0.5, 1.0]
        reports = {r["algorithm"]["kind"]: r for r in doc["reports"]}
        # the untuned variants report the values their walks ran with, and
        # the flags they do not read leave their reports as they are
        it, ut = (reports[kind]["algorithm"]["params"] for kind in ("pRW-IT", "pRW-UT"))
        assert (it["alpha"], it["mu"]) == (1.0, 1.0)
        assert (ut["beta"], ut["mu"]) == (1.0, 0.0)
        for kind in ("pRW-IT", "pRW-UT"):
            assert reports[kind] == next(r for r in plain if r["algorithm"]["kind"] == kind)
        # pRW-UI is pRW at alpha = beta = 0, tuned over mu alone
        assert reports["pRW-UI"]["means"] == ui["reports"][0]["means"]
        assert selection["pRW-UI"] == ui["selection"]["pRW"]

    def test_same_report_as_evaluate_of_the_walk_variants(self, dataset_file, tmp_path):
        common = ["--dataset", dataset_file, "--runs", "2", "--alpha", "0.3", "--mu", "0.6"]
        assert main(["ablate", *common, "--output-dir", str(tmp_path / "ab")]) == 0
        assert main([
            "evaluate", *common, "--algorithms", "pRW-IT,pRW-UT,pRW-UI,pRW",
            "--output-dir", str(tmp_path / "ev"),
        ]) == 0
        assert (tmp_path / "ab" / "report.json").read_bytes() == (
            tmp_path / "ev" / "report.json").read_bytes()


class TestFractions:
    def test_one_directory_per_fraction(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "fr"
        common = ["--dataset", dataset_file, "--algorithms", "Random,pRW", "--runs", "1"]
        assert main(["evaluate", *common, "--train-fraction", "0.2,0.4",
                     "--output-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [lines[0], lines[5]] == ["train-0.2", "train-0.4"]
        assert lines[1].split()[0] == "Alg." and lines[2].split()[0] == "Random"
        assert sorted(p.name for p in out.iterdir()) == ["train-0.2", "train-0.4"]
        # each fraction's files are those of a run at that fraction alone
        for fraction in ("0.2", "0.4"):
            alone = tmp_path / fraction
            assert main(["evaluate", *common, "--train-fraction", fraction,
                         "--output-dir", str(alone)]) == 0
            directory = out / f"train-{fraction}"
            for name in ("report.json", "report.txt", "runs.csv"):
                assert (directory / name).read_bytes() == (alone / name).read_bytes()
            assert (directory / "manifest.json").exists()

    def test_json_output_names_each_fraction(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "fr"
        assert main(["evaluate", "--dataset", dataset_file, "--algorithms", "Random",
                     "--runs", "1", "--train-fraction", "0.2,0.4", "--format", "json",
                     "--output-dir", str(out)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown == {f"train-{f}": json.loads((out / f"train-{f}" / "report.json").read_text())
                         for f in ("0.2", "0.4")}

    def test_fractions_that_print_alike_get_their_own_directory(self, dataset_file, tmp_path):
        out = tmp_path / "fr"
        assert main(["evaluate", "--dataset", dataset_file, "--algorithms", "Random",
                     "--runs", "1", "--train-fraction", "0.30,0.3000001",
                     "--output-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["train-0.3", "train-0.3000001"]

    def test_bad_fraction_usage_error(self, dataset_file, tmp_path):
        assert main([
            "evaluate", "--dataset", dataset_file, "--train-fraction", "0.2,1.4",
            "--output-dir", str(tmp_path / "x"),
        ]) == 2


class TestAliases:
    @pytest.mark.parametrize("alias, flags, evaluate_flags", [
        ("sweep", ["--runs", "2"], ["--runs", "2", "--algorithms", "UserCF,ItemCF,Fusion,pRW",
                                    "--train-fraction", "0.05,0.1,0.2"]),
        ("grid", ["--alpha", "0,1"], ["--runs", "1", "--algorithms", "pRW", "--alpha", "0,1"]),
        ("grid", [], ["--runs", "1", "--algorithms", "pRW"]),
    ], ids=["sweep", "grid", "grid-one-candidate"])
    def test_alias_is_evaluate(self, dataset_file, tmp_path, alias, flags, evaluate_flags):
        alias_out, evaluate_out = tmp_path / "alias", tmp_path / "ev"
        assert main([alias, "--dataset", dataset_file, *flags, "--output-dir", str(alias_out)]) == 0
        assert main(["evaluate", "--dataset", dataset_file, *evaluate_flags,
                     "--output-dir", str(evaluate_out)]) == 0

        def report_files(out):
            return sorted(p.relative_to(out) for p in out.rglob("*")
                          if p.is_file() and p.name != "manifest.json")

        assert report_files(alias_out) == report_files(evaluate_out)
        assert len(report_files(alias_out)) == (9 if alias == "sweep" else 3)
        for name in report_files(alias_out):
            assert (alias_out / name).read_bytes() == (evaluate_out / name).read_bytes()

    def test_grid_runs_once_by_default(self, dataset_file, tmp_path):
        out = tmp_path / "gr"
        assert main([
            "grid", "--dataset", dataset_file, "--lambda", "0.5,0.9", "--output-dir", str(out),
        ]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert [r["algorithm"]["kind"] for r in doc["reports"]] == ["pRW"]
        assert doc["reports"][0]["seeds"] == [0]
        assert [c["lambda_"] for c in doc["selection"]["pRW"]["candidates"]] == [0.5, 0.9]


class TestConfigFile:
    def test_config_supplies_defaults_but_flags_win(self, dataset_file, tmp_path, capsys):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text("runs = 2\nseed = 9\ntop-n = 4\n")
        out = str(tmp_path / "cfg_out")
        assert main([
            "--config", str(cfg), "evaluate", "--dataset", dataset_file,
            "--algorithms", "Random", "--runs", "1", "--output-dir", out,
        ]) == 0
        doc = json.loads(Path(out, "report.json").read_text())
        assert len(doc[0]["runs"]) == 1  # flag beats config
        assert doc[0]["seeds"] == [9]  # config beats default
        assert doc[0]["top_n"] == 4

    def test_byte_order_mark_is_no_part_of_the_first_key(self, dataset_file, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfruns = 2\nseed = 9\n")
        common = ["--dataset", dataset_file, "--algorithms", "Random,pRW"]
        assert main(["--config", str(cfg), "evaluate", *common,
                     "--output-dir", str(tmp_path / "cfg")]) == 0
        assert main(["evaluate", *common, "--runs", "2", "--seed", "9",
                     "--output-dir", str(tmp_path / "flags")]) == 0
        for name in ("report.json", "report.txt", "runs.csv"):
            assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


def snapshot(users, items, tags=(), total_tag_count=0, **matrices) -> bytes:
    """A dataset file's bytes; a matrix not given is empty, and an empty PT
    has one row per entry of the UI given."""
    ui_entries = len(matrices.get("UI", {"data": []})["data"])
    rows = {"UI": len(users), "PT": ui_entries}
    empty = {key: {"indptr": [0] * (m + 1), "indices": [], "data": []} for key, m in rows.items()}
    return json.dumps({
        "format_version": 3, "users": users, "items": items, "tags": list(tags),
        "total_tag_count": total_tag_count, **empty, **matrices,
    }).encode()


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# the experiment commands' range-checked options a command does not have
ABSENT_OPTIONS = {
    "ablate": ("--fuse-weight", "--k-neighbors"),
    "sweep": ("--train-fraction",),
    "grid": ("--fuse-weight", "--k-neighbors"),
}
BAD_OPTIONS = [
    ("--train-fraction", "1.5"), ("--train-fraction", "0"), ("--runs", "0"),
    ("--half-life", "1"), ("--half-life", "0"), ("--fuse-weight", "2"),
    ("--fuse-weight", "-0.1"), ("--top-n", "0"), ("--k-neighbors", "0"),
    ("--k-neighbors", "-1"), ("--seed", "-1"),
    # one value of a comma list
    ("--train-fraction", "0.2,1.5"), ("--k-neighbors", "5,0"), ("--fuse-weight", "0.5,1.5"),
]
# out of range, a density minimum given without the other one, or the
# density filter's threshold without the filter
BAD_INGEST_OPTIONS = [
    ("--select-tags", "0"), ("--min-items-per-user", "0"), ("--min-users-per-item", "0"),
    ("--unqualified-threshold", "0"), ("--min-items-per-user", "2"),
    ("--min-users-per-item", "2"), ("--unqualified-threshold", "5"),
]


class TestBadInput:
    @pytest.mark.parametrize("command", ["recommend", "evaluate", "ablate", "sweep", "grid"])
    @pytest.mark.parametrize(
        "flag, value", [("--eta", "1.0"), ("--lambda", "1"), ("--alpha", "2"), ("--mu", "-1"),
                        ("--beta", "-0.5")]
    )
    def test_out_of_range_hyperparameter_exits_2(self, dataset_file, tmp_path, capsys,
                                                 command, flag, value):
        argv = [command, "--dataset", dataset_file, flag, value]
        if command != "recommend":
            argv += ["--runs", "1", "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert flag.lstrip("-") in one_line_error(capsys)

    @pytest.mark.parametrize(
        "command, flag, value",
        [(command, flag, value)
         for command in ("evaluate", "ablate", "sweep", "grid")
         for flag, value in BAD_OPTIONS
         if flag not in ABSENT_OPTIONS.get(command, ())]
        + [("ingest", flag, value) for flag, value in BAD_INGEST_OPTIONS],
    )
    def test_out_of_range_option_exits_2_before_loading(self, tmp_path, capsys,
                                                        command, flag, value):
        # the dataset (or ingest's input) does not exist: reading it would exit 1, not 2
        if command == "ingest":
            argv = ["ingest", "--input", str(tmp_path / "missing.tsv"),
                    "--dataset", str(tmp_path / "ds.json"), flag, value]
        else:
            argv = [command, "--dataset", str(tmp_path / "missing.json"), flag, value,
                    "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert f"{flag} must be" in one_line_error(capsys)

    @pytest.mark.parametrize(
        "command, flag, value",
        [("sweep", "--train-fraction", "0.3"), ("ablate", "--k-neighbors", "5"),
         ("ablate", "--fuse-weight", "0.3"), ("sweep", "--fractions", "0.2"),
         ("grid", "--objective", "recall")],
    )
    def test_flag_the_command_does_not_use_exits_2(self, dataset_file, tmp_path, capsys,
                                                    command, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--dataset", dataset_file, flag, value,
                  "--output-dir", str(tmp_path / "o")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_unqualified_threshold_from_config_without_the_minimums_exits_2(self, tmp_path,
                                                                           capsys):
        # the input does not exist: reading it would exit 1, not 2
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text("unqualified-threshold = 5\n")
        assert main([
            "--config", str(cfg), "ingest", "--input", str(tmp_path / "missing.tsv"),
            "--dataset", str(tmp_path / "ds.json"),
        ]) == 2
        assert "--unqualified-threshold must be given with" in one_line_error(capsys)

    def test_out_of_range_option_from_config_exits_2(self, dataset_file, tmp_path, capsys):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text("k-neighbors = 0\n")
        assert main([
            "--config", str(cfg), "evaluate", "--dataset", dataset_file,
            "--algorithms", "UserCF", "--runs", "1", "--output-dir", str(tmp_path / "o"),
        ]) == 2
        assert "--k-neighbors must be >= 1" in one_line_error(capsys)

    @pytest.mark.parametrize("command, flags, message", [
        ("evaluate", ["--algorithms", "Random", "--eta", "1"], "eta must be in [0, 1), got 1.0"),
        ("evaluate", ["--algorithms", "Random,UserCF", "--lambda", "0.5,1"],
         "lambda must be in [0, 1), got 1.0"),
        ("recommend", ["--algorithm", "pRW-IT", "--alpha", "5"], "alpha must be in [0, 1], got 5.0"),
        ("recommend", ["--algorithm", "ItemCF", "--mu", "-1"], "mu must be in [0, 1], got -1.0"),
    ], ids=["evaluate", "evaluate-list", "recommend-fixed", "recommend"])
    def test_walk_value_is_checked_whatever_the_algorithms(self, tmp_path, capsys, command,
                                                          flags, message):
        # no named algorithm reads the value (pRW-IT fixes alpha), and the
        # dataset does not exist: reading it would exit 1, not 2
        argv = [command, "--dataset", str(tmp_path / "missing.json"), *flags]
        if command != "recommend":
            argv += ["--output-dir", str(tmp_path / "o")]
        assert main(argv) == 2
        assert one_line_error(capsys) == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["evaluate", "grid"])
    def test_out_of_range_list_value_exits_2_before_loading(self, tmp_path, capsys, command):
        # the dataset does not exist: reading it would exit 1, not 2
        assert main([
            command, "--dataset", str(tmp_path / "missing.json"), "--eta", "0.5,1.0",
            "--output-dir", str(tmp_path / "g"),
        ]) == 2
        assert "eta must be in [0, 1), got 1.0" in one_line_error(capsys)

    @pytest.mark.parametrize("command, flags, message", [
        ("evaluate", ["--train-fraction", "0.1,0.1"], "--train-fraction names 0.1 more than once"),
        ("evaluate", ["--train-fraction", "0.2,0.5,0.20"],
         "--train-fraction names 0.2 more than once"),
        ("evaluate", ["--alpha", "0,0"], "--alpha names 0 more than once"),
        ("evaluate", ["--mu", "0.5", "--lambda", "0.3, 0.9,0.3"],
         "--lambda names 0.3 more than once"),
        ("evaluate", ["--k-neighbors", "10,20,10"], "--k-neighbors names 10 more than once"),
        ("grid", ["--alpha", "0,0"], "--alpha names 0 more than once"),
    ], ids=["fraction", "fraction-same-float", "alpha", "lambda", "k-neighbors", "grid"])
    def test_repeated_value_exits_2_before_loading(self, tmp_path, capsys, command, flags,
                                                   message):
        # the dataset does not exist: reading it would exit 1, not 2; run
        # twice, a repeated value would give a candidate twice or write a
        # fraction's directory twice
        assert main([
            command, "--dataset", str(tmp_path / "missing.json"), *flags,
            "--output-dir", str(tmp_path / "o"),
        ]) == 2
        assert message in one_line_error(capsys)

    @pytest.mark.parametrize("flag", ["--eta", "--train-fraction", "--k-neighbors"])
    def test_empty_list_exits_2(self, tmp_path, capsys, flag):
        assert main([
            "evaluate", "--dataset", str(tmp_path / "missing.json"), flag, ",",
            "--output-dir", str(tmp_path / "g"),
        ]) == 2
        assert f"{flag} needs at least one value" in one_line_error(capsys)

    @pytest.mark.parametrize(
        "config, flags",
        [("", ["--t-test", "--runs", "1"]), ("t-test = true\nruns = 1\n", [])],
    )
    def test_t_test_with_one_run_exits_2_before_loading(self, tmp_path, capsys, config, flags):
        # the dataset does not exist: reading it would exit 1, not 2
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text(config)
        assert main([
            "--config", str(cfg), "evaluate", "--dataset", str(tmp_path / "missing.json"),
            *flags, "--output-dir", str(tmp_path / "o"),
        ]) == 2
        assert "--t-test needs --runs >= 2, got 1" in one_line_error(capsys)

    @pytest.mark.parametrize(
        "config, flags",
        [("", ["--t-test", "--algorithms", "pRW"]),
         ("t-test = true\nalgorithms = pRW,\n", [])],
    )
    def test_t_test_with_one_algorithm_exits_2_before_loading(self, tmp_path, capsys,
                                                             config, flags):
        # the dataset does not exist: reading it would exit 1, not 2
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text(config)
        assert main([
            "--config", str(cfg), "evaluate", "--dataset", str(tmp_path / "missing.json"),
            "--runs", "2", *flags, "--output-dir", str(tmp_path / "o"),
        ]) == 2
        assert "--t-test needs at least two --algorithms" in one_line_error(capsys)

    @pytest.mark.parametrize("command, flags", [
        ("evaluate", ["--algorithms", "pRW,pRW"]),
        ("evaluate", ["--algorithms", "UserCF, pRW,pRW ", "--t-test", "--runs", "3"]),
        ("sweep", ["--algorithms", "pRW,ItemCF,pRW"]),
    ], ids=["evaluate", "evaluate-t-test", "sweep"])
    def test_repeated_algorithm_exits_2_before_loading(self, tmp_path, capsys, command, flags):
        # the dataset does not exist: reading it would exit 1, not 2
        assert main([
            command, "--dataset", str(tmp_path / "missing.json"), *flags,
            "--output-dir", str(tmp_path / "o"),
        ]) == 2
        assert "--algorithms names 'pRW' more than once" in one_line_error(capsys)

    def test_t_test_in_config_leaves_ablate_alone(self, dataset_file, tmp_path):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text("t-test = true\n")
        out = tmp_path / "o"
        assert main([
            "--config", str(cfg), "ablate", "--dataset", dataset_file, "--runs", "1",
            "--output-dir", str(out),
        ]) == 0
        assert isinstance(json.loads((out / "report.json").read_text()), list)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"format_version": 1, "users": [', "not JSON"),
            pytest.param(b"[" * 100000, "not JSON", id="nested-past-the-recursion-limit"),
            pytest.param(b'{"format_version": ' + b"1" * 5000 + b"}", "not JSON",
                         id="integer-over-4300-digits"),
            (b"\xff\xfe\x00", "utf-8"),
            (b'{"format_version": 3}', "missing fields"),
            (b'{"users": ["a"]}', "missing fields"),
            (b'{"format_version": 1, "users": ["a"], "items": ["x"], "tags": [], '
             b'"total_tag_count": 0, "UI": [[0, 0, 1.0]], "UT": [], "IT": []}',
             "unsupported dataset format_version 1"),
            (b'{"format_version": 2, "users": ["a"], "items": ["x"], "tags": [], '
             b'"total_tag_count": 0, "UI": {"indptr": [0, 1], "indices": [0], "data": [1.0]}, '
             b'"UT": {"indptr": [0, 0], "indices": [], "data": []}, '
             b'"IT": {"indptr": [0, 0], "indices": [], "data": []}}',
             "unsupported dataset format_version 2"),
            (snapshot(["a", "a"], []), "duplicate user id 'a'"),
            (snapshot(["a"], ["x", "y"], UI={"indptr": [0, 1], "indices": [0.7], "data": [1.0]}),
             "UI: entry index is not an integer"),
            (snapshot(["a", "b"], ["x", "y"],
                      UI={"indptr": [0, 1, 2], "indices": [0, True], "data": [1.0, 1.0]}),
             "UI: entry holds a boolean"),
            (b'{"format_version": 3, "users": ["a"], "items": ["x"], "tags": [], '
             b'"total_tag_count": 0, "UI": {"indptr": [0, 2], "indices": [0], "data": [1.0]}, '
             b'"PT": {"indptr": [0, 0], "indices": [], "data": []}}',
             "UI: indptr ends at 2"),
            (b'{"format_version": 3, "users": ["a"], "items": ["x"], "tags": [], '
             b'"total_tag_count": 0, "UI": {"indptr": [0, 1], "indices": [0], "data": [true]}, '
             b'"PT": {"indptr": [0, 0], "indices": [], "data": []}}',
             "UI: entry holds a boolean"),
            (b'{"format_version": 3, "users": ["a"], "items": ["x"], "tags": [], '
             b'"total_tag_count": 0, "UI": [[0, 0, 1.0]], "PT": []}',
             "UI: expected an object with indptr, indices and data"),
            (snapshot(["a"], ["x", "y"], UI={"indptr": [0, 2], "indices": [1, 0], "data": [1, 1]}),
             "UI: duplicate or out-of-order column index"),
            (snapshot(["a"], ["x", "y"], UI={"indptr": [0, 2], "indices": [0, 1], "data": [1, 0]}),
             "UI: stored zero"),
            (snapshot(["a"], ["x"], ["t"], 1, UI={"indptr": [0, 1], "indices": [0], "data": [1]},
                      PT={"indptr": [0, 1, 1], "indices": [0], "data": [1]}),
             "PT: indptr has length 3, expected 2"),
            (snapshot(["a"], ["x"], total_tag_count=True), "total_tag_count must be an integer >= 0"),
            (snapshot(["a"], ["x"], ["t", "s"], total_tag_count=1),
             "total_tag_count must be an integer >= 2"),
            (snapshot(["a"], ["x"], ["t"], total_tag_count=-1),
             "total_tag_count must be an integer >= 1"),
        ],
    )
    def test_bad_dataset_file_exits_1(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["recommend", "--dataset", str(path)]) == 1
        err = one_line_error(capsys)
        assert str(path) in err and message in err

    @pytest.mark.parametrize("users, items", [([], ["x"]), (["a"], [])])
    @pytest.mark.parametrize("command", ["recommend", "evaluate"])
    def test_dataset_without_users_or_items_exits_1(self, tmp_path, capsys, command,
                                                    users, items):
        path = tmp_path / "empty.json"
        path.write_bytes(snapshot(users, items))
        argv = [command, "--dataset", str(path)]
        if command == "evaluate":
            argv += ["--runs", "1", "--output-dir", str(tmp_path / "o")]
        assert main(argv) == 1
        err = one_line_error(capsys)
        assert str(path) in err and "no users or no items" in err

    @pytest.mark.parametrize("command, flags", [
        ("recommend", "--eta 0.99999999999999 --lambda 0.99999999999999"),
        # no tag chains: the walks are their Cholesky bases alone
        ("recommend", "--eta 0.99999999999999 --lambda 0.99999999999999 --alpha 0 --beta 0"),
        # pRW-IT's walk is a tags x tags LU inverse
        ("recommend", "--algorithm pRW-IT --eta 0.99999999999999"),
        ("evaluate", "--algorithms pRW --eta 0.99999999999999 --lambda 0.99999999999999"),
    ])
    def test_singular_walk_exits_1_naming_the_damping(self, tmp_path, capsys, command, flags):
        # a damping this close to 1 leaves the walk's system singular to
        # working precision
        path = str(tmp_path / "tiny.json")
        assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset", path]) == 0
        capsys.readouterr()
        argv = [command, "--dataset", path, *flags.split()]
        if command == "evaluate":
            argv += ["--runs", "1", "--output-dir", str(tmp_path / "o")]
        assert main(argv) == 1
        err = one_line_error(capsys)
        assert "damping (--eta or --lambda) too close to 1" in err and "singular" in err

    @pytest.mark.parametrize("command", ["evaluate", "ablate", "sweep", "grid"])
    def test_no_held_out_save_exits_1(self, tmp_path, capsys, command):
        # each user saved one item, and a split trains on at least one per user
        src = tmp_path / "one_each.tsv"
        src.write_text("u1\ti1\t\nu2\ti2\t\nu3\ti1\t\n")
        path = str(tmp_path / "one_each.json")
        assert main(["ingest", "--input", str(src), "--dataset", path]) == 0
        capsys.readouterr()
        argv = [command, "--dataset", path, "--runs", "1", "--output-dir", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "no user has a non-empty test set" in one_line_error(capsys)

    @pytest.mark.parametrize("command", ["evaluate", "ablate", "sweep", "grid"])
    def test_output_dir_that_is_a_file_exits_1_before_any_split(
        self, dataset_file, tmp_path, capsys, monkeypatch, command
    ):
        def unreached(*args, **kwargs):
            raise AssertionError("run_experiment ran before --output-dir was made")

        monkeypatch.setattr(evaluation, "run_experiment", unreached)
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = [command, "--dataset", dataset_file, "--runs", "1", "--output-dir", str(taken)]
        assert main(argv) == 1
        err = one_line_error(capsys)
        assert "File exists" in err and str(taken) in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("bogus = 1", "unknown config key 'bogus'"),
            ("tol = 1e-6", "unknown config key 'tol'"),
            ("max-iters = 5", "unknown config key 'max_iters'"),
            ("eta = abc", "config key 'eta': expected float, got 'abc'"),
            ("runs = 2.5", "config key 'runs': expected int, got '2.5'"),
            ("format = xml", "config key 'format'"),
            ("t-test = maybe", "config key 't_test'"),
            ("k-neighbors = 10,x", "config key 'k_neighbors': expected int, got '10,x'"),
            ("alpha = 0.5,0.5", "--alpha names 0.5 more than once"),
            ("objective = recall", "unknown config key 'objective'"),
            ("fractions = 0.2,0.4", "unknown config key 'fractions'"),
        ],
    )
    def test_bad_config_line_exits_2(self, dataset_file, tmp_path, capsys, line, message):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text(line + "\n")
        assert main([
            "--config", str(cfg), "evaluate", "--dataset", dataset_file,
            "--algorithms", "Random", "--runs", "1", "--output-dir", str(tmp_path / "o"),
        ]) == 2
        assert message in one_line_error(capsys)

    @pytest.mark.parametrize("content", [b"u1\ti1\tt\xff\n", b"u1\ti1\ta\n" * 5000 + b"\xc3("])
    def test_non_utf8_triple_file_exits_1(self, tmp_path, capsys, content):
        src = tmp_path / "bad.tsv"
        src.write_bytes(content)
        out = tmp_path / "x.json"
        assert main(["ingest", "--input", str(src), "--dataset", str(out)]) == 1
        err = one_line_error(capsys)
        assert f"{src}: not UTF-8 text" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_config_file_exits_2(self, dataset_file, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"eta = 0.5\n\xff\n")
        assert main([
            "--config", str(cfg), "evaluate", "--dataset", dataset_file,
            "--algorithms", "Random", "--runs", "1", "--output-dir", str(tmp_path / "o"),
        ]) == 2
        err = one_line_error(capsys)
        assert f"{cfg}: not UTF-8 text: byte 0xff" in err and "Traceback" not in err

    def test_config_keys_of_other_commands_are_accepted(self, dataset_file, tmp_path):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text("select-tags = 10\nalgorithm = ItemCF\n")
        assert main([
            "--config", str(cfg), "evaluate", "--dataset", dataset_file,
            "--algorithms", "Random", "--runs", "1", "--output-dir", str(tmp_path / "o"),
        ]) == 0

    def test_abbreviated_flag_beats_config(self, dataset_file, tmp_path):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text("runs = 3\n")
        out = tmp_path / "o"
        assert main([
            "--config", str(cfg), "evaluate", "--dataset", dataset_file,
            "--algorithms", "Random", "--run", "1", "--output-dir", str(out),
        ]) == 0
        assert len(json.loads((out / "report.json").read_text())[0]["runs"]) == 1

    def test_flag_given_with_equals_beats_config(self, dataset_file, tmp_path):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text("runs = 2\n")
        out = tmp_path / "o"
        assert main([
            "--config", str(cfg), "evaluate", "--dataset", dataset_file,
            "--algorithms", "Random", "--runs=1", "--output-dir", str(out),
        ]) == 0
        assert len(json.loads((out / "report.json").read_text())[0]["runs"]) == 1

    def test_config_supplies_required_options(self, triples_file, dataset_file, tmp_path):
        # argparse checks required options before the config file is read
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text(f"input = {triples_file}\ndataset = {dataset_file}\n")
        assert main(["--config", str(cfg), "ingest", "--dataset", str(tmp_path / "cfg.json")]) == 0
        assert (tmp_path / "cfg.json").read_bytes() == Path(dataset_file).read_bytes()
        runs = ["--algorithms", "Random", "--runs", "1", "--output-dir"]
        configured, flagged = tmp_path / "cfg_out", tmp_path / "out"
        assert main(["--config", str(cfg), "evaluate", *runs, str(configured)]) == 0
        assert main(["evaluate", "--dataset", dataset_file, *runs, str(flagged)]) == 0
        for name in ("report.json", "runs.csv"):
            assert (configured / name).read_bytes() == (flagged / name).read_bytes()
        # a flag still wins
        cfg.write_text(f"dataset = {tmp_path / 'missing.json'}\n")
        argv = ["--config", str(cfg), "evaluate", "--dataset", dataset_file, *runs]
        assert main([*argv, str(tmp_path / "flag_out")]) == 0

    def test_config_dataset_is_never_the_ingest_output(self, triples_file, dataset_file,
                                                       tmp_path, capsys):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text(f"dataset = {dataset_file}\n")
        before = Path(dataset_file).read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "ingest", "--input", triples_file])
        assert exc.value.code == 2
        assert "the following arguments are required: --dataset" in capsys.readouterr().err
        assert Path(dataset_file).read_bytes() == before

    def test_config_error_is_reported_when_it_supplies_the_dataset(self, dataset_file, tmp_path,
                                                                   capsys):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text(f"dataset = {dataset_file}\nbogus = 1\n")
        assert main(["--config", str(cfg), "evaluate", "--runs", "1"]) == 2
        assert "unknown config key 'bogus'" in capsys.readouterr().err
        assert main(["--config", str(tmp_path / "missing.cfg"), "evaluate", "--runs", "1"]) == 1
        assert "missing.cfg" in capsys.readouterr().err

    def test_required_option_in_neither_place_is_the_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text("runs = 2\n")
        with pytest.raises(SystemExit) as plain:
            main(["evaluate", "--runs", "1"])
        want = capsys.readouterr().err
        with pytest.raises(SystemExit) as configured:
            main(["--config", str(cfg), "evaluate", "--runs", "1"])
        assert plain.value.code == configured.value.code == 2
        assert capsys.readouterr().err == want
        assert want.startswith("usage: folkwalk evaluate ") and "[--dataset" not in want
        assert want.endswith("error: the following arguments are required: --dataset\n")


def loaded_modules(tmp_path, statement: str) -> set[str]:
    """The modules a fresh interpreter has loaded when it ends, after it ran
    ``statement`` in ``tmp_path``; the statement must exit with status 0."""
    code = (
        "import atexit, pathlib, sys\n"
        "atexit.register(lambda: pathlib.Path('modules.txt').write_text(' '.join(sys.modules)))\n"
        + statement
    )
    run = run_python("-c", code, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    return set((tmp_path / "modules.txt").read_text().split())


def scipy_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


# a module each numpy submodule the package defers imports when its body runs
DEFERRED_BODIES = (
    "numpy.f2py.crackfortran", "numpy.testing._private.utils", "numpy.polynomial.polynomial",
    "numpy.ma.core",
)

# every numpy.<name> whose body a scoring run executes, numpy 2.4 with scipy
# 1.17; a new name here is a module an upgrade pulls in, and what it costs
# shows up as peak RSS and setup time
NUMPY_BODIES_RUN_BY_SCORING = frozenset({
    "__config__", "_array_api_info", "_core", "_distributor_init", "_expired_attrs_2_0",
    "_globals", "_pytesttester", "_typing", "_utils", "char", "core", "ctypeslib", "dtypes",
    "exceptions", "fft", "lib", "linalg", "matrixlib", "random", "rec", "strings", "typing",
    "version",
})


@pytest.fixture(scope="module")
def scoring_modules(tmp_path_factory) -> tuple[set[str], set[str]]:
    """(every module loaded, every numpy.<name> whose body ran) after one
    fresh interpreter evaluated every algorithm on tiny.tsv with --t-test.
    A lazy module is a subclass of ModuleType until its body runs."""
    tmp_path = tmp_path_factory.mktemp("scoring")
    assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset",
                 str(tmp_path / "ds.json")]) == 0
    modules = loaded_modules(tmp_path, (
        "import types\n"
        "atexit.register(lambda: pathlib.Path('ran.txt').write_text(' '.join(\n"
        "    name.split('.')[1] for name, module in list(sys.modules.items())\n"
        "    if name.startswith('numpy.') and type(module) is types.ModuleType)))\n"
        "from folkwalk.cli import main\nsys.exit(main(['evaluate', '--dataset', 'ds.json',"
        f" '--algorithms', {','.join(ALGORITHM_KINDS)!r}, '--runs', '2', '--t-test',"
        " '--output-dir', 'out']))"
    ))
    return modules, set((tmp_path / "ran.txt").read_text().split())


class TestImports:
    @pytest.mark.parametrize("statement", [
        "import folkwalk",
        "import folkwalk.cli",
        # the console script's entry point, as `folkwalk --help` runs it
        "from folkwalk.cli import main\nsys.argv[1:] = ['--help']\nsys.exit(main())",
        "import runpy\nsys.argv[1:] = ['ingest', '--help']\n"
        "runpy.run_module('folkwalk.cli', run_name='__main__')",
        f"from folkwalk.cli import main\nsys.exit(main(['ingest', '--input', {str(DATA / 'tiny.tsv')!r},"
        " '--dataset', 'ds.json', '--select-tags', '3']))",
    ], ids=["import-package", "import-cli", "help", "module-ingest-help", "ingest-tiny"])
    def test_leave_scipy_unloaded(self, tmp_path, statement):
        # nor does any of them run a deferred numpy body: ingest counts the
        # tags in use without np.unique, which would run numpy.ma's
        modules = loaded_modules(tmp_path, statement)
        assert "numpy" in modules
        assert not scipy_modules(modules)
        assert not modules & set(DEFERRED_BODIES)

    def test_cf_evaluation_leaves_scipy_linalg_unloaded(self, tmp_path):
        assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset",
                     str(tmp_path / "ds.json")]) == 0
        modules = loaded_modules(tmp_path, (
            "from folkwalk.cli import main\nsys.exit(main(['evaluate', '--dataset', 'ds.json',"
            " '--algorithms', 'Random,UserCF', '--runs', '1', '--output-dir', 'out']))"
        ))
        assert "scipy.sparse" in modules
        assert "scipy.linalg" not in modules

    def test_scoring_leaves_deferred_numpy_modules_unexecuted(self, scoring_modules):
        # scipy.sparse's array-API shim touches numpy.f2py, numpy.testing,
        # numpy.polynomial and numpy.ma; the package registers them lazily,
        # and no algorithm or the t-test uses one, so none runs
        modules, _ = scoring_modules
        assert {"scipy.sparse", "scipy.linalg", "numpy.testing", "numpy.ma"} <= modules
        assert not modules & set(DEFERRED_BODIES)

    def test_numpy_bodies_run_by_scoring_are_pinned(self, scoring_modules):
        _, ran = scoring_modules
        assert ran == NUMPY_BODIES_RUN_BY_SCORING, (
            f"newly run: {sorted(ran - NUMPY_BODIES_RUN_BY_SCORING)}, "
            f"no longer run: {sorted(NUMPY_BODIES_RUN_BY_SCORING - ran)}"
        )

    def test_loading_a_dataset_runs_no_deferred_body(self, tmp_path):
        # the path the bench's setup measures: import, then read the snapshot
        assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset",
                     str(tmp_path / "ds.json")]) == 0
        modules = loaded_modules(tmp_path, "from folkwalk import cli\ncli._load_dataset('ds.json')\n")
        assert "scipy.sparse" in modules
        assert not modules & set(DEFERRED_BODIES)

    def test_deferred_numpy_modules_run_on_first_use(self, tmp_path):
        modules = loaded_modules(tmp_path, (
            "import folkwalk, os, numpy as np\n"
            "np.testing.assert_array_equal(np.arange(3), [0, 1, 2])\n"
            "assert np.polynomial.Polynomial([1, 2])(3) == 7\n"
            "assert os.path.isdir(np.f2py.get_include())\n"
            "assert np.ma.masked_array([1, 2], mask=[False, True]).sum() == 1\n"
        ))
        assert set(DEFERRED_BODIES) <= modules

    def test_module_imported_before_the_package_is_kept(self, tmp_path):
        loaded_modules(tmp_path, (
            "import types, numpy.testing\n"
            "before = numpy.testing\n"
            "import folkwalk\n"
            "assert sys.modules['numpy.testing'] is before and numpy.testing is before\n"
            "assert type(before) is types.ModuleType\n"
        ))
