import json
from pathlib import Path

import numpy as np
import pytest

from folkwalk.baselines import ALGORITHM_KINDS
from folkwalk.cli import main
from folkwalk.dataset import dataset_from_json, dataset_to_json
from folkwalk.walker import recommend_all

from gen import random_dataset, random_posts

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def triples_file(tmp_path):
    rng = np.random.default_rng(0)
    posts = random_posts(rng, n_users=20, n_items=25, n_tags=6, items_per_user=(4, 9))
    lines = []
    for p in posts:
        if p.tags:
            lines.extend(f"{p.user}\t{p.item}\t{t}" for t in p.tags)
        else:
            lines.append(f"{p.user}\t{p.item}\t")
    path = tmp_path / "posts.tsv"
    path.write_text("\n".join(lines) + "\n")
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

    def test_reingest_is_byte_identical(self, triples_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["ingest", "--input", triples_file, "--dataset", str(a)]) == 0
        assert main(["ingest", "--input", triples_file, "--dataset", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_writes_format_version_2(self, tmp_path):
        out = tmp_path / "tiny.json"
        assert main(["ingest", "--input", str(DATA / "tiny.tsv"), "--dataset", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 2
        assert set(doc["UI"]) == {"indptr", "indices", "data"}

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
        ds = random_dataset(np.random.default_rng(3), 6, 12, 4, items_per_user=(6, 8))
        path = tmp_path / "ds.json"
        path.write_text(dataset_to_json(ds))
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
            ds = random_dataset(np.random.default_rng(909), n_users=15, n_items=20, n_tags=6)
            path.write_text(dataset_to_json(ds))
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


    def test_v1_dataset_and_its_v2_rewrite_give_the_same_report(self, tmp_path):
        v2 = tmp_path / "random_v2.json"
        v2.write_text(dataset_to_json(dataset_from_json((DATA / "random_v1.json").read_text())))
        reports = []
        for name, path in (("v1", DATA / "random_v1.json"), ("v2", v2)):
            out = tmp_path / name
            assert main([
                "evaluate", "--dataset", str(path), "--runs", "2", "--output-dir", str(out),
            ]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


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
    assert main(["sweep", *common, "--algorithms", "UserCF", "--fractions", "0.5"]) == 0
    entries += json.loads((out / "sweep.json").read_text()).values()
    assert len(entries) == 3
    for entry in entries:
        assert set(entry) == {"algorithm", "means", "runs", "seeds", "top_n"}
        assert [set(m) for m in [entry["means"], *entry["runs"]]] == [metric_keys] * 3
    assert main(["grid", *common, "--eta", "0.5,0.9"]) == 0
    grid = json.loads((out / "grid.json").read_text())["grid"]
    assert [set(point["means"]) for point in grid] == [metric_keys] * 2


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

    def test_same_report_as_evaluate_of_the_walk_variants(self, dataset_file, tmp_path):
        common = ["--dataset", dataset_file, "--runs", "2", "--alpha", "0.3", "--mu", "0.6"]
        assert main(["ablate", *common, "--output-dir", str(tmp_path / "ab")]) == 0
        assert main([
            "evaluate", *common, "--algorithms", "pRW-IT,pRW-UT,pRW-UI,pRW",
            "--output-dir", str(tmp_path / "ev"),
        ]) == 0
        assert (tmp_path / "ab" / "report.json").read_bytes() == (
            tmp_path / "ev" / "report.json").read_bytes()


class TestSweep:
    def test_table_layout(self, dataset_file, tmp_path, capsys):
        out = str(tmp_path / "sw")
        assert main([
            "sweep", "--dataset", dataset_file, "--fractions", "0.2,0.4",
            "--algorithms", "Random,pRW", "--runs", "1", "--output-dir", out,
        ]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].split() == ["Algorithm", "20%", "40%"]
        assert table[1].split()[0] == "Random"

    def test_bad_fraction_usage_error(self, dataset_file, tmp_path):
        assert main([
            "sweep", "--dataset", dataset_file, "--fractions", "0.2,1.4",
            "--output-dir", str(tmp_path / "x"),
        ]) == 2


class TestGrid:
    def test_grid_outputs(self, dataset_file, tmp_path, capsys):
        out = str(tmp_path / "gr")
        assert main([
            "grid", "--dataset", dataset_file, "--alpha", "0,1",
            "--mu", "0.5,1", "--output-dir", out,
        ]) == 0
        doc = json.loads(Path(out, "grid.json").read_text())
        assert len(doc["grid"]) == 4
        assert set(doc["best"]) == {"alpha", "mu"}

    def test_lambda_axis(self, dataset_file, tmp_path):
        out = str(tmp_path / "gr")
        assert main([
            "grid", "--dataset", dataset_file, "--lambda", "0.5,0.9", "--output-dir", out,
        ]) == 0
        doc = json.loads(Path(out, "grid.json").read_text())
        assert [point["params"] for point in doc["grid"]] == [{"lambda": 0.5}, {"lambda": 0.9}]

    def test_no_axis_usage_error(self, dataset_file, tmp_path):
        assert main([
            "grid", "--dataset", dataset_file, "--output-dir", str(tmp_path / "y"),
        ]) == 2


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
]
# out of range, or a density minimum given without the other one
BAD_INGEST_OPTIONS = [
    ("--select-tags", "0"), ("--min-items-per-user", "0"), ("--min-users-per-item", "0"),
    ("--unqualified-threshold", "0"), ("--min-items-per-user", "2"),
    ("--min-users-per-item", "2"),
]


class TestBadInput:
    @pytest.mark.parametrize("command", ["recommend", "evaluate", "ablate", "sweep"])
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
        if command == "grid":
            argv += ["--eta", "0.5"]
        assert main(argv) == 2
        assert f"{flag} must be" in one_line_error(capsys)

    @pytest.mark.parametrize(
        "command, flag, value",
        [("sweep", "--train-fraction", "0.3"), ("ablate", "--k-neighbors", "5"),
         ("ablate", "--fuse-weight", "0.3")],
    )
    def test_flag_the_command_does_not_use_exits_2(self, dataset_file, tmp_path, capsys,
                                                    command, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--dataset", dataset_file, flag, value,
                  "--output-dir", str(tmp_path / "o")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_out_of_range_option_from_config_exits_2(self, dataset_file, tmp_path, capsys):
        cfg = tmp_path / "folkwalk.cfg"
        cfg.write_text("k-neighbors = 0\n")
        assert main([
            "--config", str(cfg), "evaluate", "--dataset", dataset_file,
            "--algorithms", "UserCF", "--runs", "1", "--output-dir", str(tmp_path / "o"),
        ]) == 2
        assert "--k-neighbors must be >= 1" in one_line_error(capsys)

    def test_out_of_range_grid_axis_exits_2(self, dataset_file, tmp_path, capsys):
        assert main([
            "grid", "--dataset", dataset_file, "--eta", "0.5,1.0",
            "--output-dir", str(tmp_path / "g"),
        ]) == 2
        assert "eta" in one_line_error(capsys)

    def test_empty_grid_axis_exits_2(self, tmp_path, capsys):
        assert main([
            "grid", "--dataset", str(tmp_path / "missing.json"), "--eta", ",",
            "--output-dir", str(tmp_path / "g"),
        ]) == 2
        assert "--eta needs at least one value" in one_line_error(capsys)

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
            (b"\xff\xfe\x00", "utf-8"),
            (b'{"format_version": 1}', "missing fields"),
            (b'{"format_version": 1, "users": ["a", "a"], "items": [], "tags": [], '
             b'"total_tag_count": 0, "UI": [], "UT": [], "IT": []}', "duplicate user id 'a'"),
            (b'{"format_version": 1, "users": ["a"], "items": ["x", "y"], "tags": [], '
             b'"total_tag_count": 0, "UI": [[0, 0.7, 1.0]], "UT": [], "IT": []}',
             "UI: entry index is not an integer"),
            (b'{"format_version": 1, "users": ["a", "b"], "items": ["x", "y"], "tags": [], '
             b'"total_tag_count": 0, "UI": [[0, 0, 1.0], [true, 1, 1.0]], "UT": [], "IT": []}',
             "UI: entry holds a boolean"),
            (b'{"format_version": 2, "users": ["a"], "items": ["x"], "tags": [], '
             b'"total_tag_count": 0, "UI": {"indptr": [0, 2], "indices": [0], "data": [1.0]}, '
             b'"UT": {"indptr": [0, 0], "indices": [], "data": []}, '
             b'"IT": {"indptr": [0, 0], "indices": [], "data": []}}',
             "UI: indptr ends at 2"),
            (b'{"format_version": 2, "users": ["a"], "items": ["x"], "tags": [], '
             b'"total_tag_count": 0, "UI": {"indptr": [0, 1], "indices": [0], "data": [true]}, '
             b'"UT": {"indptr": [0, 0], "indices": [], "data": []}, '
             b'"IT": {"indptr": [0, 0], "indices": [], "data": []}}',
             "UI: entry holds a boolean"),
            (b'{"format_version": 2, "users": ["a"], "items": ["x"], "tags": [], '
             b'"total_tag_count": 0, "UI": [[0, 0, 1.0]], "UT": [], "IT": []}',
             "UI: expected an object with indptr, indices and data"),
            (b'{"format_version": 1, "users": ["a"], "items": ["x"], "tags": [], '
             b'"total_tag_count": true, "UI": [], "UT": [], "IT": []}',
             "total_tag_count must be an integer >= 0"),
            (b'{"format_version": 1, "users": ["a"], "items": ["x"], "tags": ["t", "s"], '
             b'"total_tag_count": 1, "UI": [], "UT": [], "IT": []}',
             "total_tag_count must be an integer >= 2"),
            (b'{"format_version": 2, "users": ["a"], "items": ["x"], "tags": ["t"], '
             b'"total_tag_count": -1, "UI": {"indptr": [0, 0], "indices": [], "data": []}, '
             b'"UT": {"indptr": [0, 0], "indices": [], "data": []}, '
             b'"IT": {"indptr": [0, 0], "indices": [], "data": []}}',
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
        path.write_text(json.dumps({
            "format_version": 1, "users": users, "items": items, "tags": [],
            "total_tag_count": 0, "UI": [], "UT": [], "IT": [],
        }))
        argv = [command, "--dataset", str(path)]
        if command == "evaluate":
            argv += ["--runs", "1", "--output-dir", str(tmp_path / "o")]
        assert main(argv) == 1
        err = one_line_error(capsys)
        assert str(path) in err and "no users or no items" in err

    @pytest.mark.parametrize("command", ["evaluate", "ablate", "sweep", "grid"])
    def test_no_held_out_save_exits_1(self, tmp_path, capsys, command):
        # each user saved one item, and a split trains on at least one per user
        src = tmp_path / "one_each.tsv"
        src.write_text("u1\ti1\t\nu2\ti2\t\nu3\ti1\t\n")
        path = str(tmp_path / "one_each.json")
        assert main(["ingest", "--input", str(src), "--dataset", path]) == 0
        capsys.readouterr()
        argv = [command, "--dataset", path, "--runs", "1", "--output-dir", str(tmp_path / "o")]
        if command == "grid":
            argv += ["--eta", "0.5"]
        assert main(argv) == 1
        assert "no user has a non-empty test set" in one_line_error(capsys)

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
        cfg.write_text("select-tags = 10\nobjective = recall\n")
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
