import io
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse import csr_matrix

import reference_ingest as reference
from folkwalk import dataset as dataset_module
from folkwalk.dataset import (
    EmptyDatasetError,
    InvalidDatasetError,
    ParseError,
    Post,
    PostTable,
    Split,
    TaggingDataset,
    build_matrices,
    dataset_from_json,
    dataset_json_pieces,
    dataset_to_json,
    density_filter,
    format_stats_table,
    ingest,
    parse_triples,
    select_tags,
    split,
    stats,
)
from folkwalk.linalg import csr_from_coo

from gen import (
    csr,
    edge_user_dataset,
    entry_list,
    random_dataset,
    random_posts,
    random_triples_tsv,
    v1_json,
)


def as_posts(table: PostTable) -> list[Post]:
    """The table's posts as records, tags in assignment order."""
    tags = [[] for _ in range(len(table))]
    for p, k in zip(table.tag_post.tolist(), table.tag.tolist()):
        tags[p].append(table.tags[k])
    return [
        Post(table.users[u], table.items[i], tuple(t))
        for u, i, t in zip(table.user.tolist(), table.item.tolist(), tags)
    ]


def table(posts: list[Post]) -> PostTable:
    return PostTable.from_posts(posts)


class TestParseTriples:
    def test_merges_tags_per_save(self):
        posts = parse_triples("u1\ti1\tml\nu1\ti1\tweb\n")
        assert as_posts(posts) == [Post("u1", "i1", ("ml", "web"))]

    def test_tagless_save_allowed(self):
        assert as_posts(parse_triples("u1\ti1\t\n")) == [Post("u1", "i1", ())]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_triples("u1,i1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_triples("u1\ti1\tml\nu2\ti2\n")

    def test_empty_stream(self):
        assert as_posts(parse_triples("")) == []
        assert len(parse_triples(" \n\t\n")) == 0

    def test_duplicate_triples_accumulate(self):
        posts = parse_triples("u1\ti1\tml\nu1\ti1\tml\n")
        assert as_posts(posts) == [Post("u1", "i1", ("ml", "ml"))]

    def test_posts_in_order_of_first_triple(self):
        posts = parse_triples("u2\ti1\tb\nu1\ti2\ta\nu2\ti1\tc\nu1\ti1\t\n")
        assert as_posts(posts) == [
            Post("u2", "i1", ("b", "c")), Post("u1", "i2", ("a",)), Post("u1", "i1", ()),
        ]
        assert len(posts) == 3

    def test_fields_are_stripped(self):
        posts = parse_triples(" u1 \t i1\t ml \nu1\ti1 \tml\n")
        assert as_posts(posts) == [Post("u1", "i1", ("ml", "ml"))]

    @pytest.mark.parametrize("text, line", [
        ("u1\ti1\ta\n\t \tb\n", 2),
        ("u1\ti1\ta\n\n \ti2\tb\n", 3),
        ("u1\ti1\ta\nu2\ti2\tb\tc\n", 2),
    ])
    def test_empty_id_or_extra_field_reports_number(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}:"):
            parse_triples(text)

    @pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028", "\x1e"])
    def test_other_line_separators_stay_in_the_field(self, separator):
        posts = parse_triples(f"u1\ti1\tfoo{separator}bar\n")
        assert as_posts(posts) == [Post("u1", "i1", (f"foo{separator}bar",))]

    def test_line_numbers_count_crlf_and_cr_endings(self):
        with pytest.raises(ParseError, match="line 3:"):
            parse_triples("u1\ti1\ta\r\n\r\nbad\r\n")
        with pytest.raises(ParseError, match="line 2:"):
            parse_triples("u1\ti1\ta\rbad\r")
        crlf = parse_triples("u1\ti1\ta\r\nu1\ti2\tb\r\n")
        assert as_posts(crlf) == [Post("u1", "i1", ("a",)), Post("u1", "i2", ("b",))]


class TestPostTable:
    def test_from_posts_keeps_posts_and_order(self):
        posts = [Post("u1", "i1", ("a", "a")), Post("u2", "i1"), Post("u1", "i1", ("b",))]
        t = table(posts)
        assert len(t) == 3
        assert as_posts(t) == posts
        assert (t.users, t.items, t.tags) == (("u1", "u2"), ("i1",), ("a", "b"))


def brute_force_filter(posts, min_u, min_i, theta):
    """Independent filter: recompute degrees from scratch every pass."""
    current = list(posts)
    while True:
        users = {}
        for p in current:
            users.setdefault(p.user, set()).add(p.item)
        survivors = [p for p in current if len(users[p.user]) >= min_u]
        items = {}
        for p in survivors:
            items.setdefault(p.item, set()).add(p.user)
        survivors = [p for p in survivors if len(items[p.item]) >= min_i]
        items = {}
        for p in survivors:
            items.setdefault(p.item, set()).add(p.user)
        unqualified = sum(1 for us in items.values() if len(us) < min_i)
        if unqualified < theta or len(survivors) == len(current):
            return survivors
        current = survivors


class TestDensityFilter:
    def test_fixed_point_when_all_qualified(self):
        posts = [Post(f"u{u}", f"i{i}") for u in range(3) for i in range(3)]
        assert as_posts(density_filter(table(posts), 2, 2, 1)) == posts

    def test_cascade_to_empty(self):
        assert as_posts(density_filter(table([Post("u1", "i1")]), 2, 2, 1)) == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        posts = random_posts(rng, n_users=50, n_items=30, items_per_user=(1, 8))
        got = as_posts(density_filter(table(posts), 3, 3, 2))
        expected = brute_force_filter(posts, 3, 3, 2)
        assert {(p.user, p.item) for p in got} == {(p.user, p.item) for p in expected}

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            density_filter(table([]), 0, 1, 1)

    def test_tags_follow_their_posts(self):
        posts = [Post("u1", "i1", ("a",)), Post("u2", "i2", ("b", "c")), Post("u2", "i1", ("d",))]
        assert as_posts(density_filter(table(posts), 1, 2, 1)) == [posts[0], posts[2]]


class TestSelectTags:
    def test_large_l_is_identity(self):
        posts = [Post("u1", "i1", ("a", "b"))]
        assert as_posts(select_tags(table(posts), 10)) == posts

    def test_keeps_most_frequent(self):
        posts = [
            Post("u1", "i1", ("a",) * 5 + ("b",) * 3 + ("c",)),
        ]
        assert as_posts(select_tags(table(posts), 2)) == [Post("u1", "i1", ("a",) * 5 + ("b",) * 3)]

    def test_ties_broken_lexicographically(self):
        posts = [Post("u1", "i1", ("b", "a"))]
        assert as_posts(select_tags(table(posts), 1)) == [Post("u1", "i1", ("a",))]

    def test_matches_histogram_oracle(self):
        rng = np.random.default_rng(5)
        posts = random_posts(rng, n_users=20, n_items=15, n_tags=12)
        l = 4
        freq = Counter(t for p in posts for t in p.tags)
        expected = set(sorted(freq, key=lambda t: (-freq[t], t))[:l])
        surviving = {t for p in as_posts(select_tags(table(posts), l)) for t in p.tags}
        assert surviving == expected

    def test_tagless_posts_retained(self):
        posts = [Post("u1", "i1", ("x",)), Post("u2", "i2", ("y",) * 3)]
        out = as_posts(select_tags(table(posts), 1))
        assert len(out) == 2 and out[0].tags == ()


class TestBuildMatrices:
    def test_multiset_repeats_counted(self):
        ds = build_matrices(table([Post("u1", "i1", ("t1", "t1"))]))
        assert ds.UI.toarray().tolist() == [[1.0]]
        assert ds.UT.toarray().tolist() == [[2.0]]
        assert ds.IT.toarray().tolist() == [[2.0]]

    def test_disjoint_posts_block_diagonal(self):
        ds = build_matrices(table(
            [Post("u1", "i1", ("t1",)), Post("u2", "i2", ("t2",))]
        ))
        np.testing.assert_array_equal(ds.UI.toarray(), np.eye(2))
        np.testing.assert_array_equal(ds.UT.toarray(), np.eye(2))
        np.testing.assert_array_equal(ds.IT.toarray(), np.eye(2))

    def test_matches_dictionary_count_oracle(self):
        rng = np.random.default_rng(6)
        posts = random_posts(rng, n_users=15, n_items=12, n_tags=7)
        ds = build_matrices(table(posts))
        ut = Counter((p.user, t) for p in posts for t in p.tags)
        it = Counter((p.item, t) for p in posts for t in p.tags)
        for (u, t), c in ut.items():
            assert ds.UT.toarray()[ds.users.index(u), ds.tags.index(t)] == c
        for (i, t), c in it.items():
            assert ds.IT.toarray()[ds.items.index(i), ds.tags.index(t)] == c
        assert ds.UI.nnz == len({(p.user, p.item) for p in posts})

    def test_row_and_column_sum_invariants(self):
        rng = np.random.default_rng(13)
        posts = random_posts(rng, n_users=10, n_items=10)
        ds = build_matrices(table(posts))
        per_user_tags = Counter()
        for p in posts:
            per_user_tags[p.user] += len(p.tags)
        for u, name in enumerate(ds.users):
            assert ds.UT[u].sum() == per_user_tags[name]
        item_pop = Counter(p.item for p in posts)
        col_sums = ds.UI.toarray().sum(axis=0)
        for i, name in enumerate(ds.items):
            assert col_sums[i] == item_pop[name]
        assert ds.UI.nnz == stats(ds).num_transactions

    def test_ids_indexed_by_first_appearance_among_kept_posts(self):
        # i1 is filtered away, so u2's post comes before u1's first kept one
        posts = [Post("u1", "i1", ("a",)), Post("u2", "i2", ("b",)), Post("u1", "i2", ("a",))]
        ds = build_matrices(density_filter(table(posts), 1, 2, 1))
        assert (ds.users, ds.items, ds.tags) == (("u2", "u1"), ("i2",), ("b", "a"))

    def test_repeated_pair_posts_are_one_save(self):
        posts = [Post("u1", "i1", ("a",)), Post("u1", "i1", ("a", "b"))]
        ds = build_matrices(table(posts))
        assert entry_list(ds.UI) == [(0, 0, 1.0)]
        assert entry_list(ds.UT) == [(0, 0, 2.0), (0, 1, 1.0)]


# Fields drawn from small pools so that triples repeat; padding and line
# endings are those the reference's str.splitlines splits the same way.
_ids = st.sampled_from(["u0", "u1", "u2", "u3", "a", "b b", "ü"])
_tags = st.sampled_from(["", "", "x", "y", "z", "x y", "Z", "é", "t1", "t10"])
_pad = st.sampled_from(["", "", " ", "  "])
_eol = st.sampled_from(["\n", "\n", "\r\n"])


@st.composite
def tsv_text(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", " \t ", "\t\t"])))
            continue
        user, item, tag = draw(_ids), draw(_ids).replace("u", "i"), draw(_tags)
        lines.append("\t".join(draw(_pad) + f + draw(_pad) for f in (user, item, tag)))
    return "".join(line + draw(_eol) for line in lines)


_options = st.fixed_dictionaries({
    "min_degrees": st.none() | st.tuples(st.integers(1, 4), st.integers(1, 4)),
    "unqualified_item_threshold": st.integers(1, 3),
    "num_tags": st.none() | st.integers(1, 5),
})


class TestAgainstReferencePipeline:
    @settings(max_examples=300, deadline=None)
    @given(text=tsv_text(), options=_options)
    def test_same_dataset_json(self, text, options):
        min_u, min_i = options.pop("min_degrees") or (None, None)
        kwargs = dict(options, min_items_per_user=min_u, min_users_per_item=min_i)
        got = ingest(parse_triples(text), **kwargs)
        want = reference.ingest(reference.parse_triples(text), **kwargs)
        assert got.total_tag_count == want.total_tag_count
        assert dataset_to_json(got) == dataset_to_json(want)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), options=_options)
    def test_same_dataset_from_post_records(self, seed, options):
        # Post lists may repeat a (user, item) pair: each repeat is a post
        rng = np.random.default_rng(seed)
        posts = random_posts(rng, n_users=6, n_items=5, n_tags=4, items_per_user=(1, 4),
                             tags_per_save=(0, 3))
        posts += [posts[k] for k in rng.integers(len(posts), size=3)]
        min_u, min_i = options.pop("min_degrees") or (None, None)
        kwargs = dict(options, min_items_per_user=min_u, min_users_per_item=min_i)
        got = ingest(table(posts), **kwargs)
        want = reference.ingest(posts, **kwargs)
        assert got.total_tag_count == want.total_tag_count
        assert dataset_to_json(got) == dataset_to_json(want)

    @settings(max_examples=100, deadline=None)
    @given(text=tsv_text())
    def test_same_posts(self, text):
        assert as_posts(parse_triples(text)) == reference.parse_triples(text)

    @settings(max_examples=100, deadline=None)
    @given(text=tsv_text(), line=st.integers(0, 40), bad=st.sampled_from(
        ["u1\ti1", "u1\ti1\ta\tb", " \ti1\ta", "u1\t \ta", "no tabs"]))
    def test_same_first_bad_line(self, text, line, bad):
        lines = text.splitlines(keepends=True)
        lines.insert(min(line, len(lines)), bad + "\n")
        text = "".join(lines)
        with pytest.raises(ParseError) as want:
            reference.parse_triples(text)
        with pytest.raises(ParseError) as got:
            parse_triples(text)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("seed", range(3))
    def test_split_matches_entry_list_split(self, seed):
        ds = build_matrices(table(random_posts(np.random.default_rng(seed), n_users=30, n_items=20)))
        for fraction in (0.2, 0.5, 0.9):
            got, want = split(ds, fraction, seed), reference.split(ds, fraction, seed)
            assert entry_list(got.train.UI) == entry_list(want.train.UI)
            assert got.test_sets == want.test_sets


def text_file(text: str, chunk_bytes: int = 8192) -> io.TextIOWrapper:
    """``text`` as an open UTF-8 text file with universal newlines, as
    ``open`` returns one; its decoder reads ``chunk_bytes`` bytes at a
    time."""
    fh = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    fh._CHUNK_SIZE = chunk_bytes
    return fh


def assert_same_table(got: PostTable, want: PostTable) -> None:
    assert (got.users, got.items, got.tags) == (want.users, want.items, want.tags)
    for name in ("user", "item", "tag_post", "tag"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# (text, the first bad line's number or None); the line ends and blank lines
# are those a piece boundary can fall next to
PIECE_CASES = [
    ("u1\ti1\ta\r\nbad\r\nu2\ti2\tb\r\n", 2),
    ("u1\ti1\ta\r\nu1\ti2\tb\r\n", None),
    ("u1\ti1\ta\ru1\ti2\tb\r\rbad\r", 4),
    ("u1\ti1\ta\ru2\ti1\t\r", None),
    ("\n \n\t\t\nu1\ti1\ta\n\n\nbad\n", 7),
    ("\n\n u1 \t i1 \t a \n\n\r\nu1\ti1\ta\n", None),
    ("u1\ti1\ta\nu2\ti2\tb", None),
    ("u1\ti1\ta\nbad", 2),
    ("u1\ti1\ta\n\r\n\t\ti2\tb", 3),
]


class TestParseInPieces:
    """parse_triples with the piece size cut down to a few characters, so
    that lines, line ends and bad lines fall across piece boundaries."""

    @pytest.mark.parametrize("chars", [1, 2, 3, 7, 8, 9, dataset_module._PIECE_CHARS])
    @pytest.mark.parametrize("text, bad_line", PIECE_CASES)
    def test_boundaries_in_str_and_file(self, monkeypatch, text, bad_line, chars):
        monkeypatch.setattr(dataset_module, "_PIECE_CHARS", chars)
        for source in (text, text_file(text, chunk_bytes=chars)):
            if bad_line is None:
                assert as_posts(parse_triples(source)) == reference.parse_triples(text)
                continue
            with pytest.raises(ParseError) as want:
                reference.parse_triples(text)
            with pytest.raises(ParseError, match=f"^line {bad_line}: ") as got:
                parse_triples(source)
            assert str(got.value) == str(want.value)

    @settings(max_examples=200, deadline=None)
    @given(text=tsv_text(), chars=st.integers(1, 12))
    def test_same_posts(self, text, chars):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset_module, "_PIECE_CHARS", chars)
            assert as_posts(parse_triples(text)) == reference.parse_triples(text)

    @settings(max_examples=200, deadline=None)
    @given(text=tsv_text(), line=st.integers(1, 40), chars=st.integers(1, 8), bad=st.sampled_from(
        ["u1\ti1", "u1\ti1\ta\tb", " \ti1\ta", "u1\t \ta", "no tabs"]))
    def test_same_first_bad_line_in_a_later_piece(self, text, line, chars, bad):
        lines = text.splitlines(keepends=True)
        line = min(line, len(lines))
        # the bad line starts after the first piece of the text as read
        assume(len("".join(lines[:line]).replace("\r\n", "\n")) >= chars)
        lines.insert(line, bad + "\n")
        text = "".join(lines)
        with pytest.raises(ParseError) as want:
            reference.parse_triples(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset_module, "_PIECE_CHARS", chars)
            with pytest.raises(ParseError) as got:
                parse_triples(text)
        assert str(got.value) == str(want.value)

    @settings(max_examples=100, deadline=None)
    @given(text=tsv_text(), chars=st.sampled_from([3, 16, dataset_module._PIECE_CHARS]))
    def test_str_and_open_file_give_equal_tables(self, text, chars):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset_module, "_PIECE_CHARS", chars)
            with text_file(text) as fh:
                assert_same_table(parse_triples(fh), parse_triples(text))

    def test_crlf_file_on_disk_gives_the_lf_table(self, tmp_path):
        text = (Path(__file__).parent / "data" / "tiny.tsv").read_text(encoding="utf-8")
        path = tmp_path / "tiny_crlf.tsv"
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            assert_same_table(parse_triples(fh), parse_triples(text))

    def test_peak_memory_stays_below_8x_the_file(self, tmp_path):
        # Python-level peak (tracemalloc, numpy buffers included) of parsing
        # ~50k generated triples from an open file, as a multiple of the
        # file's size. Measured 5.3x (773 kB file, 4.1 MB peak; Python 3.11,
        # numpy 2.4); the parser that split the whole text at once peaked at
        # 25.6x on this file and ~24x on the ingest_large benchmark TSV.
        path = tmp_path / "triples.tsv"
        path.write_text(random_triples_tsv(np.random.default_rng(0), 50_000), encoding="utf-8")
        size = path.stat().st_size
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            with open(path, encoding="utf-8") as fh:
                posts = parse_triples(fh)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(posts) > 40_000
        assert peak < 8 * size, f"peak {peak / size:.1f}x the file's {size} bytes"


def synthetic_ds(m, n, p, seed=0):
    """Dataset whose UI has exactly p nonzeros on an m x n grid."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(m * n, size=p, replace=False)
    entries = [(int(f) // n, int(f) % n, 1.0) for f in flat]
    return TaggingDataset(
        users=tuple(f"u{i}" for i in range(m)),
        items=tuple(f"i{j}" for j in range(n)),
        tags=(),
        UI=csr(m, n, entries),
        UT=csr_matrix((m, 0)),
        IT=csr_matrix((n, 0)),
    )


class TestStats:
    @pytest.mark.parametrize(
        "m,n,p,density,avg_items",
        [
            (338, 392, 6031, 4.55, 17.84),
            (125, 388, 4383, 9.04, 35.06),
            (177, 210, 4093, 11.01, 23.12),
        ],
    )
    def test_reference_statistics(self, m, n, p, density, avg_items):
        s = stats(synthetic_ds(m, n, p))
        assert round(s.density_percent, 2) == density
        assert round(s.avg_items_per_user, 2) == avg_items

    def test_all_ones(self):
        ds = TaggingDataset(
            users=("a", "b", "c"),
            items=("w", "x", "y", "z"),
            tags=(),
            UI=csr_matrix(np.ones((3, 4))),
            UT=csr_matrix((3, 0)),
            IT=csr_matrix((4, 0)),
        )
        s = stats(ds)
        assert s.density_percent == 100.0
        assert s.avg_items_per_user == 4
        assert s.avg_users_per_item == 3

    def test_empty_dataset_errors(self):
        ds = TaggingDataset((), (), (), csr_matrix((0, 0)), csr_matrix((0, 0)), csr_matrix((0, 0)))
        with pytest.raises(EmptyDatasetError):
            stats(ds)

    def test_table_renders(self):
        table = format_stats_table(stats(synthetic_ds(338, 392, 6031)))
        assert "4.55" in table and "17.84" in table


def per_user_split(ds: TaggingDataset, train_fraction: float, seed: int) -> Split:
    """The split as a per-user loop: draw from the sorted support, then take
    the held-out items as the set difference."""
    rng = np.random.default_rng(seed)
    ui = ds.UI
    train_items: list[np.ndarray] = []
    test_sets: dict[int, frozenset[int]] = {}
    for u in range(ds.num_users):
        support = np.sort(ui.indices[ui.indptr[u]:ui.indptr[u + 1]])
        if len(support) == 0:
            train_items.append(support)
            test_sets[u] = frozenset()
            continue
        n_train = min(len(support), max(1, math.ceil(train_fraction * len(support))))
        chosen = np.sort(rng.choice(support, size=n_train, replace=False))
        train_items.append(chosen)
        test_sets[u] = frozenset(np.setdiff1d(support, chosen, assume_unique=True).tolist())
    train_users = np.repeat(np.arange(ds.num_users), [len(items) for items in train_items])
    train_cols = np.concatenate(train_items)
    train_ui = csr_from_coo(
        ds.num_users, ds.num_items, train_users, train_cols, np.ones(len(train_cols))
    )
    return Split(train=replace(ds, UI=train_ui), test_sets=test_sets)


class TestSplit:
    def test_counts(self):
        ds = synthetic_ds(1, 10, 10)
        sp = split(ds, 0.2, 0)
        assert sp.train.UI.nnz == 2
        assert len(sp.test_sets[0]) == 8

    def test_deterministic(self):
        ds = synthetic_ds(20, 30, 200)
        a, b = split(ds, 0.2, 99), split(ds, 0.2, 99)
        assert entry_list(a.train.UI) == entry_list(b.train.UI)
        assert a.test_sets == b.test_sets

    def test_partition_invariant(self):
        ds = synthetic_ds(15, 25, 150, seed=4)
        sp = split(ds, 0.3, 5)
        ui = ds.UI.toarray()
        train = sp.train.UI.toarray()
        for u in range(15):
            support = set(np.flatnonzero(ui[u]))
            train_items = set(np.flatnonzero(train[u]))
            assert train_items | sp.test_sets[u] == support
            assert not (train_items & sp.test_sets[u])

    def test_exact_train_share(self):
        ds = TaggingDataset(
            users=tuple(f"u{i}" for i in range(1000)),
            items=tuple(f"i{j}" for j in range(10)),
            tags=(),
            UI=csr_matrix(np.ones((1000, 10))),
            UT=csr_matrix((1000, 0)),
            IT=csr_matrix((10, 0)),
        )
        sp = split(ds, 0.2, 1)
        assert sp.train.UI.nnz == 2000  # exactly 20% of 10 per user

    @pytest.mark.parametrize("sorted_rows", [True, False])
    @pytest.mark.parametrize("fraction", [0.05, 0.2, 0.5, 0.95])
    def test_matches_per_user_loop(self, fraction, sorted_rows):
        ds = edge_user_dataset(np.random.default_rng(8), sorted_rows)
        empty, single, full = range(ds.num_users - 3, ds.num_users)
        for seed in range(5):
            got, want = split(ds, fraction, seed), per_user_split(ds, fraction, seed)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.train.UI, name), getattr(want.train.UI, name))
            assert got.test_sets == want.test_sets
            assert got.test_sets[empty] == got.test_sets[single] == frozenset()
            assert got.train.UI[single].nnz == 1
            assert got.train.UI[full].nnz + len(got.test_sets[full]) == ds.num_items

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split(synthetic_ds(2, 2, 2), 1.0, 0)


def planted_mid_dataset() -> TaggingDataset:
    """A planted-cluster dataset at the benchmark's mid size: 1500 users and
    2000 items in 5 x 5 clusters, saved with probability 0.05 within a
    cluster and 0.002 across, each save tagged from its item cluster's block
    of 40 of the 200 tags (:func:`gen.planted_cluster_posts`, drawn at once)."""
    rng = np.random.default_rng(0)
    m, n, l, clusters = 1500, 2000, 200, 5
    same = (np.arange(m)[:, None] * clusters // m) == (np.arange(n) * clusters // n)
    user, item = np.nonzero(rng.random((m, n)) < np.where(same, 0.05, 0.002))
    block = l // clusters
    tag = item * clusters // n * block + rng.integers(block, size=len(item))
    return build_matrices(PostTable(
        users=tuple(f"u{u}" for u in range(m)),
        items=tuple(f"i{i}" for i in range(n)),
        tags=tuple(f"t{t}" for t in range(l)),
        user=user, item=item, tag_post=np.arange(len(user)), tag=tag,
    ))


ROUNDTRIP_DATASETS = {
    **{f"random{seed}": lambda seed=seed: random_dataset(np.random.default_rng(seed), 30, 40, 8)
       for seed in range(3)},
    "planted_mid": planted_mid_dataset,
}

# written by the format-1 dataset_to_json (commit 63e3830) from
# random_dataset(np.random.default_rng(12), n_users=10, n_items=14, n_tags=5)
V1_FIXTURE = Path(__file__).parent / "data" / "random_v1.json"


def assert_same_dataset(got: TaggingDataset, want: TaggingDataset) -> None:
    assert (got.users, got.items, got.tags) == (want.users, want.items, want.tags)
    assert got.total_tag_count == want.total_tag_count
    for key in ("UI", "UT", "IT"):
        a, b = getattr(got, key), getattr(want, key)
        assert a.shape == b.shape, key
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (key, name)


def whole_v2_json(ds: TaggingDataset) -> str:
    """The format-2 snapshot as one ``json.dumps`` of the whole object, the
    way the writer built it before it wrote in pieces."""

    def arrays(m):
        m = m.sorted_indices()
        m.eliminate_zeros()
        return {"indptr": m.indptr.tolist(), "indices": m.indices.tolist(), "data": m.data.tolist()}

    payload = {
        "format_version": 2,
        "users": list(ds.users),
        "items": list(ds.items),
        "tags": list(ds.tags),
        "total_tag_count": ds.total_tag_count,
        "UI": arrays(ds.UI),
        "UT": arrays(ds.UT),
        "IT": arrays(ds.IT),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


PIECES_DATASETS = {
    **ROUNDTRIP_DATASETS,
    "odd_ids": lambda: build_matrices(table([
        Post('ü"1', "i\\1", ("t\u2028", "é")), Post("u2", "i\\1"), Post("u2", "j", ("é",)),
    ])),
    # unsorted column indices and a stored zero; no tags
    "uncanonical": lambda: TaggingDataset(
        ("u",), ("a", "b", "c"), (),
        csr_matrix((np.array([2.0, 0.0, 1.0]), np.array([2, 1, 0]), np.array([0, 3])), shape=(1, 3)),
        csr_matrix((1, 0)), csr_matrix((3, 0)),
    ),
}


def snapshot_doc(version: int) -> dict:
    ds = build_matrices(table(random_posts(np.random.default_rng(2))))
    return json.loads(v1_json(ds) if version == 1 else dataset_to_json(ds))


def v2_insert(arrays: dict, row: int, col: int, value) -> None:
    """Add an entry at the end of ``row`` of a format-2 matrix."""
    at = arrays["indptr"][row + 1]
    arrays["indices"].insert(at, col)
    arrays["data"].insert(at, value)
    arrays["indptr"][row + 1:] = [p + 1 for p in arrays["indptr"][row + 1:]]


def v2_set(key: str, name: str, k: int, value):
    """Corruption setting ``doc[key][name][k] = value``."""
    return lambda d: d[key][name].__setitem__(k, value)


class TestSnapshot:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        ds = build_matrices(table(random_posts(rng)))
        again = dataset_from_json(dataset_to_json(ds))
        assert again.users == ds.users
        assert again.items == ds.items
        assert again.tags == ds.tags
        assert entry_list(again.UI) == entry_list(ds.UI)
        assert entry_list(again.UT) == entry_list(ds.UT)
        assert entry_list(again.IT) == entry_list(ds.IT)

    @pytest.mark.parametrize("name", ROUNDTRIP_DATASETS)
    def test_v2_roundtrip_keeps_csr_arrays(self, name):
        ds = ROUNDTRIP_DATASETS[name]()
        text = dataset_to_json(ds)
        assert json.loads(text)["format_version"] == 2
        assert_same_dataset(dataset_from_json(text), ds)

    @pytest.mark.parametrize("elements", [1, 2, 7, dataset_module._JSON_ELEMENTS])
    @pytest.mark.parametrize("name", PIECES_DATASETS)
    def test_pieces_are_the_whole_object_dumped_at_once(self, monkeypatch, name, elements):
        monkeypatch.setattr(dataset_module, "_JSON_ELEMENTS", elements)
        ds = PIECES_DATASETS[name]()
        pieces = list(dataset_json_pieces(ds))
        assert "".join(pieces) == dataset_to_json(ds) == whole_v2_json(ds)
        if elements == 1:  # each matrix array is written one element per piece
            assert not any("," in p[1:] for p in pieces if "[" not in p)

    def test_writer_canonicalizes_a_copy(self):
        # unsorted column indices and a stored zero in the caller's matrix
        ui = csr_matrix((np.array([2.0, 0.0, 1.0]), np.array([2, 1, 0]), np.array([0, 3])),
                        shape=(1, 3))
        ds = TaggingDataset(("u",), ("a", "b", "c"), (), ui, csr_matrix((1, 0)), csr_matrix((3, 0)))
        doc = json.loads(dataset_to_json(ds))
        assert doc["UI"] == {"data": [1.0, 2.0], "indices": [0, 2], "indptr": [0, 2]}
        assert ui.indices.tolist() == [2, 1, 0] and ui.data.tolist() == [2.0, 0.0, 1.0]

    def test_v1_fixture_reads_as_its_v2_rewrite(self):
        old = dataset_from_json(V1_FIXTURE.read_text())
        rewrite = dataset_to_json(old)
        assert json.loads(rewrite)["format_version"] == 2
        assert_same_dataset(dataset_from_json(rewrite), old)

    def test_v1_fixture_is_the_format_1_snapshot_of_its_dataset(self):
        ds = random_dataset(np.random.default_rng(12), n_users=10, n_items=14, n_tags=5)
        assert V1_FIXTURE.read_text() == v1_json(ds)
        assert_same_dataset(dataset_from_json(V1_FIXTURE.read_text()), ds)

    @pytest.mark.parametrize("key", ["users", "items", "tags"])
    def test_duplicate_ids_rejected(self, key):
        doc = snapshot_doc(2)
        doc[key][-1] = doc[key][0]
        with pytest.raises(InvalidDatasetError, match=f"duplicate {key[:-1]} id {doc[key][0]!r}"):
            dataset_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: d.pop("UI"), "missing fields"),
            (lambda d: d.update(format_version=3), "format_version 3"),
            (lambda d: d.update(users="u0"), "users must be a list of strings"),
            (lambda d: d.update(items=[1, 2]), "items must be a list of strings"),
            (lambda d: d.update(total_tag_count="3"), "total_tag_count"),
            (lambda d: d["UI"].append(d["UI"][0]), "UI: duplicate"),
            (lambda d: d["UI"].append([len(d["users"]), 0, 1.0]), "UI: entry index out of bounds"),
            (lambda d: d["UT"][0].__setitem__(2, -1.0), "UT: negative entry"),
            (lambda d: d["IT"].__setitem__(0, [0]), "IT: "),
            (lambda d: d["IT"].__setitem__(0, [0, 0, "x"]), "IT: "),
            (lambda d: d["UI"].__setitem__(0, [0, 0.7, 1.0]), "UI: entry index is not an integer"),
            (lambda d: d["UI"].__setitem__(0, [0, 0, 1.0, 9]), "UI: each entry must be"),
            (lambda d: d["UT"].__setitem__(0, [0, 0, "1"]), "UT: entry value is not a number"),
            (lambda d: d["UI"].__setitem__(0, [0, 0, float("nan")]), "UI: non-finite"),
            (lambda d: d["UI"].append([True, 1, 1.0]), "UI: entry holds a boolean"),
            (lambda d: d["UT"][0].__setitem__(1, False), "UT: entry holds a boolean"),
            (lambda d: d["IT"][0].__setitem__(2, True), "IT: entry holds a boolean"),
        ],
    )
    def test_invalid_snapshots_rejected(self, corrupt, message):
        doc = snapshot_doc(1)
        corrupt(doc)
        with pytest.raises(InvalidDatasetError, match=message):
            dataset_from_json(json.dumps(doc))

    # the format-1 cases above, in format 2; a format-2 entry has no fields
    # of its own, so a missing or extra field is an indices/data length error
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: d.pop("UI"), "missing fields"),
            (lambda d: d.update(format_version=3), "format_version 3"),
            (lambda d: d.update(users="u0"), "users must be a list of strings"),
            (lambda d: d.update(items=[1, 2]), "items must be a list of strings"),
            (lambda d: d.update(total_tag_count="3"), "total_tag_count"),
            (lambda d: v2_insert(d["UI"], 0, d["UI"]["indices"][0], 1.0), "UI: duplicate"),
            (lambda d: v2_insert(d["UI"], 0, len(d["items"]), 1.0),
             "UI: entry index out of bounds"),
            (v2_set("UT", "data", 0, -1.0), "UT: negative entry"),
            (lambda d: d["IT"]["data"].pop(), "IT: "),
            (v2_set("IT", "data", 0, "x"), "IT: "),
            (v2_set("UI", "indices", 0, 0.7), "UI: entry index is not an integer"),
            (lambda d: d["UI"]["data"].append(9), "UI: indptr ends at"),
            (v2_set("UT", "data", 0, "1"), "UT: entry value is not a number"),
            (v2_set("UI", "data", 0, float("nan")), "UI: non-finite"),
            (v2_set("UI", "indices", 0, True), "UI: entry holds a boolean"),
            (v2_set("UT", "indices", 0, False), "UT: entry holds a boolean"),
            (v2_set("IT", "data", 0, True), "IT: entry holds a boolean"),
        ],
    )
    def test_invalid_v2_snapshots_rejected(self, corrupt, message):
        doc = snapshot_doc(2)
        corrupt(doc)
        with pytest.raises(InvalidDatasetError, match=message):
            dataset_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: d["UI"]["indptr"].pop(), "UI: indptr has length"),
            (lambda d: d["UT"]["indptr"].append(d["UT"]["indptr"][-1]), "UT: indptr has length"),
            (v2_set("UI", "indptr", 1, 0.5), "UI: indptr is not a list of integers"),
            (v2_set("IT", "indptr", 1, "1"), "IT: indptr is not a list of integers"),
            (v2_set("UI", "indptr", 0, 1), "UI: indptr starts at 1, not 0"),
            (lambda d: d["UT"]["indptr"].__setitem__(1, d["UT"]["indptr"][2] + 1),
             "UT: indptr decreases"),
            (lambda d: d["IT"]["indptr"].__setitem__(-1, d["IT"]["indptr"][-1] + 1),
             "IT: indptr ends at"),
            (lambda d: d["UI"]["indices"].pop(), "UI: indptr ends at"),
        ],
    )
    def test_bad_indptr_rejected(self, corrupt, message):
        doc = snapshot_doc(2)
        corrupt(doc)
        with pytest.raises(InvalidDatasetError, match=message):
            dataset_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "name, message",
        [("indptr", "indptr holds a boolean"), ("indices", "entry holds a boolean"),
         ("data", "entry holds a boolean")],
    )
    def test_boolean_in_any_v2_array_rejected(self, name, message):
        # False in indptr[0] and True in the others read as valid numbers
        doc = snapshot_doc(2)
        doc["UT"][name][0] = name != "indptr"
        with pytest.raises(InvalidDatasetError, match=f"UT: {message}"):
            dataset_from_json(json.dumps(doc))

    @pytest.mark.parametrize("version, matrix", [(1, {"indptr": [0]}), (2, [[0, 0, 1.0]])])
    def test_matrix_in_the_other_format_rejected(self, version, matrix):
        doc = snapshot_doc(version)
        doc["IT"] = matrix
        with pytest.raises(InvalidDatasetError, match="IT: "):
            dataset_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["", '{"format_version": 1', "[1, 2]", "null"])
    def test_non_snapshot_text_rejected(self, text):
        with pytest.raises(InvalidDatasetError):
            dataset_from_json(text)

    def test_user_index(self):
        ds = build_matrices(table(random_posts(np.random.default_rng(3))))
        assert [ds.user_index(user) for user in ds.users] == list(range(ds.num_users))
        with pytest.raises(KeyError, match="nobody"):
            ds.user_index("nobody")

    def test_ingest_pipeline_records_total_tags(self):
        posts = parse_triples("u1\ti1\ta\nu1\ti2\tb\nu2\ti1\tc\nu2\ti2\ta\n")
        ds = ingest(posts, num_tags=1)
        assert ds.total_tag_count == 3
        assert ds.num_tags == 1

    @pytest.mark.parametrize("minimums", [{"min_items_per_user": 2}, {"min_users_per_item": 2}])
    def test_ingest_rejects_one_density_minimum(self, minimums):
        with pytest.raises(ValueError, match="go together"):
            ingest(parse_triples("u1\ti1\ta\n"), **minimums)
