"""Folksonomy ingestion: triple parsing, density filtering, tag selection,
co-occurrence matrix construction, statistics, and train/test splitting.

:func:`parse_triples` accepts the triple text as a ``str`` or as an open
text file, and reads either a piece of :data:`_PIECE_CHARS` characters at a
time; :func:`dataset_json_pieces` gives a snapshot's text a piece at a time.
Ingesting a file therefore never holds its whole text or the whole snapshot.
"""

from __future__ import annotations

import array
import io
import json
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import filterfalse, islice, repeat
from typing import NoReturn, TextIO

import numpy as np
import scipy.sparse as sp

from .linalg import csr_from_coo


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyDatasetError(ValueError):
    """Operation requires a non-empty dataset."""


class InvalidDatasetError(ValueError):
    """Text is not a dataset snapshot written by :func:`dataset_to_json`."""


@dataclass(frozen=True)
class Post:
    """One (user, item) save event with the tags applied to it, for building
    a dataset in code (see :meth:`PostTable.from_posts`).

    ``tags`` is a multiset stored as a tuple; repeats count toward tag
    frequencies.
    """

    user: str
    item: str
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.user or not self.item:
            raise ValueError("user and item ids must be non-empty")


@dataclass(frozen=True, eq=False)
class PostTable:
    """Posts as integer codes into id tables.

    Post p saves ``items[item[p]]`` for ``users[user[p]]``. Tag assignment a
    applies ``tags[tag[a]]`` to post ``tag_post[a]``; assignments are ordered
    by post, then by input order, and a repeated tag counts once per
    assignment. The id tables keep every id read, in order of first
    appearance, including ids whose posts were filtered away. ``len()`` is
    the number of posts.
    """

    users: tuple[str, ...]
    items: tuple[str, ...]
    tags: tuple[str, ...]
    user: np.ndarray
    item: np.ndarray
    tag_post: np.ndarray
    tag: np.ndarray

    def __len__(self) -> int:
        return len(self.user)

    @classmethod
    def from_posts(cls, posts: Iterable[Post]) -> "PostTable":
        """Table of the posts in order; posts of the same (user, item) pair
        stay separate posts."""
        posts = list(posts)
        users, user = _factorize([p.user for p in posts])
        items, item = _factorize([p.item for p in posts])
        tags, tag = _factorize([t for p in posts for t in p.tags])
        tag_post = np.repeat(np.arange(len(posts)), [len(p.tags) for p in posts])
        return cls(users, items, tags, user, item, tag_post, tag)

    def _keep_posts(self, keep: np.ndarray) -> "PostTable":
        """The posts where ``keep`` is true, with their tag assignments."""
        renumber = np.cumsum(keep) - 1
        kept = keep[self.tag_post]
        return replace(
            self,
            user=self.user[keep],
            item=self.item[keep],
            tag_post=renumber[self.tag_post[kept]],
            tag=self.tag[kept],
        )


@dataclass(frozen=True, eq=False)
class TaggingDataset:
    """Indexed posts plus the derived co-occurrence matrices (CSR).

    UI is binary m x n (user saved item), UT is m x l tag-use frequencies per
    user, IT is n x l tag frequencies per item. ``total_tag_count`` is the
    distinct-tag count before any tag selection (equals len(tags) when no
    selection was applied). Datasets compare by identity.
    """

    users: tuple[str, ...]
    items: tuple[str, ...]
    tags: tuple[str, ...]
    UI: sp.csr_matrix
    UT: sp.csr_matrix
    IT: sp.csr_matrix
    total_tag_count: int = -1

    def __post_init__(self):
        if self.total_tag_count < 0:
            object.__setattr__(self, "total_tag_count", len(self.tags))

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_items(self) -> int:
        return len(self.items)

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    @cached_property
    def _user_positions(self) -> dict[str, int]:
        return {user: u for u, user in enumerate(self.users)}

    def user_index(self, user: str) -> int:
        try:
            return self._user_positions[user]
        except KeyError:
            raise KeyError(f"unknown user id {user!r}") from None


@dataclass(frozen=True)
class DatasetStats:
    """The paper's dataset statistics; the field names are the keys of
    ``ingest --format json``."""

    num_users: int
    num_items: int
    num_selected_tags: int
    num_total_tags: int
    num_transactions: int
    density_percent: float
    avg_items_per_user: float
    avg_users_per_item: float


@dataclass(frozen=True, eq=False)
class Split:
    """Per-user partition of UI support into train and held-out test items.

    ``train`` is everything a model may read: the dataset with UI cut down
    to the training saves. It shares the ids, UT and IT with the full
    dataset, so UT and IT still count the tags of held-out posts. Splits
    compare by identity."""

    train: TaggingDataset
    test_sets: dict[int, frozenset[int]]


def _factorize(values: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct values in first-appearance order, and each value's code."""
    ids = tuple(dict.fromkeys(values))
    index = dict(zip(ids, range(len(ids))))
    return ids, np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))


def _encode(values: list[str], ids: dict[str, int], raw: dict[str, int]) -> Iterator[int]:
    """Codes of ``values`` stripped of surrounding whitespace in the running
    id table ``ids`` (id -> code, in order of first appearance), adding the
    new ids. ``raw`` maps each raw value seen so far to its code, so each
    distinct raw value is stripped once."""
    for value in filterfalse(raw.__contains__, dict.fromkeys(values)):
        raw[value] = ids.setdefault(value.strip(), len(ids))
    return map(raw.__getitem__, values)


def _raise_first_bad_line(lines: list[str], first_line_no: int) -> NoReturn:
    """Raise :class:`ParseError` naming the first malformed line among
    ``lines``, the first of which is line ``first_line_no``; called only
    after a check of these lines has found one."""
    for line_no, line in enumerate(lines, start=first_line_no):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 3 tab-separated fields, got {len(parts)}")
        if not parts[0].strip() or not parts[1].strip():
            raise ParseError(line_no, "empty user or item id")
    raise AssertionError("no malformed line found")


# Characters of triple text that parse_triples reads at a time. Only the
# current piece's lines are held, plus the line a piece boundary cuts.
_PIECE_CHARS = 1 << 16


def _line_blocks(source: TextIO) -> Iterator[list[str]]:
    """The lines of ``source``, whose line ends are already ``\\n``, in
    blocks of one piece each; a line cut by a piece boundary goes to the
    next block, and the last block is the text after the last ``\\n``."""
    rest = ""
    while piece := source.read(_PIECE_CHARS):
        lines = (rest + piece).split("\n")
        rest = lines.pop()
        yield lines
    yield [rest]


def _read_columns(source: TextIO) -> tuple[tuple[tuple[str, ...], ...], np.ndarray, np.ndarray]:
    """The user, item and tag id tables of the triples in ``source``, each
    triple's (user, item) pair key ``user * len(items) + item``, and its tag
    code; see :func:`parse_triples`."""
    ids = ({}, {}, {})  # user, item and tag id tables
    raw = ({}, {}, {})
    codes = tuple(array.array("q") for _ in range(3))
    line_no = 1  # of the block's first line
    for lines in _line_blocks(source):
        triples = [line for line in lines if line.strip()]
        if set(map(str.count, triples, repeat("\t"))) - {2}:
            _raise_first_bad_line(lines, line_no)
        # one split of the block's triples: field k of triple r is fields[3 * r + k]
        fields = "\t".join(triples).split("\t") if triples else []
        for k in range(3):
            codes[k].extend(_encode(fields[k::3], ids[k], raw[k]))
        if "" in ids[0] or "" in ids[1]:
            _raise_first_bad_line(lines, line_no)
        line_no += len(lines)
    user, item, tag = (np.frombuffer(c, dtype=np.int64) for c in codes)
    pair_key = user * len(ids[1])
    pair_key += item
    return tuple(map(tuple, ids)), pair_key, tag


def _post_numbers(pair_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pair keys in order of first appearance, and each
    triple's post: the position of its pair key among them. The sort's
    temporaries are freed on return."""
    keys, first, pair = np.unique(pair_key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    post = np.empty_like(order)
    post[order] = np.arange(len(order))
    return keys[order], post[pair.ravel()]


def parse_triples(source: str | TextIO) -> PostTable:
    """Parse (user, item, tag) triples into posts, merging per (user, item).

    The tab format is one ``user\\titem\\ttag`` triple per line; the tag field
    may be empty (a tagless save). Duplicate triples accumulate tag frequency.
    Posts are ordered by their pair's first triple.

    ``source`` is the text, or a text file opened with universal newlines
    (``open``'s default). Either is read :data:`_PIECE_CHARS` characters at
    a time, and only one piece's lines and fields are held. Lines end at
    ``\\n``, ``\\r\\n`` or ``\\r`` only; other line separators such as
    ``\\x85`` belong to a field.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    (users, items, tags), pair_key, tag = _read_columns(source)
    post_key, post = _post_numbers(pair_key)
    del pair_key  # freed before the tag assignments are built
    if "" in tags:  # tagless saves carry no tag assignment
        empty = tags.index("")
        tags = tags[:empty] + tags[empty + 1:]
        tagged = tag != empty
        post, tag = post[tagged], tag[tagged]
        tag -= tag > empty
    by_post = np.argsort(post, kind="stable")
    post, tag = post[by_post], tag[by_post]
    user, item = np.divmod(post_key, max(len(items), 1))  # no items: no keys
    return PostTable(users, items, tags, user, item, tag_post=post, tag=tag)


def density_filter(
    posts: PostTable,
    min_items_per_user: int,
    min_users_per_item: int,
    unqualified_item_threshold: int,
) -> PostTable:
    """Alternately drop sparse users then sparse items until the number of
    items below ``min_users_per_item`` falls under the threshold, or a full
    pass removes nothing. Degrees count posts."""
    if min(min_items_per_user, min_users_per_item, unqualified_item_threshold) < 1:
        raise ValueError("thresholds must be >= 1")
    user, item = posts.user, posts.item
    alive = np.ones(len(posts), dtype=bool)
    while True:
        before = np.count_nonzero(alive)
        alive &= np.bincount(user[alive], minlength=len(posts.users))[user] >= min_items_per_user
        alive &= np.bincount(item[alive], minlength=len(posts.items))[item] >= min_users_per_item
        item_deg = np.bincount(item[alive], minlength=len(posts.items))
        unqualified = np.count_nonzero((item_deg > 0) & (item_deg < min_users_per_item))
        if unqualified < unqualified_item_threshold or np.count_nonzero(alive) == before:
            return posts._keep_posts(alive)


def select_tags(posts: PostTable, l: int) -> PostTable:
    """Keep only the ``l`` globally most frequent tags (ties broken
    lexicographically); posts stripped of all tags are retained."""
    if l < 1:
        raise ValueError("l must be >= 1")
    freq = np.bincount(posts.tag, minlength=len(posts.tags))
    used = np.flatnonzero(freq)
    names = np.array(posts.tags, dtype=object)[used]
    keep = np.zeros(len(posts.tags), dtype=bool)
    keep[used[np.lexsort((names, -freq[used]))[:l]]] = True
    kept = keep[posts.tag]
    return replace(posts, tag_post=posts.tag_post[kept], tag=posts.tag[kept])


def _first_appearance(codes: np.ndarray, ids: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Renumber ``codes`` 0, 1, ... in order of first appearance; return the
    new codes and the ids they index."""
    used, first = np.unique(codes, return_index=True)
    used = used[np.argsort(first)]
    renumber = np.empty(len(ids), dtype=np.int64)
    renumber[used] = np.arange(len(used))
    return renumber[codes], tuple(map(ids.__getitem__, used.tolist()))


def _count_matrix(rows: int, cols: int, i: np.ndarray, j: np.ndarray, binary: bool = False) -> sp.csr_matrix:
    """rows x cols matrix counting each (i, j) pair, or 1.0 per pair if binary."""
    keys, counts = np.unique(i * cols + j, return_counts=True)
    values = np.ones(len(keys)) if binary else counts.astype(np.float64)
    return csr_from_coo(rows, cols, keys // cols, keys % cols, values)


def build_matrices(posts: PostTable, total_tag_count: int | None = None) -> TaggingDataset:
    """Index ids by first appearance among the posts and assemble UI/UT/IT."""
    user, users = _first_appearance(posts.user, posts.users)
    item, items = _first_appearance(posts.item, posts.items)
    tag, tags = _first_appearance(posts.tag, posts.tags)
    m, n, l = len(users), len(items), len(tags)
    return TaggingDataset(
        users=users,
        items=items,
        tags=tags,
        UI=_count_matrix(m, n, user, item, binary=True),
        UT=_count_matrix(m, l, user[posts.tag_post], tag),
        IT=_count_matrix(n, l, item[posts.tag_post], tag),
        total_tag_count=l if total_tag_count is None else total_tag_count,
    )


def ingest(
    posts: PostTable,
    min_items_per_user: int | None = None,
    min_users_per_item: int | None = None,
    unqualified_item_threshold: int = 20,
    num_tags: int | None = None,
) -> TaggingDataset:
    """Full preprocessing pipeline: density filter, tag selection, matrices.

    The density filter runs when both minimum degrees are given; giving
    only one is an error.
    """
    if (min_items_per_user is None) != (min_users_per_item is None):
        raise ValueError("min_items_per_user and min_users_per_item go together")
    if min_items_per_user is not None:
        posts = density_filter(
            posts, min_items_per_user, min_users_per_item, unqualified_item_threshold
        )
    total = len(np.unique(posts.tag))
    if num_tags is not None:
        posts = select_tags(posts, num_tags)
    return build_matrices(posts, total_tag_count=total)


def stats(ds: TaggingDataset) -> DatasetStats:
    m, n = ds.num_users, ds.num_items
    if m < 1 or n < 1:
        raise EmptyDatasetError("dataset has no users or no items")
    p = ds.UI.nnz
    return DatasetStats(
        num_users=m,
        num_items=n,
        num_selected_tags=ds.num_tags,
        num_total_tags=ds.total_tag_count,
        num_transactions=p,
        density_percent=p / (m * n) * 100.0,
        avg_items_per_user=p / m,
        avg_users_per_item=p / n,
    )


def format_stats_table(s: DatasetStats) -> str:
    """Aligned text table of the dataset statistics."""
    rows = [
        ("Number of users: m", str(s.num_users)),
        ("Number of items: n", str(s.num_items)),
        ("Number of selected/total tags: l", f"{s.num_selected_tags}/{s.num_total_tags}"),
        ("Number of total transactions: p", str(s.num_transactions)),
        ("Data density: p/(mn) (%)", f"{s.density_percent:.2f}"),
        ("Avg. number of items per user", f"{s.avg_items_per_user:.2f}"),
        ("Avg. number of users per item", f"{s.avg_users_per_item:.2f}"),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def split(ds: TaggingDataset, train_fraction: float, seed: int) -> Split:
    """Per user, sample ceil(train_fraction * |saved items|) items into the
    training dataset's UI; the rest are withheld for testing. Deterministic
    per seed.

    Each user with saves draws positions in their ascending support, which
    is what drawing from the support itself draws; the draws mark UI's
    entries, and the marked and unmarked entries make the two sides."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    ui = ds.UI.sorted_indices()
    counts = np.diff(ui.indptr)
    n_train = np.minimum(counts, np.maximum(1, np.ceil(train_fraction * counts))).astype(np.int64)
    in_train = np.zeros(ui.nnz, dtype=bool)
    savers = np.flatnonzero(counts)
    for start, size, n in zip(*(a[savers].tolist() for a in (ui.indptr, counts, n_train))):
        in_train[start + rng.choice(size, size=n, replace=False)] = True
    rows = np.repeat(np.arange(ds.num_users), counts)
    train_ui = csr_from_coo(
        ds.num_users, ds.num_items, rows[in_train], ui.indices[in_train],
        np.ones(int(in_train.sum())),
    )
    held = iter(ui.indices[~in_train].tolist())
    held_counts = np.bincount(rows[~in_train], minlength=ds.num_users).tolist()
    test_sets = {u: frozenset(islice(held, c)) for u, c in enumerate(held_counts)}
    return Split(train=replace(ds, UI=train_ui), test_sets=test_sets)


def _csr_arrays(m: sp.csr_matrix) -> dict[str, np.ndarray]:
    """``m``'s canonical CSR arrays: column indices sorted within each row
    and no stored zeros. Works on a copy, so ``m`` is left as it is."""
    m = m.sorted_indices()
    m.eliminate_zeros()
    return {"indptr": m.indptr, "indices": m.indices, "data": m.data}


# Array elements that _json_pieces turns into text at a time.
_JSON_ELEMENTS = 1 << 14


def _json_pieces(value) -> Iterator[str]:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))`` in
    pieces: a dict entry by entry, a sparse matrix as the object of its
    :func:`_csr_arrays` (made when its turn comes), an array
    :data:`_JSON_ELEMENTS` elements at a time, and any other value whole."""
    if sp.issparse(value):
        value = _csr_arrays(value)
    if isinstance(value, dict):
        yield "{"
        for k, key in enumerate(sorted(value)):
            yield ("," if k else "") + json.dumps(key) + ":"
            yield from _json_pieces(value[key])
        yield "}"
    elif isinstance(value, np.ndarray):
        yield "["
        for start in range(0, len(value), _JSON_ELEMENTS):
            text = json.dumps(value[start:start + _JSON_ELEMENTS].tolist(), separators=(",", ":"))
            yield ("," if start else "") + text[1:-1]
        yield "]"
    else:
        yield json.dumps(value, separators=(",", ":"))


def dataset_json_pieces(ds: TaggingDataset) -> Iterator[str]:
    """:func:`dataset_to_json`'s text in pieces; writing them in turn holds
    one matrix's canonical arrays and the text of one slice of them at a
    time, never the whole snapshot."""
    return _json_pieces({
        "format_version": 2,
        "users": ds.users,
        "items": ds.items,
        "tags": ds.tags,
        "total_tag_count": ds.total_tag_count,
        "UI": ds.UI,
        "UT": ds.UT,
        "IT": ds.IT,
    })


def dataset_to_json(ds: TaggingDataset) -> str:
    """Portable snapshot, format version 2: id tables plus the CSR arrays
    (``indptr``, ``indices``, ``data``) of UI/UT/IT, as one JSON object with
    sorted keys and no whitespace."""
    return "".join(dataset_json_pieces(ds))


def _entry_columns(entries: list) -> tuple[list, list, list]:
    """Row indices, column indices and values of format-1 ``[row, col,
    value]`` entries."""
    if set(map(len, entries)) - {3}:
        raise ValueError("each entry must be [row, col, value]")
    return tuple([e[k] for e in entries] for k in range(3))


def _csr_columns(rows: int, arrays: dict) -> tuple[np.ndarray, list, list]:
    """Row indices, column indices and values of format-2 CSR arrays; the
    row indices expand ``indptr``, which is checked here."""
    if not isinstance(arrays, dict) or not arrays.keys() >= {"indptr", "indices", "data"}:
        raise ValueError("expected an object with indptr, indices and data")
    indptr, indices, data = arrays["indptr"], arrays["indices"], arrays["data"]
    if len(indptr) != rows + 1:
        raise ValueError(f"indptr has length {len(indptr)}, expected {rows + 1}")
    ptr = np.array(indptr)
    if ptr.dtype.kind != "i":
        raise ValueError("indptr is not a list of integers")
    if bool in set(map(type, indptr)):
        raise ValueError("indptr holds a boolean")
    if ptr[0] != 0:
        raise ValueError(f"indptr starts at {ptr[0]}, not 0")
    counts = np.diff(ptr)
    if len(counts) and counts.min() < 0:
        raise ValueError("indptr decreases")
    if ptr[-1] != len(indices) or len(indices) != len(data):
        raise ValueError(
            f"indptr ends at {ptr[-1]}, with {len(indices)} indices and {len(data)} values"
        )
    return np.repeat(np.arange(rows), counts), indices, data


def _checked_matrix(rows: int, cols: int, i, j, v, check_booleans: bool) -> sp.csr_matrix:
    """A snapshot matrix from its row indices, column indices and values, as
    read (lists) or derived from checked arrays: the indices must be
    integers and the values non-negative numbers. A boolean among numbers
    would read as 0 or 1, so ``check_booleans`` scans the lists for one."""
    if check_booleans and any(bool in set(map(type, c)) for c in (i, j, v) if isinstance(c, list)):
        raise ValueError("entry holds a boolean")
    i, j, v = np.asarray(i), np.asarray(j), np.asarray(v)
    if len(v) and not (i.dtype.kind == j.dtype.kind == "i" and i.ndim == j.ndim == 1):
        raise ValueError("entry index is not an integer")
    if len(v) and not (v.dtype.kind in "if" and v.ndim == 1):
        raise ValueError("entry value is not a number")
    matrix = csr_from_coo(rows, cols, i, j, v)
    if matrix.nnz and matrix.data.min() < 0:
        raise ValueError("negative entry")
    return matrix


_SNAPSHOT_FIELDS = ("format_version", "users", "items", "tags", "total_tag_count", "UI", "UT", "IT")


def dataset_from_json(text: str) -> TaggingDataset:
    """Read a snapshot written by :func:`dataset_to_json`, in format version
    2 or in version 1, which stores each matrix as ``[row, col, value]``
    entries.

    Raises :class:`InvalidDatasetError` for malformed JSON, another format
    version, missing or mistyped fields, duplicate ids, a
    ``total_tag_count`` below the number of tags, a version-2 ``indptr`` of
    the wrong length, not of integers, not starting at 0, decreasing or not
    ending at the number of indices and values, and
    matrix entries that are not three numbers (a JSON boolean is not one),
    have a non-integer index, or are out of range, repeated, non-finite or
    negative.
    """
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDatasetError(f"not JSON: {exc}") from None
    if not isinstance(d, dict):
        raise InvalidDatasetError("expected a JSON object")
    missing = [key for key in _SNAPSHOT_FIELDS if key not in d]
    if missing:
        raise InvalidDatasetError(f"missing fields {missing}")
    version = d["format_version"]
    if type(version) is not int or version not in (1, 2):
        raise InvalidDatasetError(f"unsupported dataset format_version {version!r}")
    for key in ("users", "items", "tags"):
        ids = d[key]
        if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
            raise InvalidDatasetError(f"{key} must be a list of strings")
        if len(set(ids)) != len(ids):
            repeated = next(x for x, count in Counter(ids).items() if count > 1)
            raise InvalidDatasetError(f"duplicate {key[:-1]} id {repeated!r}")
    m, n, l = len(d["users"]), len(d["items"]), len(d["tags"])
    if type(d["total_tag_count"]) is not int or d["total_tag_count"] < l:
        raise InvalidDatasetError(f"total_tag_count must be an integer >= {l}, the number of tags")
    matrices = {}
    # only text that spells a JSON boolean can hold one
    check_booleans = "true" in text or "false" in text
    for key, rows, cols in (("UI", m, n), ("UT", m, l), ("IT", n, l)):
        try:
            columns = _entry_columns(d[key]) if version == 1 else _csr_columns(rows, d[key])
            matrices[key] = _checked_matrix(rows, cols, *columns, check_booleans)
        except (TypeError, ValueError, LookupError) as exc:
            raise InvalidDatasetError(f"{key}: {exc}") from None
    return TaggingDataset(
        users=tuple(d["users"]),
        items=tuple(d["items"]),
        tags=tuple(d["tags"]),
        total_tag_count=d["total_tag_count"],
        **matrices,
    )
