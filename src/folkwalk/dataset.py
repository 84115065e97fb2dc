"""Folksonomy ingestion: triple parsing, density filtering, tag selection,
co-occurrence matrix construction, statistics, and train/test splitting."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import SparseMatrix


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
    """One (user, item) save event with the tags applied to it.

    ``tags`` is a multiset stored as a tuple; repeats count toward tag
    frequencies.
    """

    user: str
    item: str
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.user or not self.item:
            raise ValueError("user and item ids must be non-empty")


@dataclass(frozen=True)
class TaggingDataset:
    """Indexed posts plus the derived co-occurrence matrices.

    UI is binary m x n (user saved item), UT is m x l tag-use frequencies per
    user, IT is n x l tag frequencies per item. ``total_tag_count`` is the
    distinct-tag count before any tag selection (equals len(tags) when no
    selection was applied).
    """

    users: tuple[str, ...]
    items: tuple[str, ...]
    tags: tuple[str, ...]
    UI: SparseMatrix
    UT: SparseMatrix
    IT: SparseMatrix
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
    m: int
    n: int
    l_selected: int
    l_total: int
    p: int
    density: float
    avg_items_per_user: float
    avg_users_per_item: float

    def to_dict(self) -> dict:
        return {
            "num_users": self.m,
            "num_items": self.n,
            "num_selected_tags": self.l_selected,
            "num_total_tags": self.l_total,
            "num_transactions": self.p,
            "density_percent": self.density * 100.0,
            "avg_items_per_user": self.avg_items_per_user,
            "avg_users_per_item": self.avg_users_per_item,
        }


@dataclass(frozen=True)
class Split:
    """Per-user partition of UI support into train and held-out test items."""

    train_UI: SparseMatrix
    test_sets: dict[int, frozenset[int]]
    seed: int
    train_fraction: float


def parse_triples(text: str, fmt: str = "tsv") -> list[Post]:
    """Parse (user, item, tag) triples into posts, merging per (user, item).

    The tab format is one ``user\\titem\\ttag`` triple per line; the tag field
    may be empty (a tagless save). Duplicate triples accumulate tag frequency.
    """
    if fmt != "tsv":
        raise ValueError(f"unknown triple format {fmt!r}")
    merged: dict[tuple[str, str], list[str]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 3 tab-separated fields, got {len(parts)}")
        user, item, tag = (p.strip() for p in parts)
        if not user or not item:
            raise ParseError(line_no, "empty user or item id")
        tags = merged.setdefault((user, item), [])
        if tag:
            tags.append(tag)
    return [Post(user, item, tuple(tags)) for (user, item), tags in merged.items()]


def density_filter(
    posts: list[Post],
    min_items_per_user: int,
    min_users_per_item: int,
    unqualified_item_threshold: int,
) -> list[Post]:
    """Alternately drop sparse users then sparse items until the number of
    items below ``min_users_per_item`` falls under the threshold, or a full
    pass removes nothing."""
    if min(min_items_per_user, min_users_per_item, unqualified_item_threshold) < 1:
        raise ValueError("thresholds must be >= 1")
    current = list(posts)
    while True:
        before = len(current)
        user_deg = Counter(p.user for p in current)
        current = [p for p in current if user_deg[p.user] >= min_items_per_user]
        item_deg = Counter(p.item for p in current)
        current = [p for p in current if item_deg[p.item] >= min_users_per_item]
        item_deg = Counter(p.item for p in current)
        unqualified = sum(1 for c in item_deg.values() if c < min_users_per_item)
        if unqualified < unqualified_item_threshold or len(current) == before:
            return current


def select_tags(posts: list[Post], l: int) -> list[Post]:
    """Keep only the ``l`` globally most frequent tags (ties broken
    lexicographically); posts stripped of all tags are retained."""
    if l < 1:
        raise ValueError("l must be >= 1")
    freq = Counter(t for p in posts for t in p.tags)
    keep = {t for t, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:l]}
    return [
        Post(p.user, p.item, tuple(t for t in p.tags if t in keep)) for p in posts
    ]


def build_matrices(posts: list[Post], total_tag_count: int | None = None) -> TaggingDataset:
    """Index ids by first appearance and assemble UI/UT/IT."""
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    tags: dict[str, int] = {}
    ui: dict[tuple[int, int], float] = {}
    ut: Counter = Counter()
    it: Counter = Counter()
    for p in posts:
        u = users.setdefault(p.user, len(users))
        i = items.setdefault(p.item, len(items))
        ui[(u, i)] = 1.0
        for t in p.tags:
            k = tags.setdefault(t, len(tags))
            ut[(u, k)] += 1
            it[(i, k)] += 1
    m, n, l = len(users), len(items), len(tags)
    return TaggingDataset(
        users=tuple(users),
        items=tuple(items),
        tags=tuple(tags),
        UI=SparseMatrix(m, n, [(u, i, v) for (u, i), v in ui.items()]),
        UT=SparseMatrix(m, l, [(u, k, float(v)) for (u, k), v in ut.items()]),
        IT=SparseMatrix(n, l, [(i, k, float(v)) for (i, k), v in it.items()]),
        total_tag_count=l if total_tag_count is None else total_tag_count,
    )


def ingest(
    posts: list[Post],
    min_items_per_user: int | None = None,
    min_users_per_item: int | None = None,
    unqualified_item_threshold: int = 20,
    num_tags: int | None = None,
) -> TaggingDataset:
    """Full preprocessing pipeline: density filter, tag selection, matrices."""
    if min_items_per_user is not None and min_users_per_item is not None:
        posts = density_filter(
            posts, min_items_per_user, min_users_per_item, unqualified_item_threshold
        )
    total = len({t for p in posts for t in p.tags})
    if num_tags is not None:
        posts = select_tags(posts, num_tags)
    return build_matrices(posts, total_tag_count=total)


def stats(ds: TaggingDataset) -> DatasetStats:
    m, n = ds.num_users, ds.num_items
    if m < 1 or n < 1:
        raise EmptyDatasetError("dataset has no users or no items")
    p = ds.UI.nnz
    return DatasetStats(
        m=m,
        n=n,
        l_selected=ds.num_tags,
        l_total=ds.total_tag_count,
        p=p,
        density=p / (m * n),
        avg_items_per_user=p / m,
        avg_users_per_item=p / n,
    )


def format_stats_table(s: DatasetStats) -> str:
    """Aligned text table of the dataset statistics."""
    rows = [
        ("Number of users: m", str(s.m)),
        ("Number of items: n", str(s.n)),
        ("Number of selected/total tags: l", f"{s.l_selected}/{s.l_total}"),
        ("Number of total transactions: p", str(s.p)),
        ("Data density: p/(mn) (%)", f"{s.density * 100:.2f}"),
        ("Avg. number of items per user", f"{s.avg_items_per_user:.2f}"),
        ("Avg. number of users per item", f"{s.avg_users_per_item:.2f}"),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def split(ds: TaggingDataset, train_fraction: float, seed: int) -> Split:
    """Per user, sample ceil(train_fraction * |saved items|) items into the
    training matrix; the rest are withheld for testing. Deterministic per
    seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    ui = ds.UI.csr()
    train_entries: list[tuple[int, int, float]] = []
    test_sets: dict[int, frozenset[int]] = {}
    for u in range(ds.num_users):
        support = ui.indices[ui.indptr[u]:ui.indptr[u + 1]]
        if len(support) == 0:
            test_sets[u] = frozenset()
            continue
        n_train = min(len(support), max(1, math.ceil(train_fraction * len(support))))
        chosen = rng.choice(np.sort(support), size=n_train, replace=False)
        chosen_set = set(int(j) for j in chosen)
        train_entries.extend((u, j, 1.0) for j in sorted(chosen_set))
        test_sets[u] = frozenset(int(j) for j in support if int(j) not in chosen_set)
    return Split(
        train_UI=SparseMatrix(ds.num_users, ds.num_items, train_entries),
        test_sets=test_sets,
        seed=seed,
        train_fraction=train_fraction,
    )


def dataset_to_json(ds: TaggingDataset) -> str:
    """Portable snapshot: id tables plus coordinate lists for UI/UT/IT."""
    payload = {
        "format_version": 1,
        "users": list(ds.users),
        "items": list(ds.items),
        "tags": list(ds.tags),
        "total_tag_count": ds.total_tag_count,
        "UI": ds.UI.entries,
        "UT": ds.UT.entries,
        "IT": ds.IT.entries,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_SNAPSHOT_FIELDS = ("format_version", "users", "items", "tags", "total_tag_count", "UI", "UT", "IT")


def dataset_from_json(text: str) -> TaggingDataset:
    """Read a snapshot written by :func:`dataset_to_json`.

    Raises :class:`InvalidDatasetError` for malformed JSON, another format
    version, missing or mistyped fields, duplicate ids, and matrix entries
    that are out of range, repeated, non-finite or negative.
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
    if d["format_version"] != 1:
        raise InvalidDatasetError(f"unsupported dataset format_version {d['format_version']!r}")
    for key in ("users", "items", "tags"):
        ids = d[key]
        if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
            raise InvalidDatasetError(f"{key} must be a list of strings")
        if len(set(ids)) != len(ids):
            repeated = next(x for x, count in Counter(ids).items() if count > 1)
            raise InvalidDatasetError(f"duplicate {key[:-1]} id {repeated!r}")
    if not isinstance(d["total_tag_count"], int):
        raise InvalidDatasetError("total_tag_count must be an integer")
    m, n, l = len(d["users"]), len(d["items"]), len(d["tags"])
    matrices = {}
    for key, rows, cols in (("UI", m, n), ("UT", m, l), ("IT", n, l)):
        try:
            matrix = SparseMatrix(rows, cols, [tuple(e) for e in d[key]])
        except (TypeError, ValueError, IndexError) as exc:
            raise InvalidDatasetError(f"{key}: {exc}") from None
        if matrix.nnz and matrix.csr().data.min() < 0:
            raise InvalidDatasetError(f"{key}: negative entry")
        matrices[key] = matrix
    return TaggingDataset(
        users=tuple(d["users"]),
        items=tuple(d["items"]),
        tags=tuple(d["tags"]),
        total_tag_count=d["total_tag_count"],
        **matrices,
    )
