"""Reference ingest: the per-post object pipeline that the columnar one in
``folkwalk.dataset`` replaced, kept as an oracle for the tests.

Each function handles one post at a time with Python containers; a post
is a ``(user, item, tags)`` tuple, a :mod:`gen` record. Line
splitting is ``str.splitlines``, so inputs compared against the columnar
parser must end lines with ``\\n``, ``\\r\\n`` or ``\\r`` only and keep
other line separators (``\\x0c``, ``\\x85``, U+2028, ...) out of fields.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np

from folkwalk.dataset import ParseError, Split, TaggingDataset

from gen import Record, csr


def parse_triples(text: str) -> list[Record]:
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
    return [(user, item, tuple(tags)) for (user, item), tags in merged.items()]


def density_filter(posts, min_items_per_user, min_users_per_item, unqualified_item_threshold):
    current = list(posts)
    while True:
        before = len(current)
        user_deg = Counter(user for user, _, _ in current)
        current = [p for p in current if user_deg[p[0]] >= min_items_per_user]
        item_deg = Counter(item for _, item, _ in current)
        current = [p for p in current if item_deg[p[1]] >= min_users_per_item]
        item_deg = Counter(item for _, item, _ in current)
        unqualified = sum(1 for c in item_deg.values() if c < min_users_per_item)
        if unqualified < unqualified_item_threshold or len(current) == before:
            return current


def select_tags(posts: list[Record], l: int) -> list[Record]:
    freq = Counter(t for _, _, tags in posts for t in tags)
    keep = {t for t, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:l]}
    return [(user, item, tuple(t for t in tags if t in keep)) for user, item, tags in posts]


def build_matrices(posts: list[Record], total_tag_count: int | None = None) -> TaggingDataset:
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    tags: dict[str, int] = {}
    ui: dict[tuple[int, int], float] = {}
    ut: Counter = Counter()
    it: Counter = Counter()
    for user, item, post_tags in posts:
        u = users.setdefault(user, len(users))
        i = items.setdefault(item, len(items))
        ui[(u, i)] = 1.0
        for t in post_tags:
            k = tags.setdefault(t, len(tags))
            ut[(u, k)] += 1
            it[(i, k)] += 1
    m, n, l = len(users), len(items), len(tags)
    return TaggingDataset(
        users=tuple(users),
        items=tuple(items),
        tags=tuple(tags),
        UI=csr(m, n, [(u, i, v) for (u, i), v in ui.items()]),
        UT=csr(m, l, [(u, k, float(v)) for (u, k), v in ut.items()]),
        IT=csr(n, l, [(i, k, float(v)) for (i, k), v in it.items()]),
        total_tag_count=l if total_tag_count is None else total_tag_count,
    )


def merge_posts(posts) -> list[Record]:
    """One post per (user, item) pair, with the pair's tags in input order."""
    merged: dict[tuple[str, str], list[str]] = {}
    for user, item, tags in posts:
        merged.setdefault((user, item), []).extend(tags)
    return [(user, item, tuple(tags)) for (user, item), tags in merged.items()]


def ingest(posts, min_items_per_user=None, min_users_per_item=None,
           unqualified_item_threshold=20, num_tags=None) -> TaggingDataset:
    posts = merge_posts(posts)
    if min_items_per_user is not None and min_users_per_item is not None:
        posts = density_filter(
            posts, min_items_per_user, min_users_per_item, unqualified_item_threshold
        )
    total = len({t for _, _, tags in posts for t in tags})
    if num_tags is not None:
        posts = select_tags(posts, num_tags)
    return build_matrices(posts, total_tag_count=total)


def split(ds: TaggingDataset, train_fraction: float, seed: int) -> Split:
    """The train/test split built from a list of (u, j, 1.0) entries."""
    rng = np.random.default_rng(seed)
    ui = ds.UI
    train_entries: list[tuple[int, int, float]] = []
    test_entries: list[tuple[int, int, float]] = []
    for u in range(ds.num_users):
        support = ui.indices[ui.indptr[u]:ui.indptr[u + 1]]
        if len(support) == 0:
            continue
        n_train = min(len(support), max(1, math.ceil(train_fraction * len(support))))
        chosen = rng.choice(np.sort(support), size=n_train, replace=False)
        chosen_set = set(int(j) for j in chosen)
        train_entries.extend((u, j, 1.0) for j in sorted(chosen_set))
        test_entries.extend((u, int(j), 1.0) for j in support if int(j) not in chosen_set)
    return Split(
        train=replace(ds, UI=csr(ds.num_users, ds.num_items, train_entries)),
        test=csr(ds.num_users, ds.num_items, test_entries),
    )
