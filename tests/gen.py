"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import json
from collections.abc import Iterable

import numpy as np
import scipy.sparse as sp

from folkwalk.dataset import Post, PostTable, TaggingDataset, build_matrices
from folkwalk.linalg import csr_from_coo


def csr(rows: int, cols: int, entries: Iterable[tuple[int, int, float]] = ()) -> sp.csr_matrix:
    """Checked rows x cols CSR matrix from (row, col, value) entries."""
    entries = list(entries)
    return csr_from_coo(rows, cols, *(np.array([e[k] for e in entries]) for k in range(3)))


def entry_list(m: sp.csr_matrix) -> list[tuple[int, int, float]]:
    """Stored entries as (row, col, value) Python scalars, sorted by (row, col)."""
    coo = m.tocoo()
    order = np.lexsort((coo.col, coo.row))
    return list(zip(coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist()))


def v1_json(ds: TaggingDataset) -> str:
    """The dataset as a format-1 snapshot, byte for byte as the format-1
    writer produced it: each matrix is a list of [row, col, value] entries."""
    payload = {
        "format_version": 1,
        "users": list(ds.users),
        "items": list(ds.items),
        "tags": list(ds.tags),
        "total_tag_count": ds.total_tag_count,
        "UI": entry_list(ds.UI),
        "UT": entry_list(ds.UT),
        "IT": entry_list(ds.IT),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def random_posts(
    rng: np.random.Generator,
    n_users: int = 8,
    n_items: int = 10,
    n_tags: int = 5,
    items_per_user: tuple[int, int] = (2, 5),
    tags_per_save: tuple[int, int] = (1, 3),
) -> list[Post]:
    """Posts where every user saves and tags something; item/tag coverage is
    not guaranteed (use :func:`random_dataset` for post-filter-like data)."""
    posts = []
    for u in range(n_users):
        k = rng.integers(items_per_user[0], items_per_user[1] + 1)
        for i in rng.choice(n_items, size=min(k, n_items), replace=False):
            nt = rng.integers(tags_per_save[0], tags_per_save[1] + 1)
            tags = tuple(f"t{t}" for t in rng.choice(n_tags, size=nt))
            posts.append(Post(f"u{u}", f"i{i}", tags))
    return posts


def random_dataset(
    rng: np.random.Generator,
    n_users: int = 8,
    n_items: int = 10,
    n_tags: int = 5,
    **kwargs,
) -> TaggingDataset:
    """Dataset where every user has >= 1 item and tag, and every item has
    >= 1 user and tag (the shape the density filter guarantees)."""
    posts = random_posts(rng, n_users, n_items, n_tags, **kwargs)
    # guarantee item coverage: round-robin a save with a tag onto each item
    for i in range(n_items):
        u = i % n_users
        posts.append(Post(f"u{u}", f"i{i}", (f"t{i % n_tags}",)))
    merged: dict[tuple[str, str], list[str]] = {}
    for p in posts:
        merged.setdefault((p.user, p.item), []).extend(p.tags)
    flat = [Post(u, i, tuple(t)) for (u, i), t in merged.items()]
    return build_matrices(PostTable.from_posts(flat))


def edge_user_dataset(rng: np.random.Generator, sorted_rows: bool = True) -> TaggingDataset:
    """:func:`random_dataset` with three users appended: one with no saves,
    one with a single save (every split trains on all of it) and one who
    saved every item. Unless ``sorted_rows``, UI stores each row's column
    indices in descending order."""
    ds = random_dataset(rng, n_users=12, n_items=15, n_tags=4)
    single = np.zeros(ds.num_items)
    single[rng.integers(ds.num_items)] = 1.0
    ui = np.vstack([ds.UI.toarray(), np.zeros(ds.num_items), single, np.ones(ds.num_items)])
    ui = sp.csr_matrix(ui)
    if not sorted_rows:
        for u in range(ui.shape[0]):
            row = slice(ui.indptr[u], ui.indptr[u + 1])
            ui.indices[row] = ui.indices[row][::-1]
        ui.has_sorted_indices = False
    m = ui.shape[0]
    return TaggingDataset(
        users=tuple(f"u{u}" for u in range(m)),
        items=ds.items,
        tags=ds.tags,
        UI=ui,
        UT=sp.vstack([ds.UT, sp.csr_matrix((3, ds.num_tags))], format="csr"),
        IT=ds.IT,
    )


def slow_mix_dataset(rng: np.random.Generator) -> TaggingDataset:
    """Dense save clusters joined by one bridge user: the similarity matrices
    mix slowly (second eigenvalue near 1), so the walk's successive-change
    ratio settles at the damping factor within a few iterations."""
    n_clusters = int(rng.integers(2, 4))
    posts = []
    for c in range(n_clusters):
        users = int(rng.integers(4, 8))
        items = int(rng.integers(5, 9))
        for u in range(users):
            for i in range(items):
                posts.append(Post(f"u{c}_{u}", f"i{c}_{i}", (f"t{c}",)))
    for c in range(n_clusters):
        for i in range(int(rng.integers(2, 4))):
            posts.append(Post("bridge", f"i{c}_{i}", (f"t{c}",)))
    merged: dict[tuple[str, str], list[str]] = {}
    for p in posts:
        merged.setdefault((p.user, p.item), []).extend(p.tags)
    return build_matrices(PostTable.from_posts(Post(u, i, tuple(t)) for (u, i), t in merged.items()))


def planted_cluster_posts(
    rng: np.random.Generator,
    n_user_clusters: int = 5,
    n_item_clusters: int = 5,
    n_users: int = 200,
    n_items: int = 250,
    n_tags: int = 40,
    p_within: float = 0.3,
    p_cross: float = 0.01,
) -> list[Post]:
    """Block-structured corpus: user cluster c saves items of item cluster c
    with probability p_within and others with p_cross; saves carry tags drawn
    from the item cluster's dedicated tag block."""
    tags_per_cluster = n_tags // n_item_clusters
    posts = []
    for u in range(n_users):
        uc = u * n_user_clusters // n_users
        for i in range(n_items):
            ic = i * n_item_clusters // n_items
            p = p_within if uc == ic else p_cross
            if rng.random() < p:
                t = ic * tags_per_cluster + int(rng.integers(tags_per_cluster))
                posts.append(Post(f"u{u}", f"i{i}", (f"t{t}",)))
    return posts


def random_triples_tsv(
    rng: np.random.Generator,
    n_triples: int,
    n_users: int = 4000,
    n_items: int = 3000,
    n_tags: int = 200,
) -> str:
    """``n_triples`` tab-separated (user, item, tag) lines with uniformly
    drawn ids; about one line in ten has an empty tag field."""
    columns = [rng.integers(n, size=n_triples).tolist() for n in (n_users, n_items, n_tags)]
    tagged = (rng.random(n_triples) >= 0.1).tolist()
    return "".join(
        f"u{u}\ti{i}\t{f't{t}' if has_tag else ''}\n"
        for u, i, t, has_tag in zip(*columns, tagged)
    )
