"""The rounding gate for CF top-N lists, in extended precision.

Two ways of computing one algorithm's scores that sum in different orders
agree only to rounding, so an exact tie, or a gap of a few ulps, may rank
either way. :func:`flips` finds every user whose two top-N lists differ,
recomputes that user's scores in ``np.longdouble`` from the cosine
definition, and returns each pair of items that the two lists order
differently, with the pair's score gap relative to the user's top score. A
difference is certified when every gap is below ``TOLERANCE``
(:func:`certified`): such a flip is a tie, not a different ranking.

Only the CF kinds have extended-precision scores here; any other kind raises
``NotImplementedError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from folkwalk.baselines import AlgorithmSpec
from folkwalk.dataset import TaggingDataset

TOLERANCE = 1e-12


@dataclass(frozen=True)
class Flip:
    """Items ``first`` and ``second`` of ``user``'s lists: the first lists
    rank ``first`` ahead, the second lists ``second``. ``gap`` is their
    extended-precision score difference over the user's top score."""

    user: int
    first: int
    second: int
    gap: float


def _unit_rows(profile: sp.csr_matrix) -> sp.csr_matrix:
    """The profile's rows in longdouble, scaled to unit length."""
    profile = profile.astype(np.longdouble)
    norms = np.sqrt(np.asarray(profile.multiply(profile).sum(axis=1)).ravel())
    return sp.csr_matrix(sp.diags(1 / np.where(norms > 0, norms, 1)) @ profile)


def _neighborhoods(unit: sp.csr_matrix, rows: np.ndarray, k_neighbors: int | None) -> np.ndarray:
    """Rows ``rows`` of the cosine of ``unit``'s rows, dense, with each row's
    similarity to itself zeroed; with ``k_neighbors``, only each row's k
    largest similarities are kept (ties by lower index)."""
    sim = (unit[rows] @ unit.T).toarray()
    sim[np.arange(len(rows)), rows] = 0
    if k_neighbors is not None:
        dropped = np.argsort(-sim, axis=1, kind="stable")[:, k_neighbors:]
        np.put_along_axis(sim, dropped, 0, axis=1)
    return sim


def exact_scores(ds: TaggingDataset, spec: AlgorithmSpec, user: int) -> np.ndarray:
    """One user's CF scores in longdouble: user-based, the user's cosine
    neighborhood times the interactions; item-based, the user's saves times
    their items' neighborhoods; Fusion, the two with tag-extended profiles,
    combined with its weight."""
    ui = ds.UI.astype(np.longdouble)
    k_neighbors = spec.params.get("k_neighbors")

    def user_based(profile):
        return _neighborhoods(_unit_rows(profile), np.array([user]), k_neighbors)[0] @ ui

    def item_based(profile):
        saves = ui[user]
        return saves.data @ _neighborhoods(_unit_rows(profile), saves.indices, k_neighbors)

    if spec.kind == "UserCF":
        return user_based(ds.UI)
    if spec.kind == "ItemCF":
        return item_based(ds.UI.T.tocsr())
    if spec.kind == "Fusion":
        weight = np.longdouble(spec.params.get("fuse_weight", 0.5))
        user_side = user_based(sp.hstack([ds.UI, ds.UT], format="csr"))
        item_side = item_based(sp.hstack([ds.UI.T, ds.IT], format="csr"))
        return weight * user_side + (1 - weight) * item_side
    raise NotImplementedError(f"no extended-precision scores for {spec.kind}")


def _swapped(first: list[int], second: list[int]) -> list[tuple[int, int]]:
    """Pairs of items that the two lists order differently, each as (ahead
    in ``first``, ahead in ``second``); an item a list leaves out ranks
    behind every item it names."""

    def rank(items):
        return lambda item: items.index(item) if item in items else len(items)

    in_first, in_second = rank(first), rank(second)
    pairs = []
    for a, b in combinations(sorted(set(first) | set(second)), 2):
        ahead_first, ahead_second = in_first(a) - in_first(b), in_second(a) - in_second(b)
        if ahead_first * ahead_second < 0:
            pairs.append((a, b) if ahead_first < 0 else (b, a))
    return pairs


def flips(
    ds: TaggingDataset,
    spec: AlgorithmSpec,
    first: dict[int, list[int]],
    second: dict[int, list[int]],
) -> list[Flip]:
    """Every pair of items that two sets of top-N lists of ``spec`` trained
    on ``ds`` order differently, with its extended-precision gap."""
    if spec.kind not in ("UserCF", "ItemCF", "Fusion"):
        raise NotImplementedError(f"no extended-precision scores for {spec.kind}")
    if first.keys() != second.keys():
        raise ValueError("the two sets of lists cover different users")
    found = []
    for user in sorted(u for u in first if first[u] != second[u]):
        scores = exact_scores(ds, spec, user)
        unsaved = np.ones(ds.num_items, dtype=bool)
        unsaved[ds.UI[user].indices] = False
        top = scores[unsaved].max()
        for a, b in _swapped(first[user], second[user]):
            gap = abs(scores[a] - scores[b])
            found.append(Flip(user, a, b, float(gap / top) if gap else 0.0))
    return found


def certified(found: list[Flip]) -> bool:
    """Whether every flip is a tie at rounding level."""
    return all(flip.gap < TOLERANCE for flip in found)
