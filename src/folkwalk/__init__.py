"""Random-walk-with-restart item recommender for social tagging data."""

from .dataset import Post, Split, TaggingDataset
from .params import AlgorithmSpec, SimilarityConfig, WalkConfig

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec",
    "Post",
    "SimilarityConfig",
    "Split",
    "TaggingDataset",
    "WalkConfig",
    "item_similarity",
    "user_similarity",
    "__version__",
]


def __getattr__(name: str):
    # the paper's formulas are references the pipeline never calls, so
    # importing the package does not load their module
    if name in ("item_similarity", "user_similarity"):
        from . import similarity

        return getattr(similarity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
