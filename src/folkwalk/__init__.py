"""Random-walk-with-restart item recommender for social tagging data."""

from .baselines import AlgorithmSpec
from .dataset import Post, Split, TaggingDataset
from .similarity import item_similarity, user_similarity
from .walker import SimilarityConfig, WalkConfig

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
