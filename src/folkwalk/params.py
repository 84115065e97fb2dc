"""The recommenders' parameters: the walk and similarity hyperparameters,
their range checks, and the algorithm selector. Standard library only, so
the command line reads them without loading numpy or scipy."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class WalkConfig:
    """Hyperparameters for the two walks and their fusion."""

    eta: float = 0.8
    lambda_: float = 0.8
    mu: float = 0.5

    def __post_init__(self):
        _check_damping(self.eta, "eta")
        _check_damping(self.lambda_, "lambda")
        _check_weight(self.mu, "mu")


def _check_damping(value: float, name: str) -> None:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value}")


@dataclass(frozen=True)
class SimilarityConfig:
    """The tag chains' weights in the item (alpha) and user (beta) similarities."""

    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self):
        _check_weight(self.alpha, "alpha")
        _check_weight(self.beta, "beta")


def _check_weight(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


ABLATION_KINDS = ("pRW-IT", "pRW-UT", "pRW-UI", "pRW")
ALGORITHM_KINDS = ("Random", "UserCF", "ItemCF", "Fusion") + ABLATION_KINDS


@dataclass(frozen=True)
class AlgorithmSpec:
    """Algorithm selector plus its kind-specific parameters.

    Recognized params: ``k_neighbors`` (UserCF/ItemCF), ``fuse_weight``
    (Fusion), ``walk`` (WalkConfig) and ``similarity`` (SimilarityConfig)
    for the walk variants; Random takes none.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ALGORITHM_KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        known = {
            "Random": set(),
            "UserCF": {"k_neighbors"},
            "ItemCF": {"k_neighbors"},
            "Fusion": {"fuse_weight"},
        }.get(self.kind, {"walk", "similarity"})
        extra = set(self.params) - known
        if extra:
            raise ValueError(f"unknown params for {self.kind}: {sorted(extra)}")
        k_neighbors = self.params.get("k_neighbors")
        if k_neighbors is not None and k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
        fuse_weight = self.params.get("fuse_weight", 0.5)
        if not 0.0 <= fuse_weight <= 1.0:
            raise ValueError(f"fuse_weight must be in [0, 1], got {fuse_weight}")


def walk_params(values: dict[str, float]) -> dict:
    """A walk variant's ``walk`` and ``similarity`` params from hyperparameter
    values named alpha, beta, eta, lambda or mu; a missing one takes its
    default. An unknown name or an out-of-range value raises ``ValueError``."""
    unknown = set(values) - {"alpha", "beta", "eta", "lambda", "mu"}
    if unknown:
        raise ValueError(f"unknown hyperparameters: {sorted(unknown)}")
    similarity = {k: v for k, v in values.items() if k in ("alpha", "beta")}
    walk = {"lambda_" if k == "lambda" else k: v for k, v in values.items() if k not in similarity}
    return {"walk": WalkConfig(**walk), "similarity": SimilarityConfig(**similarity)}
