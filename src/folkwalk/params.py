"""The recommenders' parameters: :class:`WalkConfig`, the walk's five
hyperparameters with their range checks, the algorithm selector, and
:data:`ALGORITHMS`, the one table of the options each algorithm reads and of
the walk values that :func:`walk_params` fixes. Every algorithm's ``params``
are its options by name. Standard library only, so the command line reads
them without loading numpy or scipy."""

from dataclasses import asdict, dataclass, field, replace


@dataclass(frozen=True)
class WalkConfig:
    """The walk's hyperparameters: the tag chains' weights in the item
    (alpha) and user (beta) similarities, the damping of the item (eta) and
    user (lambda_) walks, and the item walk's weight in their fusion (mu)."""

    alpha: float = 0.5
    beta: float = 0.5
    eta: float = 0.8
    lambda_: float = 0.8
    mu: float = 0.5

    def __post_init__(self):
        _check_weight(self.alpha, "alpha")
        _check_weight(self.beta, "beta")
        _check_damping(self.eta, "eta")
        _check_damping(self.lambda_, "lambda")
        _check_weight(self.mu, "mu")


def _check_damping(value: float, name: str) -> None:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value}")


def _check_weight(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


# the walk hyperparameters' defaults by option name (lambda_ is --lambda)
WALK_DEFAULTS = asdict(WalkConfig())
FUSE_WEIGHT = 0.5

# each algorithm's options, by option name, and the walk hyperparameters it
# fixes: pRW-IT is the item walk alone on tag similarity, pRW-UT the user walk
# alone on tag similarity, and pRW-UI both walks on interaction similarity.
# With alpha = beta = 0, as pRW-UI fixes them, the two walks differ only in
# their damping, so at eta = lambda they score alike and mu moves no pRW-UI
# score: several values of mu are then candidates that score as one
ALGORITHMS = {
    "Random": ((), {}),
    "UserCF": (("k_neighbors",), {}),
    "ItemCF": (("k_neighbors",), {}),
    "Fusion": (("fuse_weight",), {}),
    "pRW-IT": (("eta",), {"alpha": 1.0, "mu": 1.0}),
    "pRW-UT": (("lambda_",), {"beta": 1.0, "mu": 0.0}),
    "pRW-UI": (("eta", "lambda_", "mu"), {"alpha": 0.0, "beta": 0.0}),
    "pRW": (tuple(WALK_DEFAULTS), {}),
}
ALGORITHM_KINDS = tuple(ALGORITHMS)
ABLATION_KINDS = tuple(kind for kind in ALGORITHMS if kind.startswith("pRW"))


@dataclass(frozen=True)
class AlgorithmSpec:
    """Algorithm selector plus its kind-specific parameters by option name:
    the options :data:`ALGORITHMS` lists for it, or for a walk variant any
    of the five :class:`WalkConfig` values."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ALGORITHMS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        if self.kind in ABLATION_KINDS:
            walk_params(self.kind, self.params)
            return
        extra = set(self.params) - set(ALGORITHMS[self.kind][0])
        if extra:
            raise ValueError(f"unknown params for {self.kind}: {sorted(extra)}")
        k_neighbors = self.params.get("k_neighbors")
        if k_neighbors is not None and k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
        fuse_weight = self.params.get("fuse_weight")
        if fuse_weight is not None and not 0.0 <= fuse_weight <= 1.0:
            raise ValueError(f"fuse_weight must be in [0, 1], got {fuse_weight}")


def walk_params(kind: str, values: dict[str, float]) -> WalkConfig:
    """The :class:`WalkConfig` that walk variant ``kind`` runs with, from
    values by option name: a value the variant fixes replaces the given one,
    and a missing one takes its default. An unknown name or an out-of-range
    value raises ``ValueError``, even one the variant replaces."""
    unknown = set(values) - set(WALK_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown params for {kind}: {sorted(unknown)}")
    return replace(WalkConfig(**values), **ALGORITHMS[kind][1])
