"""Random-walk-with-restart item recommender for social tagging data."""

import importlib.util
import sys

import numpy

from .dataset import Split, TaggingDataset
from .params import AlgorithmSpec, WalkConfig

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec",
    "Split",
    "TaggingDataset",
    "WalkConfig",
    "__version__",
]


def _defer_numpy_submodules() -> None:
    """Register numpy's ``f2py``, ``testing``, ``polynomial`` and ``ma`` as
    lazy modules, whose bodies run at their first attribute access.

    numpy exports them lazily, but ``import scipy.sparse`` (scipy 1.17's
    vendored ``array_api_compat``) runs ``hasattr(numpy, name)`` on every
    public name, which would import all four: ~0.1 s and ~11 MB that no
    command needs. ``np.unique`` (without ``return_index``,
    ``return_inverse`` or ``return_counts``) runs ``numpy.ma``; no command
    calls it (the diagonal scalings are built as CSR by
    :func:`folkwalk.linalg.diagonal`, not by ``sp.diags``, and ``ingest``
    counts the tags in use with ``np.bincount``). This runs before any
    scipy import, on every path into the package. A submodule already
    imported, or that this numpy lacks, is left alone."""
    for name in ("f2py", "testing", "polynomial", "ma"):
        full = f"numpy.{name}"
        spec = None if full in sys.modules else importlib.util.find_spec(full)
        if spec is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(numpy, name, module)


_defer_numpy_submodules()
