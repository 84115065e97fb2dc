"""What the test modules share: running a fresh interpreter on this checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the status a child exits with when it would import folkwalk from elsewhere;
# no folkwalk command exits 3
WRONG_ORIGIN = 3

# runs in the child before its code: it finds, without importing it, the
# folkwalk that an import would load, and stops unless that is this checkout's
_ORIGIN_CHECK = f"""\
import importlib.util, sys
if not importlib.util.find_spec("folkwalk").origin.startswith({str(SRC / "folkwalk") + os.sep!r}):
    print("folkwalk found at", importlib.util.find_spec("folkwalk").origin, file=sys.stderr)
    sys.exit({WRONG_ORIGIN})
"""


def run_python(*argv: str, cwd: str | Path | None = None) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a fresh interpreter and return the finished
    process, its stdout and stderr captured as text. ``argv`` is interpreter
    options, then ``-c CODE`` or ``-m MODULE``, then the program's arguments;
    a module runs as ``__main__`` through :func:`runpy.run_module`, as ``-m``
    runs it. The child's PYTHONPATH is this checkout's ``src``, and it must
    import folkwalk from there, as ``bench/child.py`` requires; every other
    variable, the BLAS thread counts among them, passes through."""
    i = next(i for i, arg in enumerate(argv) if arg in ("-c", "-m"))
    how, target = argv[i:i + 2]
    if how == "-m":
        target = f"import runpy\nrunpy.run_module({target!r}, run_name='__main__', alter_sys=True)\n"
    run = subprocess.run(
        [sys.executable, *argv[:i], "-c", _ORIGIN_CHECK + target, *argv[i + 2:]],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert run.returncode != WRONG_ORIGIN, run.stderr
    return run
