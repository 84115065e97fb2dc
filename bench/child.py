"""One benchmark invocation in a fresh process.

    python3 bench/child.py run   OUT.json [--trace] -- <folkwalk cli args>
    python3 bench/child.py setup OUT.json DATASET.json

``run`` calls ``folkwalk.cli.main`` with the given arguments; with
``--trace`` it first wraps the program's layers (see ``spans.py``) and keeps
the spans. ``setup`` imports folkwalk and loads one dataset JSON by the same
path the CLI uses, and times that. Either mode writes its exit code, its own
peak RSS and its measurements to OUT.json. The folkwalk package is imported
from ``src/`` under the current directory, which is the checkout root.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _import_cli(tracer=None):
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    if tracer is None:
        import folkwalk.cli as cli
    else:
        with tracer.span("cli.import"):
            import folkwalk.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"folkwalk imported from {cli.__file__}, not from {src}")
    return cli


def main(argv: list[str]) -> int:
    mode, out_path, rest = argv[0], argv[1], argv[2:]
    result: dict = {}
    if mode == "setup":
        start = time.perf_counter()
        cli = _import_cli()
        cli._load_dataset(rest[0])
        result["setup_s"] = time.perf_counter() - start
        rc = 0
    else:
        trace = rest[0] == "--trace"
        cli_args = rest[rest.index("--") + 1:]
        if trace:
            from spans import Tracer

            tracer = Tracer()
            cli = _import_cli(tracer)
            tracer.install()
            with tracer.span("cli.main"):
                rc = cli.main(cli_args)
            result["spans"] = tracer.spans
        else:
            cli = _import_cli()
            rc = cli.main(cli_args)
    result["exit_code"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
