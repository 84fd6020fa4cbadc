"""Traced stand-in for `python -m bihazard.cli`: same arguments, same outputs.

    python3 bench/cli_entry.py --spans FILE -- <bihazard arguments>

Times `import bihazard.cli` as the span cli.import, installs the tracer
around the public functions, calls bihazard.cli.main(argv), and writes
the spans and counters to FILE before exiting with main's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC  # noqa: E402
from tracing import Tracer  # noqa: E402

sys.path.insert(0, str(SRC))


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: cli_entry.py --spans FILE -- ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[1], argv[3:]
    t0 = time.perf_counter_ns()
    import bihazard.cli
    t1 = time.perf_counter_ns()
    tracer = Tracer()
    tracer.add_span("cli.import", t0, t1)
    tracer.install()
    try:
        code = bihazard.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
