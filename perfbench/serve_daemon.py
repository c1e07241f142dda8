"""Start ``ReproServer`` with the benchmark's layer wrappers installed.

The traced serve run launches the daemon through this file instead of
``python -m repro serve``; it takes the same defaults (two job workers,
256-tuple checkpoint cadence) and writes its spans to ``--trace-out`` when
the daemon stops.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from trace import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    tracer.install()
    from repro.serve import ReproServer

    server = ReproServer(args.data_dir)
    try:
        server.start()

        def _graceful(_signum, _frame):
            server._shutdown_requested.set()

        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(ValueError):
                signal.signal(sig, _graceful)
        server.serve_forever()
    finally:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
