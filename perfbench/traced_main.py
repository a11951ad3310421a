"""Run the gesturepoint CLI with the benchmark's span wrappers installed.

    python traced_main.py TRACE_FILE <gesturepoint arguments...>

The wrappers are installed before the CLI builds its server or pipeline;
spans are written to TRACE_FILE when the command returns (for `live`, after
SIGINT stops the server).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402

OP_ROOTS = {"live": ("live.handle_line",), "replay": ("stream.parse_frame",)}


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(op_roots=OP_ROOTS.get(argv[0], ()))
    tracer.install()
    import gesturepoint.cli as cli

    try:
        return cli.main(argv)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main())
