"""Run one mwglue command with spans around each layer's public functions.

    python3 bench/tracecli.py SPANS_FILE ARG...

runs `mwglue ARG...` exactly as `python3 -m mwglue.cli ARG...` would, and
writes the spans of the process to SPANS_FILE as it exits.  The import of
`mwglue.cli` is the span `cli.import`; the command itself is `cli.main`.
"""

import sys
import time

from spans import Tracer, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import mwglue.cli

    tracer.record("cli.import", start, time.perf_counter())
    install(tracer)
    try:
        return tracer.wrap("cli.main", mwglue.cli.main)(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
