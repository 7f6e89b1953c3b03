"""Run a ``gripwatch`` command with the timing wrappers of tracing.py installed.

Usage: python3 perfbench/traced_detect.py TRACE_OUT <gripwatch arguments...>

The command behaves as ``python3 -m gripwatch.cli <arguments...>``; when it
ends, the span aggregates are written to TRACE_OUT as JSON.
"""

import json
import sys

import tracing
from gripwatch import cli


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main())
