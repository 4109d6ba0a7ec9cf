"""Traced stand-in for the ``piforge`` console entry: one CLI command per process.

Usage: python3 perfbench/cli_child.py <piforge arguments>

It imports the CLI, wraps the layer functions, runs ``piforge.cli.main`` on
the arguments and exits with its code. The command's own output goes to
stdout unchanged; the spans and counters go to stderr as one line starting
with ``perfbench-trace``, after anything the command wrote there.
"""

import json
import sys
import time

import piforge.cli

import spans

IMPORTED_AT = time.monotonic()


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = piforge.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        collected, counters = tracer.take()
        line = json.dumps({"imported_at": IMPORTED_AT, "spans": collected,
                           "counters": counters})
        print("perfbench-trace " + line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
