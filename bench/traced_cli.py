"""The command-line entry point with the layer tracer installed.

    python3 bench/traced_cli.py TRACE_OUT [seshadri arguments...]

Runs `seshadri.cli.main` on the arguments and writes the tracer's
aggregates to TRACE_OUT as JSON when the command ends, whatever its exit
status.
"""

import json
import sys

import seshadri.cli

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return seshadri.cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
