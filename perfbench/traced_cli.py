"""`python -m halfrare` with spans: the traced form of a small-cli operation.

Usage: traced_cli.py SPANS_JSON ARG...  Writes the spans to SPANS_JSON and
exits with the CLI's exit code.
"""

import json
import sys

import halfrare.cli

from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = halfrare.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    with open(sys.argv[1], "w") as f:
        json.dump(tracer.summary(), f)
    sys.exit(code)
