"""Run one markovgeom CLI command with span tracing installed.

    python3 perfbench/traced_cli.py SPANS.json <markovgeom arguments...>

Installs the tracer's wrappers, calls ``markovgeom.cli.main(argv)``, writes
the spans to SPANS.json once the command has finished and exits with the
command's exit code.  markovgeom must be importable (PYTHONPATH=src).
"""

import json
import sys
from pathlib import Path

import tracer


def main():
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from markovgeom import cli

    spans = tracer.Tracer()
    spans.task = 0
    spans.install()
    try:
        return cli.main(argv)
    finally:
        spans_path.write_text(json.dumps(spans.spans))


if __name__ == "__main__":
    sys.exit(main())
