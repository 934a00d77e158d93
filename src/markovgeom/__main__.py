"""``python -m markovgeom`` and the ``markovgeom`` script: one command, then
the process ends without interpreter teardown.

A finished command has written and closed every output file, so the full
collection and module teardown of a normal interpreter exit find nothing to
do; they cost 30–40 ms of a 250–500 ms command.  ``run`` turns the cyclic
collector off, runs ``cli.main``, flushes stdout, stderr and logging, and
ends the process with ``os._exit``.  Programs that embed the CLI call
``markovgeom.cli.main``, which returns the exit code and leaves the collector
and the interpreter as they were.
"""

import gc
import logging
import os
import sys


def run():
    gc.disable()  # before numpy is imported: a command's objects die by reference count
    from .cli import EXIT_OK, EXIT_USAGE, main

    code = main()
    logging.shutdown()
    try:
        sys.stdout.flush()  # argparse's --help text; main flushes each summary
    except OSError as exc:
        # a summary whose flush failed stays buffered, and main reported it
        if code == EXIT_OK:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_USAGE
    try:
        sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    run()
