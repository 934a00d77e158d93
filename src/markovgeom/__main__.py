"""``python -m markovgeom`` and the ``markovgeom`` script: one command, then
the process ends without interpreter teardown.

A finished command has written and closed every output file, so the full
collection and module teardown of a normal interpreter exit find nothing to
do; they cost 30–40 ms of a 250–500 ms command.  ``run`` turns the cyclic
collector off, runs ``cli.main``, flushes logging, and ends the process with
``os._exit``.  Nothing else is left buffered: ``cli`` flushes each write to
stdout where it makes it, and stderr is line-buffered with every message
ending in a newline.  ``cli.main`` alone turns a failed write to either
stream into its exit code.  Programs that embed the CLI call
``markovgeom.cli.main``, which returns the exit code and leaves the collector
and the interpreter as they were.
"""

import gc
import logging
import os


def run():
    gc.disable()  # before numpy is imported: a command's objects die by reference count
    from .cli import main

    code = main()
    logging.shutdown()
    os._exit(code)


if __name__ == "__main__":
    run()
