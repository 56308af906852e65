"""Peak RSS of rdickson commands against that of a base command.

    python tests/peak_rss.py MIB BASE COMMAND [COMMAND ...]

BASE and each COMMAND are one string of arguments to the installed
rdickson script, split as a shell would split them.  Each runs in a
fresh child with stdout sent to /dev/null.  The script prints every
peak in KiB and exits 1 if a COMMAND peaks more than MIB MiB above
BASE; a command that fails stops it with its argv.  It uses the stdlib
alone, and pytest does not collect it.
"""

import os
import shlex
import sys


def peak_kib(argv):
    """Peak RSS in KiB of `rdickson *argv` run to completion."""
    pid = os.fork()
    if pid == 0:
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.execvp("rdickson", ["rdickson", *argv])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status):
        sys.exit(f"rdickson {shlex.join(argv)} failed")
    return usage.ru_maxrss


def main(mib, base, *commands):
    base_kib = peak_kib(shlex.split(base))
    print(f"peak RSS: rdickson {base}: {base_kib} KiB")
    over = False
    for command in commands:
        kib = peak_kib(shlex.split(command))
        print(f"peak RSS: rdickson {command}: {kib} KiB")
        over |= kib - base_kib > float(mib) * 1024
    return over


if __name__ == "__main__":
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
