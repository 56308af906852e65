"""A small, long-lived process that starts the benchmark's child processes.

A child's ru_maxrss starts from the RSS of the process that spawned it,
because the kernel carries the spawner's high-water mark across exec.
run.py grows while it checks large outputs, so it would lift every
later child's peak RSS to its own.  This process stays at the size of a
bare interpreter, below that of any rdickson run, and reports each
child's own wall time, CPU time and peak RSS from os.wait4.

Protocol: one JSON request per stdin line,
  {"argv": [...], "stdout": path, "stderr": path, "cwd": path,
   "env": {...}, "timeout": seconds}
answered by one JSON line {"wall_s", "cpu_s", "rss_mib", "rc"}.
"""

import json
import os
import subprocess
import sys
import threading
import time


class Spawner:
    """Client side: start the spawner, send requests, stop it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def run(self, argv, stdout, stderr, cwd, env, timeout):
        request = {"argv": argv, "stdout": str(stdout),
                   "stderr": str(stderr), "cwd": str(cwd), "env": env,
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)


def _serve():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, \
                open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                     cwd=req["cwd"], env=req["env"])
            killer = threading.Timer(req["timeout"], child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                 "rss_mib": usage.ru_maxrss / 1024, "rc": child.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
