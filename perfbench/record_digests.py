"""Record the stdout digests of the default-seed op lists.

Usage, from the root of a source checkout at the commit whose output is
the reference:  python3 perfbench/record_digests.py

Runs every op of every workload once (full and tiny lists, set-up ops
included), requires each to pass the route checks, and writes
perfbench/digests.json, which the digest gate of checks.py reads.
"""

import json
import sys
import time

import checks
import run
import workloads


def main():
    run.WORK.mkdir(parents=True, exist_ok=True)
    checker = checks.Checker(run.SRC, checks.DEFAULT_SEED)
    checker.digests = None
    runner = run.Runner(time.monotonic() + 3600)
    try:
        digests, failed = _record(runner, checker)
    finally:
        runner.close()
    if failed:
        print(f"{failed} ops failed; digests not written", file=sys.stderr)
        return 1
    checks.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {len(digests)} digests to {checks.DIGESTS}")
    return 0


def _record(runner, checker):
    digests, failed = {}, 0
    for name in workloads.WORKLOADS:
        for tiny in (False, True):
            setup, ops = workloads.build(name, checks.DEFAULT_SEED, tiny)
            for op in setup + ops:
                if op.text in digests:
                    continue
                rec = runner.run_op(op, "record")
                errors = rec.errors + checker.check(op, rec.stdout_path,
                                                    rec.digest)
                for err in errors:
                    print(f"FAIL {op.text}: {err}", file=sys.stderr)
                failed += bool(errors)
                digests[op.text] = rec.digest
    return digests, failed


if __name__ == "__main__":
    sys.exit(main())
