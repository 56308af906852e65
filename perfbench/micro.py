"""gf micro pass: nanoseconds per field operation on each arithmetic path.

Usage: python3 micro.py SEED  (prints one JSON object)

Paths: the prime field GF(337); the lookup tables of GF(343); the
polynomial slow path of GF(3^8), which no op under the default size
guard reaches (q > 4096 has no tables); and QuadExt.mul over GF(343).
Operands are seeded arrays.  Every result is folded into a checksum
inside the timed loop, so no call can be skipped, and each figure is
the median of several repeats.  Before timing, sampled products are
compared with polynomial multiplication mod the field's modulus.
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rdickson import gf, modpoly  # noqa: E402

REPEATS = 5


def _per_call_ns(fn, pairs):
    times = []
    for _ in range(REPEATS):
        acc = 0
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            acc ^= fn(a, b)
        times.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(times), acc


def _check_mul(F, pairs):
    for a, b in pairs:
        want = modpoly.mulmod(list(F.coeffs(a)), list(F.coeffs(b)),
                              list(F.modulus), F.p)
        if F.mul(a, b) != F.element(want):
            raise SystemExit(f"wrong product {a}*{b} in {F!r}")


def main():
    rng = random.Random(f"micro:{sys.argv[1]}")
    prime, table, slow = gf.make_field(337), gf.make_field(7, 3), \
        gf.make_field(3, 8)
    ext = gf.quadratic_extension(table)

    def pairs(size, count):
        return [(rng.randrange(size), rng.randrange(size))
                for _ in range(count)]

    cases = {
        "gf.mul_ns.prime": (prime.mul, pairs(prime.q, 50_000)),
        "gf.mul_ns.table": (table.mul, pairs(table.q, 50_000)),
        "gf.add_ns.table": (table.add, pairs(table.q, 50_000)),
        "gf.mul_ns.slow": (slow.mul, pairs(slow.q, 3_000)),
        "gf.add_ns.slow": (slow.add, pairs(slow.q, 20_000)),
        "gf.ext.mul_ns": (ext.mul, pairs(ext.size, 20_000)),
    }
    for F in (prime, table, slow):
        _check_mul(F, pairs(F.q, 200))
    out = {name: _per_call_ns(fn, operands)[0]
           for name, (fn, operands) in cases.items()}
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
