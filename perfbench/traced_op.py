"""Run one rdickson CLI invocation in this interpreter, traced.

Usage: python3 traced_op.py {spans,counts} OUT_JSON ARGV...

spans   wraps the public functions of cli, gf, modpoly, rdpoly, permcheck
        and charsum by name in their modules before cli.main(ARGV) runs,
        so every call through a module attribute or module global records
        a span: name, start, end and parent span.
counts  only counts calls to the FieldSpec and QuadExt methods, which run
        millions of times.  Counting them in the spans run would charge
        the counting to the self time of their callers.

The CLI output goes to this process's stdout as usual.  Spans and
counters are kept in memory and written to OUT_JSON at exit.
"""

import functools
import itertools
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rdickson import charsum, cli, gf, modpoly, permcheck, rdpoly  # noqa: E402

SPANNED = {
    cli: ("main",),
    gf: ("make_field", "parse_field_descriptor", "is_irreducible",
         "quadratic_extension", "sqrt_ext", "solve_y", "enumerate_v"),
    modpoly: ("mul", "divmod_poly", "mulmod", "powmod", "gcd"),
    rdpoly: ("first_kind_weights", "second_kind_weights", "family_weights",
             "fnk_coeffs", "eval_definition", "eval_recurrence",
             "eval_functional", "eval_via_fnk", "eval_a0", "char2_eval",
             "closed_form", "value_at_quarter", "functional_map",
             "genfun_coeffs", "as_polynomial"),
    permcheck: ("is_pp_bruteforce", "monomial_pp", "dickson_pp_bruteforce",
                "is_pp_two_to_one", "verify_theorem"),
    charsum: ("power_sum", "b_coeffs", "c_coeffs", "sums_via_recurrence",
              "sums_bruteforce", "residue_identity_holds"),
}
COUNTED = ((gf.FieldSpec, "mul", "gf.mul"), (gf.FieldSpec, "add", "gf.add"),
           (gf.FieldSpec, "sub", "gf.sub"), (gf.FieldSpec, "pow", "gf.pow"),
           (gf.QuadExt, "mul", "gf.ext.mul"))


class Tracer:
    """Spans as [name, start_ns, end_ns, parent_index] in call order."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.scans = []          # (points, q) per brute-force scan
        self.mul_inner = 0       # sum of nnz(a) * len(b) over modpoly.mul
        self.mul_useful = 0      # sum of nnz(a) * nnz(b)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [name, t0, t1, parent]
        return wrapper

    def install(self):
        """Wrap the SPANNED functions; returns rdpoly's caches."""
        caches = []
        for module, names in SPANNED.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(module, name)
                if hasattr(fn, "cache_info") and module is rdpoly:
                    caches.append(fn)
                setattr(module, name, self.wrap(f"{short}.{name}",
                                                self._pre(short, name, fn)))
        # rdpoly keeps private caches too; all count towards its memory
        return caches + [rdpoly._fnk_row_mod, rdpoly._principal_y]

    def _pre(self, module, name, fn):
        """Argument-level counters for the two calls that need them."""
        if (module, name) == ("permcheck", "is_pp_bruteforce"):
            scans = self.scans

            def scan(F, fn_, params=None):
                seen = [0]

                def point(x):
                    seen[0] += 1
                    return fn_(x)
                try:
                    return fn(F, point, params)
                finally:
                    scans.append((seen[0], F.q))
            return scan
        if (module, name) == ("modpoly", "mul"):
            def mul(a, b, p):
                nnz_a = sum(1 for v in a if v)
                self.mul_inner += nnz_a * len(b)
                self.mul_useful += nnz_a * sum(1 for v in b if v)
                return fn(a, b, p)
            return mul
        return fn


def _count_calls(cls, method):
    orig = getattr(cls, method)
    counter = itertools.count()

    def wrapper(self, *args):
        next(counter)
        return orig(self, *args)
    setattr(cls, method, wrapper)
    return counter


def main():
    mode, out_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "spans":
        tracer = Tracer()
        caches = tracer.install()
    else:
        counters = {label: _count_calls(cls, method)
                    for cls, method, label in COUNTED}
    t0 = time.perf_counter_ns()
    try:
        rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    record = {"argv": argv, "rc": rc, "wall_ns": time.perf_counter_ns() - t0}
    if mode == "spans":
        record.update(
            spans=tracer.spans, scans=tracer.scans,
            mul_inner_ops=tracer.mul_inner, mul_useful_ops=tracer.mul_useful,
            rdpoly_cache_entries=sum(f.cache_info().currsize for f in caches))
    else:
        record["counts"] = {label: next(c) for label, c in counters.items()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
