"""Output checks for benchmark ops, run outside the timed region.

Two gates, both applied to every op:

  digest   for the default seed, the sha256 of stdout must equal the one
           recorded in digests.json at the seed commit (record_digests.py
           writes that file); CLI bytes are meant to stay identical for
           equal invocations.
  routes   for every seed, the output is parsed and sampled values are
           recomputed through library routes other than the one the
           command used: eval_functional for values, polynomial and sum
           rows, and an image-size count over eval_functional (odd p)
           or eval_definition (characteristic 2) for permutation
           verdicts.

check() returns a list of error strings; an empty list means the op
passed.
"""

import csv
import io
import json
import random
import sys
from pathlib import Path

DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")
SAMPLES = 3
CHAR2_MAX_N = 2100     # eval_definition rows stay cheap up to here
SMALL_N = 5000         # the CLI prints the integer fnk row up to this n


class Checker:
    def __init__(self, src, seed):
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        from rdickson import gf, rdpoly
        self.gf, self.rdpoly = gf, rdpoly
        self.seed = seed
        use_digests = seed == DEFAULT_SEED and DIGESTS.is_file()
        self.digests = json.loads(DIGESTS.read_text()) if use_digests else None
        self._fields = {}

    def field(self, text):
        if text not in self._fields:
            self._fields[text] = self.gf.parse_field_descriptor(text)
        return self._fields[text]

    def check(self, op, stdout_path, digest):
        errors = []
        if self.digests is not None:
            want = self.digests.get(op.text)
            if want is None:
                errors.append("no recorded digest for this op")
            elif want != digest:
                errors.append("stdout differs from the recorded digest")
        text = Path(stdout_path).read_text(encoding="utf-8")
        rng = random.Random(f"{self.seed}:{op.text}")
        try:
            errors += getattr(self, "_" + op.kind.replace("-", "_"))(
                op, text, rng)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errors.append(f"unparseable output: {exc!r}")
        return errors

    # -- independent values ------------------------------------------------

    def _value(self, F, n, k, x):
        """D(n, k; 1, x) through the extension parameter (odd p)."""
        return self.rdpoly.eval_functional(F, n, k, x)

    def _is_pp(self, F, n, k):
        if F.p == 2:
            values = {self.rdpoly.eval_definition(F, n, k % 2, x)
                      for x in F.elements()}
        else:
            values = {self._value(F, n, k, x) for x in F.elements()}
        return len(values) == F.q

    def _sum(self, F, n, k):
        acc = 0
        for x in F.elements():
            acc = F.add(acc, self._value(F, n, k, x))
        return acc

    # -- per command -------------------------------------------------------

    def _field_info(self, op, text, rng):
        info = dict(line.split(" = ", 1) for line in text.splitlines())
        F = self.field(op.meta["field"])
        p, e, q = int(info["p"]), int(info["e"]), int(info["q"])
        errors = []
        if (p, e, q) != (F.p, F.e, F.q) or p ** e != int(op.meta["field"]):
            errors.append(f"wrong field parameters {(p, e, q)}")
        if p != 2:
            half = F.element(json.loads(info["half"]))
            if F.mul(half, F.from_int(2)) != 1:
                errors.append("half is not the inverse of 2")
        return errors

    def _pp(self, op, text, rng):
        F = self.field(op.meta["field"])
        crits = op.meta["criteria"]
        fmt = op.meta["fmt"]
        if fmt == "json":
            rows = [(r["n"], r["k"], [r[c] for c in crits], r["agree"])
                    for r in json.loads(text)["rows"]]
        else:
            lines = text.splitlines()
            if fmt == "csv":
                table = list(csv.reader(io.StringIO(text)))[1:]
            else:
                table = [line.split() for line in lines[1:]]
            rows = [(int(c[0]), int(c[1]), [c[2 + i] == "true"
                                            for i in range(len(crits))],
                     c[-1] == "true") for c in table]
        want = [(n, k % F.p) for n in op.meta["ns"] for k in op.meta["ks"]]
        errors = []
        if [(n, k) for n, k, _, _ in rows] != want:
            errors.append("pp rows do not match the requested grid")
            return errors
        if not all(agree for *_, agree in rows):
            errors.append("pp criteria disagree")
        pool = [r for r in rows if F.p != 2 or r[0] <= CHAR2_MAX_N]
        for n, k, verdicts, _ in rng.sample(pool, min(SAMPLES, len(pool))):
            if any(v != self._is_pp(F, n, k) for v in verdicts):
                errors.append(f"pp verdict wrong at n={n} k={k}")
        return errors

    def _verify(self, op, text, rng):
        if op.meta["fmt"] == "json":
            obj = json.loads(text)
            entries, passed = obj["grid"], obj["pass"]
        else:
            table = list(csv.DictReader(io.StringIO(text)))
            entries = [{key: _cell(v) for key, v in row.items()}
                       for row in table]
            passed = all(ent["ok"] for ent in entries)
        errors = []
        if not entries or not passed or not all(e["ok"] for e in entries):
            errors.append("statement check did not pass")
        if op.meta["target"] == "T2.2":
            return errors       # its left side is the a = 0 family
        for ent in rng.sample(entries, min(SAMPLES, len(entries))):
            F = self.field(str(ent["field"]))
            if ent["lhs"] != self._is_pp(F, ent["n"], ent["k"]):
                errors.append(f"wrong left side at {ent}")
        return errors

    def _sums(self, op, text, rng):
        F = self.field(op.meta["field"])
        k, fmt = op.meta["k"], op.meta["fmt"]
        if fmt == "json":
            rows = [(r["n"], F.element(r["sum"]), r["d"])
                    for r in json.loads(text)["rows"]]
        else:
            lines = text.splitlines()[1:]
            cells = (list(csv.reader(lines)) if fmt == "csv"
                     else [line.split() for line in lines])
            rows = [(int(c[0]), F.element(int(v) for v in c[1].split(",")),
                     int(c[2])) for c in cells]
        errors = []
        if [n for n, _, _ in rows] != list(range(1, F.q ** 2)):
            errors.append("sum table rows are not n = 1 .. q^2 - 1")
            return errors
        inv2 = pow(2, -1, F.p)
        picks = [rows[0], rows[-1]] + rng.sample(rows, SAMPLES)
        for n, s, d in picks:
            if s != self._sum(F, n, k):
                errors.append(f"wrong sum at n={n}")
            off = (k * (n - 1) + 2) * pow(inv2, n, F.p)
            if d != (s - off) % F.p:
                errors.append(f"wrong shifted sum at n={n}")
        return errors

    def _verify_sums(self, op, text, rng):
        F = self.field(op.meta["field"])
        k, fmt = op.meta["k"] % F.p, op.meta["fmt"]
        rows = F.q ** 2 - 1
        if fmt == "json":
            obj = json.loads(text)
            ok = obj["pass"] and obj["results"] == [
                {"k": k, "rows": rows, "mismatches": 0,
                 "residue_identity": True, "ok": True}]
        elif fmt == "csv":
            ok = text == ("k,rows,mismatches,residue_identity,ok\n"
                          f"{k},{rows},0,true,true\n")
        else:
            ok = text == (f"sums over GF({F.q}): k={k} ok ({rows} rows)\n"
                          "pass: true\n")
        return [] if ok else ["sum oracle check did not pass"]

    def _eval(self, op, text, rng):
        F = self.field(op.meta["field"])
        n, k, fmt = op.meta["n"], op.meta["k"], op.meta["fmt"]
        if fmt == "json":
            obj = json.loads(text)
            methods = {m: F.element(v) for m, v in obj["methods"].items()}
            agree = obj["agree"]
        else:
            if fmt == "csv":
                pairs = list(csv.reader(io.StringIO(text)))[1:]
            else:
                pairs = [line.split(": ") for line in text.splitlines()]
            table = dict(pairs)
            agree = table.pop("agree") == "true"
            table.pop("value", None)
            methods = {m: F.element(int(v) for v in c.split(","))
                       for m, c in table.items()}
        errors = []
        want = {"recurrence", "definition", "functional", "fnk"}
        if _near_prime_power(F.p, n):
            want.add("closed_form")
        if set(methods) != want:
            errors.append(f"unexpected route set {sorted(methods)}")
        if not agree:
            errors.append("eval routes disagree")
        value = self._value(F, n, k, F.element(op.meta["x"]))
        if any(v != value for v in methods.values()):
            errors.append("eval value differs from the functional route")
        return errors

    def _poly(self, op, text, rng):
        F = self.field(op.meta["field"])
        n, k, fmt = op.meta["n"], op.meta["k"], op.meta["fmt"]
        if fmt == "json":
            obj = json.loads(text)
            coeffs = [F.element(c) for c in obj["poly"]["coeffs"]]
            fnk = ([int(c) for c in obj["fnk"]["coeffs"]]
                   if obj["fnk"] is not None else None)
        else:
            rows = list(csv.reader(io.StringIO(text)))[1:]
            coeffs = [F.element(int(v) for v in c.split(","))
                      for src, _, c in rows if src == "poly"]
            fnk = [int(c) for src, _, c in rows if src == "fnk"] or None
        errors = []
        if len(coeffs) > F.q:
            errors.append("polynomial degree is not below q")
        if (fnk is not None) != (n <= SMALL_N):
            errors.append("fnk row presence is wrong")
        inv2n = F.pow(F.half, n)
        for x in [F.quarter, 0, 1] + rng.sample(range(F.q), SAMPLES):
            value = self._value(F, n, k, x)
            if _horner(F, coeffs, x) != value:
                errors.append(f"polynomial value wrong at x={x}")
            if fnk is not None:
                t = F.sub(1, F.mul(F.from_int(4), x))
                if F.mul(_horner(F, map(F.from_int, fnk), t), inv2n) != value:
                    errors.append(f"fnk row value wrong at x={x}")
        if n <= SMALL_N:
            x = rng.randrange(F.q)
            want = self.rdpoly.eval_definition(F, n, k, x)
            if _horner(F, coeffs, x) != want:
                errors.append(f"polynomial differs from the definition "
                              f"at x={x}")
        return errors


def _horner(F, coeffs, x):
    acc = 0
    for c in reversed(list(coeffs)):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _near_prime_power(p, n):
    """Is n one of p^l, p^l + 1, p^l + 2?"""
    for m in (n, n - 1, n - 2):
        while m > 1 and m % p == 0:
            m //= p
        if m == 1:
            return True
    return False


def _cell(text):
    if text in ("true", "false"):
        return text == "true"
    if text.lstrip("-").isdigit():
        return int(text)
    return text
