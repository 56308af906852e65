"""Seeded op lists for the three benchmark workloads.

An op is one `rdickson` CLI invocation, run as a fresh process.  The
seed only picks argv lists; the program under test receives nothing
else.  Every list keeps the same shape for every seed (same fields,
same index shapes, same number of rows per field), so the work per pass
stays close across seeds and the run-to-run spread measures the
program, not the draw.

Workloads and why each was chosen:

  scan   permutation traffic at the size guard: pp grids with both
         criteria over GF(343), GF(243) and GF(337), the brute-force
         criterion over GF(256), indices p^l, p^l + 1, p^l + 2, a drawn
         band of indices just below q^2 on GF(343), and one verify grid
         per named statement.  Nearly all time is in
         rdpoly.eval_recurrence on gf lookup tables, mostly in the full
         scans of the rows that are permutations; an index near q^2
         exits after a few points.  modpoly and charsum never run.
  sums   full sum tables over GF(125), GF(169) and GF(243) in the three
         renderings: charsum plus modpoly.mul, and writing q^2 - 1 rows;
         the memory peak.  eval_recurrence never runs, so an evaluator
         change must read "no change" here.
  check  cross-check and oracle traffic: eval --check (the exact big-int
         coefficient rows and their caches), poly below q^2 (with the
         integer fnk row) and far past it (index reduction and the x =
         1/4 patch), and verify sums (the brute-force sum oracle and the
         residue identity, eval_recurrence on every n < q^2 of GF(25)).

Sizes: each list takes 4 to 6 s on a 2-core 2.1 GHz Xeon VM at full
speed, so four repeats fit the 24 s a run measures.  That leaves out
some heavier ops: a GF(343) sum table (10 to 14 s alone), verify sums
over GF(27) (4 to 6 s) or GF(49) (about two minutes), and pp rows at
l >= 8 over GF(243) or l >= 10 over GF(256), whose full scans take
seconds each.
"""

import random
from dataclasses import dataclass, field

WORKLOADS = ("scan", "sums", "check")


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what the output checks need to know."""

    argv: tuple
    kind: str
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def text(self):
        return " ".join(self.argv)


def _fmt(fmt):
    return () if fmt == "pretty" else ("--format", fmt)


def _join(values):
    return ",".join(str(v) for v in values)


def _field_info(fd):
    return Op(("field-info", "--field", fd), "field-info", {"field": fd})


def _pp(fd, ns, ks, criteria, fmt):
    argv = ("pp", "--field", fd, "--n", _join(ns), "--k", _join(ks))
    if criteria != "brute_force,two_to_one":
        argv += ("--criteria", criteria)
    return Op(argv + _fmt(fmt), "pp",
              {"field": fd, "ns": tuple(ns), "ks": tuple(ks),
               "criteria": tuple(criteria.split(",")), "fmt": fmt})


def _verify(target, ps, es, lmax, fmt):
    argv = ("verify", target, "--p", _join(ps), "--e", _join(es),
            "--l", f"0..{lmax}")
    return Op(argv + _fmt(fmt), "verify", {"target": target, "fmt": fmt})


def _shaped(p, lmax):
    """The indices p^l, p^l + 1, p^l + 2 for l < lmax, deduplicated."""
    out = []
    for l in range(lmax):
        for delta in (0, 1, 2):
            if p ** l + delta not in out:
                out.append(p ** l + delta)
    return out


def _band(rng, q, count):
    """count distinct indices just below q^2 - 1, where no reduction
    shortens the recurrence."""
    top = q * q - 2
    width = min(2000, top // 8)
    return sorted(rng.sample(range(top - width, top + 1), count))


def scan_ops(rng, tiny=False):
    fmts = ("pretty", "json", "csv")
    both, brute = "brute_force,two_to_one", "brute_force"
    # (field, p, l bound, kinds, criteria).  The kinds are fixed where
    # they change the number of full scans: k = 0 holds most of the
    # permutation rows.  Over GF(337) any drawn kinds cost the same.
    fields = ([("25", 5, 2, (0, 1, 2), both), ("27", 3, 3, (0, 1, 2), both),
               ("16", 2, 8, (0, 1), brute)] if tiny else
              [("343", 7, 6, (0, 1), both), ("243", 3, 8, (0, 1, 2), both),
               ("337", 337, 2, None, both), ("256", 2, 10, (0, 1), brute)])
    ops = []
    for fd, p, lmax, ks, criteria in fields:
        if ks is None:
            ks = [0] + sorted(rng.sample(range(1, p), 2))
        ops.append(_pp(fd, _shaped(p, lmax), ks, criteria, rng.choice(fmts)))
    # The band near q^2 on the field at the size guard: two indices, one
    # drawn kind.  A row there scans about 4 points before its first
    # collision, at q^2 recurrence steps each.  Over GF(343), k = 0 and
    # k = 4 have rare rows that scan 15 to 30 points, and other fields
    # spread more, which would swing the band's time by a second between
    # draws; so the kind is drawn from the others.
    fd, kinds = ("25", (1, 2, 3)) if tiny else ("343", (1, 2, 3, 5, 6))
    ops.append(_pp(fd, _band(rng, int(fd), 2), [rng.choice(kinds)], both,
                   rng.choice(fmts)))
    grids = ([("T2.1", (3, 5), (2,), 3), ("T-k0-pe2", (3, 5), (1, 2), 3)]
             if tiny else
             [("T2.1", (3,), (4,), 7), ("T2.2", (3, 5, 7), (1, 2), 3),
              ("T-pl1-k2", (3, 5, 7), (2,), 3),
              ("T-pl1-gen", (3, 5, 7), (2,), 3),
              ("T-pl2-k2", (3, 5, 7), (2,), 3),
              ("T-pl2-k4", (5, 7), (2,), 3),
              ("T-pl2-gen", (5, 7), (2,), 3),
              ("T-k0-pe2", (3, 5, 7), (1, 2, 3), 5)])
    for target, ps, es, lmax in grids:
        ops.append(_verify(target, ps, es, lmax, rng.choice(("json", "csv"))))
    rng.shuffle(ops)
    return ops


def sums_ops(rng, tiny=False):
    # Formats are fixed where they change the cost, so that for every seed
    # the memory peak is the GF(243) json table and the median op is one
    # of the three GF(169) tables; the seed draws every k and the GF(125)
    # format.
    plan = ([("25", 5, ("json", "csv")), ("27", 3, ("pretty",))] if tiny else
            [("125", 5, (rng.choice(("pretty", "csv", "json")),)),
             ("169", 13, ("pretty", "csv", "json")), ("243", 3, ("json",))])
    ops = []
    for fd, p, fmts in plan:
        for fmt in fmts:
            k = rng.randrange(p)
            ops.append(Op(("sums", "--field", fd, "--k", str(k)) + _fmt(fmt),
                          "sums", {"field": fd, "k": k, "fmt": fmt}))
    rng.shuffle(ops)
    return ops


def check_ops(rng, tiny=False):
    fmts = ("pretty", "json", "csv")
    ops = []
    evals = ([("25", 5, 2, 200, 300), ("7", 7, 1, 100, 200)] if tiny else
             [("343", 7, 3, 2900, 3100), ("7", 7, 1, 1900, 2100)])
    for fd, p, e, lo, hi in evals:
        n = rng.randrange(lo, hi + 1)
        k = rng.randrange(p)
        x = [rng.randrange(p) for _ in range(e)]
        fmt = rng.choice(fmts)
        ops.append(Op(("eval", "--field", fd, "--n", str(n), "--k", str(k),
                       "--x", _join(x), "--check") + _fmt(fmt),
                      "eval", {"field": fd, "n": n, "k": k, "x": tuple(x),
                               "fmt": fmt}))
    # below q^2 the integer fnk row is printed too; at and past q^2 the
    # index is reduced and the point 1/4 patched back
    polys = ([("25", 5, 2, 400), ("25", 5, 2, None)] if tiny else
             [("243", 3, 5, 1900), ("243", 3, 5, None)])
    for fd, p, e, nlo in polys:
        q = p ** e
        if nlo is None:
            reps = rng.randrange(10 ** 6, 10 ** 7)
            n = reps * (q * q - 1) + rng.randrange(600 if tiny else 6000,
                                                  (700 if tiny else 6300))
        else:
            n = rng.randrange(nlo, nlo + 200)
        k = rng.randrange(p)
        fmt = rng.choice(("json", "csv"))
        ops.append(Op(("poly", "--field", fd, "--n", str(n), "--k", str(k))
                      + _fmt(fmt), "poly",
                      {"field": fd, "n": n, "k": k, "fmt": fmt}))
    fd, p = ("9", 3) if tiny else ("25", 5)
    k = rng.randrange(p)
    fmt = rng.choice(fmts)
    ops.append(Op(("verify", "sums", "--field", fd, "--k", str(k))
                  + _fmt(fmt), "verify-sums",
                  {"field": fd, "k": k, "fmt": fmt}))
    rng.shuffle(ops)
    return ops


_GENERATORS = {"scan": scan_ops, "sums": sums_ops, "check": check_ops}
_SETUP_FIELDS = {"scan": ("343", "243", "337", "256"),
                 "sums": ("243", "169", "125"),
                 "check": ("343", "7", "243", "25")}
_TINY_SETUP_FIELDS = ("9", "25")


def build(workload, seed, tiny=False):
    """(setup ops, timed ops) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    fields = _TINY_SETUP_FIELDS if tiny else _SETUP_FIELDS[workload]
    return ([_field_info(fd) for fd in fields],
            _GENERATORS[workload](rng, tiny))
