"""Permutation behaviour of the family over GF(q).

Three independent criteria (exhaustive image scan, monomial gcd rule,
2-to-1 count on the extended domain), each returning a PPReport of its
verdict and the raw encodings that decided it, plus a grid verifier
that checks both sides of each statement of the table STATEMENTS
separately: the left side is always an exhaustive permutation test of
the actual map, the right side the stated arithmetic condition or the
stated auxiliary polynomial's own exhaustive test.  The two sides must
coincide at every grid point; each point is one entry, with ok false
where they differ.  pp_grid and verify_grid decide a whole grid into one
byte a point, for the CLI to write back point by point.

Both scans of the family take one row function per (n, k), built once
by rowkernels: the image scan evaluates recurrence_row point by point
and stops at the first collision, and the 2-to-1 count maps one point
of each pair {y, 1 - y} of its domain through functional_row and stops
at the first value seen before; only the latter reads x = 1/4's closed
constant, the value its seen-set starts with.
"""

import itertools
import math

from . import gf, rowkernels


class PPReport:
    """Outcome of one permutation test: the verdict and, on a refusal,
    the raw encodings that decided it.  For the image scan that is the
    first colliding pair (x1, x2) in enumeration order, for the 2-to-1
    count the point (y,) of the extended domain that decided.
    """

    __slots__ = ("verdict", "witness")

    def __init__(self, verdict, witness=None):
        self.verdict, self.witness = verdict, witness


def is_pp_bruteforce(F, fn, params=None):
    """Exhaustive scan: does fn (encoding -> encoding) permute GF(q)?

    On failure the witness is the first collision (x1, x2) in
    enumeration order.  params is unused; perfbench/traced_op.py passes
    it positionally, so it stays until the benchmark stops doing so.
    """
    seen = {}
    for x in F.elements():
        v = fn(x)
        if v in seen:
            return PPReport(False, (seen[v], x))
        seen[v] = x
    return PPReport(True)


def monomial_pp(F, n):
    """x -> x^n permutes GF(q) iff gcd(n, q - 1) = 1 (n >= 1)."""
    if n < 1:
        raise ValueError("monomial degree must be at least 1")
    return PPReport(math.gcd(n, F.q - 1) == 1)


def dickson_pp_bruteforce(F, n, k, a=1):
    """Brute-force permutation test of x -> D(n,k; a,x)."""
    return is_pp_bruteforce(F, rowkernels.recurrence_row(F, n, k, a))


def is_pp_two_to_one(F, n, k):
    """Permutation test through the parameter-side map (odd p, n >= 1).

    D(n,k; 1,.) permutes GF(q) iff on the 2q-2 points of
    (GF(q) union V) minus {1/2}, with V = {v : v^q = 1 - v}, the map

        g(y) = k (y^n (1-y) - y (1-y)^n)/(2y-1) + y^n + (1-y)^n

    takes every value exactly twice and never takes the excluded value
    (k(n-1)+2)/2^n.  g(y) = g(1 - y), and x = y (1 - y) takes each pair
    {y, 1 - y} to one x != 1/4, so that holds iff g is injective on one
    y of each pair and misses the excluded value.  The pass maps
    y = 1/2 + t on GF(q), then 1/2 + t s on V, for each t != 0 whose
    highest nonzero coordinate is at most (p-1)/2 (one of t and -t), and
    stops at the first y whose value repeats or is the excluded value:
    the witness.  A PP row maps q - 1 points.
    """
    if F.p == 2:
        raise ValueError("the two_to_one criterion needs odd characteristic")
    if n < 1:
        raise ValueError("the two_to_one criterion needs n >= 1")
    ext = gf.quadratic_extension(F)
    p, q, half = F.p, F.q, F.half
    row = rowkernels.functional_row(ext, n, k)
    seen = {rowkernels.value_at_quarter(F, n, k)}
    ts = [range(p ** i, (p + 1) // 2 * p ** i) for i in range(F.e)]
    for y in itertools.chain((F.add(half, t) for r in ts for t in r),
                             (half + t * q for r in ts for t in r)):
        val = row(y)
        if val in seen:
            return PPReport(False, (y,))
        seen.add(val)
    return PPReport(True)


def pp_grid(F, ns, ks, criteria):
    """The named criteria ("brute_force", "two_to_one") on each row (n, k)
    of ns x ks, n-major, in one byte a row: bit i the verdict of
    criteria[i], then the bit that they agree."""
    tests = {"brute_force": dickson_pp_bruteforce,
             "two_to_one": is_pp_two_to_one}
    for i, crit in enumerate(criteria):
        if crit not in tests:
            raise ValueError(f"unknown criterion {gf.excerpt(crit)}; "
                             f"choose from {', '.join(tests)}")
        if crit in criteria[:i]:
            raise ValueError(f"criterion {gf.excerpt(crit)} is named twice")
    verdicts = bytearray()
    for n, k in itertools.product(ns, ks):
        bits = [tests[crit](F, n, k).verdict for crit in criteria]
        bits.append(len(set(bits)) == 1)
        verdicts.append(sum(bit << i for i, bit in enumerate(bits)))
    return verdicts


# -- grid verification of the permutation statements ----------------------


def _power_map_pp(F, weighted_terms):
    """Brute-force PP test of x -> sum of w * x^m terms (w, m pairs)."""
    def fn(x):
        acc = 0
        for w, m in weighted_terms:
            acc = F.add(acc, F.mul(w, F.pow(x, m)))
        return acc
    return is_pp_bruteforce(F, fn).verdict


def _exponents(e, ns, ls):
    return "l", range(e + 1) if ls is None else ls


class Statement:
    """Domain and right side of one named permutation statement.

    Over GF(p^e), axis(e, ns, ls) names the grid axis and gives its
    points: indices n, or exponents l with n = p^l + shift.  kinds(p, ks)
    keeps the statement's kinds among the requested ones (taken mod p).
    The left side scans x -> D(n,k; a,x), rhs(F, l, n, k) is the right
    side and extra(F, l, n, k, lhs) gives further keys.
    """

    __slots__ = ("shift", "kinds", "rhs", "axis", "a", "extra")

    def __init__(self, shift, kinds, rhs, axis=_exponents, a=1, extra=None):
        self.shift, self.kinds, self.rhs = shift, kinds, rhs
        self.axis, self.a, self.extra = axis, a, extra


STATEMENTS = {
    # a = 0 family: PP iff k != 2, n = 2l even, gcd(l, q-1) = 1
    "T2.2": Statement(
        0, lambda p, ks: ks, a=0,
        axis=lambda e, ns, ls: ("n", range(31) if ns is None else ns),
        rhs=lambda F, l, n, k: k != 2 % F.p and n % 2 == 0
        and math.gcd(n // 2, F.q - 1) == 1),
    # n = p^l: PP iff p = 3, k != 0 and gcd((3^l-1)/2, q-1) = 1
    "T2.1": Statement(
        0, lambda p, ks: ks,
        rhs=lambda F, l, n, k: F.p == 3 and k != 0
        and math.gcd((3 ** l - 1) // 2, F.q - 1) == 1),
    # n = p^l + 1, k = 2: PP iff gcd((p^l-1)/2, q-1) = 1
    "T-pl1-k2": Statement(
        1, lambda p, ks: (2 % p,),
        rhs=lambda F, l, n, k: math.gcd((F.p ** l - 1) // 2, F.q - 1) == 1),
    # n = p^l + 1: for k = 0, PP iff gcd((p^l+1)/2, q-1) = 1;
    # for k not in {0, 2}, PP iff l = 0
    "T-pl1-gen": Statement(
        1, lambda p, ks: [k for k in ks if k != 2 % p],
        rhs=lambda F, l, n, k: l == 0 if k else
        math.gcd((F.p ** l + 1) // 2, F.q - 1) == 1),
    # n = p^l + 2, k = 2: PP iff l = 0; the statement's auxiliary
    # binomial x^((p^l+1)/2) + x^((p^l-1)/2) is recorded alongside
    "T-pl2-k2": Statement(
        2, lambda p, ks: (2 % p,),
        rhs=lambda F, l, n, k: l == 0,
        extra=lambda F, l, n, k, lhs: {"binomial_pp": _power_map_pp(
            F, ((1, (F.p ** l + 1) // 2), (1, (F.p ** l - 1) // 2)))}),
    # n = p^l + 2, k = 4 (p > 3): PP iff the binomial x^((p^l-1)/2) - x/2
    # is one; the sharper l = 0 claim is recorded but not asserted
    "T-pl2-k4": Statement(
        2, lambda p, ks: (4 % p,) if p > 3 else (),
        rhs=lambda F, l, n, k: _power_map_pp(
            F, ((1, (F.p ** l - 1) // 2), (F.neg(F.half), 1))),
        extra=lambda F, l, n, k, lhs: {"l_zero_claim_ok": lhs == (l == 0)}),
    # n = p^l + 2, k not in {0, 2, 4}: PP iff the trinomial
    # (4-k) x^((p^l+1)/2) + k x^((p^l-1)/2) + (2-k) x is one
    "T-pl2-gen": Statement(
        2, lambda p, ks: [k for k in ks if k not in (0, 2 % p, 4 % p)],
        rhs=lambda F, l, n, k: _power_map_pp(
            F, ((F.from_int(4 - k), (F.p ** l + 1) // 2),
                (k, (F.p ** l - 1) // 2), (F.from_int(2 - k), 1)))),
    # n = p^e + 2, k = 0: PP iff q = 1 mod 3
    "T-k0-pe2": Statement(
        2, lambda p, ks: (0,), axis=lambda e, ns, ls: ("l", (e,)),
        rhs=lambda F, l, n, k: F.q % 3 == 1),
}

THEOREM_IDS = tuple(STATEMENTS)


def _n_prints(p, l, shift):
    """Whether n = p^l + shift has at most gf.digit_limit() digits.

    l log10(p) decides it unless it lies within 1 of the bound, so p^l
    is formed only when it has about that many digits.  As p >= 2, every
    l >= 10 * digits is far past it, so l is capped there: a longer l
    would overflow the float product.
    """
    digits = gf.digit_limit()
    est = min(l, 10 * digits) * math.log10(p)
    if abs(est - digits) > 1:
        return est < digits
    return p ** l + shift < 10 ** digits


def statement_grid(theorem, ps, es, *, ns=None, ls=None, ks=None,
                   max_q=gf.DEFAULT_MAX_Q):
    """The grid of a named statement, checked against its assumptions
    and the bounds, as a list of (p, e, (axis name, axis), kinds), one
    a field, which grid_size, verify_points and grid_points read.

    The fields GF(p^e) run over ps x es, each refused unless
    gf.check_field(p, e, max_q) (None: no bound) admits it, before any
    field is built; p = 2 is refused: every statement assumes odd
    characteristic.  The STATEMENTS entry fixes the rest: indices ns
    (T2.2, default 0..30) or exponents ls (default 0..e; T-k0-pe2 takes
    l = e alone), and which kinds ks (default 0..p-1, mod p) it covers,
    none outside its domain; fixed-kind statements ignore ks.  An
    exponent l is refused where _n_prints(p, l, shift) is false.
    """
    if theorem not in STATEMENTS:
        raise ValueError(f"unknown theorem id {gf.excerpt(theorem)}; "
                         f"expected one of {', '.join(THEOREM_IDS)}")
    if 2 in ps:
        raise ValueError(f"{theorem} assumes odd characteristic; "
                         "p = 2 is outside its domain")
    st, grid = STATEMENTS[theorem], []
    for p in ps:
        for e in es:
            gf.check_field(p, e, max_q)
            name, axis = st.axis(e, ns, ls)
            if name == "l" and axis and not _n_prints(p, max(axis), st.shift):
                raise ValueError(
                    f"exponent l = {gf.excerpt(max(axis))} is too large for "
                    f"p = {p}: n = p^l + {st.shift} would exceed "
                    f"{gf.digit_limit()} decimal digits; lower --l")
            kinds = range(p) if ks is None else [k % p for k in ks]
            grid.append((p, e, (name, axis), st.kinds(p, kinds)))
    return grid


def verify_points(theorem, grid):
    """Both sides of a named permutation statement at each point of
    grid_points, one entry a point; each field is built once.  The
    statement holds on the grid iff every entry has ok true."""
    st, field = STATEMENTS[theorem], None
    for p, e, at in grid_points(theorem, grid):
        if field != (p, e):
            F, field = gf.make_field(p, e), (p, e)
        l, n, k = at.get("l"), at["n"], at["k"]
        lhs = dickson_pp_bruteforce(F, n, k, st.a).verdict
        rhs = st.rhs(F, l, n, k)
        yield {"field": gf.field_descriptor(F), "q": F.q, **at, "lhs": lhs,
               "rhs": rhs, "ok": lhs == rhs,
               **(st.extra(F, l, n, k, lhs) if st.extra else {})}


def verify_theorem(theorem, ps, es, *, ns=None, ls=None, ks=None,
                   max_q=gf.DEFAULT_MAX_Q):
    """The list of verify_points' entries on statement_grid's grid."""
    return list(verify_points(theorem, statement_grid(
        theorem, ps, es, ns=ns, ls=ls, ks=ks, max_q=max_q)))


def verify_grid(theorem, grid):
    """verify_points in one byte a point: (count, classes, failures, rows).

    A byte has the bits lhs, rhs, ok and the entry's last value (the
    statement's extra flag, or ok again).  classes maps (q, byte) to the
    first entry of that class, failures lists the entries with ok false,
    and rows walks the grid again without a test, as ((q, byte), at)."""
    verdicts, classes, failures = bytearray(), {}, []
    for ent in verify_points(theorem, grid):
        *_, last = ent.values()
        verdicts.append(ent["lhs"] | ent["rhs"] << 1 | ent["ok"] << 2
                        | last << 3)
        classes.setdefault((ent["q"], verdicts[-1]), ent)
        if not ent["ok"]:
            failures.append(ent)
    rows = (((p ** e, v), at) for (p, e, at), v in
            zip(grid_points(theorem, grid), verdicts))
    return len(verdicts), classes, failures, rows


def grid_points(theorem, grid):
    """The points of statement_grid's grid, (p, e, at) with at the
    entry's coordinates {l, n, k} ({n, k} on T2.2's n axis): field by
    field, then axis value, then kind; runs no test."""
    for p, e, (name, axis), kinds in grid:
        for v in axis:
            n = p ** v + STATEMENTS[theorem].shift if name == "l" else v
            for k in kinds:
                yield p, e, {name: v, "n": n, "k": k}


def grid_size(grid):
    """Exact point count of statement_grid's grid; builds no field."""
    return sum(len(axis) * len(kinds) for _, _, (_, axis), kinds in grid)
