"""Permutation behaviour of the family over GF(q).

Three independent criteria (exhaustive image scan, monomial gcd rule,
2-to-1 count on the extended domain), each returning a PPReport of its
verdict and the raw encodings that decided it, plus a grid verifier
that checks both sides of each statement of the table STATEMENTS
separately: the left side is always an exhaustive permutation test of
the actual map, the right side the stated arithmetic condition or the
stated auxiliary polynomial's own exhaustive test.  The two sides must
coincide at every grid point; each point is one entry, with ok false
where they differ.

Both scans of the family take one row function per (n, k), built once:
the image scan evaluates rdpoly.recurrence_row point by point and stops
at the first collision, and the 2-to-1 count maps its domain through
rdpoly.functional_row and stops at the first point that decides.
"""

import itertools
import math

from . import gf, rdpoly

N_DIGITS = 4300   # Python's default cap on the digits of a printed int


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
    return is_pp_bruteforce(F, rdpoly.recurrence_row(F, n, k, a))


def is_pp_two_to_one(F, n, k):
    """Permutation test through the parameter-side map (odd p, n >= 1).

    D(n,k; 1,.) permutes GF(q) iff on the 2q-2 points of
    (GF(q) union V) minus {1/2}, with V = {v : v^q = 1 - v}, the map

        g(y) = k (y^n (1-y) - y (1-y)^n)/(2y-1) + y^n + (1-y)^n

    takes every value exactly twice and never takes the excluded value
    (k(n-1)+2)/2^n.  One pass maps the points in domain order and stops
    at the first that decides: a hit of the excluded value or a third
    point in one fiber.  After a full pass a one-point fiber decides.
    The witness is the deciding point.
    """
    if F.p == 2:
        raise ValueError("the 2-to-1 criterion needs odd characteristic")
    if n < 1:
        raise ValueError("the 2-to-1 criterion needs n >= 1")
    k %= F.p
    ext = gf.quadratic_extension(F)
    half = F.half
    excluded = rdpoly.value_at_quarter(F, n, k)
    row = rdpoly.functional_row(ext, n, k)
    fibers = {}
    for y in itertools.chain(F.elements(), gf.enumerate_v(ext)):
        if y == half:
            continue
        val = row(y)
        fiber = fibers.setdefault(val, [])
        fiber.append(y)
        if val == excluded or len(fiber) == 3:
            return PPReport(False, (y,))
    for fiber in fibers.values():
        if len(fiber) == 1:
            return PPReport(False, (fiber[0],))
    return PPReport(True)


# -- grid verification of the permutation statements ----------------------


def _entry(F, lhs, rhs, **params):
    e = {"field": gf.field_descriptor(F), "q": F.q}
    e.update(params)
    e.update(lhs=lhs, rhs=rhs, ok=lhs == rhs)
    return e


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
    """Whether n = p^l + shift has at most N_DIGITS decimal digits.

    l log10(p) decides it unless it lies within 1 of the bound, so p^l
    is formed only when it has about N_DIGITS digits.
    """
    est = l * math.log10(p)
    if abs(est - N_DIGITS) > 1:
        return est < N_DIGITS
    return p ** l + shift < 10 ** N_DIGITS


def _grid(theorem, ps, es, ns, ls, ks, max_q):
    """Check a grid against the statements' assumptions; list its fields."""
    if theorem not in STATEMENTS:
        raise ValueError(f"unknown theorem id {theorem!r}; "
                         f"expected one of {', '.join(THEOREM_IDS)}")
    if 2 in ps:
        raise ValueError(f"{theorem} assumes odd characteristic; "
                         "p = 2 is outside its domain")
    st, grid = STATEMENTS[theorem], []
    for p in ps:
        for e in es:
            if gf.exceeds_size_bound(p, e, max_q):
                raise ValueError(f"grid point GF({p}^{e}) exceeds the "
                                 f"size bound q <= {max_q}")
            name, axis = st.axis(e, ns, ls)
            if name == "l" and axis and not _n_prints(p, max(axis), st.shift):
                raise ValueError(
                    f"exponent l = {max(axis)} is too large for p = {p}: "
                    f"n = p^l + {st.shift} would exceed {N_DIGITS} decimal "
                    "digits; lower --l")
            kinds = range(p) if ks is None else [k % p for k in ks]
            grid.append((p, e, (name, axis), st.kinds(p, kinds)))
    return grid


def verify_theorem(theorem, ps, es, *, ns=None, ls=None, ks=None,
                   max_q=gf.DEFAULT_MAX_Q):
    """Evaluate both sides of a named permutation statement on a grid.

    The fields GF(p^e) run over ps x es, each guarded by q <= max_q
    (None: no bound); p = 2 is refused: every statement assumes odd
    characteristic.  The STATEMENTS entry fixes the rest: indices ns
    (T2.2, default 0..30) or exponents ls (default 0..e; T-k0-pe2 takes
    l = e alone), and which kinds ks (default 0..p-1, mod p) it covers,
    none outside its domain; fixed-kind statements ignore ks.  Returns
    the list of grid entries; the statement holds on the grid iff every
    entry has ok true.
    """
    st, entries = STATEMENTS.get(theorem), []
    for p, e, (name, axis), kinds in _grid(theorem, ps, es, ns, ls, ks, max_q):
        F = gf.make_field(p, e)
        for v in axis:
            l, n = (v, p ** v + st.shift) if name == "l" else (None, v)
            for k in kinds:
                lhs = dickson_pp_bruteforce(F, n, k, st.a).verdict
                ent = _entry(F, lhs, st.rhs(F, l, n, k),
                             **{name: v, "n": n}, k=k)
                ent.update(st.extra(F, l, n, k, lhs) if st.extra else {})
                entries.append(ent)
    return entries


def grid_size(theorem, ps, es, *, ns=None, ls=None, ks=None,
              max_q=gf.DEFAULT_MAX_Q):
    """Exact point count of verify_theorem's grid; builds no field."""
    return sum(len(axis) * len(kinds) for _, _, (_, axis), kinds
               in _grid(theorem, ps, es, ns, ls, ks, max_q))
