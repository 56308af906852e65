"""Permutation behaviour of the family over GF(q).

Three independent criteria (exhaustive image scan, monomial gcd rule,
2-to-1 count on the extended domain) plus a grid verifier that checks
both sides of each named permutation statement separately: the left
side is always an exhaustive permutation test of the actual map, the
right side the stated arithmetic condition or the stated auxiliary
polynomial's own exhaustive test.  The two sides must coincide at
every grid point; any disagreement is collected as a counterexample.
"""

import math
from dataclasses import dataclass, field as dataclass_field

from . import gf, rdpoly

DEFAULT_MAX_Q = 343

THEOREM_IDS = ("T2.2", "T2.1", "T-pl1-k2", "T-pl1-gen",
               "T-pl2-k2", "T-pl2-k4", "T-pl2-gen", "T-k0-pe2")


@dataclass
class PPReport:
    """Outcome of one permutation test.

    witness holds coordinate vectors (readable without the field):
    for brute_force the first colliding pair in enumeration order, for
    two_to_one the first violating point of the extended domain.
    """

    verdict: bool
    criterion: str
    field: gf.FieldSpec
    params: rdpoly.RdpParams | None = None
    witness: tuple | None = None
    detail: dict = dataclass_field(default_factory=dict)

    def to_json(self):
        out = {"verdict": self.verdict,
               "criterion": self.criterion,
               "field": gf.field_descriptor(self.field),
               "witness": [list(w) for w in self.witness] if self.witness else None}
        if self.params is not None:
            out["params"] = {"n": self.params.n, "k": self.params.k,
                             "a": self.params.a}
        return out


def is_pp_bruteforce(F, fn, params=None):
    """Exhaustive scan: does fn (encoding -> encoding) permute GF(q)?

    On failure the witness is the first collision (x1, x2) in
    enumeration order.
    """
    seen = {}
    for x in F.elements():
        v = fn(x)
        if v in seen:
            return PPReport(False, "brute_force", F, params,
                            (F.coeffs(seen[v]), F.coeffs(x)))
        seen[v] = x
    return PPReport(True, "brute_force", F, params, None)


def monomial_pp(F, n):
    """x -> x^n permutes GF(q) iff gcd(n, q - 1) = 1 (n >= 1)."""
    if n < 1:
        raise ValueError("monomial degree must be at least 1")
    g = math.gcd(n, F.q - 1)
    return PPReport(g == 1, "monomial_gcd", F, None, None, {"n": n, "gcd": g})


def dickson_pp_bruteforce(F, n, k, a=1):
    """Brute-force permutation test of x -> D(n,k; a,x)."""
    params = rdpoly.RdpParams(n, k, a).reduced(F)
    return is_pp_bruteforce(
        F, lambda x: rdpoly.eval_recurrence(F, n, k, x, a), params)


def is_pp_two_to_one(F, n, k):
    """Permutation test through the parameter-side map (odd p, n >= 1).

    D(n,k; 1,.) permutes GF(q) iff on the 2q-2 points of
    (GF(q) union V) minus {1/2}, with V = {v : v^q = 1 - v}, the map

        g(y) = k (y^n (1-y) - y (1-y)^n)/(2y-1) + y^n + (1-y)^n

    takes every value exactly twice and never takes the excluded value
    (k(n-1)+2)/2^n.  The fibers are exposed in detail["fibers"].
    """
    if F.p == 2:
        raise ValueError("the 2-to-1 criterion needs odd characteristic")
    if n < 1:
        raise ValueError("the 2-to-1 criterion needs n >= 1")
    k %= F.p
    params = rdpoly.RdpParams(n, k)
    ext = gf.quadratic_extension(F)
    half = F.half
    domain = [y for y in F.elements() if y != half]
    domain += [v for v in gf.enumerate_v(ext) if v != half]
    excluded = rdpoly.value_at_quarter(F, n, k)
    fibers = {}
    images = []
    for y in domain:
        val = rdpoly.functional_map(ext, n, k, y)
        images.append(val)
        fibers.setdefault(val, []).append(y)
    detail = {"fibers": fibers, "excluded_value": excluded}
    for y, val in zip(domain, images):
        if val == excluded:
            return PPReport(False, "two_to_one", F, params,
                            (ext.coeffs(y),), detail)
    for y, val in zip(domain, images):
        if len(fibers[val]) != 2:
            return PPReport(False, "two_to_one", F, params,
                            (ext.coeffs(y),), detail)
    return PPReport(True, "two_to_one", F, params, None, detail)


# -- grid verification of the permutation statements ----------------------


@dataclass
class TheoremReport:
    """Both-sides grid check of one named statement."""

    theorem: str
    entries: list
    counterexamples: list

    @property
    def passed(self):
        return not self.counterexamples

    def to_json(self):
        return {"theorem": self.theorem,
                "pass": self.passed,
                "grid": self.entries,
                "failures": self.counterexamples}


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


def verify_theorem(theorem, ps, es, *, ns=None, ls=None, ks=None,
                   max_q=DEFAULT_MAX_Q):
    """Evaluate both sides of a named permutation statement on a grid.

    ps, es: primes and extension degrees (their product grid gives the
    fields, each guarded by q <= max_q).  ns: degree indices, used by
    T2.2 only (default 0..30).  ls: prime-power exponents for the
    other statements (default: all 0 <= l <= e per field).  ks: kind
    parameters (default: all of [0, p-1]); statements with a fixed or
    restricted kind ignore or filter it.  Returns a TheoremReport
    whose counterexample list is empty iff every grid point agrees.
    Every statement assumes odd characteristic, so p = 2 is refused.
    """
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}; "
                         f"expected one of {', '.join(THEOREM_IDS)}")
    if 2 in ps:
        raise ValueError(f"{theorem} assumes odd characteristic; "
                         "p = 2 is outside its domain")
    entries = []
    for p in ps:
        for e in es:
            if p ** e > max_q:
                raise ValueError(
                    f"grid point GF({p}^{e}) exceeds the size bound "
                    f"q <= {max_q}")
            F = gf.make_field(p, e)
            nset, lset, kset = _grid_axes(p, e, ns, ls, ks)
            entries.extend(_theorem_points(theorem, F, nset, lset, kset))
    bad = [ent for ent in entries if not ent["ok"]]
    return TheoremReport(theorem, entries, bad)


def _grid_axes(p, e, ns, ls, ks):
    """The index, exponent and kind lists of one field, defaults filled."""
    return (ns if ns is not None else range(31),
            ls if ls is not None else range(e + 1),
            ks if ks is not None else range(p))


def grid_size(theorem, ps, es, *, ns=None, ls=None, ks=None):
    """Upper bound on the permutation scans verify_theorem runs for
    these arguments: one per (field, index or exponent, kind) point."""
    total = 0
    for p in ps:
        for e in es:
            nset, lset, kset = _grid_axes(p, e, ns, ls, ks)
            total += len(nset if theorem == "T2.2" else lset) * len(kset)
    return total


def _theorem_points(theorem, F, nset, lset, kset):
    p, q = F.p, F.q
    out = []
    if theorem == "T2.2":
        # a = 0 family: PP iff k != 2, n = 2l even, gcd(l, q-1) = 1
        for n in nset:
            for k in kset:
                k %= p
                lhs = is_pp_bruteforce(
                    F, lambda x: rdpoly.eval_a0(F, n, k, x)).verdict
                rhs = (k - 2) % p != 0 and n % 2 == 0 \
                    and math.gcd(n // 2, q - 1) == 1
                out.append(_entry(F, lhs, rhs, n=n, k=k))
        return out

    if theorem == "T2.1":
        # n = p^l: for p = 3 PP iff k != 0 and gcd((3^l-1)/2, q-1) = 1;
        # for p > 3 never a PP
        for l in lset:
            n = p ** l
            for k in kset:
                k %= p
                lhs = dickson_pp_bruteforce(F, n, k).verdict
                if p == 3:
                    rhs = k != 0 and math.gcd((3 ** l - 1) // 2, q - 1) == 1
                else:
                    rhs = False
                out.append(_entry(F, lhs, rhs, l=l, n=n, k=k))
        return out

    if theorem == "T-pl1-k2":
        # n = p^l + 1, k = 2: PP iff gcd((p^l-1)/2, q-1) = 1
        for l in lset:
            n = p ** l + 1
            lhs = dickson_pp_bruteforce(F, n, 2).verdict
            rhs = math.gcd((p ** l - 1) // 2, q - 1) == 1
            out.append(_entry(F, lhs, rhs, l=l, n=n, k=2 % p))
        return out

    if theorem == "T-pl1-gen":
        # n = p^l + 1: for k = 0, PP iff gcd((p^l+1)/2, q-1) = 1;
        # for k not in {0, 2}, PP iff l = 0
        for l in lset:
            n = p ** l + 1
            for k in kset:
                k %= p
                if k == 2 % p:
                    continue
                lhs = dickson_pp_bruteforce(F, n, k).verdict
                if k == 0:
                    rhs = math.gcd((p ** l + 1) // 2, q - 1) == 1
                else:
                    rhs = l == 0
                out.append(_entry(F, lhs, rhs, l=l, n=n, k=k))
        return out

    if theorem == "T-pl2-k2":
        # n = p^l + 2, k = 2: PP iff l = 0; the statement's auxiliary
        # binomial is recorded alongside
        half = F.half
        for l in lset:
            n = p ** l + 2
            m = (p ** l - 1) // 2
            lhs = dickson_pp_bruteforce(F, n, 2).verdict
            rhs = l == 0
            aux = _power_map_pp(F, ((1, m + 1), (1, m)))
            ent = _entry(F, lhs, rhs, l=l, n=n, k=2 % p)
            ent["binomial_pp"] = aux
            out.append(ent)
        return out

    if theorem == "T-pl2-k4":
        # n = p^l + 2, k = 4 (p > 3): PP iff the stated binomial
        # x^((p^l-1)/2) - x/2 is a PP; the sharper l = 0 claim is
        # recorded per point but not asserted
        if p <= 3:
            return out
        half = F.half
        for l in lset:
            n = p ** l + 2
            m = (p ** l - 1) // 2
            lhs = dickson_pp_bruteforce(F, n, 4).verdict
            rhs = _power_map_pp(F, ((1, m), (F.neg(half), 1)))
            ent = _entry(F, lhs, rhs, l=l, n=n, k=4 % p)
            ent["l_zero_claim_ok"] = lhs == (l == 0)
            out.append(ent)
        return out

    if theorem == "T-pl2-gen":
        # n = p^l + 2, k not in {0, 2, 4}: PP iff the trinomial
        # (4-k) x^((p^l+1)/2) + k x^((p^l-1)/2) + (2-k) x is one
        for l in lset:
            n = p ** l + 2
            m = (p ** l - 1) // 2
            for k in kset:
                k %= p
                if k in (0, 2 % p, 4 % p):
                    continue
                lhs = dickson_pp_bruteforce(F, n, k).verdict
                rhs = _power_map_pp(F, ((F.from_int(4 - k), m + 1),
                                        (k, m),
                                        (F.from_int(2 - k), 1)))
                out.append(_entry(F, lhs, rhs, l=l, n=n, k=k))
        return out

    # T-k0-pe2: n = p^e + 2, k = 0: PP iff q = 1 mod 3
    n = q + 2
    lhs = dickson_pp_bruteforce(F, n, 0).verdict
    rhs = q % 3 == 1
    out.append(_entry(F, lhs, rhs, l=F.e, n=n, k=0))
    return out
