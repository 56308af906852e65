"""Acceptance gate: the eight package-level criteria, one test each.

Each test prints one PASS/FAIL line (visible with -s or in the -v
test listing through the test name).  Every grid is run in full;
nothing here is sampled or shrunk.  Left and right sides of every
equivalence come from different routes, never from the same code path:
in particular the scaling and periodicity checks use the plain
definition sums, because eval_recurrence applies those laws internally.
"""

import functools
from fractions import Fraction
from math import comb

from rdickson import charsum as cs
from rdickson import gf, modpoly
from rdickson import permcheck as pc
from rdickson import rdpoly as rd


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {label}")
                raise
            print(f"PASS criterion {num}: {label}")
        return wrapper
    return deco


FIELDS_C1 = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]


@criterion(1, "four-way evaluator equivalence")
def test_criterion_1_four_way_equivalence():
    for p, e in FIELDS_C1:
        F = gf.make_field(p, e)
        top = min(F.q ** 2 - 1, 200)
        for k in range(p):
            for n in range(top + 1):
                for x in F.elements():
                    v1 = rd.eval_definition(F, n, k, x)
                    v2 = rd.eval_recurrence(F, n, k, x)
                    v3 = rd.eval_functional(F, n, k, x)
                    v4 = rd.eval_via_fnk(F, n, k, x)
                    assert v1 == v2 == v3 == v4, (F.q, n, k, x)


@criterion(2, "closed forms match the recurrence")
def test_criterion_2_closed_forms():
    for p, e in ((5, 1), (7, 1), (3, 2), (3, 3)):
        F = gf.make_field(p, e)
        shapes = set()
        pl = 1
        while pl < F.q ** 2:
            shapes.update((pl, pl + 1, pl + 2))
            pl *= p
        for n in sorted(shapes):
            for k in range(p):
                for x in F.elements():
                    assert rd.closed_form(F, n, k, x) == \
                        rd.eval_recurrence(F, n, k, x), (F.q, n, k, x)


@criterion(3, "theorem suite, zero counterexamples")
def test_criterion_3_theorem_suite():
    reports = [
        pc.verify_theorem("T2.2", [5, 7], [1], ns=range(31)),
        pc.verify_theorem("T2.2", [3], [2], ns=range(31)),
        pc.verify_theorem("T2.1", [3], [1, 2, 3]),     # all l <= e, all k
    ]
    for p in (5, 7):
        for e in (1, 2):
            reports.append(
                pc.verify_theorem("T2.1", [p], [e], ls=range(1, e + 1)))
    for tid in ("T-pl1-k2", "T-pl1-gen", "T-pl2-k2", "T-pl2-k4",
                "T-pl2-gen"):
        reports.append(pc.verify_theorem(tid, [3, 5, 7], [1, 2],
                                         ls=range(3)))
    reports.append(pc.verify_theorem("T-k0-pe2", [3, 5, 7], [1, 2]))
    bad = [ent for entries in reports for ent in entries if not ent["ok"]]
    assert bad == [], bad
    assert sum(len(entries) for entries in reports) > 0


@criterion(4, "2-to-1 criterion equals brute force")
def test_criterion_4_two_to_one_equivalence():
    for p in (3, 5, 7):
        F = gf.make_field(p)
        for k in range(p):
            for n in range(1, F.q ** 2):
                assert pc.is_pp_two_to_one(F, n, k).verdict == \
                    pc.dickson_pp_bruteforce(F, n, k).verdict, (p, n, k)


@criterion(5, "sum tables equal brute-force sums, residue identity holds")
def test_criterion_5_sum_oracle_equivalence():
    for p, e in ((5, 1), (7, 1), (3, 2)):
        F = gf.make_field(p, e)
        for k in range(p):
            table = cs.sums_via_recurrence(F, k)
            brute = cs.sums_bruteforce(F, k)
            for n in range(1, F.q ** 2):
                assert table.sums[n] == brute[n], (F.q, k, n)
            d = cs.shifted_sums(p, k, brute)
            assert table.d.tolist() == d.tolist(), (F.q, k)
            assert cs.residue_identity_holds(table, d), (F.q, k)


def reduced_expansion_holds(n, k):
    """Compare fnk_coeffs with the reduced expansions for kinds 0..3.

    k=0: 2 * sum_j C(n, 2j) t^j (the factor 2 is the bookkeeping that
         moves one halving into the (1/2)^(n-1) normalization)
    k=1: sum_j C(n+1, 2j+1) t^j
    k=2: 2 * sum_j C(n, 2j+1) t^j
    k=3: n = 2l even; -t^l + sum_{j<l} (3n-8j-1)/(n+1) C(n+1, 2j+1) t^j,
         compared exactly over the rationals.
    """
    if k == 0:
        rhs = [2 * comb(n, 2 * j) for j in range(n // 2 + 1)]
    elif k == 1:
        rhs = [comb(n + 1, 2 * j + 1) for j in range(n // 2 + 1)]
    elif k == 2:
        rhs = [2 * comb(n, 2 * j + 1) for j in range((n + 1) // 2)] or [0]
    else:
        l = n // 2
        rhs = [Fraction(3 * n - 8 * j - 1, n + 1) * comb(n + 1, 2 * j + 1)
               for j in range(l)] + [Fraction(-1)]
    lhs = tuple(Fraction(c) for c in rd.fnk_coeffs(n, k))
    rhs = tuple(Fraction(c) for c in modpoly.trim(rhs))
    return lhs == rhs


@criterion(6, "integer identities for the specialized kinds")
def test_criterion_6_integer_identities():
    for k in (0, 1, 2):
        for n in range(101):
            assert reduced_expansion_holds(n, k), (n, k)
    for n in range(0, 101, 2):
        assert reduced_expansion_holds(n, 3), n


@criterion(7, "generating-function coefficients match the recurrence")
def test_criterion_7_generating_function():
    for p in (5, 7):
        F = gf.make_field(p)
        for k in range(p):
            for x in F.elements():
                coeffs = rd.genfun_coeffs(F, k, x, 50)
                for n, c in enumerate(coeffs):
                    assert c == rd.eval_recurrence(F, n, k, x), (p, n, k, x)


@criterion(8, "scaling, periodicity and kind relations, exhaustive q = 5")
def test_criterion_8_structural_relations():
    F = gf.make_field(5)
    period = F.q ** 2 - 1
    for k in range(5):
        for x in F.elements():
            for n in range(61):
                # scaling: the definition sums must satisfy the a-law
                for a in range(1, 5):
                    scaled = F.mul(F.pow(a, n), rd.eval_definition(
                        F, n, k, F.mul(x, F.inv(F.mul(a, a)))))
                    assert rd.eval_definition(F, n, k, x, a) == scaled
                # kind relation: member k is the stated mix of k=1 and k=0
                mix = F.sub(F.mul(k, rd.eval_definition(F, n, 1, x)),
                            F.mul((k - 1) % 5, rd.eval_definition(F, n, 0, x)))
                assert rd.eval_definition(F, n, k, x) == mix
                # periodicity off the quarter point, n >= 1
                if n >= 1 and x != F.quarter:
                    assert rd.eval_definition(F, n + period, k, x) == \
                        rd.eval_definition(F, n, k, x)
