"""Cross-checks between the evaluator routes.

Oracle: a deliberately naive recurrence written here, independent of
everything in the package.  Frozen values were computed with it before
the library existed and must never be regenerated from library output.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rdickson import gf, modpoly
from rdickson import rdpoly as rd
from test_gf import first_generator


def naive(F, n, k, x, a=1):
    # v_0 = 2 - k, v_1 = a, v_m = a v_{m-1} - x v_{m-2}; no shortcuts
    prev = F.from_int(2 - k)
    cur = a
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, F.sub(F.mul(a, cur), F.mul(x, prev))
    return cur


def horner(coeffs, x, F=None):
    """Value at x of a coefficient tuple, constant term first: over the
    integers, or in F."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c if F is None else F.add(F.mul(acc, x), c)
    return acc


def naive_weights(n):
    """Signed x^i coefficient rows of the two classical kinds at a = 1,
    grown over the integers by the recurrence itself."""
    first = [[2], [1]]
    second = [[1], [1]]
    for _ in range(n):
        for rows in (first, second):
            a, b = rows[-2], rows[-1]
            nxt = list(b) + [0] * (len(a) + 1 - len(b))
            for i, c in enumerate(a):
                nxt[i + 1] -= c
            rows.append(nxt)
    return first[: n + 1], second[: n + 1]


F5 = gf.make_field(5)
F7 = gf.make_field(7)
F9 = gf.make_field(3, 2)
F4 = gf.make_field(2, 2)
F25 = gf.make_field(5, 2)


class TestWeights:
    def test_rows_match_recurrence_over_z(self):
        first, second = naive_weights(12)
        for n in range(13):
            got1 = [w * (-1) ** i for i, w in enumerate(rd.first_kind_weights(n))]
            got2 = [w * (-1) ** i for i, w in enumerate(rd.second_kind_weights(n))]
            assert got1 == first[n]
            assert got2 == second[n]
            for k in range(7):
                row = rd.family_weights(n, k)
                want = [k * s - (k - 1) * f
                        for f, s in zip(first[n] + [0] * n, second[n] + [0] * n)]
                assert [w * (-1) ** i for i, w in enumerate(row)] == want[: len(row)]

    def test_row_values_are_integers_not_divisions(self):
        # w[i] = n/(n-i) C(n-i,i) must come out of the two-binomial form
        for n in range(1, 40):
            for i in range(1, n // 2 + 1):
                w = rd.first_kind_weights(n)[i]
                assert w * (n - i) == n * math.comb(n - i, i)


    @pytest.mark.parametrize("n", [2047, 2048, 3013, 4999, 5000])
    def test_ratio_rows_match_binomials_at_large_n(self, n):
        # every ratio step must divide exactly; the first kind is taken
        # from w[i] = n/(n-i) C(n-i, i), not from the two-row sum
        second = [math.comb(n - i, i) for i in range(n // 2 + 1)]
        first = [n * c // (n - i) for i, c in enumerate(second)]
        assert rd.second_kind_weights(n) == tuple(second)
        assert rd.first_kind_weights(n) == tuple(first)
        for k in range(4):
            assert rd.family_weights(n, k) == tuple(
                k * s - (k - 1) * f for f, s in zip(first, second))

    @pytest.mark.parametrize("n", [1931, 3013, 5000])
    def test_fnk_ratio_row_matches_binomials_at_large_n(self, n):
        odd = [math.comb(n - 1, 2 * j + 1) for j in range(n // 2 + 1)]
        even = [2 * math.comb(n, 2 * j) for j in range(n // 2 + 1)]
        for k in range(4):
            want = even + [0]
            for j, c in enumerate(odd):
                want[j] += k * c
                want[j + 1] -= k * c
            assert rd.fnk_coeffs(n, k) == tuple(modpoly.trim(want))

    def test_row_caches_stay_bounded_near_the_cap(self):
        # eleven indices near the CLI's cross-check cap n = 5000
        for n in range(4990, 5001):
            rd.eval_definition(F5, n, 3, 2)
            rd.eval_via_fnk(F5, n, 3, 2)
            rd.fnk_coeffs(n, 2)
        caches = [fn for fn in vars(rd).values() if hasattr(fn, "cache_info")]
        assert all(fn.cache_info().maxsize is not None for fn in caches)
        for fn in (rd.family_weights, rd.fnk_coeffs, rd._fnk_row_mod):
            assert fn.cache_info().currsize <= rd.ROW_CACHE_SIZE, fn.__name__


class TestFrozenValues:
    # frozen from the naive recurrence before the library ran
    def test_gf5_n4_k3_x2(self):
        assert rd.eval_recurrence(F5, 4, 3, 2) == 0
        assert rd.eval_definition(F5, 4, 3, 2) == 0

    def test_gf5_n4_k3_at_quarter(self):
        assert F5.quarter == 4
        assert rd.eval_recurrence(F5, 4, 3, 4) == 1

    def test_gf7_n0_k5(self):
        # index 0 member is the constant 2 - k
        assert rd.eval_recurrence(F7, 0, 5, 3) == (2 - 5) % 7

    def test_gf7_n3_k0_polynomial(self):
        assert rd.as_polynomial(F7, 3, 0) == (1, 4)

    def test_fnk_n2_k3(self):
        assert rd.fnk_coeffs(2, 3) == (5, -1)

    def test_fnk_at_zero_is_linear_in_n(self):
        for n in range(61):
            for k in range(6):
                f = rd.fnk_coeffs(n, k)
                want = k * (n - 1) + 2 if n else 2 - k
                assert horner(f, 0) == want


class TestEvaluatorAgreement:
    @pytest.mark.parametrize("F", [F5, F7, F9], ids=lambda F: f"GF({F.q})")
    def test_four_routes_small_grid(self, F):
        for n in range(21):
            for k in range(F.p):
                for x in F.elements():
                    want = naive(F, n, k, x)
                    assert rd.eval_definition(F, n, k, x) == want
                    assert rd.eval_recurrence(F, n, k, x) == want
                    assert rd.eval_functional(F, n, k, x) == want
                    assert rd.eval_via_fnk(F, n, k, x) == want

    def test_general_a_definition_matches_recurrence(self):
        for a in F5.elements():
            for n in range(11):
                for k in range(5):
                    for x in F5.elements():
                        want = naive(F5, n, k, x, a)
                        assert rd.eval_definition(F5, n, k, x, a) == want
                        assert rd.eval_recurrence(F5, n, k, x, a) == want

    def test_a0_closed_value(self):
        for n in range(13):
            for k in range(5):
                for x in F5.elements():
                    assert rd.eval_a0(F5, n, k, x) == naive(F5, n, k, x, 0)

    @given(n=st.integers(0, 10 ** 9), k=st.integers(0, 4),
           x=st.integers(0, 24))
    @settings(max_examples=40, deadline=None)
    def test_reduction_agrees_with_definition_gf25(self, n, k, x):
        small = (n - 1) % (F25.q ** 2 - 1) + 1 if n else 0
        if x == F25.quarter:
            assert rd.eval_recurrence(F25, n, k, x) == \
                rd.value_at_quarter(F25, n, k)
        else:
            assert rd.eval_recurrence(F25, n, k, x) == naive(F25, small, k, x)


class TestDoublingKernel:
    # the index-doubling kernel against the plain loop, where reduction
    # mod q^2 - 1 wraps, and at an index no loop could reach
    FIELDS = [gf.make_field(3, 3), gf.make_field(2, 3),
              gf.make_field(3, 2, (2, 1, 1))]

    @pytest.mark.parametrize("F", FIELDS, ids=gf.field_descriptor)
    def test_band_around_period(self, F):
        period = F.q * F.q - 1
        for k in range(F.p):
            for x in F.elements():
                for n in range(period - 2, period + 3):
                    assert rd.eval_recurrence(F, n, k, x) == naive(F, n, k, x)

    @pytest.mark.parametrize("F", FIELDS, ids=gf.field_descriptor)
    def test_huge_index(self, F):
        n = 10 ** 30
        small = (n - 1) % (F.q * F.q - 1) + 1
        # at x = 1/4 (odd p, a prime-field element) the value is the
        # constant (k(n-1) + 2) / 2^n, worked here in integers mod p
        quarter = pow(4, -1, F.p) if F.p != 2 else None
        for k in range(F.p):
            for x in F.elements():
                if x == quarter:
                    want = (k * (n - 1) + 2) * pow(2, -n, F.p) % F.p
                else:
                    want = naive(F, small, k, x)
                assert rd.eval_recurrence(F, n, k, x) == want


def stepped(F, k, x, count):
    """Oracle: v_0 .. v_(count-1) at a = 1, stepped one index at a time."""
    out = [F.from_int(2 - k), 1]
    while len(out) < count:
        out.append(F.sub(out[-1], F.mul(x, out[-2])))
    return out[:count]


class TestRowKernels:
    # each loop body of FieldSpec.lucas: ints mod p (GF(3), GF(7), with
    # tables and without), Zech logs with odd p (GF(9), GF(25), GF(27))
    # and with p = 2 (GF(8), GF(16)), and add/sub/mul on fields built
    # with no tables
    BODIES = [("3", True), ("7", True), ("9", True), ("25", True),
              ("27", True), ("8", True), ("16", True), ("9", False),
              ("8", False), ("7", False)]

    @pytest.mark.parametrize("desc, tables", BODIES,
                             ids=[f"GF({d})-{'tables' if t else 'none'}"
                                  for d, t in BODIES])
    def test_each_body_matches_the_stepped_recurrence(self, desc, tables,
                                                      monkeypatch):
        with monkeypatch.context() as m:
            if not tables:
                m.setattr(gf, "_LOG_TABLE_MAX_Q", 0)
            F = gf.parse_field_descriptor(desc)
        assert (F._exp is not None) == tables
        q, period = F.q, F.q * F.q - 1
        big = 10 ** 18 + 12345
        ns = sorted(set(range(3 * q)) | {q * q - 2, q * q - 1, q * q, big})
        for k in range(F.p):
            rows = {n: rd.recurrence_row(F, n, k) for n in ns}
            for x in F.elements():
                want = stepped(F, k, x, q * q + 1)
                for n in ns:
                    if n <= q * q:
                        expect = want[n]
                    elif F.p != 2 and x == F.quarter:
                        expect = F.mul(F.from_int(k * (n - 1) + 2),
                                       F.inv(F.pow(2, n)))
                    else:
                        expect = want[(n - 1) % period + 1]
                    assert rows[n](x) == expect, (k, x, n)


    @pytest.mark.parametrize("desc", ["7", "9", "25", "8", "16"])
    def test_lucas_through_chains_with_a_zero_term(self, desc):
        # U at every j < 3q, where the doubling passes through pairs
        # (U_i, U_(i+1)) with U_i = 0 and with U_(i+1) = 0, each ending
        # on either bit; U_0 = 0 heads the list
        F = gf.parse_field_descriptor(desc)
        count = 3 * F.q
        seen = set()
        for x in F.elements():
            u = [0] + stepped(F, 1, x, count + 1)   # U_i, as v_i = U_(i+1)
            for j in range(1, count):
                for c in (0, 1):
                    want = F.sub(u[j + 1], F.mul(F.mul(c, x), u[j]))
                    assert F.lucas(x, bin(j)[3:], c) == want, (x, j, c)
                for s in range(1, j.bit_length()):
                    i = j >> s
                    if 0 in (u[i], u[i + 1]):
                        seen.add((u[i] == 0, j >> s - 1 & 1))
        assert seen == {(True, 0), (True, 1), (False, 0), (False, 1)}


class TestMatrixRoute:
    @pytest.mark.parametrize("F", [F4, F5, F9, gf.make_field(2, 3)],
                             ids=lambda F: f"GF({F.q})")
    def test_every_small_case_against_the_plain_loop(self, F):
        for a in F.elements():
            for k in range(F.p):
                for x in F.elements():
                    for n in range(12):
                        assert rd.eval_matrix(F, n, k, x, a) == \
                            naive(F, n, k, x, a), (a, k, x, n)

    @pytest.mark.parametrize("desc", ["16", "25", "343"])
    def test_unreduced_index_against_the_recurrence(self, desc):
        # the recurrence reduces n, rescales a and patches x = 1/4; the
        # matrix power does none of these
        F = gf.parse_field_descriptor(desc)
        rng = random.Random(desc)
        for _ in range(60):
            a = rng.choice([0, 1, rng.randrange(F.q)])
            x = F.quarter if F.p != 2 and rng.random() < 0.2 \
                else rng.randrange(F.q)
            n, k = rng.randrange(10 ** 30), rng.randrange(F.p)
            assert rd.eval_matrix(F, n, k, x, a) == \
                rd.eval_recurrence(F, n, k, x, a), (a, k, x, n)


class TestQuarterPoint:
    def test_constant_equals_sequence_value(self):
        # (k(n-1)+2)/2^n agrees with the raw recurrence at x = 1/4
        # for every n, not just after index reduction
        for F in (F5, F9):
            for n in range(31):
                for k in range(F.p):
                    assert rd.value_at_quarter(F, n, k) == \
                        naive(F, n, k, F.quarter)

    @pytest.mark.parametrize("desc", ["3", "9", "25", "337", "343"])
    def test_constant_equals_the_field_op_formula(self, desc):
        # oracle: the formula in field ops, which reads nothing of how
        # the prime subfield is encoded.  (k(n-1) + 2) has period p in
        # n and 2^-n a period dividing p - 1, so n <= 3p(p - 1) covers
        # each pair of residues; p = 337 takes a sample of indices and
        # kinds
        F = gf.parse_field_descriptor(desc)
        p, rng = F.p, random.Random(desc)
        ns, ks = range(3 * p * (p - 1) + 1), range(p)
        if p > 100:
            ns, ks = rng.sample(ns, 400), rng.sample(ks, 20)
        for n in [*ns, 10 ** 30 + 7]:
            for k in [*ks, -1, -p - 2]:
                num = (k * ((n - 1) % p) + 2) % p
                want = F.mul(num, F.inv(F.pow(F.from_int(2), n)))
                assert rd.value_at_quarter(F, n, k) == want, (n, k)

    def test_index_reduction_is_wrong_at_quarter_and_patched(self):
        # the reason 1/4 is special: the reduced index gives another value
        n = 4 + 24
        assert naive(F5, n, 3, F5.quarter) != naive(F5, 4, 3, F5.quarter)
        assert rd.eval_recurrence(F5, n, 3, F5.quarter) == \
            naive(F5, n, 3, F5.quarter)


class TestPeriodAndScaling:
    def test_period_divides_q2_minus_1(self):
        period = F5.q ** 2 - 1
        for k in range(5):
            for x in F5.elements():
                if x == F5.quarter:
                    continue
                for n in range(1, 10):
                    assert naive(F5, n + period, k, x) == naive(F5, n, k, x)

    def test_scaling_identity(self):
        # D(n,k; a,x) = a^n D(n,k; 1, x/a^2) for a != 0, in every
        # characteristic: GF(4) and GF(8) check the p = 2 rescaling
        for F, ns in ((F7, range(9)), (F4, (*range(9), 40, 301)),
                      (gf.make_field(2, 3), (*range(9), 40, 301))):
            for a in range(1, F.q):
                for n in ns:
                    for k in range(F.p if F.p > 2 else 4):
                        for x in F.elements():
                            inner = rd.eval_recurrence(
                                F, n, k, F.mul(x, F.inv(F.mul(a, a))))
                            assert rd.eval_recurrence(F, n, k, x, a) == \
                                F.mul(F.pow(a, n), inner) == \
                                naive(F, n, k, x, a), (F.q, a, n, k, x)

    def test_kind_collapses_mod_p(self):
        for n in range(9):
            for k in (0, 1, 2):
                for x in F5.elements():
                    assert rd.eval_recurrence(F5, n, k, x) == \
                        rd.eval_recurrence(F5, n, k + 5, x)


class TestChar2:
    def test_char2_eval_matches_definition(self):
        for n in range(41):
            for k in range(4):
                for x in F4.elements():
                    want = naive(F4, n, k % 2, x)
                    assert rd.char2_eval(F4, n, k, x) == want
                    assert rd.eval_definition(F4, n, k, x) == want

    @pytest.mark.parametrize("desc", ["4", "8", "16", "2^3/1,0,1,1"])
    def test_char2_eval_matches_definition_any_a(self, desc):
        # the definition route against the oracle recurrence, a != 1 and
        # a = 0 included
        F = gf.parse_field_descriptor(desc)
        rng = random.Random(desc)
        points = [(x, a) for x in F.elements() for a in F.elements()]
        for n in list(range(70)) + [127, 128, 129, 255, 256, 257, 300]:
            for k in range(4):
                for x, a in rng.sample(points, 4) + [(F.q - 1, 0)]:
                    assert rd.eval_definition(F, n, k, x, a) == \
                        naive(F, n, k % 2, x, a), (F.q, n, k, x, a)

    def test_char2_index_reduction(self):
        period = F4.q ** 2 - 1
        for k in (0, 1):
            for x in F4.elements():
                for n in range(1, 8):
                    assert rd.eval_recurrence(F4, n + 3 * period, k, x) == \
                        naive(F4, n, k, x)

    def test_odd_p_routes_refuse_char2(self):
        for fn in (rd.eval_functional, rd.eval_via_fnk, rd.closed_form):
            with pytest.raises(ValueError):
                fn(F4, 3, 1, 1)
        with pytest.raises(ValueError):
            rd.as_polynomial(F4, 3, 1)


class TestClosedForm:
    @pytest.mark.parametrize("F", [F5, F9], ids=lambda F: f"GF({F.q})")
    def test_all_supported_shapes(self, F):
        p = F.p
        shapes = set()
        pl = 1
        while pl < F.q ** 2:
            shapes.update((pl, pl + 1, pl + 2))
            pl *= p
        for n in sorted(shapes):
            for k in range(p):
                for x in F.elements():
                    assert rd.closed_form(F, n, k, x) == \
                        rd.eval_recurrence(F, n, k, x)

    def test_rejects_other_indices(self):
        with pytest.raises(ValueError):
            rd.closed_form(F7, 12, 1, 3)   # 12 = 7+5 is none of the shapes

    def test_overlapping_shape_detection(self):
        # n = 3 over GF(9) is both 3^1 and 3^0 + 2
        assert rd._power_shape(3, 3) == (0, 1)
        assert rd._power_shape(3, 4) == (1, 1)
        assert rd._power_shape(5, 1) == (0, 0)
        assert rd._power_shape(5, 12) is None


class TestFnk:
    def test_k1_expansion_against_inline_binomials(self):
        # duplicate the k = 1 right side here so the module cannot agree
        # with itself by construction
        for n in range(1, 60):
            lhs = rd.fnk_coeffs(n, 1)
            rhs = [math.comb(n + 1, 2 * j + 1) for j in range(n // 2 + 1)]
            assert list(lhs) == rhs


class TestGenfun:
    @pytest.mark.parametrize("F", [F5, F7], ids=lambda F: f"GF({F.q})")
    def test_series_matches_sequence(self, F):
        for k in range(F.p):
            for x in F.elements():
                coeffs = rd.genfun_coeffs(F, k, x, 30)
                for n, c in enumerate(coeffs):
                    assert c == naive(F, n, k, x)

    def test_series_times_denominator_telescopes(self):
        for k in range(5):
            for x in F5.elements():
                c = rd.genfun_coeffs(F5, k, x, 25)
                den = [1, F5.neg(1), x]
                prod = [0] * 22
                for i in range(22):
                    for j, d in enumerate(den):
                        if i - j >= 0:
                            prod[i] = F5.add(prod[i], F5.mul(d, c[i - j]))
                want = [F5.from_int(2 - k), F5.from_int(k - 1)] + [0] * 20
                assert prod == want

    def test_count_zero(self):
        assert rd.genfun_coeffs(F5, 1, 2, 0) == []


def two_power_map(ext, n, k, y):
    """The 2-to-1 map by its defining formula in test-local coordinate
    arithmetic, sharing none with QuadExt: sums and differences by
    coordinates, the product (a0 + a1 s)(b0 + b1 s) = (a0 b0 + d a1 b1)
    + (a0 b1 + a1 b0) s, both powers by square-and-multiply over it, and
    the inverse as the conjugate over the norm a0^2 - d a1^2."""
    F, q, d = ext.base, ext.q, ext.d

    def add(u, v):
        return F.add(u % q, v % q) + q * F.add(u // q, v // q)

    def sub(u, v):
        return F.sub(u % q, v % q) + q * F.sub(u // q, v // q)

    def inv(u):
        a1, a0 = divmod(u, q)
        norm = F.sub(F.mul(a0, a0), F.mul(d, F.mul(a1, a1)))
        c = F.inv(norm)
        return F.mul(a0, c) + q * F.neg(F.mul(a1, c))

    def mul(u, v):
        a1, a0 = divmod(u, q)
        b1, b0 = divmod(v, q)
        re = F.add(F.mul(a0, b0), F.mul(d, F.mul(a1, b1)))
        return re + q * F.add(F.mul(a0, b1), F.mul(a1, b0))

    def power(u, m):
        out = 1
        for bit in bin(m)[2:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, u)
        return out

    z = sub(1, y)
    yn, zn = power(y, n), power(z, n)
    num = sub(mul(yn, z), mul(y, zn))
    frac = mul(num, inv(sub(add(y, y), 1)))
    return add(mul(k, frac), add(yn, zn))


class TestFunctionalMap:
    def test_all_of_the_extension_against_two_powers(self):
        # every y != 1/2 of GF(9^2): the base line and the fixed line V
        # against the formula, and every point outside both refused
        ext = gf.quadratic_extension(F9)
        outside = 0
        for y in range(ext.size):
            if y == F9.half:
                continue
            a1, a0 = divmod(y, F9.q)
            if a1 and F9.add(a0, a0) != 1:      # y^q = a0 - a1 s != 1 - y
                outside += 1
                with pytest.raises(ValueError, match="neither"):
                    rd.functional_map(ext, 2, 1, y)
                continue
            for n in (1, 2, 5, 13):
                for k in range(3):
                    want = two_power_map(ext, n, k, y)
                    assert rd.functional_map(ext, n, k, y) == want
        assert outside == 81 - (9 + 9 - 1)     # GF(9) and V meet in 1/2

    @pytest.mark.parametrize("F", [gf.make_field(13), F25,
                                   gf.make_field(3, 3), gf.make_field(7, 2)],
                             ids=lambda F: f"GF({F.q})")
    def test_base_line_and_v_against_two_powers(self, F):
        # the whole 2-to-1 domain (GF(q) and V = {1/2 + t s}, less 1/2),
        # at every kind; n past q^2 - 1 checks the exponent reduction
        ext = gf.quadratic_extension(F)
        q = F.q
        domain = [y for y in range(q) if y != F.half]
        domain += [F.half + t * q for t in range(1, q)]
        for n in (1, 2, 3, q - 2, q + 2, q * q + 5):
            for k in range(F.p):
                for y in domain:
                    want = two_power_map(ext, n, k, y)
                    assert rd.functional_map(ext, n, k, y) == want, (n, k, y)

    def test_v_sample_of_gf343_against_two_powers(self):
        F = gf.make_field(7, 3)
        ext = gf.quadratic_extension(F)
        rng = random.Random(343)
        for t in rng.sample(range(1, F.q), 25):
            y = F.half + t * F.q
            for n in (2, 101, rng.randrange(F.q ** 2, 10 ** 9)):
                for k in range(F.p):
                    want = two_power_map(ext, n, k, y)
                    assert rd.functional_map(ext, n, k, y) == want, (n, k, t)


def functional_map_by_formula(ext, n, k, y):
    """Oracle: the 2-to-1 map point by point, as it was computed before
    functional_row: on V one QuadExt.pow and (2 - k) A + k B / (2t), on
    GF(q) the formula in base-field ops."""
    F = ext.base
    k %= F.p
    t, y0 = divmod(y, ext.q)
    if t:
        b, a = divmod(ext.pow(y, n), ext.q)
        return F.add(F.mul(F.from_int(2 - k), a),
                     F.mul(k, F.mul(b, F.inv(F.add(t, t)))))
    z = F.sub(1, y)
    yn, zn = F.pow(y, n), F.pow(z, n)
    num = F.sub(F.mul(yn, z), F.mul(y, zn))
    den = F.sub(F.add(y, y), 1)
    return F.add(F.mul(k, F.mul(num, F.inv(den))), F.add(yn, zn))


class TestFunctionalRow:
    ROWS = [("5", True), ("7", True), ("9", True), ("25", True),
            ("27", True), ("49", True), ("125", True), ("9", False),
            ("7", False)]

    @pytest.mark.parametrize("desc, tables", ROWS,
                             ids=[f"GF({d})-{'tables' if t else 'none'}"
                                  for d, t in ROWS])
    def test_row_matches_the_point_formula(self, desc, tables, monkeypatch):
        # every point of GF(q) and V but 1/2, every kind, n in 0 .. 2q
        # and past q^2 - 1; with no tables both kernels use the methods
        with monkeypatch.context() as m:
            if not tables:
                m.setattr(gf, "_LOG_TABLE_MAX_Q", 0)
            F = gf.parse_field_descriptor(desc)
            ext = gf.QuadExt(F)
        q = F.q
        domain = [y for y in range(q) if y != F.half]
        domain += [F.half + t * q for t in range(1, q)]
        for n in [*range(2 * q + 1), q * q - 1, q * q + 5, 10 ** 9 + 7]:
            for k in range(F.p):
                row = rd.functional_row(ext, n, k)
                for y in domain:
                    assert row(y) == functional_map_by_formula(
                        ext, n, k, y), (n, k, y)
        assert (ext._rho is not None) == tables


class TestAsPolynomial:
    @pytest.mark.parametrize("F", [F7, F9], ids=lambda F: f"GF({F.q})")
    def test_matches_folded_integer_row(self, F):
        # value = sum_i w[i] (-x)^i; x^i and x^((i-1) mod (q-1) + 1)
        # agree on GF(q) for i >= 1, so the folded row is the interpolant
        q = F.q
        for n in range(3 * q):
            for k in range(F.p):
                want = [0] * q
                for i, w in enumerate(rd.family_weights(n, k)):
                    j = (i - 1) % (q - 1) + 1 if i else 0
                    want[j] = F.add(want[j], F.from_int(w * (-1) ** i))
                poly = rd.as_polynomial(F, n, k)
                assert poly == tuple(modpoly.trim(want))

    def test_interpolates_on_all_points(self):
        for F in (F5, F7):
            for n in range(26):
                for k in range(F.p):
                    poly = rd.as_polynomial(F, n, k)
                    assert len(poly) - 1 < F.q
                    for x in F.elements():
                        assert horner(poly, x, F) == naive(F, n, k, x)

    def test_large_index_patches_quarter_point(self):
        n = 5 + 24 * 3
        for k in range(5):
            poly = rd.as_polynomial(F5, n, k)
            for x in F5.elements():
                assert horner(poly, x, F5) == rd.eval_recurrence(F5, n, k, x)

    def test_index_zero(self):
        poly = rd.as_polynomial(F5, 0, 4)
        assert poly == ((2 - 4) % 5,)

    # q - 1 = 2, 2^3, 2*11, 2*13 and 4*31: one prime, a prime power,
    # and mixed radices with a large prime that the transform sums
    # directly
    @pytest.mark.parametrize("desc", ["3", "9", "23", "27", "125"])
    def test_transform_matches_the_quadratic_sums(self, desc):
        F = gf.parse_field_descriptor(desc)
        period = F.q * F.q - 1
        for n in (0, 1, 2, F.q + 1, period - 1, period, period + 1,
                  7 * period + F.q + 3):
            for k in range(F.p):
                want = as_polynomial_by_sums(F, n, k)
                assert rd.as_polynomial(F, n, k) == want, (n, k)

    @pytest.mark.parametrize("desc", ["3", "9", "23", "27", "125"])
    def test_transform_against_the_naive_transform(self, desc):
        F = gf.parse_field_descriptor(desc)
        m, rng = F.q - 1, random.Random(desc)
        g = first_generator(m, range(1, F.q), F.mul)
        powers = [F.pow(g, j) for j in range(m)]
        xs = [rng.randrange(F.q) for _ in range(m)]
        want = [0] * m
        for i in range(m):
            for j, x in enumerate(xs):
                want[i] = F.add(want[i], F.mul(x, F.pow(g, i * j)))
        assert rd._dft(F, xs, powers) == want


def as_polynomial_by_sums(F, n, k):
    """Oracle: the interpolation sums taken point by point, O(q^2)."""
    k %= F.p
    q = F.q
    # sums[i] = sum_a f(a) a^i for i < q - 1; c_j = -sums[q - 1 - j]
    sums = [0] * (q - 1)
    f0 = sums[0] = rd.eval_recurrence(F, n, k, 0)
    for a in range(1, q):
        t = rd.eval_recurrence(F, n, k, a)
        for i in range(q - 1):
            sums[i] = F.add(sums[i], t)
            t = F.mul(t, a)
    return tuple(modpoly.trim(
        [f0] + [F.neg(s) for s in reversed(sums)]))


class TestCoefficientTuples:
    # both forms are returned as tuples, constant term first, with no
    # trailing zero; the zero polynomial is ()
    def test_fnk_coeffs_are_trimmed_tuples(self):
        assert rd.fnk_coeffs(0, 2) == ()
        for n in (0, 1, 2, 3, 80, 81):
            for k in range(6):
                f = rd.fnk_coeffs(n, k)
                assert isinstance(f, tuple) and (not f or f[-1] != 0)

    def test_as_polynomial_is_a_trimmed_tuple(self):
        assert rd.as_polynomial(F5, 0, 2) == ()
        for F in (F5, F9):
            for n in range(12):
                for k in range(F.p):
                    poly = rd.as_polynomial(F, n, k)
                    assert isinstance(poly, tuple)
                    assert not poly or poly[-1] != 0


@pytest.mark.parametrize("refused, match", [
    (lambda: rd.char2_eval(F5, 3, 1, 2),
     "char2_eval is for characteristic 2"),
    (lambda: rd.fnk_coeffs(-1, 0), "n must be non-negative"),
    (lambda: rd.genfun_coeffs(F4, 1, 3, 4),
     "the series route needs odd characteristic"),
    (lambda: rd.genfun_coeffs(F5, 1, 3, -1),
     "count must be non-negative"),
], ids=["char2_eval", "fnk_coeffs", "genfun_p2", "genfun_count"])
def test_library_refusals(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()
