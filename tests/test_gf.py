"""Field layer: construction, arithmetic, quadratic extensions."""

import collections
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rdickson import cli, gf, modpoly, rdpoly


def brute_irreducible_quadratics(p):
    """Oracle: monic quadratics with no root are irreducible (degree 2),
    listed in constant-term-first lexicographic order."""
    out = []
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                out.append((c0, c1, 1))
    return out


def test_make_field_prime():
    F = gf.make_field(5)
    assert (F.p, F.e, F.q) == (5, 1, 5)
    assert F.modulus == (0, 1)


def test_make_field_default_modulus_degree2():
    # oracle first: the lex-first irreducible quadratic over GF(3)
    assert brute_irreducible_quadratics(3)[0] == (1, 0, 1)
    assert gf.make_field(3, 2).modulus == (1, 0, 1)
    for p in (3, 5, 7):
        F = gf.make_field(p, 2)
        assert F.modulus == brute_irreducible_quadratics(p)[0]


def scan_default_modulus(p, e):
    """Oracle: the first monic polynomial of degree e, constant term
    compared first, that is no product of two monic polynomials of
    lower degree."""
    def monic(deg):
        return [list(t) + [1] for t in itertools.product(range(p),
                                                          repeat=deg)]
    reducible = {tuple(modpoly.mul(a, b, p))
                 for i in range(1, e // 2 + 1)
                 for a in monic(i) for b in monic(e - i)}
    return next(tuple(m) for m in monic(e) if tuple(m) not in reducible)


def test_default_modulus_matches_a_full_scan():
    # every p^e <= 1024 with e >= 2; the search skips constant term 0
    fields = [(p, e) for p in range(2, 32) if gf.is_prime(p)
              for e in range(2, 11) if p ** e <= 1024]
    assert len(fields) == 26
    for p, e in fields:
        assert gf._default_modulus(p, e) == scan_default_modulus(p, e), (p, e)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        gf.make_field(4, 1)
    with pytest.raises(ValueError):
        gf.make_field(5, 0)
    with pytest.raises(ValueError):
        gf.make_field(3, 2, modulus=(0, 0, 1))   # x^2 is reducible
    with pytest.raises(ValueError):
        gf.make_field(3, 2, modulus=(1, 0, 2))   # not monic


def test_explicit_modulus_accepted():
    F = gf.make_field(3, 2, modulus=(2, 2, 1))   # x^2 + 2x + 2, no roots
    assert F.q == 9
    assert all(F.pow(a, 9) == a for a in F.elements())


def test_element_coeffs_roundtrip():
    F = gf.make_field(3, 3)
    for a in F.elements():
        assert F.element(F.coeffs(a)) == a
    assert F.element((2,)) == 2            # short vectors are padded
    with pytest.raises(ValueError):
        F.element((0, 0, 0, 1))


def test_inverse_in_gf5():
    F = gf.make_field(5)
    # oracle: scan for the unique b with 4*b = 1
    expect = [b for b in range(5) if 4 * b % 5 == 1]
    assert expect == [4]
    assert F.inv(4) == 4
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


# (p, e, whether the field is built with tables); a field built under a
# size bound of 0 has none
TABLE_STATES = [(7, 3, True), (3, 5, True), (2, 8, True), (17, 2, True),
                (5, 3, True), (3, 6, True), (2, 9, True), (2, 1, True),
                (7, 1, True), (337, 1, True), (2, 1, False), (7, 1, False),
                (2, 4, False), (3, 2, False), (5, 2, False), (3, 3, False)]


def field_in_state(p, e, tables, monkeypatch):
    with monkeypatch.context() as m:
        if not tables:
            m.setattr(gf, "_LOG_TABLE_MAX_Q", 0)
        F = gf.make_field(p, e)
    assert (F._zech is not None) == tables
    return F


def test_inverses_all_fields(monkeypatch):
    fields = [field_in_state(p, e, tables, monkeypatch)
              for p, e, tables in TABLE_STATES if p ** e <= 512]
    fields += [gf.make_field(7), gf.make_field(3, 2), gf.make_field(5, 2),
               gf.make_field(3, 3), gf.make_field(2, 2)]
    for F in fields:
        for a in range(1, F.q):
            assert F.mul(a, F.inv(a)) == 1
    # above the table bound, a sample
    for big in (gf.make_field(4099), gf.make_field(3, 8)):
        assert big._exp is None
        fields.append(big)
        for a in random.Random(big.q).sample(range(1, big.q), 100):
            assert big.mul(a, big.inv(a)) == 1
    for F in fields:
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


def test_pow_fixes_field():
    for F in (gf.make_field(5), gf.make_field(3, 2), gf.make_field(3, 3)):
        assert all(F.pow(a, F.q) == a for a in F.elements())


def test_pow_edge_cases():
    F = gf.make_field(7)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 12) == 0
    assert F.pow(3, -1) == F.inv(3)
    assert F.pow(3, 10**30 * 6) == 1      # huge exponent hits the group order
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -2)


def test_tables_match_slow_path():
    # GF(27) builds lookup tables; the slow polynomial path must agree
    F = gf.make_field(3, 3)
    for a in range(0, 27, 5):
        for b in range(27):
            assert F.mul(a, b) == F._mul_slow(a, b)
            assert F.add(a, b) == F._add_slow(a, b)


@settings(max_examples=60)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_gf25(a, b, c):
    F = gf.make_field(5, 2)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    if a:
        assert F.mul(a, F.inv(a)) == 1
    # Frobenius is additive
    p = F.p
    assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def test_descriptor_roundtrip():
    # default moduli, then explicit ones of degree 1, 2 and 3; a prime
    # field's explicit x is its default, and prints as "p"
    for F in (gf.make_field(5), gf.make_field(3, 2), gf.make_field(7, 2),
              gf.make_field(2, 3), gf.make_field(3, 1, (0, 1)),
              gf.make_field(7, 1, (7, 1)), gf.make_field(3, 2, (2, 2, 1)),
              gf.make_field(2, 3, (1, 0, 1, 1)),
              gf.make_field(3, 3, (2, 2, 0, 1))):
        assert gf.parse_field_descriptor(gf.field_descriptor(F)) == F
    assert gf.make_field(3, 1, (0, 1)) == gf.make_field(3)
    assert gf.parse_field_descriptor("3^1/0,1") == gf.make_field(3)
    assert gf.parse_field_descriptor("9") == gf.make_field(3, 2)
    assert gf.parse_field_descriptor("3^2/1,0,1") == gf.make_field(3, 2)
    assert gf.parse_field_descriptor("27").q == 27
    for bad in ("10", "6^2", "x", "5^2/1,1"):
        with pytest.raises(ValueError):
            gf.parse_field_descriptor(bad)


def _trial_factor(n):
    # oracle: the smallest divisor, then strip it
    d = next(d for d in range(2, n + 1) if n % d == 0)
    e = 0
    while n % d == 0:
        n //= d
        e += 1
    return (d, e) if n == 1 else None


def test_factor_prime_power_matches_trial_division():
    for n in range(2, 3000):
        try:
            got = gf._factor_prime_power(n)
        except ValueError as exc:
            assert str(exc) == f"{n} is not a prime power"
            got = None
        assert got == _trial_factor(n), n
    for bad in (0, 1):
        with pytest.raises(ValueError, match="is not a prime power"):
            gf._factor_prime_power(bad)


LARGE_DESCRIPTORS = [
    (3 ** 40, (3, 40)), (2 ** 64, (2, 64)), (7 ** 100, (7, 100)),
    ((2 ** 61 - 1) ** 3, (2 ** 61 - 1, 3)), (2 ** 127 - 1, (2 ** 127 - 1, 1)),
    (1031 ** 900, (1031, 900)), (1031, (1031, 1)),
    (1000000007 * 1000000009, None), (6 ** 20, None), (2 ** 61 * 3, None),
    (1031 * 1033, None), (1031 ** 99 * 1033, None), (10 ** 4299 + 1, None)]


@pytest.mark.parametrize("n, want", LARGE_DESCRIPTORS,
                         ids=[f"{n.bit_length()}bit-{i}" for i, (n, _)
                              in enumerate(LARGE_DESCRIPTORS)])
def test_factor_prime_power_of_large_integers(n, want):
    # divisors below 1024, then exact integer roots: no trial division up
    # to sqrt(n), and a few Newton steps per root even for large e
    if want is None:
        with pytest.raises(ValueError, match=f"{n} is not a prime power"):
            gf._factor_prime_power(n)
    else:
        assert gf._factor_prime_power(n) == want


def test_integer_root_is_the_floor():
    for n in range(1, 2000):
        for e in range(1, 12):
            r = gf._integer_root(n, e)
            assert r ** e <= n < (r + 1) ** e, (n, e)
    rng = random.Random(5)
    for _ in range(500):
        # the float start must stay above the root: next to exact powers
        b, e = rng.getrandbits(rng.randrange(1, 400)) + 2, rng.randrange(1, 80)
        for n in (b ** e - 1, b ** e, b ** e + 1):
            r = gf._integer_root(n, e)
            assert r ** e <= n < (r + 1) ** e, (b, e)


# -- quadratic extension ------------------------------------------------


def brute_squares(F):
    return {F.mul(x, x) for x in F.elements()}


def test_first_nonsquare():
    # oracle: explicit square sets
    F5 = gf.make_field(5)
    assert brute_squares(F5) == {0, 1, 4}
    assert gf.quadratic_extension(F5).d == 2
    F7 = gf.make_field(7)
    assert sorted(brute_squares(F7)) == [0, 1, 2, 4]
    assert gf.quadratic_extension(F7).d == 3
    for q, e in ((3, 1), (3, 2), (5, 1), (7, 1)):
        F = gf.make_field(q, e)
        ext = gf.quadratic_extension(F)
        assert ext.d == min(x for x in range(1, F.q)
                            if x not in brute_squares(F))


def test_quadratic_extension_rejects_char2():
    with pytest.raises(ValueError):
        gf.QuadExt(gf.make_field(2, 2))


def test_first_non_square_refuses_char2():
    # every element of GF(2^e) is a square, so there is no d to name
    with pytest.raises(ValueError, match="characteristic 2"):
        gf.make_field(2, 2).first_non_square()


def one_minus(ext, u):
    """Oracle: 1 - u, coordinate by coordinate."""
    F, (a1, a0) = ext.base, divmod(u, ext.q)
    return F.sub(1, a0) + ext.q * F.neg(a1)


def coordinate_add(ext, u, v):
    """Oracle: u + v, coordinate by coordinate."""
    F, (a1, a0), (b1, b0) = ext.base, divmod(u, ext.q), divmod(v, ext.q)
    return F.add(a0, b0) + ext.q * F.add(a1, b1)


@pytest.mark.parametrize("q", [9, 25])
@settings(max_examples=100)
@given(st.integers(0, 624), st.integers(0, 624), st.integers(0, 624))
def test_mul_is_the_product_of_gf_q_squared(q, u, v, w):
    ext = gf.quadratic_extension(gf.parse_field_descriptor(str(q)))
    u, v, w = u % ext.size, v % ext.size, w % ext.size
    s = ext.make(0, 1)
    assert ext.mul(s, s) == ext.d
    assert ext.mul(u, 1) == ext.mul(1, u) == u
    assert ext.mul(u, v) == ext.mul(v, u)
    assert ext.mul(ext.mul(u, v), w) == ext.mul(u, ext.mul(v, w))
    assert ext.mul(u, coordinate_add(ext, v, w)) == \
        coordinate_add(ext, ext.mul(u, v), ext.mul(u, w))


def test_extension_is_a_field_of_order_q_squared():
    ext = gf.quadratic_extension(gf.make_field(5))
    for u in range(1, ext.size):
        assert ext.mul(u, ext.pow(u, -1)) == 1
        assert ext.pow(u, ext.size - 1) == 1
    with pytest.raises(ZeroDivisionError):
        ext.pow(0, -1)


def test_frobenius_fixes_exactly_the_base():
    # the q-power map is conjugation a0 + a1 s -> a0 - a1 s
    for F in (gf.make_field(5), gf.make_field(3, 2)):
        ext = gf.quadratic_extension(F)
        for u in range(ext.size):
            a1, a0 = divmod(u, F.q)
            assert ext.pow(u, F.q) == a0 + F.q * F.neg(a1)
            assert (ext.pow(u, F.q) == u) == (u < F.q)


def test_sqrt_ext_values():
    F = gf.make_field(5)
    ext = gf.quadratic_extension(F)
    assert gf.sqrt_ext(ext, 0) == (0,)
    assert gf.sqrt_ext(ext, 4) == (2, 3)
    # 2 is not a square in GF(5), so its roots live outside the base line
    assert 2 not in brute_squares(F)
    roots = gf.sqrt_ext(ext, 2)
    assert len(roots) == 2 and not any(r < ext.q for r in roots)
    assert all(ext.mul(r, r) == 2 for r in roots)


def test_sqrt_ext_everywhere():
    for F in (gf.make_field(5), gf.make_field(3, 2), gf.make_field(13)):
        ext = gf.quadratic_extension(F)
        sq = brute_squares(F)
        for v in F.elements():
            roots = gf.sqrt_ext(ext, v)
            assert all(ext.mul(r, r) == v for r in roots)
            assert len(roots) == (1 if v == 0 else 2)
            if v:
                assert all(r < ext.q for r in roots) == (v in sq)


def scan_roots(ext):
    """Oracle: the roots in GF(q^2) of every v in GF(q), by scanning.

    (a0 + a1 s)^2 = a0^2 + d a1^2 + 2 a0 a1 s lies in GF(q) only if
    a0 a1 = 0, so the base line and the line s*GF(q) hold every root.
    """
    q = ext.q
    roots = {}
    for u in itertools.chain(range(q), range(q, q * q, q)):
        roots.setdefault(ext.mul(u, u), []).append(u)
    return {v: tuple(sorted(us, key=ext.coeffs)) for v, us in roots.items()}


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 17, 25, 27, 41, 49, 73, 81,
                               97, 243, 257, 337, 343])
def test_sqrt_ext_matches_scan(q):
    # 8 or 16 divides q - 1 for 9, 17, 25, 41, 49, 73, 81, 97, 257 and
    # 337, so Tonelli-Shanks runs its inner squaring loop
    ext = gf.quadratic_extension(gf.parse_field_descriptor(str(q)))
    want = scan_roots(ext)
    assert sorted(want) == list(range(q))
    for v in range(q):
        assert gf.sqrt_ext(ext, v) == want[v]


@pytest.mark.parametrize("q", [10007, 12289])
def test_sqrt_ext_large_prime_sample(q):
    # 2^12 divides 12289 - 1; 10007 - 1 = 2 * 5003
    F = gf.make_field(q)
    ext = gf.quadratic_extension(F)
    for v in random.Random(q).sample(range(1, q), 200):
        roots = gf.sqrt_ext(ext, v)
        assert len(roots) == 2 and roots[0] != roots[1]
        assert all(ext.mul(r, r) == v for r in roots)
        assert all(r < ext.q for r in roots) == F.is_square(v)


def test_solve_y():
    F = gf.make_field(5)
    ext = gf.quadratic_extension(F)
    assert gf.solve_y(ext, 0) == (0, 1)
    assert gf.solve_y(ext, F.quarter) == (F.half,)
    # 1 - 4*1 = 2 is a non-square, so both y for x = 1 leave the base
    ys = gf.solve_y(ext, 1)
    assert len(ys) == 2 and not any(y < ext.q for y in ys)


def test_solve_y_inverts_the_parabola():
    for F in (gf.make_field(5), gf.make_field(7), gf.make_field(3, 2)):
        ext = gf.quadratic_extension(F)
        for x in F.elements():
            ys = gf.solve_y(ext, x)
            assert len(ys) == (1 if x == F.quarter else 2)
            for y in ys:
                assert ext.mul(y, one_minus(ext, y)) == x
            # the solution set is closed under y -> 1 - y
            assert set(ys) == {one_minus(ext, y) for y in ys}


def test_enumerate_v():
    for F in (gf.make_field(3), gf.make_field(5), gf.make_field(7),
              gf.make_field(3, 2)):
        ext = gf.quadratic_extension(F)
        V = gf.enumerate_v(ext)
        assert len(V) == F.q
        assert [v for v in V if v < F.q] == [F.half]
        for v in V:
            assert ext.pow(v, F.q) == one_minus(ext, v)
            assert ext.mul(v, one_minus(ext, v)) < F.q
        # the 2-to-1 domain F_q union V minus {1/2} has exactly 2q-2 points
        domain = set(F.elements()) | set(V)
        assert len(domain - {F.half}) == 2 * F.q - 2


def test_fixed_line_membership_criterion():
    # x(1-x) lands in the base field iff x^q = x or x^q = 1 - x,
    # checked exhaustively in both directions
    for F in (gf.make_field(3), gf.make_field(5), gf.make_field(7),
              gf.make_field(3, 2)):
        ext = gf.quadratic_extension(F)
        for u in range(ext.size):
            lhs = ext.mul(u, one_minus(ext, u)) < F.q
            fu = ext.pow(u, F.q)
            assert lhs == (fu == u or fu == one_minus(ext, u))


# -- lookup tables ------------------------------------------------------


def per_pair_tables(F):
    """Oracle: add, sub and neg tables from coordinate vectors, pair by
    pair."""
    p, q = F.p, F.q
    weights = [p ** i for i in range(F.e)]
    vecs = [[a // w % p for w in weights] for a in range(q)]
    add = [sum((x + y) % p * w for x, y, w in zip(va, vb, weights))
           for va in vecs for vb in vecs]
    sub = [sum((x - y) % p * w for x, y, w in zip(va, vb, weights))
           for va in vecs for vb in vecs]
    neg = [sum(-x % p * w for x, w in zip(va, weights)) for va in vecs]
    return add, sub, neg


@pytest.mark.parametrize(
    "p, e, tables", TABLE_STATES,
    ids=[f"{p}-{e}" + ("" if t else "-no-tables") for p, e, t in TABLE_STATES])
def test_digit_recursion_add_tables_match_per_pair(p, e, tables, monkeypatch):
    F = field_in_state(p, e, tables, monkeypatch)
    add, sub, neg = per_pair_tables(F)
    pairs = list(itertools.product(range(F.q), repeat=2))
    assert list(itertools.starmap(F.add, pairs)) == add
    assert list(itertools.starmap(F.sub, pairs)) == sub
    assert [F.neg(a) for a in range(F.q)] == neg


def prime_factors(n):
    """Set of prime divisors by trial division."""
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def first_generator(order, candidates, mul):
    """Oracle: the first generator in encoding order of a cyclic group of
    that order, the first candidate g with g^(order/f) != 1 for every
    prime f dividing order, by square-and-multiply over mul."""
    fac = prime_factors(order)
    return next(g for g in candidates
                if all(modpoly.power(mul, g, order // f, 1) != 1
                       for f in fac))


def slow_walk(F, g=None):
    """Oracle: exp/log tables of GF(q)* by the walk u -> u*g over the
    slow polynomial product, from g or else the first generator in
    encoding order; exp is doubled as FieldSpec keeps it."""
    order = F.q - 1
    if g is None:
        g = first_generator(order, range(1, F.q), F._mul_slow)
    exp, log = [0] * order, [0] * F.q
    acc = 1
    for i in range(order):
        exp[i] = acc
        log[acc] = i
        acc = F._mul_slow(acc, g)
    assert acc == 1
    return exp + exp, log


def slow_zech(F, exp, log):
    """Oracle: the doubled Zech table log(1 + g^i) of exp/log tables,
    1 + g^i by the slow digit-wise add."""
    zech = [log[v] if v else None
            for v in (F._add_slow(1, u) for u in exp[:F.q - 1])]
    return zech + zech


# every e >= 2 field up to the default q bound, GF(3^6) above it, and
# prime fields, whose walk is the same digit pass over one digit
@pytest.mark.parametrize("p, e", [
    (p, e) for p in (2, 3, 5, 7, 11, 13, 17) for e in range(2, 9)
    if p ** e <= gf.DEFAULT_MAX_Q] + [(3, 6), (3, 1), (7, 1), (337, 1)])
def test_linear_walk_tables_match_the_slow_walk(p, e):
    F = gf.make_field(p, e)
    exp, log = slow_walk(F)
    assert (F._exp, F._log) == (exp, log)
    assert F._zech == slow_zech(F, exp, log)


def test_gf343_holds_its_tables_in_64_kib():
    # exp, log and Zech tables are O(q); a q^2 add table of 16-bit
    # entries alone would take 230 KiB
    tracemalloc.start()
    try:
        F = gf.make_field(7, 3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024
    assert F._zech is not None


def test_char2_slow_add_is_the_digit_loop():
    # GF(2^13) is above the table bound, so add, sub and neg take the
    # slow path, which adds by XOR in characteristic 2
    F = gf.make_field(2, 13)
    assert F._zech is None
    rng = random.Random(13)
    for _ in range(3000):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        want = sum((a // 2 ** i + b // 2 ** i) % 2 * 2 ** i
                   for i in range(13))
        assert F.add(a, b) == F.sub(a, b) == want
        assert F.neg(a) == a


def test_a_wrong_zech_input_fails_the_build(monkeypatch, capsys):
    # the Zech table reads each exp entry of one period, each log entry
    # but log[0] and log[1], and one digit step 1 + u per exp entry.
    # Every wrong value of any one of them raises before a field is made;
    # over GF(337), a sample of the slots and of their wrong values
    walk, zech_table = gf._cyclic_tables, gf._zech_table
    rng = random.Random(337)

    def fault(m, where, i, wrong):
        if where == "step":
            m.setattr(gf, "_zech_table", lambda log, ones, log_neg:
                      zech_table(log, ones[:i] + [wrong] + ones[i + 1:],
                                 log_neg))
        else:
            def faulted_walk(F):
                exp, log = walk(F)
                (exp if where == "exp" else log)[i] = wrong
                return exp, log
            m.setattr(gf, "_cyclic_tables", faulted_walk)

    caught = 0
    for p, e in ((2, 3), (3, 2), (2, 4), (3, 3), (3, 1), (7, 1), (337, 1)):
        F = gf.make_field(p, e)
        exp = F._exp[:F.q - 1]
        ones = [F._add_slow(1, u) for u in exp]
        pick = (lambda xs: rng.sample(xs, 8)) if F.q > 100 else list
        for where, table, slots in (("exp", exp, range(F.q - 1)),
                                    ("log", F._log, range(2, F.q)),
                                    ("step", ones, range(F.q - 1))):
            for i in pick(slots):
                for wrong in pick(sorted(set(range(F.q)) - {table[i]})):
                    with monkeypatch.context() as m:
                        fault(m, where, i, wrong)
                        with pytest.raises(gf.InternalCheckError,
                                           match="Zech"):
                            gf.make_field(p, e)
                    caught += 1
    assert caught > 2000
    # the command line reports a failed internal cross-check
    with monkeypatch.context() as m:
        fault(m, "step", 5, 1)
        assert cli.main(["field-info", "--field", "27"]) == 1
    assert capsys.readouterr().err.startswith("internal cross-check failed")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 41, 337, 1031, 4093])
def test_prime_field_tables_start_at_the_first_primitive_root(p):
    F = gf.make_field(p)
    assert F._exp[1] == first_generator(p - 1, range(1, p),
                                        lambda a, b: a * b % p)
    assert (F._exp, F._log) == slow_walk(F)


@pytest.mark.parametrize("fd", ["5", "337", "9", "125", "3^6"])
def test_generator_powers_are_the_same_walk_above_the_bound(fd,
                                                           monkeypatch):
    F = gf.parse_field_descriptor(fd)
    want = slow_walk(F)[0][:F.q - 1]
    assert F.generator_powers() == want
    with monkeypatch.context() as m:
        m.setattr(gf, "_LOG_TABLE_MAX_Q", 0)
        above = gf.parse_field_descriptor(fd)
    assert above._exp is None and above.generator_powers() == want


def wrong_column(m, g, s, wrong):
    """Let the slow product s*g, from which one column of the walk of
    the candidate g is made, read wrong."""
    real = gf.FieldSpec._mul_slow
    m.setattr(gf.FieldSpec, "_mul_slow", lambda self, a, b:
              wrong if (a, b) == (s, g) else real(self, a, b))


def test_a_wrong_column_fails_the_build(monkeypatch, capsys):
    # every wrong value of every column of the first generator g.  A
    # wrong step that does not come back to 1 in q - 1 steps, or that
    # runs through GF(q)* as no product of this field does, raises.  One
    # that comes back early takes g for a non-generator, and the build
    # walks the next generator: its tables are right, and the oracle's
    # walk from that generator.  None leaves wrong tables.
    caught = collections.Counter()
    for p, e in ((2, 3), (3, 2), (2, 4), (3, 3)):
        F = gf.make_field(p, e)
        g = first_generator(F.q - 1, range(1, F.q), F._mul_slow)
        for s in F._pows[:-1]:
            for wrong in set(range(F.q)) - {F.mul(s, g)}:
                with monkeypatch.context() as m:
                    wrong_column(m, g, s, wrong)
                    try:
                        G = gf.make_field(p, e)
                    except gf.InternalCheckError as exc:
                        caught[next(why for why in ("not come back",
                                                    "not the product")
                                    if why in str(exc))] += 1
                        continue
                h = first_generator(F.q - 1, range(g + 1, F.q), F._mul_slow)
                assert (G._exp, G._log) == slow_walk(F, h)
                caught["next generator"] += 1
    assert len(caught) == 3, caught
    # the command line reports a failed internal cross-check (g is the
    # generator of GF(27), the last field above)
    with monkeypatch.context() as m:
        wrong_column(m, g, 3, 0)
        with pytest.raises(gf.InternalCheckError):
            gf.make_field(3, 3)
        assert cli.main(["field-info", "--field", "27"]) == 1
    assert capsys.readouterr().err.startswith("internal cross-check failed")


def fast_and_slow(F, monkeypatch):
    """A fresh extension, whose first binet point builds its coset
    tables, and one over the same field made under a size bound of 0,
    which has no exp/log tables, so the extension never builds them
    (y^n by square-and-multiply over the coordinate product)."""
    fast = gf.QuadExt(F)
    with monkeypatch.context() as m:
        m.setattr(gf, "_LOG_TABLE_MAX_Q", 0)
        slow = gf.QuadExt(gf.make_field(F.p, F.e, F.modulus))
    return fast, slow


def exponents(ext):
    N = ext.size - 1
    return (0, 1, 2, 3, ext.q - 1, ext.q, ext.q + 1, N - 1, N, N + 7,
            10 ** 30 + 11)


def tables(ext):
    return ext._reps, ext._rho


def v_point(ext, t):
    """The point 1/2 + t s of V."""
    return ext.make(ext.base.half, t)


def check_tables(fast, slow, ts):
    # the tables serve binet alone; mul and pow are the coordinate
    # product and square-and-multiply over it in both.  c = 0 and
    # c = 2 each drop one of the two terms
    p = fast.base.p
    for t in ts:
        y = v_point(fast, t)
        for n in exponents(fast):
            for c in {0, 1, 2 % p, (p + 1) // 2, p - 1}:
                assert fast.binet(y, n, c) == slow.binet(y, n, c), (t, n, c)
    assert fast._rho is not None and slow._rho is None


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)])
def test_ext_tables_match_slow_paths_everywhere(p, e, monkeypatch):
    fast, slow = fast_and_slow(gf.make_field(p, e), monkeypatch)
    check_tables(fast, slow, range(1, fast.q))


# 1031 lies between the old 1024 bound of the q^2-entry tables and the
# 4096 bound that the coset tables share with GF(q)
@pytest.mark.parametrize("fd", ["243", "337", "343", "1031"])
def test_ext_tables_match_slow_paths_on_a_sample(fd, monkeypatch):
    fast, slow = fast_and_slow(gf.parse_field_descriptor(fd), monkeypatch)
    rng = random.Random(fd)
    check_tables(fast, slow, [1, 2, fast.q - 1] + rng.sample(range(1, fast.q),
                                                              40))


def test_ext_tables_hold_at_most_q_plus_1_entries():
    ext = gf.QuadExt(gf.make_field(7, 3))
    assert ext._build()
    assert [len(t) for t in tables(ext)] == [ext.q + 1, ext.q]


def test_construction_and_base_line_ops_build_nothing():
    ext = gf.QuadExt(gf.make_field(7, 3))
    q = ext.q
    for u in (0, 1, 5, q - 1):
        for v in (0, 2, q - 3):
            ext.mul(u, v)
        ext.pow(u, 10 ** 6)
        if u:
            ext.pow(u, -1)
    # products and powers never build, on the base line or off it
    ext.mul(0, q + 1), ext.mul(q + 1, 0), ext.mul(q + 1, q + 2)
    ext.pow(q + 1, 2), ext.pow(v_point(ext, 3), 10 ** 6)
    # solve_y takes its roots and y = (1 + r)/2 in base-field arithmetic
    ys = [y for x in range(q) for y in gf.solve_y(ext, x)]
    assert any(y >= q for y in ys)
    assert tables(ext) == (None,) * 2
    ext.binet(v_point(ext, 1), 2, 1)
    assert all(t is not None for t in tables(ext))


def test_ext_tables_are_never_built_above_the_size_bound(monkeypatch):
    monkeypatch.setattr(gf, "_LOG_TABLE_MAX_Q", 7)
    ext = gf.QuadExt(gf.make_field(11))
    for u in range(11, 121):
        ext.pow(u, 10 ** 6), ext.mul(u, u), ext.pow(u, -1)
    for t in range(1, 11):
        ext.binet(v_point(ext, t), 10 ** 6, 1)
    assert tables(ext) == (None,) * 2


def built_or_raised(ext, monkeypatch):
    """Build ext's coset tables under the faults in place.  On an
    InternalCheckError return its text, with no table kept.  Else
    return None, once binet at a sample of V agrees with the
    extension that has no tables."""
    try:
        ext._build()
    except gf.InternalCheckError as exc:
        assert tables(ext) == (None,) * 2
        return str(exc)
    monkeypatch.undo()
    _, slow = fast_and_slow(ext.base, monkeypatch)
    rng = random.Random(ext.q)
    check_tables(ext, slow, [1] + rng.sample(range(1, ext.q), 30))
    return None


def table_g(ext):
    """The g of ext's built tables, read back from its b-logs."""
    return ext.make(*(0 if l is None else ext.base._exp[l]
                      for l in ext._reps[1]))


def first_candidate(F):
    """The g that a fault-free build of GF(q^2) walks, by its table."""
    ext = gf.QuadExt(F)
    ext._build()
    return table_g(ext)


# The walk multiplies by the candidate g.  Over GF(343) (344 = 2^3 * 43)
# its walk by g^2 or g^43 after g itself stays off the base line, and
# ends off the norm; one product put on the base line makes the build
# take g for a non-generator and keep the next candidate; all of them
# there leave no candidate.
@pytest.mark.parametrize("fault, match", [
    ("off_line", "is not the norm"), ("g^2", "is not the norm"),
    ("g^43", "is not the norm"), ("on_line", None),
    ("all_on_line", "generates")])
def test_a_wrong_times_step_fails_the_build(fault, match, monkeypatch,
                                            capsys):
    F = gf.make_field(7, 3)
    q, g, real = F.q, first_candidate(F), gf.QuadExt.mul
    steps = []

    def mul(self, u, v):
        w = real(self, u, v)
        if fault == "all_on_line":
            return w % q
        if v != g:
            return w
        steps.append(u)
        if fault == "off_line":
            # of the walk's products only g^(q+1) lies on the base line
            return w + q * (w < q)
        if fault == "on_line":
            return w % q if len(steps) == 100 else w
        power = modpoly.power(lambda a, b: real(self, a, b), g,
                              int(fault[2:]), 1)
        return real(self, u, power)
    monkeypatch.setattr(gf.QuadExt, "mul", mul)
    ext = gf.QuadExt(F)
    got = built_or_raised(ext, monkeypatch)
    if match is None:
        assert got is None and table_g(ext) != g
        return
    assert match in got
    # a run that needs the coset tables reports the failed cross-check
    gf.quadratic_extension.cache_clear()
    rdpoly._principal_y.cache_clear()
    assert cli.main(["pp", "--field", "343", "--n", "2", "--k", "1",
                     "--criteria", "two_to_one"]) == 1
    gf.quadratic_extension.cache_clear()
    rdpoly._principal_y.cache_clear()
    assert capsys.readouterr().err.startswith("internal cross-check failed")


def wrong_log(c, delta):
    """A walk whose log[c] of GF(337)* is off by delta."""
    walk = gf._cyclic_tables

    def faulted_walk(F):
        exp, log = walk(F)
        log[c] = (log[c] + delta) % 336
        return exp, log
    return faulted_walk


def test_a_wrong_base_power_fails_the_build(monkeypatch, capsys):
    # the build reads its a0 and the b-logs of every coordinate off the
    # base log.  Over the prime field GF(337), whose products read no
    # table, the Zech check catches a wrong entry there as the field is
    # made, all but log[1], as no 1 + g^i is 1; the coset build catches
    # that one.  Each raises before a table is kept
    for c in (1, 2, 336) + tuple(random.Random(7).sample(range(3, 336), 10)):
        for delta in (1, 2, 335):
            with monkeypatch.context() as m:
                m.setattr(gf, "_cyclic_tables", wrong_log(c, delta))
                try:
                    F = gf.make_field(337)
                except gf.InternalCheckError as exc:
                    got = str(exc)
                else:
                    got = built_or_raised(gf.QuadExt(F), m)
            assert got and ("does not invert" if c == 1
                            else "not a permutation") in got, (c, delta)
    # a run that needs the field or the coset tables reports the failed
    # cross-check
    for c in (1, 2):
        with monkeypatch.context() as m:
            m.setattr(gf, "_cyclic_tables", wrong_log(c, 1))
            gf.quadratic_extension.cache_clear()
            rdpoly._principal_y.cache_clear()
            assert cli.main(["pp", "--field", "337", "--n", "2", "--k", "1",
                             "--criteria", "two_to_one"]) == 1
            gf.quadratic_extension.cache_clear()
            rdpoly._principal_y.cache_clear()
        assert capsys.readouterr().err.startswith(
            "internal cross-check failed")


def test_extension_caches_stay_bounded():
    gf.quadratic_extension.cache_clear()
    rdpoly._principal_y.cache_clear()
    fields = [gf.make_field(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29)]
    for F in fields:
        rdpoly.eval_functional(F, 5, 1, 0)
    assert len(fields) > gf.EXT_CACHE_SIZE
    for cache in (gf.quadratic_extension, rdpoly._principal_y):
        info = cache.cache_info()
        assert info.maxsize == gf.EXT_CACHE_SIZE
        assert info.currsize == gf.EXT_CACHE_SIZE


@pytest.mark.parametrize("refused, match", [
    (lambda: gf.make_field(2, 3).half,
     "1/2 does not exist in characteristic 2"),
    (lambda: gf.make_field(2, 3).quarter,
     "1/4 does not exist in characteristic 2"),
    (lambda: gf.split_field_descriptor("9/1,a,1"),
     "bad modulus in field descriptor"),
    # an empty modulus part used to fall back to the default modulus
    (lambda: gf.split_field_descriptor("9/"),
     "bad modulus in field descriptor"),
    (lambda: gf.split_field_descriptor("3^2/"),
     "bad modulus in field descriptor"),
    # a prime field used to keep such a modulus, print it, and compare
    # unequal to GF(3) under the same descriptor "3"
    (lambda: gf.make_field(3, 1, (1, 1)),
     r"a prime field takes the modulus x, \(0, 1\), alone; got \(1, 1\)"),
], ids=["half", "quarter", "descriptor", "empty-modulus",
        "empty-modulus-power", "prime-field-modulus"])
def test_library_refusals(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()
