"""Field layer: construction, arithmetic, quadratic extensions."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rdickson import gf, modpoly, rdpoly


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


def test_inverses_all_fields():
    for F in (gf.make_field(7), gf.make_field(3, 2), gf.make_field(5, 2),
              gf.make_field(3, 3), gf.make_field(2, 2)):
        for a in range(1, F.q):
            assert F.mul(a, F.inv(a)) == 1


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
    for F in (gf.make_field(5), gf.make_field(3, 2), gf.make_field(7, 2)):
        assert gf.parse_field_descriptor(gf.field_descriptor(F)) == F
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


def one_minus(ext, u):
    """Oracle: 1 - u, coordinate by coordinate."""
    F, (a1, a0) = ext.base, divmod(u, ext.q)
    return F.sub(1, a0) + ext.q * F.neg(a1)


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


@pytest.mark.parametrize("p, e", [(7, 3), (3, 5), (2, 8), (17, 2), (5, 3)])
def test_digit_recursion_add_tables_match_per_pair(p, e):
    F = gf.make_field(p, e)
    add, sub, neg = per_pair_tables(F)
    assert list(F._add_table) == add
    assert list(F._neg_table) == neg
    assert [F.sub(a, b) for a in range(F.q) for b in range(F.q)] == sub


def fast_and_slow(F, monkeypatch):
    """A fresh extension, whose first product outside the base line
    builds its coset tables, and one that read a size bound of 0 at
    construction and never builds them (coordinate product and
    square-and-multiply)."""
    fast = gf.QuadExt(F)
    with monkeypatch.context() as m:
        m.setattr(gf, "_LOG_TABLE_MAX_Q", 0)
        slow = gf.QuadExt(F)
    return fast, slow


def exponents(ext):
    # -1 and -5 check the inverse, which pow reduces mod q^2 - 1
    N = ext.size - 1
    return (0, 1, 2, 3, ext.q - 1, ext.q, ext.q + 1, N - 1, N, N + 7,
            10 ** 30 + 11, -1, -5)


def tables(ext):
    return ext._hpow, ext._hlog, ext._reps, ext._rho


def check_tables(fast, slow, us, vs):
    for u in us:
        for n in exponents(fast):
            if u or n >= 0:
                assert fast.pow(u, n) == slow.pow(u, n), (u, n)
        for v in vs:
            assert fast.mul(u, v) == slow.mul(u, v), (u, v)
    assert fast._rho is not None and slow._rho is None


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)])
def test_ext_tables_match_slow_paths_everywhere(p, e, monkeypatch):
    fast, slow = fast_and_slow(gf.make_field(p, e), monkeypatch)
    us = range(fast.size)
    if fast.q <= 9:
        vs = us
    else:
        vs = [0, 1, 2, fast.q - 1, fast.q] + random.Random(fast.q).sample(
            range(fast.size), 12)
    check_tables(fast, slow, us, vs)


# 1031 lies between the old 1024 bound of the q^2-entry tables and the
# 4096 bound that the coset tables share with GF(q)
@pytest.mark.parametrize("fd", ["243", "337", "343", "1031"])
def test_ext_tables_match_slow_paths_on_a_sample(fd, monkeypatch):
    fast, slow = fast_and_slow(gf.parse_field_descriptor(fd), monkeypatch)
    rng = random.Random(fd)
    us = [0, 1, fast.q - 1, fast.q] + rng.sample(range(fast.size), 40)
    check_tables(fast, slow, us, rng.sample(range(fast.size), 8))


def test_ext_tables_hold_at_most_q_plus_1_entries():
    ext = gf.QuadExt(gf.make_field(7, 3))
    ext.mul(ext.q, ext.q + 1)
    assert [len(t) for t in tables(ext)] == [ext.q - 1, ext.q, ext.q + 1,
                                             ext.q]


def test_construction_and_base_line_ops_build_nothing():
    ext = gf.QuadExt(gf.make_field(7, 3))
    q = ext.q
    for u in (0, 1, 5, q - 1):
        for v in (0, 2, q - 3):
            ext.mul(u, v)
        ext.pow(u, 10 ** 6)
        if u:
            ext.pow(u, -1)
    ext.mul(0, q + 1), ext.mul(q + 1, 0)
    # solve_y takes its roots and y = (1 + r)/2 in base-field arithmetic
    ys = [y for x in range(q) for y in gf.solve_y(ext, x)]
    assert any(y >= q for y in ys)
    assert tables(ext) == (None,) * 4
    ext.pow(q + 1, 2)
    assert all(t is not None for t in tables(ext))


def test_ext_tables_are_never_built_above_the_size_bound(monkeypatch):
    monkeypatch.setattr(gf, "_LOG_TABLE_MAX_Q", 7)
    ext = gf.QuadExt(gf.make_field(11))
    for u in range(11, 121):
        ext.pow(u, 10 ** 6), ext.mul(u, u), ext.pow(u, -1)
    assert tables(ext) == (None,) * 4


# Over GF(343) (342 = 2 * 3^2 * 19, 344 = 2^3 * 43), walking u -> u*g^2
# meets only half of GF(343)*, and u -> u*g^43 only 8 of the 344 cosets
@pytest.mark.parametrize("fault, match", [
    ("off_line", "is not in GF"), (2, "filled twice"), (43, "filled twice")])
def test_a_wrong_times_step_fails_the_build(fault, match, monkeypatch):
    ext = gf.QuadExt(gf.make_field(7, 3))
    q, times = ext.q, gf.QuadExt._times

    def wrong_times(self, g):
        if fault == "off_line":      # pushes g^(q+1) off the base line
            step = times(self, g)
            return lambda u: step(u) + q * (step(u) < q)
        return times(self, modpoly.power(self._mul_slow, g, fault, 1))

    monkeypatch.setattr(gf.QuadExt, "_times", wrong_times)
    with pytest.raises(gf.InternalCheckError, match=match):
        ext.mul(q, q)
    assert ext._rho is None


def test_a_wrong_base_power_fails_the_build(monkeypatch):
    ext = gf.QuadExt(gf.make_field(7, 3))
    power = gf.FieldSpec.pow
    monkeypatch.setattr(gf.FieldSpec, "pow",
                        lambda F, a, n: power(F, a, n + 1))
    with pytest.raises(gf.InternalCheckError, match=r"h\^\(q-1\)"):
        ext.mul(ext.q, ext.q)


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
