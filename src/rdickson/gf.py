"""Finite field contexts GF(p^e) and their quadratic extensions.

For efficiency, field elements carry no wrapper objects: an element of
GF(p^e) is an int in [0, p^e) whose base-p digits are its coordinates
in the polynomial basis, constant coordinate least significant.
Iterating range(q) therefore walks the field in odometer order
(constant coordinate fastest), and the integers 0 and 1 encode the
additive and multiplicative identities.  A FieldSpec instance supplies
the arithmetic and is passed around together with the elements.

GF(q^2) is modelled separately as GF(q)[s]/(s^2 - d) with d the first
non-square of GF(q)*: an extension element is an int u = a0 + a1*q
built from two base-field encodings, so base elements embed as
themselves and membership in the base line is the test u < q.  Square
roots are taken by Tonelli-Shanks with that same d as the non-square,
its constants computed once per extension.

Construction validates everything (primality, monic irreducible
modulus); after that a FieldSpec is immutable and safe to share.  A
FieldSpec of degree e >= 2 builds its lookup tables at construction; a
QuadExt builds coset tables of GF(q^2)*, none longer than q + 1, on its
first product or power off the base line.  Tables change speed only,
never values.
"""

import itertools
import math
from array import array
from functools import lru_cache

from . import modpoly

# Lookup-table thresholds.  Above these sizes the slow paths are used;
# correctness is identical.  The log bound covers GF(q) and the O(q)
# coset tables of GF(q^2)* alike.
_LOG_TABLE_MAX_Q = 4096
_ADD_TABLE_MAX_Q = 512
# quadratic_extension and rdpoly._principal_y keep at most this many
# entries, so a long-lived process holds a bounded number of tables.
EXT_CACHE_SIZE = 4

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class InternalCheckError(RuntimeError):
    """A redundant internal recomputation disagreed: an arithmetic bug,
    not a user error."""


def is_prime(n):
    """Deterministic Miller-Rabin, exact for all n below 3.3e24."""
    if n < 2:
        return False
    for sp in _MR_BASES:
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    """Set of prime divisors by trial division (desk scale)."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.add(n)
    return out


def is_irreducible(m, p):
    """Irreducibility of a monic polynomial over GF(p).

    m is reducible iff it has an irreducible factor of degree at most
    deg(m)/2, and x**(p**i) - x is the product of all irreducibles of
    degree dividing i, so gcd checks for i up to deg(m)//2 decide.
    """
    m = list(m)
    e = modpoly.degree(m)
    if e <= 0:
        raise ValueError("modulus must have positive degree")
    x = [0, 1]
    for i in range(1, e // 2 + 1):
        xq = modpoly.powmod(x, p ** i, m, p)
        g = modpoly.gcd(modpoly.sub(xq, x, p), m, p)
        if modpoly.degree(g) > 0:
            return False
    return True


def _default_modulus(p, e):
    """Lexicographically smallest monic irreducible of degree e,
    coefficients compared constant term first."""
    # for e >= 2 a zero constant term makes x a factor, so those are skipped
    for tail in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        m = list(tail) + [1]
        if is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("unreachable: irreducibles exist in every degree")


def _generator(order, candidates, mul):
    """The first candidate g with g^(order/f) != 1 for every prime f
    dividing order, by square-and-multiply over the table-free product
    mul: the first generator of a cyclic group of that order."""
    fac = _prime_factors(order)
    return next(g for g in candidates
                if all(modpoly.power(mul, g, order // f, 1) != 1
                       for f in fac))


def _cyclic_tables(size, candidates, mul):
    """exp/log tables of the cyclic group GF(size)*, as lists: a list
    hands back its stored ints where an array builds new ones, which
    made FieldSpec.mul 1.6x slower.

    Walking u -> u*g from the generator g gives exp[i] = g^i for
    i < N = size - 1 and log[g^i] = i (log[0] is unused).
    """
    order = size - 1
    gen = _generator(order, candidates, mul)
    exp, log = [0] * order, [0] * size
    acc = 1
    for i in range(order):
        exp[i] = acc
        log[acc] = i
        acc = mul(acc, gen)
    if acc != 1:
        raise InternalCheckError(f"generator {gen} of GF({size})* has "
                                 "the wrong order")
    return exp, log


class FieldSpec:
    """Arithmetic context for GF(p^e); build instances via make_field().

    Elements are ints in [0, q).  Methods trust their operands: none
    checks that an int is an element of this field.  pow() accepts
    arbitrary-precision exponents (negative allowed for nonzero base)
    and reduces them by the group order; pow(0, 0) is 1.
    """

    __slots__ = ("p", "e", "q", "modulus", "_pows", "_exp", "_log",
                 "_neg_table", "_add_table", "_half", "_quarter")

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = tuple(modulus)
        self._pows = [p ** i for i in range(e + 1)]
        self._exp = self._log = self._neg_table = self._add_table = None
        if e >= 2 and self.q <= _LOG_TABLE_MAX_Q:
            exp, log = _cyclic_tables(self.q, range(2, self.q), self._mul_slow)
            # exp is doubled so mul can index log[a] + log[b] without a mod
            self._exp, self._log = exp + exp, log
        if e >= 2 and self.q <= _ADD_TABLE_MAX_Q:
            self._build_add_tables()
        if p != 2:
            self._half = self.inv(2)
            self._quarter = self.mul(self._half, self._half)
        else:
            self._half = self._quarter = None

    # -- identity ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.e, self.modulus)
                == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((FieldSpec, self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FieldSpec({field_descriptor(self)!r})"

    # -- element encoding --------------------------------------------

    def coeffs(self, a):
        """Coordinate vector of an element, constant coordinate first."""
        p = self.p
        return tuple((a // self._pows[i]) % p for i in range(self.e))

    def element(self, coords):
        """Encode a coordinate vector (length <= e, zero padded)."""
        coords = list(coords)
        if len(coords) > self.e:
            raise ValueError(f"expected at most {self.e} coordinates")
        return sum((c % self.p) * self._pows[i] for i, c in enumerate(coords))

    def from_int(self, m):
        """Embed an integer via the prime subfield."""
        return m % self.p

    def elements(self):
        """All q elements in odometer order."""
        return range(self.q)

    @property
    def half(self):
        if self._half is None:
            raise ValueError("1/2 does not exist in characteristic 2")
        return self._half

    @property
    def quarter(self):
        if self._quarter is None:
            raise ValueError("1/4 does not exist in characteristic 2")
        return self._quarter

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        t = self._add_table
        if t is not None:
            return t[a * self.q + b]
        return self._add_slow(a, b)

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        t = self._neg_table
        if t is not None:
            return t[a]
        return self.element(-c for c in self.coeffs(a))

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        t = self._add_table
        if t is not None:
            return t[a * self.q + self._neg_table[b]]
        return self._add_slow(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_slow(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        if self.e == 1:
            return pow(a, -1, self.p)
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        return modpoly.power(self._mul_slow, a, self.q - 2, 1)

    def pow(self, a, n):
        if a == 0:
            if n > 0:
                return 0
            if n == 0:
                return 1
            raise ZeroDivisionError(f"negative power of zero in {self!r}")
        n %= self.q - 1
        if self.e == 1:
            return pow(a, n, self.p)
        if self._exp is not None:
            return self._exp[self._log[a] * n % (self.q - 1)]
        return modpoly.power(self._mul_slow, a, n, 1)

    def is_square(self, a):
        """Quadratic character test; zero counts as a square."""
        if self.p == 2:
            return True
        return a == 0 or self.pow(a, (self.q - 1) // 2) == 1

    # -- slow paths (no tables) ----------------------------------------

    def _add_slow(self, a, b):
        p, r, mult = self.p, 0, 1
        while a or b:
            r += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return r

    def _mul_slow(self, a, b):
        prod = modpoly.mulmod(list(self.coeffs(a)), list(self.coeffs(b)),
                              list(self.modulus), self.p)
        return self.element(prod)

    # -- table construction ---------------------------------------------

    def _build_add_tables(self):
        """neg and add tables by recursion on the number of digits.

        With s = p^(j-1), an element of the j-digit level is lo + t*s
        (lo < s, t < p), and (lo + t*s) + (lo' + t'*s) is
        (lo + lo') + ((t + t') mod p)*s.  So row lo + t*s of level j is
        one slice, from t*s, of `wide`: the level j-1 row of lo repeated
        for top digits c = 0 .. 2p-2, with (c mod p)*s added.
        """
        p = self.p
        neg = array("H", [-a % p for a in range(p)])
        add = array("H", [(a + b) % p for a in range(p) for b in range(p)])
        s = p
        while s < self.q:
            size = s * p
            nadd = array("H", [0]) * (size * size)
            for lo in range(s):
                row = add[lo * s:(lo + 1) * s]
                wide = array("H", [v + c % p * s
                                   for c in range(2 * p - 1) for v in row])
                for t in range(p):
                    a = lo + t * s
                    nadd[a * size:(a + 1) * size] = wide[t * s:t * s + size]
            neg = array("H", [neg[lo] + -t % p * s
                              for t in range(p) for lo in range(s)])
            add, s = nadd, size
        self._neg_table, self._add_table = neg, add


def _check_p_and_e(p, e):
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"e must be a positive integer, got {e!r}")


def exceeds_size_bound(p, e, max_q):
    """Whether q = p^e exceeds max_q (None is no bound), without forming
    a huge p^e: as p >= 2, p^e > max_q once e reaches max_q's bit length."""
    return max_q is not None and p ** min(e, max_q.bit_length()) > max_q


def make_field(p, e=1, modulus=None):
    """Construct GF(p**e).

    Without an explicit modulus, degree 1 uses the convention
    modulus = x, and degree >= 2 picks the lexicographically smallest
    monic irreducible (constant term compared first).  An explicit
    modulus must be monic of degree e and irreducible; coefficients
    are given constant term first and reduced mod p.
    """
    _check_p_and_e(p, e)
    if modulus is None:
        modulus = (0, 1) if e == 1 else _default_modulus(p, e)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e, "
                             "constant term first")
        if e >= 2 and not is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
    return FieldSpec(p, e, modulus)


def field_descriptor(field):
    """Canonical text form: "p" for prime fields, else "p^e/c0,...,1"."""
    if field.e == 1:
        return str(field.p)
    mods = ",".join(str(c) for c in field.modulus)
    return f"{field.p}^{field.e}/{mods}"


def _integer_root(n, e):
    """The largest r with r^e <= n, for n >= 1.

    Newton's method from above, started at a float estimate of the root
    of n's top 40e or so bits, shifted back and rounded up: its error is
    far below 1, so Newton needs a few steps even for large e.
    """
    k = max(0, n.bit_length() // e - 40)
    r = (int(2 ** (math.log2(n >> k * e) / e)) + 3) << k
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _factor_prime_power(n):
    """(p, e) with p^e = n and p prime.

    Trial division stops below 1024: a divisor there is p.  Otherwise
    p > 1024, so e <= log2(n) / 10, and n = p^e is a perfect e'-th power
    only for e' dividing e: the largest e whose exact integer root is
    prime wins.  So a large composite is refused at once.
    """
    if n >= 2:
        for d in range(2, 1024):
            if n % d == 0:
                e, m = 0, n
                while m % d == 0:
                    m //= d
                    e += 1
                if m == 1:
                    return d, e
                break
        else:
            for e in range(n.bit_length() // 10, 0, -1):
                p = _integer_root(n, e)
                if p ** e == n and is_prime(p):
                    return p, e
    raise ValueError(f"{n} is not a prime power")


def split_field_descriptor(text):
    """Parse "q", "p^e", or "p^e/c0,c1,...,1" into (p, e, modulus),
    building no field; p must be prime and e positive.  modulus is None
    unless given.  A bare integer may be a prime or a prime power (e.g.
    "9" means GF(3^2) with the default modulus).
    """
    body, _, modpart = text.strip().partition("/")
    try:
        if "^" in body:
            ps, _, es = body.partition("^")
            p, e = int(ps), int(es)
        else:
            p, e = _factor_prime_power(int(body))
    except ValueError as exc:
        raise ValueError(f"bad field descriptor {text!r}: {exc}") from None
    modulus = None
    if modpart:
        try:
            modulus = tuple(int(c) for c in modpart.split(","))
        except ValueError:
            raise ValueError(f"bad modulus in field descriptor {text!r}") from None
    _check_p_and_e(p, e)
    return p, e, modulus


def parse_field_descriptor(text):
    """The field that split_field_descriptor(text) describes."""
    return make_field(*split_field_descriptor(text))


class QuadExt:
    """GF(q^2) built on a base field as GF(q)[s]/(s^2 - d).

    d is the first non-square in the enumeration order of GF(q)*, so
    s^((q-1)) = d^((q-1)/2) = -1 and Frobenius x -> x^q is conjugation
    (a0, a1) -> (a0, -a1).  Elements are ints u = a0 + a1*q; the base
    field embeds as the ints below q.  Requires odd characteristic.

    Products and powers of base elements go to the base field.  The
    first other product or power builds coset tables of GF(q^2)*, if
    q <= _LOG_TABLE_MAX_Q at construction.  With g the first generator
    in encoding order, h = g^(q+1) = N(g) generates GF(q)*, and
    i < q^2 - 1 is uniquely alpha*(q+1) + beta with alpha < q - 1 and
    beta <= q, so g^i = h^alpha g^beta.  The tables,
    of at most q + 1 entries each, hold h's powers and logs, the h-logs
    of the coordinates of each g^beta, and rho[t] = log(t + s) for t in
    GF(q).  So log(a0 + a1 s) is (q+1) log_h(a0) if a1 = 0, else
    (q+1) log_h(a1) + rho[a0/a1], and pow and mul are a few lookups; a
    negative exponent, -1 for the inverse, reduces mod q^2 - 1.  Above
    the bound the table-free paths run: the coordinate product and
    square-and-multiply over it.
    """

    __slots__ = ("base", "q", "size", "d", "_split", "_buildable", "_hpow",
                 "_hlog", "_reps", "_rho")

    def __init__(self, base):
        if base.p == 2:
            raise ValueError("quadratic extension by a non-square "
                             "requires odd characteristic")
        self.base = base
        self.q = base.q
        self.size = base.q * base.q
        self.d = next(x for x in range(1, base.q) if not base.is_square(x))
        # Tonelli-Shanks constants: q - 1 = 2^s t with t odd, and c = d^t
        s, t = 0, self.q - 1
        while t % 2 == 0:
            s, t = s + 1, t // 2
        self._split = (s, t, base.pow(self.d, t))
        self._buildable = self.q <= _LOG_TABLE_MAX_Q
        self._hpow = self._hlog = self._reps = self._rho = None

    def __repr__(self):
        return f"QuadExt({field_descriptor(self.base)!r}, d={self.d})"

    def make(self, a0, a1):
        return a0 + a1 * self.q

    def parts(self, u):
        a1, a0 = divmod(u, self.q)
        return a0, a1

    def coeffs(self, u):
        a0, a1 = self.parts(u)
        return self.base.coeffs(a0) + self.base.coeffs(a1)

    def mul(self, u, v):
        if u < self.q and v < self.q:
            return self.base.mul(u, v)
        if u == 0 or v == 0:
            return 0
        if self._rho is None and not self._build():
            return self._mul_slow(u, v)
        return self._exp(self._logof(u) + self._logof(v))

    def pow(self, u, n):
        if u == 0:
            if n > 0:
                return 0
            if n == 0:
                return 1
            raise ZeroDivisionError(f"negative power of zero in {self!r}")
        n %= self.size - 1
        if u < self.q:
            return self.base.pow(u, n)
        if self._rho is None and not self._build():
            return modpoly.power(self._mul_slow, u, n, 1)
        return self._exp(self._logof(u) * n)

    # -- the coset tables and the slow paths ------------------------------

    def _build(self):
        """Build the coset tables if q is within the bound; say if built."""
        if not self._buildable:
            return False
        F, q, order = self.base, self.q, self.size - 1
        step = self._times(_generator(order, range(q, self.size),
                                      self._mul_slow))
        # reps[beta] = g^beta for beta <= q, then h = g^(q+1)
        *reps, h = itertools.accumulate(range(q + 1), lambda u, _: step(u),
                                        initial=1)
        if not 0 < h < q:
            raise InternalCheckError(f"g^(q+1) = {h} is not in GF({q})*")
        hpow = [F.pow(h, a) for a in range(q - 1)]
        hlog, rho = [None] * q, [None] * q
        if F.mul(hpow[-1], h) != 1:
            raise InternalCheckError(f"h^(q-1) != 1 for h = {h} in GF({q})")
        for alpha, c in enumerate(hpow):
            hlog[c] = alpha
        for beta, (r0, r1) in enumerate(map(self.parts, reps[1:]), 1):
            if r1 and hlog[r1] is not None:
                rho[F.mul(r0, F.inv(r1))] = (beta - (q + 1) * hlog[r1]) % order
        # at most q - 1 and q writes: no empty slot means none went twice
        if None in hlog[1:] or None in rho:
            raise InternalCheckError(f"a log slot of GF({q}^2)* filled twice")
        self._reps = [tuple(hlog[c] if c else None for c in self.parts(r))
                      for r in reps]
        self._hpow, self._hlog, self._rho = hpow, hlog, rho
        return True

    def _logof(self, u):
        a1, a0 = divmod(u, self.q)
        hlog = self._hlog
        if a1 == 0:
            return (self.q + 1) * hlog[a0]
        # a0/a1 = h^(log_h a0 - log_h a1); a negative index wraps mod q - 1
        t = self._hpow[hlog[a0] - hlog[a1]] if a0 else 0
        return (self.q + 1) * hlog[a1] + self._rho[t]

    def _exp(self, i):
        alpha, beta = divmod(i, self.q + 1)
        hpow, m = self._hpow, self.q - 1
        l0, l1 = self._reps[beta]
        return ((0 if l0 is None else hpow[(alpha + l0) % m])
                + self.q * (0 if l1 is None else hpow[(alpha + l1) % m]))

    def _mul_slow(self, u, v):
        F, q = self.base, self.q
        a1, a0 = divmod(u, q)
        b1, b0 = divmod(v, q)
        re = F.add(F.mul(a0, b0), F.mul(self.d, F.mul(a1, b1)))
        im = F.add(F.mul(a0, b1), F.mul(a1, b0))
        return re + im * q

    def _times(self, g):
        """The map u -> u*g, with g's coordinate products precomputed:
        (a0 + a1 s)(g0 + g1 s) = (a0 g0 + d a1 g1) + (a0 g1 + a1 g0) s."""
        F, q = self.base, self.q
        g0, g1 = self.parts(g)
        m0 = [F.mul(a, g0) for a in range(q)]
        m1 = [F.mul(a, g1) for a in range(q)]
        md = [F.mul(self.d, b) for b in m1]
        add = F.add

        def step(u):
            a1, a0 = divmod(u, q)
            return add(m0[a0], md[a1]) + q * add(m1[a0], m0[a1])
        return step


@lru_cache(maxsize=EXT_CACHE_SIZE)
def quadratic_extension(field):
    """The (cached) quadratic extension context of a field."""
    return QuadExt(field)


def sqrt_ext(ext, v):
    """Square roots of a base-field element, in GF(q) or GF(q^2).

    Returns the roots as extension encodings in ascending coordinate
    order: (0,) for v = 0, otherwise a pair.  Tonelli-Shanks, with the
    extension's d as the non-square it needs, roots a square in the
    base field, and its first round tells a non-square v apart; v/d is
    then a square, and sqrt(v/d)*s is a root of v, since s*s = d.
    """
    F = ext.base
    if v == 0:
        return (0,)
    r = _tonelli_shanks(ext, v)
    if r is not None:
        roots = (r, F.neg(r))
    else:
        w = _tonelli_shanks(ext, F.mul(v, F.inv(ext.d)))
        roots = (ext.make(0, w), ext.make(0, F.neg(w)))
    return tuple(sorted(roots, key=ext.coeffs))


def _tonelli_shanks(ext, v):
    """One square root in GF(q) of v != 0, or None if v is a non-square.

    With q - 1 = 2^s t (t odd) and c = d^t from the extension, one power
    h = v^((t-1)/2) gives r = v h = v^((t+1)/2) and u = r h = v^t.  v is
    a square iff u^(2^(s-1)) = 1, which the first round decides.
    """
    F = ext.base
    m, t, c = ext._split
    h = F.pow(v, (t - 1) // 2)
    r = F.mul(v, h)
    u = F.mul(r, h)
    while u != 1:
        i, w = 0, u
        while w != 1:
            w = F.mul(w, w)
            i += 1
        if i == m:
            return None
        b = c
        for _ in range(m - i - 1):
            b = F.mul(b, b)
        m, c = i, F.mul(b, b)
        u, r = F.mul(u, c), F.mul(r, b)
    return r


def solve_y(ext, x):
    """All y in GF(q^2) with y*(1-y) = x, ascending encoding order.

    Completing the square gives y = (1 + r)/2 with r*r = 1 - 4x, so
    there is a single y exactly when x = 1/4.  r = r0 + r1 s, so y has
    the base coordinates (1 + r0)/2 and r1/2.
    """
    F = ext.base
    disc = F.sub(1, F.mul(F.from_int(4), x))
    half = F.half
    ys = []
    for r in sqrt_ext(ext, disc):
        r0, r1 = ext.parts(r)
        ys.append(ext.make(F.mul(F.add(1, r0), half), F.mul(r1, half)))
    return tuple(sorted(ys))


def enumerate_v(ext):
    """The q-element set {v in GF(q^2) : v^q = 1 - v}, as an ascending
    range of encodings.

    With Frobenius as conjugation, v = a0 + a1*s satisfies the
    equation iff a0 = 1 - a0, i.e. a0 = 1/2 with a1 free; the base
    field meets the set exactly in {1/2}.
    """
    return range(ext.base.half, ext.size, ext.q)
