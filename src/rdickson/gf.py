"""Finite field contexts GF(p^e).

For efficiency, field elements carry no wrapper objects: an element of
GF(p^e) is an int in [0, p^e) whose base-p digits are its coordinates
in the polynomial basis, constant coordinate least significant.
Iterating range(q) therefore walks the field in odometer order
(constant coordinate fastest), and the integers 0 and 1 encode the
additive and multiplicative identities.  A FieldSpec instance supplies
the arithmetic and is passed around together with the elements.

GF(q^2) is modelled separately, in quadext, as GF(q)[s]/(s^2 - d) with
d = FieldSpec.first_non_square().  Its names, listed under "quadext" in
rdickson._HOMES, are read through this module, whose __getattr__ (the
package's _loader) imports quadext on first use (PEP 562), so a command
that never works in GF(q^2) never compiles it.

Whether (p, e) names a field that may be built is decided in one
place, check_field: make_field applies it under the bound it is given
(the CLI passes its q <= DEFAULT_MAX_Q, or None under --unsafe-large),
and the statement grids apply it to every field of a grid before any is
built.  Miller-Rabin on the primes up to 41 decides p's primality
exactly below _MR_EXACT, and runs only there: a larger p is refused,
for its size under a bound and otherwise because its primality would
be a guess.  make_field then checks the modulus (monic, irreducible);
after that a FieldSpec is immutable and safe to share.  A
FieldSpec with q <= _LOG_TABLE_MAX_Q builds its lookup tables at
construction, all O(q): exp/log tables of GF(q)*, from the first
generator g that a walk finds, and the Zech table log(1 + g^i).  The
methods of a prime field still add, multiply and take powers as ints
mod p, the other fields through the tables; neg, sub and inv are read
off those three methods.  Tables change speed only, never values.

The per-point kernels of the permutation scans, which read these
tables, live in rowkernels next to the rows that call them (lucas and
binet) and in quadext (QuadExt.binet), so a command that scans no row
never compiles them.
"""

import itertools
import math
import sys

from . import _loader, modpoly

__getattr__ = _loader(globals(), ("quadext",))

# Lookup-table threshold.  Above this size the slow paths are used;
# correctness is identical.  It covers the exp/log/Zech tables of GF(q)
# and the O(q) coset tables of GF(q^2)* alike.
_LOG_TABLE_MAX_Q = 4096
# quadratic_extension and rdpoly._principal_y keep at most this many
# entries, so a long-lived process holds a bounded number of tables.
EXT_CACHE_SIZE = 4

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base of _MR_BASES (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017): below it Miller-Rabin on those bases decides primality exactly
_MR_EXACT = 3317044064679887385961981


class InternalCheckError(RuntimeError):
    """A redundant internal recomputation disagreed: an arithmetic bug,
    not a user error."""


def is_prime(n):
    """Deterministic Miller-Rabin on the primes up to 41, exact for every
    n below _MR_EXACT; a larger n raises ValueError rather than guess."""
    if n >= _MR_EXACT:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT}")
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


def _cyclic_tables(F):
    """exp/log tables of the cyclic group GF(q)*, as lists: a list
    hands back its stored ints where an array builds new ones, which
    made FieldSpec.mul 1.6x slower.

    The candidates g = 1, 2, ... are walked u -> u*g from 1 in turn;
    the first walk that first comes back to 1 after N = q - 1 steps
    runs once through GF(q)*, so it is its own order test, and gives
    exp[i] = g^i for i < N and log[g^i] = i (log[0] = 0 is unused).
    A step is GF(p)-linear: for u with digits u_i, u*g is the sum of
    u_i ((p^i)*g), each (p^i)*g one slow product (for e = 1 the one
    digit u and g itself).  The walk keeps that sum over the integers,
    in a radix 2^b whose digits hold e products of two digits without
    carry, so a step is one pass over its digits: each is reduced mod
    p, which gives a digit of u*g and the term it adds to the next sum.

    A walk that has not come back after N steps raises
    InternalCheckError.  A linear step whose walk runs through GF(q)*
    is the product by some element of some field on the same digits,
    which is this field iff its powers x^0 .. x^e of x (encoded p) are
    the ones the modulus fixes; for e >= 2 anything else raises too,
    and for e = 1 every such step is a product in GF(p).
    """
    p, q, order = F.p, F.q, F.q - 1
    b = (F.e * (p - 1) ** 2).bit_length()
    mask = (1 << b) - 1
    exp, log = [0] * order, [0] * q
    for g in range(1, q):
        terms = [(i * b, s, sum(c << j * b for j, c in
                                enumerate(F.coeffs(F._mul_slow(s, g)))))
                 for i, s in enumerate(F._pows[:-1])]
        acc, wide = 1, terms[0][2]
        for i in range(order):
            exp[i] = acc
            log[acc] = i
            # wide is acc * g with unreduced digits: one pass
            # reduces them to the next acc and sums its product by g
            acc = nxt = 0
            for shift, s, col in terms:
                d = (wide >> shift & mask) % p
                acc += d * s
                nxt += d * col
            wide = nxt
            if acc == 1:
                break
        else:
            raise InternalCheckError(f"the walk of {g} in GF({q})* has not "
                                     f"come back to 1 after {order} steps")
        if i == order - 1:
            break
    else:
        raise InternalCheckError(f"no walk runs through GF({q})*")
    if F.e > 1:
        want = F._pows[:-1] + [F.element(-c for c in F.modulus[:-1])]
        if [exp[i * log[p] % order] for i in range(F.e + 1)] != want:
            raise InternalCheckError(f"the walk of GF({q})* is not the "
                                     f"product by {g}")
    return exp, log


def _zech_table(log, ones, log_neg):
    """zech[i] = log(1 + g^i) from ones[i] = 1 + g^i, None at log(-1).
    As g^i runs through GF(q)*, 1 + g^i runs once through GF(q) less 1,
    so the other entries are 1 .. q - 2, each once; anything else
    raises InternalCheckError."""
    zech = [log[v] if v else None for v in ones]
    if (zech[log_neg] is not None
            or set(zech) != {None, *range(1, len(zech))}):
        raise InternalCheckError(f"the Zech logarithms of GF({len(log)})* "
                                 "are not a permutation of its logs")
    return zech


class FieldSpec:
    """Arithmetic context for GF(p^e); build instances via make_field().

    Elements are ints in [0, q).  Methods trust their operands: none
    checks that an int is an element of this field.  pow() accepts
    arbitrary-precision exponents (negative allowed for nonzero base)
    and reduces them by the group order; pow(0, 0) is 1.

    Up to the table bound every field holds exp, log and, with
    zech[i] = log(1 + g^i), the Zech table.  For e >= 2 mul reads
    exp/log and a + b = a (1 + b/a) is exp[log a + zech[log b - log a]].
    Prime fields compute with ints mod p in these methods, and read the
    tables in rowkernels.binet and their quadratic extension.  On every
    field neg, sub and inv are -1 (encoded p - 1) times a, a + (-b) and
    a^-1.
    """

    __slots__ = ("p", "e", "q", "modulus", "_pows", "_exp", "_log",
                 "_zech", "_log_neg", "_half", "_quarter")

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = tuple(modulus)
        self._pows = [p ** i for i in range(e + 1)]
        self._exp = self._log = self._zech = None
        self._log_neg = (self.q - 1) // 2 if p != 2 else 0
        if self.q <= _LOG_TABLE_MAX_Q:
            exp, log = _cyclic_tables(self)
            # exp and zech are doubled so that mul, add, the row kernels
            # and QuadExt index a sum or difference of logs without a mod
            self._exp, self._log = exp + exp, log
            # 1 + u steps the constant digit alone
            zech = _zech_table(log, [u - u % p + (u + 1) % p for u in exp],
                               self._log_neg)
            self._zech = zech + zech
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
        zech = self._zech
        if zech is None:
            return self._add_slow(a, b)
        if not a or not b:
            return a or b
        la = self._log[a]
        z = zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a):
        return self.mul(self.p - 1, a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_slow(a, b)

    def inv(self, a):
        return self.pow(a, -1)

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

    def generator_powers(self):
        """g^0 .. g^(q-2) for g the first generator of GF(q)* in encoding
        order: the exp table, or above the table bound the same walk."""
        if self._exp is not None:
            return self._exp[:self.q - 1]
        return _cyclic_tables(self)[0]

    def is_square(self, a):
        """Quadratic character test; zero counts as a square."""
        if self.p == 2:
            return True
        return a == 0 or self.pow(a, (self.q - 1) // 2) == 1

    def first_non_square(self):
        """The first non-square of GF(q)* in encoding order: the d of the
        quadratic extension GF(q)[s]/(s^2 - d).  Characteristic 2 has
        none."""
        if self.p == 2:
            raise ValueError("every element is a square in characteristic 2")
        return next(x for x in range(1, self.q) if not self.is_square(x))

    # -- slow paths (no tables) ----------------------------------------

    def _add_slow(self, a, b):
        p, r, mult = self.p, 0, 1
        if p == 2:
            return a ^ b
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


# The bound on q that the CLI and the statement grids apply by default.
DEFAULT_MAX_Q = 343


def check_field(p, e, max_q=None):
    """Refuse (p, e) unless GF(p^e) may be built under the bound
    q <= max_q (None: no bound).  In order: p must be prime where that
    is decided exactly, below _MR_EXACT; e must be a positive int; q
    must lie within the bound, checked without forming a huge p^e (as
    p >= 2, p^e > max_q once e reaches max_q's bit length); and a p at
    or past _MR_EXACT, which no Miller-Rabin round has tested, is
    refused whatever the bound."""
    if not isinstance(p, int) or p < _MR_EXACT and not is_prime(p):
        raise ValueError(f"p must be prime, got {excerpt(p)}")
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"e must be a positive integer, got {excerpt(e)}")
    if max_q is not None and p ** min(e, max_q.bit_length()) > max_q:
        raise ValueError(f"GF({excerpt(p)}^{excerpt(e)}) exceeds the size "
                         f"bound q <= {max_q}; pass --unsafe-large")
    if p >= _MR_EXACT:
        raise ValueError(f"p must lie below {_MR_EXACT}, where primality "
                         f"is decided exactly, got {excerpt(p)}")


def make_field(p, e=1, modulus=None, max_q=None):
    """Construct GF(p**e), after check_field(p, e, max_q) has admitted
    it under the bound q <= max_q (None, the default: no bound).

    Degree 1 takes the modulus x, (0, 1), alone, given or not; degree
    >= 2 defaults to the lexicographically smallest monic irreducible
    (constant term compared first).  An explicit modulus must be monic
    of degree e and irreducible; coefficients are given constant term
    first and reduced mod p.
    """
    check_field(p, e, max_q)
    if modulus is None:
        modulus = (0, 1) if e == 1 else _default_modulus(p, e)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e, "
                             "constant term first")
        if e == 1 and modulus != (0, 1):
            raise ValueError(f"a prime field takes the modulus x, (0, 1), "
                             f"alone; got {excerpt(modulus)}")
        if not is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {excerpt(modulus)} is reducible "
                             f"over GF({p})")
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

    Trial division stops below 1024: a divisor d there is p, and e is
    log_d(n) rounded, checked by one power.  Otherwise
    p > 1024, so e <= log2(n) / 10, and n = p^e is a perfect e'-th power
    only for e' dividing e: the largest e whose exact integer root is
    prime wins.  So a large composite is refused at once.  A root at or
    past _MR_EXACT is returned untested, for check_field to refuse.
    """
    if n >= 2:
        for d in range(2, 1024):
            if n % d == 0:
                e = round(math.log(n, d))
                if d ** e == n:
                    return d, e
                break
        else:
            for e in range(n.bit_length() // 10, 0, -1):
                p = _integer_root(n, e)
                if p ** e == n and (p >= _MR_EXACT or is_prime(p)):
                    return p, e
    raise ValueError(f"{excerpt(n)} is not a prime power")


def digit_limit():
    """The one bound on the decimal digits of an integer read or written:
    sys.get_int_max_str_digits(), or under 0 (no limit) the interpreter's
    default, since permcheck must bound an exponent l before it forms
    p^l, and 3^(10^12) would never finish."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def read_int(token, what, refusal):
    """int(token), for the text of an integer argument.  A well-formed
    integer of more digits than int() converts is refused in a short
    message that names the limit instead of echoing it; any other text
    that int() refuses raises the exception refusal."""
    try:
        return int(token)
    except ValueError:
        body = token.strip()
        body = body[1:] if body[:1] in ("+", "-") else body
        if all(map(str.isdecimal, body.split("_"))):
            raise ValueError(
                f"bad {what}: an integer of more than {digit_limit()} "
                "digits, the limit of sys.get_int_max_str_digits()") from None
        raise refusal from None


def excerpt(value):
    """How a refusal quotes what the user gave (a text, an integer, a
    tuple): its repr, cut to its first and last 30 characters around
    "..." when longer than 63, so that no message echoes a long argument
    whole.  An integer past digit_limit(), which repr refuses, is given
    by its digit count."""
    if isinstance(value, int) and abs(value) >= 10 ** digit_limit():
        n = abs(value)
        # within one of the digit count, and at most that count
        d = int(n.bit_length() * math.log10(2))
        return f"<an integer of {d + (n >= 10 ** d)} digits>"
    text = repr(value)
    return text if len(text) <= 63 else f"{text[:30]}...{text[-30:]}"


def split_field_descriptor(fd):
    """Parse "q", "p^e", or "p^e/c0,c1,...,1" into (p, e, modulus),
    building no field and checking nothing of it: that is check_field's.
    modulus is None unless given.  A bare integer may be a prime or a
    prime power (e.g. "9" means GF(3^2) with the default modulus).
    """
    body, slash, modpart = fd.strip().partition("/")
    ps, hat, es = body.partition("^")
    refusal = ValueError(f"bad field descriptor {excerpt(fd)}: expected "
                         "q, p^e or p^e/c0,...,1")
    p = read_int(ps, "field descriptor", refusal)
    e = read_int(es, "field descriptor", refusal) if hat else None
    try:
        p, e = (p, e) if hat else _factor_prime_power(p)
    except ValueError as exc:
        raise ValueError(
            f"bad field descriptor {excerpt(fd)}: {exc}") from None
    modulus = None
    if slash:
        refusal = ValueError(f"bad modulus in field descriptor {excerpt(fd)}")
        modulus = tuple(read_int(c, "modulus in field descriptor", refusal)
                        for c in modpart.split(","))
    return p, e, modulus


def parse_field_descriptor(text):
    """The field that split_field_descriptor(text) describes."""
    return make_field(*split_field_descriptor(text))
