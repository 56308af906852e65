"""Full-field sums of the family members, computed without summing.

S(n) = sum over all x in GF(q) of D(n,k; 1,x) lies in the prime
subfield, so everything here is arithmetic on integer vectors mod p.
The route: a closed coefficient vector b (the expansion of a product),
a right-hand-side vector c derived from b, and a first-order recurrence
that pins down the shifted sums d_n = S(n) - (k(n-1)+2)/2^n for
1 <= n <= q^2 - 1.  The recurrence overdetermines the final block; the
spare equations are checked.
Every ingredient is built from its closed shape, in whole-list passes:
b is a comb with two teeth at each multiple of q - 1, the first part
of c is runs of equal entries, and the mixer polynomial is two exact
divisions by z - 2 of an O(q) numerator.  The one large product,
mixer * b, is q + 1 shifted copies of mixer * (b_0 + b_1 z); d is
solved one block of q entries per list pass, and the offsets
(k(n-1)+2)/2^n repeat with a period dividing p(p - 1).  A table costs
O(q^2) list work beyond the field, O(q) of it in Python steps.
sums_bruteforce is the term-by-term oracle, O(q^3) for all n at once.
"""

from itertools import accumulate, cycle, islice
from operator import add

from . import modpoly
from .gf import InternalCheckError


def power_sum(F, m):
    """sum of a^m over all of GF(q), by direct summation (0^0 = 1).

    Equals -1 when (q-1) | m with m > 0, and 0 otherwise; tests hold
    this function to that shape.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    acc = 0
    for a in F.elements():
        acc = F.add(acc, F.pow(a, m))
    return acc


# -- the b vector ----------------------------------------------------------


def b_coeffs(F, k):
    """Coefficient vector b, indices 0 .. q^2 - q + 1, entries mod p.

    b(z) = (2 - k + (k-1) z) * (-1 - (z - z^q)^(q-1)).  With u = z^(q-1),
    (z - z^q)^(q-1) = u (1 - u)^(q-1) and (1 - u)^(q-1) = (1 - u^q)/(1 - u)
    = 1 + u + ... + u^(q-1) mod p, so b = -(2 - k + (k-1) z) times
    sum_{j=0}^{q} z^(j(q-1)): a comb whose teeth (k - 2, 1 - k) sit at the
    multiples of q - 1.  The tests hold it to the digit formula of the
    paper.
    """
    if F.p == 2:
        raise ValueError("the sum machinery needs odd characteristic")
    q, p = F.q, F.p
    tooth = [(k - 2) % p, (1 - k) % p]
    return (tooth + [0] * (q - 3)) * q + tooth


# -- the c vector ----------------------------------------------------------


def _divide_by_z_minus_2(a, p):
    """The quotient of a by z - 2 over GF(p), by synthetic division; a
    nonzero remainder raises InternalCheckError."""
    quo, carry = [0] * (len(a) - 1), 0
    for i in range(len(a) - 1, 0, -1):
        carry = (a[i] + 2 * carry) % p
        quo[i - 1] = carry
    if (a[0] + 2 * carry) % p:
        raise InternalCheckError("mixer numerator is not divisible by z - 2")
    return quo


def _mixer(q, p):
    """z^(2(q-1)) + sum_{m=1}^{q-1} (z-1)^(q-1-m) z^(2m) (1/4)^m, degree
    2q - 2.

    The sum is geometric with ratio z^2 / (4(z - 1)); as 4^q = 4,
    (z - 1)^q = z^q - 1 and (z - 1)^(q-1) = 1 + z + ... + z^(q-1) mod p,
    (z - 2)^2 (mixer - z^(2q-2)) = z^(2q) - (z^2 + ... + z^(q+1)), which
    two exact divisions by z - 2 undo.
    """
    num = [0, 0] + [p - 1] * q + [0] * (q - 2) + [1]
    mixer = _divide_by_z_minus_2(_divide_by_z_minus_2(num, p), p)
    mixer[-1] = (mixer[-1] + 1) % p
    return mixer


def c_coeffs(F, k):
    """Right-hand-side vector c, indices 0 .. q^2 + q - 1.

    c(z) = (1 + z^(q-1) - z^q) * (z + ... + z^(q^2-1)) - mixer(z) * b(z).
    The first product is 1 at degrees 1 .. q^2 - 1 except 2 at q, then
    -1 at q^2 + q - 1.  b is the comb of b_coeffs, so mixer * b is
    mixer * (b_0 + b_1 z) added at every multiple of q - 1.

    The constant term must vanish and the degree stays below q^2 + q;
    both are asserted, not assumed.
    """
    q, p = F.q, F.p
    b = b_coeffs(F, k)
    mixer = _mixer(q, p)
    b0, b1 = b[0], b[1]
    tooth = [-(b0 * x + b1 * y) % p for x, y in zip(mixer + [0], [0] + mixer)]
    width, last = len(tooth), len(b) - 2
    c = ([0] + [1] * (q - 1) + [2] + [1] * (q * q - q - 1) + [0] * (q - 1)
         + [p - 1])
    c += [0] * (last + width - len(c))
    for s in range(0, last + 1, q - 1):
        c[s:s + width] = map(add, c[s:s + width], tooth)
    c = [v % p for v in c]
    if c[0] != 0:
        raise InternalCheckError("c-vector constant term is nonzero")
    if any(c[q * q + q:]):
        raise InternalCheckError("c-vector degree exceeds its bound")
    return c[:q * q + q]


# -- the recurrence --------------------------------------------------------


def _d_vector(F, c):
    """Shifted sums d_1 .. d_{q^2-1} from the coefficient identity.

    The identity (z^q - z^(q-1) - 1) d(z) = c(z) gives, with d zero
    below index 1, d[lq + j] = d[(l-1)q + j] - d[(l-1)q + j + 1] - c[lq + j]:
    block l from block l - 1 and its own first entry, going up.  The top
    block follows again from the tail of c going down; the overlap must
    agree, and InternalCheckError reports any conflict.  Index 0 of the
    returned list is unused.
    """
    q, p = F.q, F.p
    d = [0] * (q * q)
    d[1:q] = [-x % p for x in c[1:q]]
    for base in range(q, q * q - q, q):
        d[base] = (d[base - q] - d[base - q + 1] - c[base]) % p
        prev = d[base - q + 1:base + 1]
        d[base + 1:base + q] = [(x - y - z) % p for x, y, z in
                                zip(prev, prev[1:], c[base + 1:base + q])]
    base = q * q - q
    tail = list(accumulate(reversed(c[q * q:q * q + q])))
    d[base:] = [v % p for v in reversed(tail)]
    # the tail block is pinned twice over; the recurrence must agree
    prev = d[base - q:base + 1]
    expect = [(x - y - z) % p for x, y, z in
              zip(prev, prev[1:], c[base:base + q])]
    for j, (got, want) in enumerate(zip(d[base:], expect)):
        if got != want:
            raise InternalCheckError(
                f"overdetermined tail disagrees at index {base + j}")
    return d


def _quarter_offsets(p, k, count):
    """rdpoly.value_at_quarter(F, n, k) for n < count, over any F of
    characteristic p: the values lie in the prime subfield, whose
    encodings are the ints below p, so one running power of 1/2 mod p
    gives them.  (k(n-1) + 2) has period p in n and 2^-n a period
    dividing p - 1, so one period of length p(p - 1) is built and
    repeated."""
    inv2, r, period = pow(2, -1, p), 1, []
    for n in range(min(count, p * (p - 1))):
        period.append((k * (n - 1) + 2) * r % p)
        r = r * inv2 % p
    return list(islice(cycle(period), count))


class SumTable:
    """All full-field sums of one (field, kind) pair for 1 <= n < q^2.

    sums[n] and d[n] are prime-subfield scalars; index 0 is the n = 0
    member, whose sum is identically 0 (a constant summed q times).
    """

    __slots__ = ("field", "k", "c", "d", "sums")

    def __init__(self, field, k, c, d, sums):
        self.field, self.k, self.c, self.d, self.sums = field, k, c, d, sums


def sums_via_recurrence(F, k):
    """Build the SumTable: solve for d, then add back the offsets
    (k(n-1)+2)/2^n, the values at x = 1/4.

    The overdetermined tail of d and the shape of c are checked on the
    way; sums_bruteforce is the independent oracle.
    """
    if F.p == 2:
        raise ValueError("the sum machinery needs odd characteristic")
    q, p = F.q, F.p
    k %= p
    c = c_coeffs(F, k)
    d = _d_vector(F, c)
    sums = [(x + y) % p for x, y in zip(d, _quarter_offsets(p, k, q * q))]
    sums[0] = 0
    return SumTable(F, k, c, d, sums)


def sums_bruteforce(F, k):
    """Term-by-term oracle: S[n] = sum over x of D(n,k; 1,x), n < q^2.

    One pass per x of v_0 = 2 - k, v_1 = 1, v_m = v_{m-1} - x v_{m-2},
    O(q^3) field ops: no index reduction, special point or doubling.
    """
    S = [0] * (F.q * F.q)
    for x in F.elements():
        v, w = F.from_int(2 - k), 1
        for n in range(len(S)):
            S[n] = F.add(S[n], v)
            v, w = w, F.sub(w, F.mul(x, v))
    return S


def residue_identity_holds(table, brute):
    """Check (z^q - z^(q-1) - 1) * d(z) = table.c(z) with d built from
    the brute-force sums brute = sums_bruteforce(F, k), not from c."""
    F, k = table.field, table.k
    q, p = F.q, F.p
    offsets = _quarter_offsets(p, k, q * q)
    dpoly = [0] + [(brute[n] - offsets[n]) % p for n in range(1, q * q)]
    mult = [0] * (q + 1)
    mult[0] = p - 1
    mult[q - 1] = (mult[q - 1] - 1) % p
    mult[q] = 1
    lhs = modpoly.mul(mult, dpoly, p)
    return modpoly.trim(lhs) == modpoly.trim(table.c)
