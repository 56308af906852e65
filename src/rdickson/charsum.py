"""Full-field sums of the family members, computed without summing.

S(n) = sum over all x in GF(q) of D(n,k; 1,x) lies in the prime
subfield, so everything here is arithmetic on integer vectors mod p.
The route: a closed coefficient vector b (the expansion of a product),
a right-hand-side vector c derived from b, and a first-order recurrence
that pins down the shifted sums d_n = S(n) - (k(n-1)+2)/2^n for
1 <= n <= q^2 - 1.  The recurrence overdetermines the final block; the
spare equations are checked.
A table costs O(q^2) list work beyond the field: b has about 2q
nonzero entries and modpoly.mul skips zeros, so the one large product,
mixer * b, is O(q^2).  sums_bruteforce is the term-by-term oracle,
O(q^3) for all n at once.
"""

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

    b(z) = (2 - k + (k-1) z) * (-1 - (z - z^q)^(q-1)), expanded without
    binomials; the power is kept as a sparse {degree: coeff}, since it
    has at most q terms.  The tests hold it to the digit formula of the
    paper.
    """
    if F.p == 2:
        raise ValueError("the sum machinery needs odd characteristic")
    q, p = F.q, F.p
    k %= p
    pw = {0: 1}
    for _ in range(q - 1):
        nxt = {}
        for i, c in pw.items():
            nxt[i + 1] = (nxt.get(i + 1, 0) + c) % p
            nxt[i + q] = (nxt.get(i + q, 0) - c) % p
        pw = {i: c for i, c in nxt.items() if c}
    neg = {i: -c % p for i, c in pw.items()}
    neg[0] = (neg.get(0, 0) - 1) % p
    out = [0] * (q * q - q + 2)
    for i, c in neg.items():
        out[i] = (out[i] + (2 - k) * c) % p
        out[i + 1] = (out[i + 1] + (k - 1) * c) % p
    return out


# -- the c vector ----------------------------------------------------------


def c_coeffs(F, k):
    """Right-hand-side vector c, indices 0 .. q^2 + q - 1.

    c(z) = (1 + z^(q-1) - z^q) * (z + ... + z^(q^2-1))
         - (z^(2(q-1)) + sum_{m=1}^{q-1} (z-1)^(q-1-m) z^(2m) (1/4)^m) * b(z).

    The constant term must vanish and the degree stays below q^2 + q;
    both are asserted, not assumed.
    """
    q, p = F.q, F.p
    k %= p
    b = b_coeffs(F, k)
    geo = [0] + [1] * (q * q - 1)
    part1 = modpoly.add(geo, modpoly.shift(geo, q - 1), p)
    part1 = modpoly.sub(part1, modpoly.shift(geo, q), p)
    # Horner's rule in (z - 1): mixer <- mixer (z - 1) + 4^(-m) z^(2m)
    inv4, r, mixer = pow(4, -1, p), 1, []
    for m in range(1, q):
        r = r * inv4 % p
        mixer = modpoly.add(modpoly.mul(mixer, [p - 1, 1], p),
                            modpoly.shift([r], 2 * m), p)
    mixer = modpoly.add(mixer, modpoly.shift([1], 2 * (q - 1)), p)
    c = modpoly.sub(part1, modpoly.mul(mixer, b, p), p)
    if c and c[0] != 0:
        raise InternalCheckError("c-vector constant term is nonzero")
    if modpoly.degree(c) >= q * q + q:
        raise InternalCheckError("c-vector degree exceeds its bound")
    return c + [0] * (q * q + q - len(c))


# -- the recurrence --------------------------------------------------------


def _d_vector(F, c):
    """Shifted sums d_1 .. d_{q^2-1} from the coefficient identity.

    The identity (z^q - z^(q-1) - 1) d(z) = c(z) determines d block by
    block going up and the top block again from the tail of c going
    down; the overlap must agree, and InternalCheckError reports any
    conflict.  Index 0 of the returned list is unused.
    """
    q, p = F.q, F.p
    d = [0] * (q * q)
    for j in range(1, q):
        d[j] = -c[j] % p
    d[q] = (c[1] - c[q]) % p
    for l in range(1, q - 1):
        if l >= 2:
            d[l * q] = (d[(l - 1) * q] - d[(l - 1) * q + 1] - c[l * q]) % p
        for j in range(1, q):
            d[l * q + j] = (d[(l - 1) * q + j] - d[(l - 1) * q + j + 1]
                            - c[l * q + j]) % p
    acc = 0
    for j in range(q - 1, -1, -1):
        acc = (acc + c[q * q + j]) % p
        d[q * q - q + j] = acc
    # the tail block is pinned twice over; the recurrence must agree
    l = q - 1
    for j in range(q):
        expect = (d[(l - 1) * q + j] - d[(l - 1) * q + j + 1]
                  - c[l * q + j]) % p
        if d[l * q + j] != expect:
            raise InternalCheckError(
                f"overdetermined tail disagrees at index {l * q + j}")
    return d


def _quarter_offsets(p, k, count):
    """rdpoly.value_at_quarter(F, n, k) for n < count, over any F of
    characteristic p: the values lie in the prime subfield, whose
    encodings are the ints below p, so one running power of 1/2 mod p
    gives them all."""
    inv2, r, out = pow(2, -1, p), 1, []
    for n in range(count):
        out.append((k * (n - 1) + 2) * r % p)
        r = r * inv2 % p
    return out


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
    offsets = _quarter_offsets(p, k, q * q)
    sums = [0] + [(d[n] + offsets[n]) % p for n in range(1, q * q)]
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
