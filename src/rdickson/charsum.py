"""Full-field sums of the family members, computed without summing.

S(n) = sum over all x in GF(q) of D(n,k; 1,x) lies in the prime
subfield, so everything here is arithmetic on integer vectors mod p.
The route: a closed coefficient vector b (the expansion of a product),
a right-hand-side vector c derived from b, and a first-order recurrence
that pins down the shifted sums d_n = S(n) - (k(n-1)+2)/2^n for
1 <= n <= q^2 - 1.  The recurrence overdetermines the final block; the
spare equations are checked.
Every ingredient is built from its closed shape, in whole-list passes:
b is a comb with the same two teeth at each multiple of q - 1, the
first part of c is runs of equal entries, and the mixer polynomial is
two exact divisions by z - 2 of an O(q) numerator.  The one large
product, mixer * b, is q + 1 shifted copies of mixer * (b_0 + b_1 z),
which between two edges of 2q - 1 entries is its first period of q - 1
entries repeated; the edges and that period are summed from the teeth
that reach them, so c costs O(q) Python steps plus one list
repetition and reads only b's tooth.  d is
solved one block of q entries per list pass, and the offsets
(k(n-1)+2)/2^n repeat with a period dividing p(p - 1).  A table costs
O(q^2) list work beyond the field, O(q) of it in Python steps.
sums_bruteforce is the oracle: every kind is read off one pass per field
that sums the sequences U_n(x) term by term over all x, each walked
to its period.  Sum tables need odd characteristic; _b_tooth, which
every table reads, refuses p = 2.
"""

from functools import lru_cache
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


def _b_tooth(F, k):
    """b's tooth [(k - 2) mod p, (1 - k) mod p], the pair of b_coeffs at
    every multiple of q - 1.  Sum tables need odd characteristic, so
    p = 2 raises ValueError."""
    if F.p == 2:
        raise ValueError("sum tables need odd characteristic")
    return [(k - 2) % F.p, (1 - k) % F.p]


def b_coeffs(F, k):
    """Coefficient vector b, indices 0 .. q^2 - q + 1, entries mod p.

    b(z) = (2 - k + (k-1) z) * (-1 - (z - z^q)^(q-1)).  With u = z^(q-1),
    (z - z^q)^(q-1) = u (1 - u)^(q-1) and (1 - u)^(q-1) = (1 - u^q)/(1 - u)
    = 1 + u + ... + u^(q-1) mod p, so b = -(2 - k + (k-1) z) times
    sum_{j=0}^{q} z^(j(q-1)): a comb of _b_tooth at the multiples of
    q - 1.  The tests hold it to the digit formula of the paper.
    """
    tooth = _b_tooth(F, k)
    return (tooth + [0] * (F.q - 3)) * F.q + tooth


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


def _comb_window(q, p, tooth, lo, hi):
    """Entries lo .. hi - 1 of c, summed term by term: the first product
    of c_coeffs plus the teeth at the multiples of q - 1 that reach each
    index."""
    out = [(0 < i < q * q) + (i == q) - (i == q * q + q - 1)
           for i in range(lo, hi)]
    step, width = q - 1, len(tooth)
    first = max(0, -((width - 1 - lo) // step)) * step
    for s in range(first, min(q * step, hi - 1) + 1, step):
        a, z = max(lo, s), min(hi, s + width)
        out[a - lo:z - lo] = map(add, out[a - lo:z - lo], tooth[a - s:z - s])
    return [v % p for v in out]


def c_coeffs(F, k):
    """Right-hand-side vector c, indices 0 .. q^2 + q - 1.

    c(z) = (1 + z^(q-1) - z^q) * (z + ... + z^(q^2-1)) - mixer(z) * b(z).
    The first product is 1 at degrees 1 .. q^2 - 1 except 2 at q, then
    -1 at q^2 + q - 1.  b is the comb of _b_tooth, so mixer * b is one
    2q-wide tooth, -mixer * (b_0 + b_1 z), added at every multiple of
    q - 1.  Outside a head and a tail of 2q - 1 entries each, every index
    meets all the teeth that could reach it, so the interior, (q - 1)(q - 2)
    entries, is its first period, entries 2q - 1 .. 3q - 3, repeated;
    that period and the edges are summed from the teeth that reach them.

    The constant term must vanish, nothing may reach past degree
    q^2 + q - 1, and the last period of the fill, up to q^2 - q, summed
    again from the teeth, must equal the fill; all three are checked.
    """
    q, p = F.q, F.p
    b0, b1 = _b_tooth(F, k)
    mixer = _mixer(q, p)
    tooth = [-(b0 * x + b1 * y) % p for x, y in zip(mixer + [0], [0] + mixer)]
    size, edge = q * q + q, 2 * q - 1
    c = (_comb_window(q, p, tooth, 0, edge)
         + _comb_window(q, p, tooth, edge, edge + q - 1) * (q - 2)
         + _comb_window(q, p, tooth, size - edge, q * q - q + len(tooth)))
    if c[0] != 0:
        raise InternalCheckError("c-vector constant term is nonzero")
    if any(c[size:]):
        raise InternalCheckError("c-vector degree exceeds its bound")
    lo = size - edge - q + 1
    if c[lo:lo + q - 1] != _comb_window(q, p, tooth, lo, lo + q - 1):
        raise InternalCheckError(
            f"c-vector periodic fill disagrees with the teeth at {lo}")
    return c[:size]


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
    q, p = F.q, F.p
    k %= p
    c = c_coeffs(F, k)
    d = _d_vector(F, c)
    sums = [(x + y) % p for x, y in zip(d, _quarter_offsets(p, k, q * q))]
    sums[0] = 0
    return SumTable(F, k, c, d, sums)


def _u_columns(F):
    """(x, column) for every x in GF(q), where U_0 = 0, U_1 = 1 and
    U_m = U_{m-1} - x U_{m-2}.

    Each x walks its state (U_m, U_{m+1}) from (0, 1) until the state
    comes back, and its column is U_0(x) .. U_{T-1}(x) for the period T
    so detected (the step is invertible for x != 0); or until q^2 + 1
    terms are out, when the column is U_0(x) .. U_{q^2}(x): x = 0 has
    U_m = 1 for every m >= 1 and never comes back.  Reads only F.add,
    F.mul, F.neg and the recurrence: a step is one lookup in a local add
    list of q^2 entries and one in x's list of the -x v.
    """
    q = F.q
    size = q * q + 1
    plus = [F.add(a, b) for a in F.elements() for b in F.elements()]
    for x in F.elements():
        nx = F.neg(x)
        times = [F.mul(nx, v) for v in F.elements()]
        col, u, w = [], 0, 1
        append = col.append
        for _ in range(size):
            append(u)
            u, w = w, plus[w * q + times[u]]
            if w == 1 and not u:
                break
        yield x, col


@lru_cache(maxsize=1)
def u_column_sums(F):
    """A[n] = sum over x in GF(q) of U_n(x) for n = 0 .. q^2, a tuple of
    field elements, from one walk of every column of _u_columns.

    Columns of equal length are summed with each base-p digit in its
    own bit lane, each such sum is tiled to q^2 + 1 terms once, and the
    lanes are reduced mod p at the end: about sum over x of
    min(period, q^2 + 1) Python steps.  Kept for the last field alone.
    """
    q, p, e = F.q, F.p, F.e
    size = q * q + 1
    width = (q * p).bit_length()       # a lane never carries into the next
    lane = [sum(c << width * i for i, c in enumerate(F.coeffs(v)))
            for v in F.elements()]
    groups = {}
    for _, col in _u_columns(F):
        lanes = map(lane.__getitem__, col)
        acc = groups.get(len(col))
        groups[len(col)] = (list(lanes) if acc is None
                            else list(map(add, acc, lanes)))
    total = [0] * size
    for period, acc in groups.items():
        total = list(map(add, total, (acc * -(-size // period))[:size]))
    mask, out = (1 << width) - 1, [0] * size
    for i in range(e):
        shift, weight = width * i, p ** i
        out = [o + (t >> shift & mask) % p * weight
               for o, t in zip(out, total)]
    return tuple(out)


def sums_bruteforce(F, k):
    """Oracle: S[n] = sum over x of D(n,k; 1,x) for n < q^2.

    D(n,k; 1,x) = (k - 1) U_n(x) + (2 - k) U_{n+1}(x): both sides obey
    the recurrence v_m = v_{m-1} - x v_{m-2} and agree at n = 0 and 1.  So
    every kind is read off the one U pass of u_column_sums, with no index
    reduction, special point or closed shape.
    """
    A = u_column_sums(F)
    now = [F.mul(F.from_int(k - 1), v) for v in F.elements()]
    nxt = [F.mul(F.from_int(2 - k), v) for v in F.elements()]
    return [F.add(now[a], nxt[b]) for a, b in zip(A, A[1:])]


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
