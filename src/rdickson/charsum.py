"""Full-field sums of the family members, computed without summing.

S(n) = sum over all x in GF(q) of D(n,k; 1,x) lies in the prime
subfield, so everything here is arithmetic on integer vectors mod p.
Summed over x, the generating function of the family has the kind-free
denominator 1 - z^q - z^(2q-2) + z^(2q-1), so S itself is a linear
recurring sequence: zero below index 2q - 2, b's tooth (k - 2, 1 - k)
at 2q - 2 and 2q - 1, and S[n] = S[n-q] + S[n-2q+2] - S[n-2q+1] after
that.  The shifted sums d_n = S(n) - (k(n-1)+2)/2^n have index period
q^2 - 1, so two blocks run past the table are checked against the first
two.  S and d are arrays of the narrowest machine word that holds p - 1,
built a block of q entries at a time, each block a few operations on
one int that holds it in lanes: O(q) int operations on ints of O(q)
words, and no Python step per entry.
The paper's route, a closed coefficient vector b (the expansion of a
product), the vector c derived from it and the identity
(z^q - z^(q-1) - 1) d(z) = c(z), is kept for residue_identity_holds,
which only `verify sums` runs: b is a comb with the same two teeth at
each multiple of q - 1, the first part of c is runs of equal entries,
and the mixer polynomial is its defining sum, by Horner's rule in
z - 1.  The one large product, mixer * b, is q + 1 shifted copies of
mixer * (b_0 + b_1 z), slice-added to the first part, so c costs O(q^2)
list work and reads only b's tooth; the left side is three shifted
copies of d.
sums_bruteforce is the oracle: every kind is read off one pass per field
that walks U_n(x) to its period for one x per Frobenius orbit and sums
the orbits' traces.  Sum tables need odd characteristic; _b_tooth, which
every table reads, refuses p = 2.
"""

import sys
from array import array
from functools import lru_cache, reduce
from itertools import chain, cycle
from operator import add

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


def _mixer(q, p):
    """z^(2(q-1)) + sum_{m=1}^{q-1} (z-1)^(q-1-m) z^(2m) (1/4)^m, degree
    2q - 2, by Horner's rule in z - 1: O(q^2) list work."""
    inv4, r, mixer = pow(4, -1, p), 1, [0]
    for m in range(1, q):
        r = r * inv4 % p
        # mixer <- mixer (z - 1) + 4^(-m) z^(2m)
        mixer = [(a - b) % p for a, b in zip([0] + mixer, mixer + [0])] + [r]
    mixer[-1] = (mixer[-1] + 1) % p
    return mixer


def c_coeffs(F, k):
    """Right-hand-side vector c, indices 0 .. q^2 + q - 1.

    c(z) = (1 + z^(q-1) - z^q) * (z + ... + z^(q^2-1)) - mixer(z) * b(z).
    The first product is 1 at degrees 1 .. q^2 - 1 except 2 at q, then
    -1 at q^2 + q - 1.  b is the comb of _b_tooth, so mixer * b is one
    2q-wide tooth, -mixer * (b_0 + b_1 z), slice-added at each of the
    q + 1 multiples of q - 1, and the sum is reduced mod p once: with
    _mixer's Horner sum, O(q) list passes of O(q) entries each.  The
    constant term must vanish and nothing may reach past degree
    q^2 + q - 1; both are checked.
    """
    q, p = F.q, F.p
    b0, b1 = _b_tooth(F, k)
    mixer = _mixer(q, p)
    tooth = [-(b0 * x + b1 * y) % p for x, y in zip(mixer + [0], [0] + mixer)]
    size, width = q * q + q, len(tooth)
    # room for the last tooth, so that a wrong mixer shows past the degree
    c = [0] + [1] * (q * q - 1) + [0] * (width - q)
    c[q], c[size - 1] = 2, -1
    for s in range(0, q * q - q + 1, q - 1):
        c[s:s + width] = map(add, c[s:s + width], tooth)
    c = [v % p for v in c]
    if c[0] != 0:
        raise InternalCheckError("c-vector constant term is nonzero")
    if any(c[size:]):
        raise InternalCheckError("c-vector degree exceeds its bound")
    return c[:size]


# -- the table -------------------------------------------------------------
#
# S and d are built in blocks, each block held as one int: with entries
# of s bytes, entry j of a block sits in lane j, bits 16 s j to
# 16 s j + 16 s - 1, so a lane holds a sum of three entries plus p with
# room to spare, and one int operation acts on every lane at once
# without a carry into the next.


def _typecode(p):
    """The narrowest unsigned array typecode whose items hold 0 .. p - 1:
    'B' up to p = 256 and 'H' up to p = 65536.  A table that can be
    indexed has p < 2^32 (_recurring_sums refuses the rest), which 'L',
    of at least 4 bytes, always holds."""
    return next(tc for tc in "BHIL" if p - 1 < 1 << 8 * array(tc).itemsize)


def _byte_offsets(size):
    """Where an item's bytes lie in an array's raw bytes, least
    significant first."""
    offsets = range(size)
    return offsets if sys.byteorder == "little" else offsets[::-1]


def _lanes(items):
    """The int whose lane j holds items[j], for an array of entries."""
    size = items.itemsize
    raw, wide = items.tobytes(), bytearray(2 * size * len(items))
    for i, j in enumerate(_byte_offsets(size)):
        wide[i::2 * size] = raw[j::size]
    return int.from_bytes(wide, "little")


def _extend(out, lanes, count):
    """Append the first count lanes of lanes, each below 2^(8 s), to the
    array out of itemsize s."""
    size = out.itemsize
    wide = lanes.to_bytes(2 * size * count, "little")
    raw = bytearray(size * count)
    for i, j in enumerate(_byte_offsets(size)):
        raw[j::size] = wide[i::2 * size]
    out.frombytes(raw)


def _lane_constants(p, size, count):
    """(bits, ones, bias) for count lanes of an array of itemsize size:
    the bits of a lane, 1 in every lane, and 2^(bits - 1) - p in every
    lane.  A lane t below 2^(bits - 1) + p has bit bits - 1 of t + bias
    set exactly when t >= p, so t - p ((t + bias) >> (bits - 1) & ones)
    takes p off the lanes at or above p."""
    bits = 16 * size
    ones = int.from_bytes((b"\1" + bytes(2 * size - 1)) * count, "little")
    return bits, ones, ((1 << bits - 1) - p) * ones


def _shifted_sums(p, k, S):
    """d[n] = S[n] - (k(n-1) + 2)/2^n mod p, with d[0] held at 0, as an
    array of _typecode(p), for any sequence S of ints below p.

    The offsets, the values at x = 1/4, are ints below p on any field of
    characteristic p.  S is taken in blocks of w entries, w the largest
    power of p with w^2 <= len(S) (q for a table), at least p, or all of
    S when it is shorter.  Since p divides w and 2^w = 2 mod p, the
    offset at n + w is the offset at n halved mod p.  So the negated
    offsets of the first block, built by a running power of 1/2, give
    each next block's by halving every lane, (x + p (x & 1)) >> 1 (x + p
    is even for odd x), and a block of d is the lanes of S plus them,
    in [0, 2p - 2], reduced once.
    """
    tc = _typecode(p)
    w = p
    while (w * p) ** 2 <= len(S):
        w *= p
    w = min(w, len(S))              # one block when S is shorter than p
    inv2, r, first = pow(2, -1, p), 1, []
    for n in range(w):
        first.append(-(k * (n - 1) + 2) * r % p)
        r = r * inv2 % p
    d = array(tc)
    bits, ones, bias = _lane_constants(p, d.itemsize, w)
    neg = _lanes(array(tc, first))
    for lo in range(0, len(S), w):
        part = array(tc, S[lo:lo + w])
        if len(part) < w:
            neg &= (1 << bits * len(part)) - 1
        t = _lanes(part) + neg
        t -= (t + bias >> bits - 1 & ones) * p
        _extend(d, t, len(part))
        neg = (neg + (neg & ones) * p) >> 1
    d[0] = 0
    return d


class SumTable:
    """All full-field sums of one (field, kind) pair for 1 <= n < q^2.

    sums[n] and d[n] are prime-subfield scalars, held as arrays of
    _typecode(p): indexing, slicing, iteration and len read them as
    ints, and a slice compares equal to a list only as .tolist().
    Index 0 is the n = 0 member, whose sum is identically 0 (a constant
    summed q times), and d[0] is held at 0 with it.
    """

    __slots__ = ("field", "k", "d", "sums")

    def __init__(self, field, k, d, sums):
        self.field, self.k, self.d, self.sums = field, k, d, sums


def _recurring_sums(q, p, tooth):
    """S[0 .. q^2 + 2q - 1] as an array of _typecode(p): zero below
    2q - 2, the tooth at 2q - 2 and 2q - 1, then
    S[n] = S[n-q] + S[n-2q+2] - S[n-2q+1].  The lags all reach below a
    block of q entries, so a block is a few operations on the lanes of
    the two blocks before it: their sum plus p per lane, in [1, 3p - 2],
    reduced twice.  A table too large to index is refused before
    anything is built."""
    size = q * q + 2 * q
    if size > sys.maxsize:
        raise ValueError(f"a sum table over GF({q}) has {size} entries, "
                         f"more than the {sys.maxsize} an array can index")
    S = array(_typecode(p), [0]) * (2 * q - 2)
    S.fromlist(tooth)
    bits, ones, bias = _lane_constants(p, S.itemsize, q)
    shift, block = bits * q, (1 << bits * q) - 1
    window = _lanes(S)              # the lanes of S[lo - 2q .. lo - 1]
    for _ in range(q):
        last = window >> shift
        # lane j: S[lo+j-q] + S[lo+j-2q+2] + p - S[lo+j-2q+1]
        t = last + (window >> 2 * bits & block) + p * ones - (
            window >> bits & block)
        t -= (t + bias >> bits - 1 & ones) * p
        t -= (t + bias >> bits - 1 & ones) * p
        _extend(S, t, q)
        window = last | t << shift
    return S


def sums_via_recurrence(F, k):
    """Build the SumTable from S's three-term recurrence, and d from S
    minus the offsets (k(n-1)+2)/2^n, the values at x = 1/4.

    Over x, the product of (c + x e) is c^q - c e^(q-1) and the sum of
    its quotients by c + x e is -e^(q-1); with c = 1 - z and e = z^2 the
    sum over x of ((2 - k) + (k - 1) z) / (1 - z + x z^2), S's series,
    is (k - 2 + (1 - k) z) z^(2q-2) / (1 - z^q - z^(2q-2) + z^(2q-1)).
    Every x != 1/4 has index period q^2 - 1 for n >= 1 and x = 1/4
    gives only the offsets, so d[q^2 + j] = d[j + 1]: the recurrence
    runs two blocks past the table, so that the check for j < 2q reaches
    the seeds, and InternalCheckError reports a break.  sums_bruteforce
    is the independent oracle.
    """
    q, p = F.q, F.p
    k %= p
    S = _recurring_sums(q, p, _b_tooth(F, k))
    d = _shifted_sums(p, k, S)
    if d[q * q:] != d[1:2 * q + 1]:
        raise InternalCheckError("sum recurrence breaks the period q^2 - 1")
    del S[q * q:], d[q * q:]
    return SumTable(F, k, d, S)


def _u_columns(F):
    """(x, m, column) for x the least element of each Frobenius orbit
    {x, x^p, ..., x^(p^(m-1))} of GF(q), where U_0 = 0, U_1 = 1 and
    U_n = U_{n-1} - x U_{n-2}: the coefficients lie in GF(p), so the
    column of x^p is the p-th power of x's, and m | e.

    x walks its state (U_n, U_{n+1}) from (0, 1) until it comes back,
    and its column is U_0(x) .. U_{T-1}(x) for the period T so detected
    (the step is invertible for x != 0); or until q^2 + 1 terms are out,
    when the column is U_0(x) .. U_{q^2}(x): x = 0 has U_n = 1 for every
    n >= 1 and never comes back.  Reads only F.pow, F.add, F.mul, F.neg
    and the recurrence: a step is one lookup in a local add list of q^2
    entries and one in x's list of the -x v.
    """
    q, p = F.q, F.p
    size = q * q + 1
    plus = [F.add(a, b) for a in F.elements() for b in F.elements()]
    for x in F.elements():
        orbit = [x]
        while (y := F.pow(orbit[-1], p)) != x:
            orbit.append(y)
        if min(orbit) < x:
            continue                # walked at its least element
        nx = F.neg(x)
        times = [F.mul(nx, v) for v in F.elements()]
        col, u, w = [], 0, 1
        append = col.append
        for _ in range(size):
            append(u)
            u, w = w, plus[w * q + times[u]]
            if w == 1 and not u:
                break
        yield x, len(orbit), col


# re-read: verify sums reads one field's column sums for every kind
@lru_cache(maxsize=1)
def u_column_sums(F):
    """A[n] = sum over x in GF(q) of U_n(x) for n = 0 .. q^2, a tuple of
    ints in range(p) (the encodings of GF(p)), from _u_columns.

    The orbit of x adds the trace of U_n(x) from GF(p^m) to GF(p), so a
    column is read through a table of that trace, built once per m; for
    m = 1 it is the identity, and the column is read as it is.  Columns
    of equal length are summed into one array('Q'), 8 bytes an entry,
    each sum is tiled to q^2 + 1 terms once and dropped, and the total
    is reduced mod p: about sum over orbits of min(period, q^2 + 1)
    Python steps.  Kept for the last field alone.
    """
    p, traces, groups = F.p, {}, {}
    for _, m, col in _u_columns(F):
        if m not in traces:
            traces[m] = [reduce(F.add, [F.pow(v, p ** i) for i in range(m)])
                         for v in F.elements()]
        share = col if m == 1 else map(traces[m].__getitem__, col)
        acc = groups.get(len(col))
        groups[len(col)] = array("Q", share if acc is None
                                 else map(add, acc, share))
    total = [0] * (F.q * F.q + 1)
    while groups:
        total = list(map(add, total, cycle(groups.popitem()[1])))
    return tuple(t % p for t in total)


def sums_bruteforce(F, k):
    """Oracle: S[n] = sum over x of D(n,k; 1,x) for n < q^2.

    D(n,k; 1,x) = (k - 1) U_n(x) + (2 - k) U_{n+1}(x): both sides obey
    the recurrence v_n = v_{n-1} - x v_{n-2} and agree at n = 0 and 1.  So
    every kind is read off the one U pass of u_column_sums, ints mod p,
    with no index reduction, special point or closed shape.
    """
    A, p = u_column_sums(F), F.p
    return [((k - 1) * a + (2 - k) * b) % p for a, b in zip(A, A[1:])]


def residue_identity_holds(table, brute):
    """Check the paper's identity (z^q - z^(q-1) - 1) * d(z) = c(z),
    with c = c_coeffs(F, k), built here, and d from the brute-force sums
    brute = sums_bruteforce(F, k), not from the table.  The left side is
    three shifted copies of d, as long as c: q^2 + q entries."""
    F, k = table.field, table.k
    q, p = F.q, F.p
    d = _shifted_sums(p, k, brute)
    lhs = [(a - b - c) % p for a, b, c in zip(
        chain([0] * q, d), chain([0] * (q - 1), d, [0]), chain(d, [0] * q))]
    return lhs == c_coeffs(F, k)
