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
built together a block of q entries at a time, each block a few
operations on one int that holds it in lanes: O(q) int operations on
ints of O(q) words, and no Python step per entry.
The oracle that checks a table, sums_bruteforce with d by its
definition (shifted_sums) and the paper's residue identity, is the
module sumoracle.  Its names, listed under "sumoracle" in
rdickson._HOMES, are read through this module, whose __getattr__ (the
package's _loader) imports sumoracle on first use (PEP 562), so a table
built without --check never compiles the code that checks it.
Sum tables need odd characteristic; _b_tooth refuses p = 2.
"""

import sys
from array import array

from . import _loader
from .gf import InternalCheckError

__getattr__ = _loader(globals(), ("sumoracle",))


def _b_tooth(F, k):
    """b's tooth [(k - 2) mod p, (1 - k) mod p], the pair of b_coeffs at
    every multiple of q - 1.  Sum tables need odd characteristic, so
    p = 2 raises ValueError."""
    if F.p == 2:
        raise ValueError("sum tables need odd characteristic")
    return [(k - 2) % F.p, (1 - k) % F.p]


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


def _halving(p):
    """1, 1/2, 1/4, ... mod p, the running power of 1/2 in the offsets
    (k(n-1) + 2)/2^n, the values at x = 1/4, that the table's first
    block of d and the oracle's d read."""
    inv2, r = pow(2, -1, p), 1
    while True:
        yield r
        r = r * inv2 % p


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


def _recurring_sums(q, p, tooth, k):
    """S[0 .. q^2 + 2q - 1] and d beside it, as two arrays of
    _typecode(p): S is zero below 2q - 2, the tooth at 2q - 2 and
    2q - 1, then S[n] = S[n-q] + S[n-2q+2] - S[n-2q+1].  The lags all
    reach below a block of q entries, so a block is a few operations on
    the lanes of the two blocks before it (zero before S, so the first
    two come out 0 and take the tooth): their sum plus p per lane, in
    [1, 3p - 2], reduced twice.  That block of d is it plus the negated
    offsets, in [0, 2p - 2], reduced once.  Since p divides q and
    2^q = 2 mod p, the next block's offsets are these halved lane by
    lane, (x + p (x & 1)) >> 1 (x + p is even for odd x), from a first
    block built by _halving.  A table too large to index is refused
    before anything is built."""
    size = q * q + 2 * q
    if size > sys.maxsize:
        raise ValueError(f"a sum table over GF({q}) has {size} entries, "
                         f"more than the {sys.maxsize} an array can index")
    S, d = array(_typecode(p)), array(_typecode(p))
    bits, ones, bias = _lane_constants(p, S.itemsize, q)
    shift, block = bits * q, (1 << bits * q) - 1
    seeds = (tooth[0] | tooth[1] << bits) << bits * (2 * q - 2)
    neg = _lanes(array(S.typecode, [-(k * (n - 1) + 2) * h % p
                                    for n, h in zip(range(q), _halving(p))]))
    window = 0                      # the lanes of S[lo - 2q .. lo - 1]
    for _ in range(q + 2):
        last = window >> shift
        # lane j: S[lo+j-q] + S[lo+j-2q+2] + p - S[lo+j-2q+1]
        t = last + (window >> 2 * bits & block) + p * ones - (
            window >> bits & block)
        t -= (t + bias >> bits - 1 & ones) * p
        t -= (t + bias >> bits - 1 & ones) * p
        t += seeds & block
        seeds >>= shift
        _extend(S, t, q)
        window = last | t << shift
        t += neg
        t -= (t + bias >> bits - 1 & ones) * p
        _extend(d, t, q)
        neg = (neg + (neg & ones) * p) >> 1
    d[0] = 0
    return S, d


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
    S, d = _recurring_sums(q, p, _b_tooth(F, k), k)
    if d[q * q:] != d[1:2 * q + 1]:
        raise InternalCheckError("sum recurrence breaks the period q^2 - 1")
    del S[q * q:], d[q * q:]
    return SumTable(F, k, d, S)
