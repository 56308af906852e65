"""The independent oracle of the sum tables, and the paper's identity.

sums_bruteforce is the oracle: every kind is read off one pass per field
that walks U_n(x) to its period for one x per Frobenius orbit and sums
the orbits' traces, and shifted_sums takes d from it by d's definition.
It shares no code with charsum's table but b's tooth, the typecode and
the running power of 1/2.
The paper's route, a closed coefficient vector b (the expansion of a
product), the vector c derived from it and the identity
(z^q - z^(q-1) - 1) d(z) = c(z), is kept for residue_identity_holds,
which only `verify sums` runs: b is a comb with the same two teeth at
each multiple of q - 1, the first part of c is runs of equal entries,
and the mixer polynomial is its defining sum, by Horner's rule in
z - 1.  The one large product, mixer * b, is q + 1 shifted copies of
mixer * (b_0 + b_1 z), slice-added to the first part, so c costs O(q^2)
list work and reads only b's tooth; the left side is three shifted
copies of the oracle's d.
The public names here are listed under "sumoracle" in rdickson._HOMES,
and charsum resolves them on first use (PEP 562).  The package calls
them through charsum, so only sums --check and verify sums load this
module.
"""

from array import array
from functools import lru_cache, reduce
from itertools import chain, cycle, islice
from operator import add, mul

from .charsum import _b_tooth, _halving, _typecode
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
    sum_{j=0}^{q} z^(j(q-1)): a comb of _b_tooth at the multiples of
    q - 1.  The tests hold it to the digit formula of the paper.
    """
    tooth = _b_tooth(F, k)
    return (tooth + [0] * (F.q - 3)) * F.q + tooth


# -- the c vector ----------------------------------------------------------


# re-read: verify sums builds c for every kind of one field
@lru_cache(maxsize=1)
def _mixer(q, p):
    """z^(2(q-1)) + sum_{m=1}^{q-1} (z-1)^(q-1-m) z^(2m) (1/4)^m, degree
    2q - 2, by Horner's rule in z - 1: O(q^2) list work.  It reads only
    q and p, so it is built once per field, as a tuple, which its
    callers share."""
    inv4, r, mixer = pow(4, -1, p), 1, [0]
    for m in range(1, q):
        r = r * inv4 % p
        # mixer <- mixer (z - 1) + 4^(-m) z^(2m)
        mixer = [(a - b) % p for a, b in zip([0] + mixer, mixer + [0])] + [r]
    mixer[-1] = (mixer[-1] + 1) % p
    return tuple(mixer)


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
    tooth = [-(b0 * x + b1 * y) % p for x, y in zip((*mixer, 0), (0, *mixer))]
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


# -- the sums --------------------------------------------------------------


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


def shifted_sums(p, k, S):
    """Oracle: d[n] = S[n] - (k(n-1) + 2)/2^n mod p, d[0] held at 0, for
    any sequence S of ints below p, as an array of _typecode(p), by the
    definition: k(n-1) + 2 has period p and 2^(-n) period p - 1 mod p,
    so one period of each is cycled along S.  It shares no lane code
    with the table's d."""
    offsets = map(mul, cycle([(k * (n - 1) + 2) % p for n in range(p)]),
                  cycle(islice(_halving(p), p - 1)))
    d = array(_typecode(p), [(s - o) % p for s, o in zip(S, offsets)])
    d[0] = 0
    return d


def residue_identity_holds(table, d):
    """Check the paper's identity (z^q - z^(q-1) - 1) * d(z) = c(z),
    with c = c_coeffs(F, k), built here, and d the oracle's shifted
    sums, shifted_sums(p, k, sums_bruteforce(F, k)), not the table's.
    The left side is three shifted copies of d, as long as c: q^2 + q
    entries."""
    F, k = table.field, table.k
    q, p = F.q, F.p
    lhs = [(a - b - c) % p for a, b, c in zip(
        chain([0] * q, d), chain([0] * (q - 1), d, [0]), chain(d, [0] * q))]
    return lhs == c_coeffs(F, k)
