"""Evaluators for a three-parameter Dickson-type polynomial family.

The family D(n, k; a, x) is indexed by a degree n >= 0 and a kind
parameter k; over a field of characteristic p only k mod p matters.
With a = 1 the values satisfy v_0 = 2 - k, v_1 = 1 and the two-term
recurrence v_m = v_{m-1} - x * v_{m-2}, and the k-th member is the
integer combination k * (second kind) - (k - 1) * (first kind) of the
two classical kinds.  Each evaluator below is an independent route to
the same values, kept separate so they can be cross-checked:

  eval_definition   integer coefficient row (any characteristic, any a)
  eval_recurrence   Lucas index doubling after reduction mod p(q^2 - 1)
  eval_functional   through the parameter y with y(1 - y) = x, which
                    lies on GF(q) or on the line V of GF(q^2)
  eval_via_fnk      half-scaled integer form evaluated at 1 - 4x
  closed_form       closed values for indices p^l, p^l + 1, p^l + 2
  eval_matrix       the defining recurrence as a 2x2 matrix power on
                    the unreduced index (any characteristic, any a)

char2_eval is eval_definition behind a characteristic-2 check, and
eval_a0, the closed value at a = 0, is what eval_recurrence returns at
a = 0; neither is a route of its own.  The integer-row routes
(eval_definition and eval_via_fnk) build their rows exactly over the
integers and only then reduce them mod p.  A row is walked from its
first entry by the exact ratio of neighbouring binomials, a few big-int
multiplies and exact divisions per entry; the rows of the two
classical kinds are the family's rows at k = 1 and k = 0.  Every
command reads each row once, so a row is built per call and dropped
when its route returns.  The other routes, and
as_polynomial (interpolated from the q values of one recurrence_row by a
transform over GF(q)* on the powers of the field's generator), compute
in the field throughout.  A caller that reads a row at many points x
takes it as a function: the row kernels recurrence_row(F, n, k, a) and
functional_row(ext, n, k), with value_at_quarter and eval_a0, live in
rowkernels and are re-exported here; eval_recurrence and functional_map are
their values at one point.  No route divides by a quantity that can
vanish.  fnk_coeffs and as_polynomial return bare coefficient tuples;
the CLI writes them as terms.
"""

from functools import lru_cache

from . import gf, modpoly
from .rowkernels import (eval_a0, functional_row,  # noqa: F401
                         recurrence_row, value_at_quarter)

# the reduced rows that _fnk_row_mod keeps
ROW_CACHE_SIZE = 1


# -- integer coefficient rows -------------------------------------------


def second_kind_weights(n):
    """Integer row of the second kind, w[i] = C(n-i, i): the k = 1 member."""
    return family_weights(n, 1)


def first_kind_weights(n):
    """Integer row of the first kind, w[i] = C(n-i, i) + C(n-i-1, i-1):
    the k = 0 member."""
    return family_weights(n, 0)


def family_weights(n, k):
    """Row of the k-th member, k * second - (k-1) * first over Z:
    w[i] = C(n-i, i) + (1 - k) C(n-i-1, i-1).

    C(n-i, i) is walked by the exact ratio C(n-i, i) = C(n-i+1, i-1)
    (n-2i+2)(n-2i+1) / (i (n-i+1)), one big-int step per entry, and
    C(n-i-1, i-1) is C(n-i, i) i / (n-i), exactly.
    """
    if n == 0:
        return (2 - k,)
    c, row = 1, [1]
    for i in range(1, n // 2 + 1):
        c = c * (n - 2 * i + 2) * (n - 2 * i + 1) // (i * (n - i + 1))
        row.append(c + (1 - k) * (c * i // (n - i)))
    return tuple(row)


# -- evaluators ----------------------------------------------------------


def eval_definition(F, n, k, x, a=1):
    """Sum the integer coefficient row; any characteristic, any a.

    The value sum_i w[i] (-x)^i a^(n-2i) is summed by Horner's rule in
    a^2, then multiplied by a^(n % 2).
    """
    k %= F.p
    negx, a2, acc, xp = F.neg(x), F.mul(a, a), 0, 1
    for w in family_weights(n, k):
        acc = F.add(F.mul(acc, a2), F.mul(F.from_int(w), xp))
        xp = F.mul(xp, negx)
    return F.mul(acc, a) if n % 2 else acc


def eval_recurrence(F, n, k, x, a=1):
    """Two-term recurrence with index reduction mod p(q^2 - 1): the value
    of recurrence_row(F, n, k, a) at x."""
    return recurrence_row(F, n, k, a)(x)


def eval_matrix(F, n, k, x, a=1):
    """v_n from the defining recurrence v_m = a v_{m-1} - x v_{m-2},
    v_0 = 2 - k, v_1 = a, as a matrix power: for n >= 1, v_n is the
    first entry of M^(n-1) (a, 2 - k) with M = [[a, -x], [1, 0]].

    Square-and-multiply on the unreduced n, with no case of a or x:
    the route shares only the recurrence with eval_recurrence.
    """
    v0 = F.from_int(2 - k)
    if n == 0:
        return v0

    def times(m, w):
        (m00, m01, m10, m11), (w00, w01, w10, w11) = m, w
        return (F.add(F.mul(m00, w00), F.mul(m01, w10)),
                F.add(F.mul(m00, w01), F.mul(m01, w11)),
                F.add(F.mul(m10, w00), F.mul(m11, w10)),
                F.add(F.mul(m10, w01), F.mul(m11, w11)))
    m00, m01, _, _ = modpoly.power(times, (a, F.neg(x), 1, 0), n - 1,
                                   (1, 0, 0, 1))
    return F.add(F.mul(m00, a), F.mul(m01, v0))


def eval_functional(F, n, k, x):
    """Value through the extension parameter y with y(1 - y) = x:

        k * (y^n (1-y) - y (1-y)^n) / (2y - 1) + y^n + (1-y)^n,

    for x != 1/4 (there y = 1/2 and the closed constant applies).  The
    two admissible y are swapped by y -> 1 - y and give the same value;
    the one with the smaller coordinate vector is used.  That y lies on
    GF(q) or on V, where functional_map computes in GF(q), so the value
    lies in GF(q) by construction.  Odd p only.
    """
    if F.p == 2:
        raise ValueError("the functional route needs odd characteristic")
    k %= F.p
    if x == F.quarter:
        return value_at_quarter(F, n, k)
    ext = gf.quadratic_extension(F)
    return functional_map(ext, n, k, _principal_y(ext, x))


# no command re-reads a point; kept for the benchmark tracer's cache_info()
@lru_cache(maxsize=gf.EXT_CACHE_SIZE)
def _principal_y(ext, x):
    return min(gf.solve_y(ext, x), key=ext.coeffs)


def functional_map(ext, n, k, y):
    """k (y^n (1-y) - y (1-y)^n)/(2y-1) + y^n + (1-y)^n, a base element:
    the value of functional_row(ext, n, k) at y."""
    return functional_row(ext, n, k)(y)


def char2_eval(F, n, k, x, a=1):
    """The definition route, refusing any field of odd characteristic."""
    if F.p != 2:
        raise ValueError("char2_eval is for characteristic 2")
    return eval_definition(F, n, k, x, a)


# -- closed forms for indices near prime powers --------------------------


def _power_shape(p, n):
    """Return (delta, l) with n = p^l + delta, delta in {0,1,2}, or None."""
    for delta in (0, 1, 2):
        m = n - delta
        if m < 1:
            continue
        l = 0
        while m % p == 0:
            m //= p
            l += 1
        if m == 1:
            return delta, l
    return None


def closed_form(F, n, k, x):
    """Closed value for n of shape p^l, p^l + 1 or p^l + 2 (odd p).

    In terms of u = 1 - 4x:
      n = p^l:     (k/2) u^((p^l-1)/2) + 1 - k/2
      n = p^l + 1: (1/2 - k/4) u^((p^l+1)/2) + (k/4) u^((p^l-1)/2) + 1/2
      n = p^l + 2: (1/2) u^((p^l+1)/2) + (k/2) x u^((p^l-1)/2)
                   - (1 - k/2) x + 1/2
    Shapes are tried in that order; overlaps (n = 3 is both 3^1 and
    3^0 + 2 when p = 3) agree, so the order only picks the route.
    Raises ValueError for any other n.
    """
    if F.p == 2:
        raise ValueError("closed_form needs odd characteristic")
    shape = _power_shape(F.p, n)
    if shape is None:
        raise ValueError(f"n = {n} is not p^l, p^l+1 or p^l+2 for p = {F.p}")
    delta, l = shape
    k %= F.p
    half, quarter = F.half, F.quarter
    u = F.sub(1, F.mul(F.from_int(4), x))
    low = F.pow(u, (F.p ** l - 1) // 2)
    if delta == 0:
        kh = F.mul(k, half)
        return F.add(F.mul(kh, low), F.sub(1, kh))
    high = F.mul(low, u)
    if delta == 1:
        kq = F.mul(k, quarter)
        return F.add(F.add(F.mul(F.sub(half, kq), high), F.mul(kq, low)),
                     half)
    kh = F.mul(k, half)
    t = F.add(F.mul(half, high), F.mul(F.mul(kh, x), low))
    return F.add(F.sub(t, F.mul(F.sub(1, kh), x)), half)


# -- half-scaled integer form ---------------------------------------------


def fnk_coeffs(n, k):
    """Integer polynomial f with D(n,k; 1,x) = (1/2)^n f(1 - 4x), odd p,
    as its coefficient tuple from the constant term up, without
    trailing zeros (n = 0, k = 2 gives ()).

    For n >= 1, f(t) = k * sum_j C(n-1, 2j+1) (t^j - t^(j+1))
    + 2 * sum_j C(n, 2j) t^j; the index-0 member is the constant 2 - k.
    C(n, i) is stepped by the exact ratio (n-i)/(i+1), and C(n-1, i) is
    C(n, i) (n-i)/n, straight into f.  Exact over the integers (k
    enters linearly, so reducing k mod p first changes nothing mod p).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return (2 - k,) if k != 2 else ()
    out = [0] * (n // 2 + 2)
    c = 1                                       # C(n, 2j)
    for j in range(n // 2 + 1):
        odd = c * (n - 2 * j) // (2 * j + 1)    # C(n, 2j+1)
        step = odd * (n - 2 * j - 1)
        d = k * (step // n)                     # k C(n-1, 2j+1)
        out[j] += 2 * c + d
        out[j + 1] -= d
        c = step // (2 * j + 2)                 # C(n, 2j+2)
    return tuple(modpoly.trim(out))


# no command re-reads a row; kept for the benchmark tracer's cache_info()
@lru_cache(maxsize=ROW_CACHE_SIZE)
def _fnk_row_mod(n, k, p):
    return tuple(c % p for c in fnk_coeffs(n, k))


def eval_via_fnk(F, n, k, x):
    """Evaluate the half-scaled integer form at 1 - 4x (odd p)."""
    if F.p == 2:
        raise ValueError("the half-scaled route needs odd characteristic")
    k %= F.p
    t = F.sub(1, F.mul(F.from_int(4), x))
    acc = 0
    for c in reversed(_fnk_row_mod(n, k, F.p)):
        acc = F.add(F.mul(acc, t), c)
    return F.mul(acc, F.pow(F.half, n))


# -- generating series ----------------------------------------------------


def genfun_coeffs(F, k, x, count):
    """First `count` series coefficients of
    (2 - k + (k - 1) z) / (1 - z + x z^2) by linear series division."""
    if F.p == 2:
        raise ValueError("the series route needs odd characteristic")
    if count < 0:
        raise ValueError("count must be non-negative")
    k %= F.p
    num = [F.from_int(2 - k), F.from_int(k - 1)]
    den = [1, F.neg(1), x]          # unit constant term: direct division
    out = []
    for i in range(count):
        t = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            t = F.sub(t, F.mul(den[j], out[i - j]))
        out.append(t)
    return out


# -- reduced polynomial representative ------------------------------------


def as_polynomial(F, n, k):
    """The unique degree < q polynomial agreeing with x -> D(n,k; 1,x)
    on all of GF(q) (odd p), as its tuple of field elements from the
    constant term up, without trailing zeros.

    Interpolated from the q values f(a) of one recurrence_row through
    f = sum_a f(a) (1 - (x - a)^(q-1)): the constant coefficient is
    f(0) and, for j >= 1, c_j = -sum_a f(a) a^(q-1-j) with 0^0 = 1.
    Over a = g^j, g the generator of F.generator_powers(), the sums
    over GF(q)* are the length q - 1 transform of the values f(g^j) with
    root g.  That is O(q log q) field ops for the values and O(q s) for
    the sums, s the sum of the prime factors of q - 1 with multiplicity.
    """
    if F.p == 2:
        raise ValueError("as_polynomial needs odd characteristic")
    k %= F.p
    powers = F.generator_powers()
    # sums[i] = sum_a f(a) a^i for i < q - 1; c_j = -sums[q - 1 - j]
    row = recurrence_row(F, n, k)
    sums = _dft(F, [row(a) for a in powers], powers)
    f0 = row(0)
    sums[0] = F.add(sums[0], f0)
    return tuple(modpoly.trim(
        [f0] + [F.neg(s) for s in reversed(sums)]))


def _dft(F, xs, powers):
    """[sum_j xs[j] w^(ij) for i < m], m = len(xs), where powers lists
    w^0 .. w^(m-1) for a w of order m.

    Mixed radix: with f the smallest prime factor of m, the slices
    xs[s::f] are transformed with root w^f (powers[::f]), and then
    X_i = sum_s w^(si) Y_s[i mod m/f].  O(m (f - 1)) ops per level.
    """
    m = len(xs)
    if m == 1:
        return list(xs)
    f = next(d for d in range(2, m + 1) if m % d == 0)
    r = m // f
    ys = [_dft(F, xs[s::f], powers[::f]) for s in range(f)]
    out = ys[0] * f
    for s in range(1, f):
        y = ys[s]
        for i in range(m):
            out[i] = F.add(out[i], F.mul(powers[s * i % m], y[i % r]))
    return out
