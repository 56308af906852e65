"""Evaluators for a three-parameter Dickson-type polynomial family.

The family D(n, k; a, x) is indexed by a degree n >= 0 and a kind
parameter k; over a field of characteristic p only k mod p matters.
With a = 1 the values satisfy v_0 = 2 - k, v_1 = 1 and the two-term
recurrence v_m = v_{m-1} - x * v_{m-2}, and the k-th member is the
integer combination k * (second kind) - (k - 1) * (first kind) of the
two classical kinds.  Each evaluator below is an independent route to
the same values, kept separate so they can be cross-checked:

  eval_definition   integer coefficient row (any characteristic, any a)
  eval_recurrence   Lucas index doubling after reduction mod q^2 - 1
  eval_functional   through the parameter y with y(1 - y) = x, which
                    lies on GF(q) or on the line V of GF(q^2)
  eval_via_fnk      half-scaled integer form evaluated at 1 - 4x
  closed_form       closed values for indices p^l, p^l + 1, p^l + 2

char2_eval is eval_definition behind a characteristic-2 check, and
eval_a0, the closed value at a = 0, is what eval_recurrence returns at
a = 0; neither is a route of its own.  The integer-row routes
(eval_definition and eval_via_fnk) build their rows exactly over the
integers and only then reduce them mod p.  A row is walked from its
first entry by the exact ratio of neighbouring binomials, a few big-int
multiplies and exact divisions per entry.  The family row, the fnk row
and its reduction mod p keep ROW_CACHE_SIZE rows each, for callers that
read one row at many points x.  The other routes, and as_polynomial
(interpolated from the q values of eval_recurrence), compute in the
field throughout.  No route divides by a quantity that can vanish.
"""

from functools import lru_cache

from . import gf, modpoly

# Every caller that reads a row twice reads one (n, k) over many x; the
# CLI reads each row once.  One row per cache serves that reuse.
ROW_CACHE_SIZE = 1


# -- polynomial value types ---------------------------------------------


def _format_terms(parts):
    """Join (coeff_text, degree, negative) triples into a readable sum."""
    if not parts:
        return "0"
    out = []
    for text, deg, negative in parts:
        var = "" if deg == 0 else ("x" if deg == 1 else f"x^{deg}")
        if text == "1" and var:
            text = ""
        body = f"{text}{'*' if text and var and text[-1] == ')' else ''}{var}" or "1"
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"{'-' if negative else '+'} {body}")
    return " ".join(out)


class IntPolynomial:
    """Dense integer polynomial; coeffs run from the constant term up
    and are kept canonical (no trailing zeros).  Equal coefficients
    make equal polynomials."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(modpoly.trim(coeffs))

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self):
        # decimal strings: the coefficients outgrow fixed-width ints fast
        return {"coeffs": [str(c) for c in self.coeffs]}

    def __str__(self):
        parts = [(str(abs(c)), i, c < 0)
                 for i, c in enumerate(self.coeffs) if c]
        return _format_terms(parts)


class FieldPolynomial:
    """Dense polynomial with coefficients in a field, canonical form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(modpoly.trim(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        F, acc = self.field, 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def to_json(self):
        F = self.field
        return {"field": gf.field_descriptor(F),
                "coeffs": [list(F.coeffs(c)) for c in self.coeffs]}

    def __str__(self):
        F = self.field
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            text = str(c) if F.e == 1 else "(" + ",".join(map(str, F.coeffs(c))) + ")"
            parts.append((text, i, False))
        return _format_terms(parts)


# -- integer coefficient rows -------------------------------------------


def second_kind_weights(n):
    """Integer row of the second kind: w[i] = C(n-i, i).

    Built by the exact ratio C(n-i-1, i+1) = C(n-i, i) (n-2i)(n-2i-1)
    / ((i+1)(n-i)), one big-int step per entry.
    """
    c, row = 1, [1]
    for i in range(n // 2):
        c = c * (n - 2 * i) * (n - 2 * i - 1) // ((i + 1) * (n - i))
        row.append(c)
    return tuple(row)


def first_kind_weights(n):
    """Integer row of the first kind: value = sum_i w[i] (-x)^i a^(n-2i).

    w[i] = C(n-i, i) + C(n-i-1, i-1): the second-kind row of n plus
    that of n - 2 shifted up one place.
    """
    if n == 0:
        return (2,)
    shifted = (0,) + second_kind_weights(n - 2)
    return tuple(s + t for s, t in zip(second_kind_weights(n), shifted))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def family_weights(n, k):
    """Row of the k-th member, k * second - (k-1) * first over Z:
    w[i] = C(n-i, i) + (1 - k) C(n-i-1, i-1)."""
    if n == 0:
        return (2 - k,)
    # C(n-i-1, i-1) = C(n-i, i) i / (n-i), exactly
    return tuple(s + (1 - k) * (s * i // (n - i))
                 for i, s in enumerate(second_kind_weights(n)))


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


def value_at_quarter(F, n, k):
    """The constant (k(n-1) + 2) / 2^n the family takes at x = 1/4."""
    num = (k * ((n - 1) % F.p) + 2) % F.p
    return F.mul(num, F.inv(F.pow(F.from_int(2), n)))


def eval_a0(F, n, k, x):
    """a = 0 closed value: 0 for odd n, (2 - k)(-x)^l for n = 2l."""
    if n % 2:
        return 0
    return F.mul(F.from_int(2 - (k % F.p)), F.pow(F.neg(x), n // 2))


def eval_recurrence(F, n, k, x, a=1):
    """Two-term recurrence with index reduction mod q^2 - 1.

    For a = 1 and x != 1/4 the value depends only on n mod (q^2 - 1)
    once n >= 1; the excluded point x = 1/4 takes its closed constant
    instead.  The reduced index is reached by index doubling on the
    Lucas sequence U_0 = 0, U_1 = 1, U_m = U_{m-1} - x U_{m-2}:

        U_{2m} = U_m (2 U_{m+1} - U_m),  U_{2m+1} = U_{m+1}^2 - x U_m^2,

    and v_n = U_n - x (2 - k) U_{n-1}, so any index costs O(log q)
    field ops in every characteristic.  Other a reduce to a = 1 by
    D(n,k; a,x) = a^n * D(n,k; 1, x/a^2), which holds in every
    characteristic; a = 0 is routed to eval_a0.
    """
    k %= F.p
    if a == 0:
        return eval_a0(F, n, k, x)
    if a != 1:
        inner = eval_recurrence(F, n, k, F.mul(x, F.inv(F.mul(a, a))))
        return F.mul(F.pow(a, n), inner)
    if F.p != 2 and x == F.quarter:
        return value_at_quarter(F, n, k)
    if n == 0:
        return F.from_int(2 - k)
    m = (n - 1) % (F.q * F.q - 1)
    # (u, w) = (U_j, U_{j+1}), doubled down the bits of m to j = m = n - 1
    u, w = 0, 1
    for bit in bin(m)[2:]:
        u, w = (F.mul(u, F.sub(F.add(w, w), u)),
                F.sub(F.mul(w, w), F.mul(x, F.mul(u, u))))
        if bit == "1":
            u, w = w, F.sub(w, F.mul(x, u))
    return F.sub(w, F.mul(F.mul(x, F.from_int(2 - k)), u))


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


@lru_cache(maxsize=gf.EXT_CACHE_SIZE)
def _principal_y(ext, x):
    # pure in (ext, x); bounded like quadratic_extension, since every key
    # keeps its extension and that extension's tables alive
    return min(gf.solve_y(ext, x), key=ext.coeffs)


def functional_map(ext, n, k, y):
    """k (y^n (1-y) - y (1-y)^n)/(2y-1) + y^n + (1-y)^n, a base element.

    Defined for y != 1/2 on the base line GF(q) or on the fixed line of
    the q-power map, V = {y : y^q = 1 - y} = {1/2 + t s}: the points
    the permutation counting argument feeds it, and the only ones
    gf.solve_y returns.  On GF(q) the formula is evaluated in GF(q).  On
    V, 1 - y is the conjugate of y, so y^n = A + B s gives
    (1 - y)^n = A - B s, and the value is (2 - k) A + k B / (2t): one
    power in GF(q^2), a few lookups with the extension's coset tables.
    Any other y of GF(q^2) raises ValueError.
    """
    F = ext.base
    k %= F.p
    t, y0 = divmod(y, ext.q)
    if t:
        if y0 != F.half:
            raise ValueError(f"y = {ext.coeffs(y)} lies on neither GF(q) "
                             "nor V")
        b, a = divmod(ext.pow(y, n), ext.q)
        return F.add(F.mul(F.from_int(2 - k), a),
                     F.mul(k, F.mul(b, F.inv(F.add(t, t)))))
    z = F.sub(1, y)
    yn, zn = F.pow(y, n), F.pow(z, n)
    num = F.sub(F.mul(yn, z), F.mul(y, zn))
    den = F.sub(F.add(y, y), 1)
    return F.add(F.mul(k, F.mul(num, F.inv(den))), F.add(yn, zn))


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


@lru_cache(maxsize=ROW_CACHE_SIZE)
def fnk_coeffs(n, k):
    """Integer polynomial f with D(n,k; 1,x) = (1/2)^n f(1 - 4x), odd p.

    For n >= 1, f(t) = k * sum_j C(n-1, 2j+1) (t^j - t^(j+1))
    + 2 * sum_j C(n, 2j) t^j; the index-0 member is the constant 2 - k.
    C(n, i) is stepped by the exact ratio (n-i)/(i+1), and C(n-1, i) is
    C(n, i) (n-i)/n, straight into f.  Exact over the integers (k
    enters linearly, so reducing k mod p first changes nothing mod p).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return IntPolynomial((2 - k,))
    out = [0] * (n // 2 + 2)
    c = 1                                       # C(n, 2j)
    for j in range(n // 2 + 1):
        odd = c * (n - 2 * j) // (2 * j + 1)    # C(n, 2j+1)
        step = odd * (n - 2 * j - 1)
        d = k * (step // n)                     # k C(n-1, 2j+1)
        out[j] += 2 * c + d
        out[j + 1] -= d
        c = step // (2 * j + 2)                 # C(n, 2j+2)
    return IntPolynomial(tuple(out))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _fnk_row_mod(n, k, p):
    return tuple(c % p for c in fnk_coeffs(n, k).coeffs)


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
    on all of GF(q) (odd p).

    Interpolated from the q values f(a) of eval_recurrence through
    f = sum_a f(a) (1 - (x - a)^(q-1)): the constant coefficient is
    f(0) and, for j >= 1, c_j = -sum_a f(a) a^(q-1-j) with 0^0 = 1.
    That is O(q log q) field ops for the values and O(q^2) for the sums.
    """
    if F.p == 2:
        raise ValueError("as_polynomial needs odd characteristic")
    k %= F.p
    q = F.q
    # sums[i] = sum_a f(a) a^i for i < q - 1; c_j = -sums[q - 1 - j]
    sums = [0] * (q - 1)
    f0 = sums[0] = eval_recurrence(F, n, k, 0)
    for a in range(1, q):
        t = eval_recurrence(F, n, k, a)
        for i in range(q - 1):
            sums[i] = F.add(sums[i], t)
            t = F.mul(t, a)
    return FieldPolynomial(F, (f0,) + tuple(F.neg(s) for s in reversed(sums)))
