"""Polynomial arithmetic over GF(p) for odd or even prime p.

Polynomials are lists of ints in [0, p), index = degree (constant term
first).  The zero polynomial is the empty list.  All functions return
canonical (trimmed) lists and never mutate their arguments.  mul skips
the zero terms of both operands, so a product costs nnz(a) * nnz(b)
multiply-adds plus one pass over the output list.
"""


def trim(c):
    """A new list of the coefficients of c without trailing zeros; c may
    be any iterable."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(c):
    """Degree of a canonical list, -1 for the zero polynomial."""
    return len(c) - 1


def add(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return trim(out)


def sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return trim(out)


def scale(a, s, p):
    s %= p
    return trim([(x * s) % p for x in a])


def shift(a, t):
    """Multiply by x**t."""
    if not a:
        return []
    return [0] * t + list(a)


def mul(a, b, p):
    if not a or not b:
        return []
    terms = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return trim([v % p for v in out])


def divmod_poly(a, b, p):
    """Quotient and remainder of a by b (b nonzero).  Works for any
    invertible leading coefficient."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], a
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        coef = (rem[i + db] * inv_lead) % p
        if coef:
            quo[i] = coef
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - coef * y) % p
    return trim(quo), trim(rem)


def mod(a, b, p):
    return divmod_poly(a, b, p)[1]


def mulmod(a, b, m, p):
    return mod(mul(a, b, p), m, p)


def power(mul, a, n, one):
    """a^n for n >= 0 by square-and-multiply over the product mul, whose
    identity is one; the package's one such loop."""
    result = one
    while n:
        if n & 1:
            result = mul(result, a)
        a = mul(a, a)
        n >>= 1
    return result


def powmod(a, n, m, p):
    """a**n mod m over GF(p), n >= 0, by repeated squaring."""
    return power(lambda u, v: mulmod(u, v, m, p), mod(a, m, p), n, [1])


def gcd(a, b, p):
    """Monic greatest common divisor."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, mod(a, b, p)
    if a:
        a = scale(a, pow(a[-1], -1, p), p)
    return a
