"""Row kernels: one member (n, k) of the family as a function of its point.

recurrence_row(F, n, k, a) and functional_row(ext, n, k) do a row's
fixed work once and per point call one kernel, which holds the loop
over the field's tables: lucas doubles the Lucas sequence of
T^2 - T + x to an index, and binet evaluates the same sequence from a
root y of that polynomial on GF(q), as QuadExt.binet (in quadext) does
on V.  Each has a body that holds values as logs and adds through the
Zech table or the coset tables, and one by the field's methods, used on
fields without tables; lucas has a third, ints mod p, for prime fields.
A zero, which has no log, keeps lucas in logs (held as None) but sends
binet to its methods body.  rdpoly's evaluators and permcheck's scans
both read the rows here, so a permutation scan loads none of rdpoly's
other routes, and sums and field-info load none of this module.
"""


def value_at_quarter(F, n, k):
    """The constant (k(n-1) + 2) / 2^n the family takes at x = 1/4.  It
    lies in the prime subfield, whose encodings are the ints below p;
    2^(p-1) = 1 there, so the power reads n mod p - 1 alone."""
    return (k * (n - 1) + 2) * pow(2, -n % (F.p - 1), F.p) % F.p


def eval_a0(F, n, k, x):
    """a = 0 closed value: 0 for odd n, (2 - k)(-x)^l for n = 2l."""
    if n % 2:
        return 0
    return F.mul(F.from_int(2 - k), F.pow(F.neg(x), n // 2))


def recurrence_row(F, n, k, a=1):
    """x -> D(n,k; a,x) by the two-term recurrence, the row's fixed work
    done once.

    With U_0 = 0, U_1 = 1, U_m = U_{m-1} - x U_{m-2}, the value at
    a = 1 is v_n = U_n - x (2 - k) U_{n-1}, which lucas reaches by
    index doubling down the bits of (n - 1) mod p(q^2 - 1),

        U_{2m} = U_m (2 U_{m+1} - U_m),  U_{2m+1} = U_{m+1}^2 - x U_m^2,

    so any index costs O(log q) field ops in every characteristic.  The
    modulus is a period of U at every x != 0, 1/4 included: a multiple of
    q^2 - 1 where T^2 - T + x has two roots, and of p(p - 1), the period
    of U_j = j / 2^(j-1), at the double root 1/2 of x = 1/4.
    Other a reduce to a = 1 by D(n,k; a,x) = a^n * D(n,k; 1, x/a^2),
    which holds in every characteristic; a = 0 is routed to eval_a0.
    """
    if a == 0:
        return lambda x: eval_a0(F, n, k, x)
    if a != 1:
        row, an = recurrence_row(F, n, k), F.pow(a, n)
        scale = F.inv(F.mul(a, a))
        return lambda x: F.mul(an, row(F.mul(x, scale)))
    c = F.from_int(2 - k)
    if n == 0:
        return lambda x: c
    m = (n - 1) % (F.p * (F.q * F.q - 1))
    if m == 0:
        return lambda x: 1
    bits = bin(m)[3:]
    return lambda x: lucas(F, x, bits, c)


def functional_row(ext, n, k):
    """y -> k (y^n (1-y) - y (1-y)^n)/(2y-1) + y^n + (1-y)^n, with n
    reduced once.

    Defined for y != 1/2 on the base line GF(q) or on the fixed line of
    the q-power map, V = {y : y^q = 1 - y} = {1/2 + t s}: the points
    the permutation counting argument feeds it, and the only ones
    gf.solve_y returns.  With z = 1 - y the value is Binet's form
    ((1 - c z) y^n - (1 - c y) z^n) / (y - z), c = 2 - k, of the
    recurrence's value at x = y z, which binet evaluates in GF(q).  On
    V, z is the conjugate of y, so y^n = A + B s gives z^n = A - B s,
    and ext.binet returns (2 - k) A + k B / (2t) from the extension's
    coset tables.  Any other y of GF(q^2) raises ValueError.
    """
    F, q = ext.base, ext.q
    c, half = F.from_int(2 - k), F.half
    # an n >= 1 stays >= 1, so that 0^n = 0
    n = (n - 1) % (ext.size - 1) + 1 if n else 0

    def row(y):
        if y < q:
            return binet(F, y, n, c)
        if y % q != half:
            raise ValueError(f"y = {ext.coeffs(y)} lies on neither GF(q) "
                             "nor V")
        return ext.binet(y, n, c)
    return row


# -- the per-point kernels: the Lucas sequence of T^2 - T + x in GF(q) --


def lucas(F, x, bits, c):
    """U_(j+1) - c x U_j, for U_0 = 0, U_1 = 1, U_i = U_(i-1) - x U_(i-2)
    and bits the binary digits of j >= 1 after its leading 1.

    (U_j, U_(j+1)) is doubled down the bits from (U_1, U_2) = (1, 1):
    U_2i = U_i (2 U_(i+1) - U_i), U_(2i+1) = U_(i+1)^2 - x U_i^2.
    Prime fields step ints mod p, faster there than logs.  With a
    Zech table the pair is held as logs, so a product is a sum and a
    sum one Zech lookup; a term 0 has no log and is held as None.
    Fields without tables step by add, sub and mul.
    """
    if F.e == 1:
        p = F.p
        u = w = 1
        for bit in bits:
            u, w = u * (w + w - u) % p, (w * w - x * u * u) % p
            if bit == "1":
                u, w = w, (w - x * u) % p
        return (w - c * x * u) % p
    if not x:
        return 1            # then U_i = 1 for every i >= 1
    zech = F._zech
    if zech is None:
        add, sub, mul = F.add, F.sub, F.mul
        u = w = 1
        for bit in bits:
            u, w = (mul(u, sub(add(w, w), u)),
                    sub(mul(w, w), mul(x, mul(u, u))))
            if bit == "1":
                u, w = w, sub(w, mul(x, u))
        return sub(w, mul(mul(c, x), u))
    # logs below m = q - 1; h = log(-1), two = log 2 (None for p = 2,
    # where 2 U_(i+1) - U_i is U_i); a, b are the logs of U_2i, U_2i+1
    exp, log, m, h, two = (F._exp, F._log, F.q - 1,
                           F._log_neg, zech[0])
    xh = (log[x] + h) % m
    u = w = 0
    for bit in bits:
        if u is None:
            a, b = None, 2 * w % m
        elif w is None:
            a, b = (2 * u + h) % m, (xh + 2 * u) % m
        else:
            if two is None:
                a = 2 * u % m
            else:
                t = zech[u - w - two + h]
                a = None if t is None else (u + w + two + t) % m
            z = zech[(xh + 2 * (u - w)) % m]
            b = None if z is None else (2 * w + z) % m
        if bit == "0":
            u, w = a, b
        elif a is None or b is None:
            u, w = b, (xh + a) % m if b is None else b
        else:
            z = zech[xh + a - b]
            u, w = b, None if z is None else (b + z) % m
    if w is None:
        return exp[(log[c] + xh + u) % m] if c else 0
    if u is None or not c:
        return exp[w]
    z = zech[(log[c] + xh + u - w) % m]
    return 0 if z is None else exp[w + z]


def binet(F, y, n, c):
    """U_n - c x U_(n-1), lucas's value for j = n - 1 >= 0, or c for
    n = 0, at x = y (1 - y), from the root y of T^2 - T + x: with
    z = 1 - y != y, U_i = (y^i - z^i)/(y - z), so it is
    ((1 - c z) y^n - (1 - c y) z^n) / (y - z), with 0^0 = 1.

    With a Zech table, prime fields included, 1 - y is read as
    log(1 + (-y)), and so are the other sums, all as logs; a zero
    stops that with a TypeError, and the formula runs again by the
    field's methods, as on every field without tables.
    """
    if y < 2:
        return 1 if n else c    # x = 0
    zech = F._zech
    if zech is not None:
        log, m, h = F._log, F.q - 1, F._log_neg
        try:
            ly = log[y]
            lz = zech[ly + h]
            # the logs of y^n (1 - c z) and -z^n (1 - c y)
            a, b = ly * n % m, (lz * n + h) % m
            if c:
                a += zech[(log[c] + lz + h) % m]
                b += zech[(log[c] + ly + h) % m]
            # y - z = 2y - 1 = -(1 + (-2) y)
            d = zech[(ly + zech[0] + h) % m] + h
            return F._exp[(a + zech[(b - a) % m] - d) % m]
        except TypeError:
            pass
    sub, mul = F.sub, F.mul
    z = sub(1, y)
    num = sub(mul(F.pow(y, n), sub(1, mul(c, z))),
              mul(F.pow(z, n), sub(1, mul(c, y))))
    return mul(num, F.inv(sub(y, z)))
