"""Row kernels: one member (n, k) of the family as a function of its point.

recurrence_row(F, n, k, a) and functional_row(ext, n, k) do a row's
fixed work once and per point call one kernel in gf (FieldSpec.lucas,
FieldSpec.binet or QuadExt.binet), which holds the loop over the
field's tables.  rdpoly's evaluators and permcheck's scans both read
them here, so a permutation scan loads none of rdpoly's other routes.
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
    return F.mul(F.from_int(2 - (k % F.p)), F.pow(F.neg(x), n // 2))


def recurrence_row(F, n, k, a=1):
    """x -> D(n,k; a,x) by the two-term recurrence, the row's fixed work
    done once.

    For a = 1 and x != 1/4 the value depends only on n mod (q^2 - 1)
    once n >= 1; the excluded point x = 1/4 takes its closed constant
    instead.  With U_0 = 0, U_1 = 1, U_m = U_{m-1} - x U_{m-2}, the
    value is v_n = U_n - x (2 - k) U_{n-1}, which F.lucas reaches by
    index doubling down the bits of (n - 1) mod (q^2 - 1),

        U_{2m} = U_m (2 U_{m+1} - U_m),  U_{2m+1} = U_{m+1}^2 - x U_m^2,

    so any index costs O(log q) field ops in every characteristic.
    Other a reduce to a = 1 by D(n,k; a,x) = a^n * D(n,k; 1, x/a^2),
    which holds in every characteristic; a = 0 is routed to eval_a0.
    """
    k %= F.p
    if a == 0:
        return lambda x: eval_a0(F, n, k, x)
    if a != 1:
        row, an = recurrence_row(F, n, k), F.pow(a, n)
        scale = F.inv(F.mul(a, a))
        return lambda x: F.mul(an, row(F.mul(x, scale)))
    c = F.from_int(2 - k)
    if n == 0:
        return lambda x: c
    quarter = F.quarter if F.p != 2 else None
    at_quarter = value_at_quarter(F, n, k) if F.p != 2 else None
    m = (n - 1) % (F.q * F.q - 1)
    lucas, bits = F.lucas, bin(m)[3:]

    def row(x):
        if x == quarter:
            return at_quarter
        return lucas(x, bits, c) if m else 1
    return row


def functional_row(ext, n, k):
    """y -> k (y^n (1-y) - y (1-y)^n)/(2y-1) + y^n + (1-y)^n, with n
    reduced once.

    Defined for y != 1/2 on the base line GF(q) or on the fixed line of
    the q-power map, V = {y : y^q = 1 - y} = {1/2 + t s}: the points
    the permutation counting argument feeds it, and the only ones
    gf.solve_y returns.  With z = 1 - y the value is Binet's form
    ((1 - c z) y^n - (1 - c y) z^n) / (y - z), c = 2 - k, of the
    recurrence's value at x = y z, which F.binet evaluates in GF(q).  On
    V, z is the conjugate of y, so y^n = A + B s gives z^n = A - B s,
    and ext.binet returns (2 - k) A + k B / (2t) from the extension's
    coset tables.  Any other y of GF(q^2) raises ValueError.
    """
    F, q = ext.base, ext.q
    c, half = F.from_int(2 - k % F.p), F.half
    # an n >= 1 stays >= 1, so that 0^n = 0
    n = (n - 1) % (ext.size - 1) + 1 if n else 0

    def row(y):
        if y < q:
            return F.binet(y, n, c)
        if y % q != half:
            raise ValueError(f"y = {ext.coeffs(y)} lies on neither GF(q) "
                             "nor V")
        return ext.binet(y, n, c)
    return row
