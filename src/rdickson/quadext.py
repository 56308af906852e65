"""The quadratic extension GF(q^2) of a field GF(q) of odd
characteristic, with its square roots, the roots y of y (1 - y) = x
that the functional route reads and the line V of the 2-to-1 domain.

GF(q^2) is modelled as GF(q)[s]/(s^2 - d) with d the first non-square
of GF(q)* (FieldSpec.first_non_square): an extension element is an int
u = a0 + a1*q built from two base-field encodings, so base elements
embed as themselves and membership in the base line is the test u < q.
Square roots are taken by Tonelli-Shanks with that same d as the
non-square.  A QuadExt multiplies by the coordinate formula, raises to
powers by square-and-multiply over it and, at its first binet point,
builds coset tables of GF(q^2)*, none longer than q + 1, that index the
base field's exp/log tables, if the base field holds them.  Tables
change speed only, never values.  QuadExt.binet is the per-point kernel
that rowkernels.functional_row calls on V, as it calls rowkernels.binet
on the base line.

The public names here are listed under "quadext" in rdickson._HOMES,
and gf resolves them on first use (PEP 562).  The package calls them
through gf, so only a command that works in GF(q^2) loads this module:
the 2-to-1 count, the functional route and eval's cross-check.
"""

from functools import lru_cache

from . import modpoly
from .gf import EXT_CACHE_SIZE, InternalCheckError, field_descriptor


class QuadExt:
    """GF(q^2) built on a base field as GF(q)[s]/(s^2 - d).

    d is the first non-square in the enumeration order of GF(q)*, so
    s^((q-1)) = d^((q-1)/2) = -1 and Frobenius x -> x^q is conjugation
    (a0, a1) -> (a0, -a1).  Elements are ints u = a0 + a1*q; the base
    field embeds as the ints below q.  Requires odd characteristic.

    Products always use the coordinate formula.  Powers of base
    elements go to the base field, and every other power is
    square-and-multiply over that product; a negative exponent, -1 for
    the inverse, reduces mod q^2 - 1.  The first binet point builds
    coset tables of GF(q^2)* with the product, if the base field has
    exp/log tables, of generator b, which the coset tables index.
    g = a0 + a1 s of norm g^(q+1) = a0^2 - d a1^2 = b generates
    GF(q^2)* iff no g^beta with 0 < beta <= q lies on the base line;
    then each i < q^2 - 1 is alpha*(q+1) + beta with alpha < q - 1,
    beta <= q, and g^i = b^alpha g^beta.  The tables, of at most q + 1
    entries, hold the b-logs of the coordinates of each g^beta, and
    rho[t] = log(t + s) for t in GF(q).  So log(a0 + a1 s) is
    (q+1) log_b(a1) + rho[a0/a1] for a1 != 0, and binet reads y^n at a
    point of V, where a0 = 1/2, in a few lookups.  The build raises
    InternalCheckError unless the base log inverts the base exp, the
    walk's g^(q+1) is b and rho fills once per slot.
    """

    __slots__ = ("base", "q", "size", "d", "_reps", "_rho")

    def __init__(self, base):
        if base.p == 2:
            raise ValueError("quadratic extension by a non-square "
                             "requires odd characteristic")
        self.base = base
        self.q = base.q
        self.size = base.q * base.q
        self.d = base.first_non_square()
        self._reps = self._rho = None

    def __repr__(self):
        return f"QuadExt({field_descriptor(self.base)!r}, d={self.d})"

    def make(self, a0, a1):
        return a0 + a1 * self.q

    def parts(self, u):
        a1, a0 = divmod(u, self.q)
        return a0, a1

    def coeffs(self, u):
        a0, a1 = self.parts(u)
        return self.base.coeffs(a0) + self.base.coeffs(a1)

    def mul(self, u, v):
        """(a0 + a1 s)(b0 + b1 s) = (a0 b0 + d a1 b1) + (a0 b1 + a1 b0) s."""
        F, q = self.base, self.q
        a1, a0 = divmod(u, q)
        b1, b0 = divmod(v, q)
        re = F.add(F.mul(a0, b0), F.mul(self.d, F.mul(a1, b1)))
        im = F.add(F.mul(a0, b1), F.mul(a1, b0))
        return re + im * q

    def pow(self, u, n):
        if u < self.q:
            return self.base.pow(u, n)
        return modpoly.power(self.mul, u, n % (self.size - 1), 1)

    def binet(self, y, n, c):
        """rowkernels.binet at the root y = 1/2 + t s of V, t != 0, n >= 0.

        Its conjugate z = 1/2 - t s is 1 - y, and y^n = A + B s gives
        z^n = A - B s, so the value is c A + (2 - c) B / (2t).  With the
        coset tables, A and B are read as logs and the two terms added
        once; without them y^n is a power by the coordinate product.
        """
        F, q = self.base, self.q
        t = y // q
        if self._rho is not None or self._build():
            exp, log, m = F._exp, F._log, q - 1
            # log y = (q+1) log_b(t) + rho[(1/2)/t]; a negative index
            # wraps into the second half of the doubled exp
            ly = (q + 1) * log[t] + self._rho[exp[log[F.half] - log[t]]]
            alpha, beta = divmod(ly * n % (self.size - 1), q + 1)
            l0, l1 = self._reps[beta]
            d = (2 - c) % F.p
            return F.add(
                0 if l0 is None or not c else exp[(log[c] + alpha + l0) % m],
                0 if l1 is None or not d else
                exp[(log[d] - log[2] + alpha + l1 - log[t]) % m])
        b, a = divmod(self.pow(y, n), q)
        return F.add(F.mul(c, a), F.mul(F.mul((2 - c) % F.p, F.half),
                                        F.mul(b, F.inv(t))))

    # -- the coset tables ----------------------------------------------------

    def _build(self):
        """Build the coset tables if the base field has exp/log tables;
        say if built.  g is the first a0 + a1 s (a1 = 1, 2, ...; a0 off
        the base log) of norm b whose walk stays off the base line up to
        g^q."""
        if self.base._exp is None:
            return False
        F, q, order = self.base, self.q, self.size - 1
        exp, log = F._exp, F._log
        # the tables read the base log at every coordinate of GF(q)*
        if [exp[i] for i in log[1:]] != list(range(1, q)):
            raise InternalCheckError(f"the log of GF({q})* does not invert "
                                     "its exp")
        b = exp[1]
        for a1 in range(1, q):
            # a0^2 = b + d a1^2, a0 read off the base log if it is a square
            c = F.add(b, F.mul(self.d, F.mul(a1, a1)))
            if log[c] % 2:
                continue
            g = self.make(exp[log[c] // 2] if c else 0, a1)
            # reps[beta] = g^beta for beta <= q, off the base line for beta > 0
            reps = [1, g]
            for _ in range(q - 1):
                u = self.mul(reps[-1], g)
                if u < q:
                    break
                reps.append(u)
            else:
                break
        else:
            raise InternalCheckError(f"no g of norm {b} generates GF({q}^2)*")
        if self.mul(reps[-1], g) != b:
            raise InternalCheckError(f"g^(q+1) is not the norm {b} of g in "
                                     f"GF({q}^2)")
        rho = [None] * q
        for beta, u in enumerate(reps[1:], 1):
            r1, r0 = divmod(u, q)
            t = exp[log[r0] - log[r1]] if r0 else 0
            rho[t] = (beta - (q + 1) * log[r1]) % order
        # q writes: no empty slot means none went twice
        if None in rho:
            raise InternalCheckError(f"a log slot of GF({q}^2)* filled twice")
        self._reps = [tuple(log[c] if c else None for c in self.parts(r))
                      for r in reps]
        self._rho = rho
        return True


# re-read: a command asks for its field's extension at many points
@lru_cache(maxsize=EXT_CACHE_SIZE)
def quadratic_extension(field):
    """The (cached) quadratic extension context of a field."""
    return QuadExt(field)


def sqrt_ext(ext, v):
    """Square roots of a base-field element, in GF(q) or GF(q^2).

    Returns the roots as extension encodings in ascending coordinate
    order: (0,) for v = 0, otherwise a pair.  Tonelli-Shanks, with the
    extension's d as the non-square it needs, roots a square in the
    base field, and its first round tells a non-square v apart; v/d is
    then a square, and sqrt(v/d)*s is a root of v, since s*s = d.
    """
    F = ext.base
    if v == 0:
        return (0,)
    r = _tonelli_shanks(ext, v)
    if r is not None:
        roots = (r, F.neg(r))
    else:
        w = _tonelli_shanks(ext, F.mul(v, F.inv(ext.d)))
        roots = (ext.make(0, w), ext.make(0, F.neg(w)))
    return tuple(sorted(roots, key=ext.coeffs))


def _tonelli_shanks(ext, v):
    """One square root in GF(q) of v != 0, or None if v is a non-square.

    With q - 1 = 2^s t (t odd) and c = d^t for the extension's d, one
    power h = v^((t-1)/2) gives r = v h = v^((t+1)/2) and u = r h = v^t.
    v is a square iff u^(2^(s-1)) = 1, which the first round decides.
    """
    F = ext.base
    m, t = 0, F.q - 1
    while t % 2 == 0:
        m, t = m + 1, t // 2
    c = F.pow(ext.d, t)
    h = F.pow(v, (t - 1) // 2)
    r = F.mul(v, h)
    u = F.mul(r, h)
    while u != 1:
        i, w = 0, u
        while w != 1:
            w = F.mul(w, w)
            i += 1
        if i == m:
            return None
        b = c
        for _ in range(m - i - 1):
            b = F.mul(b, b)
        m, c = i, F.mul(b, b)
        u, r = F.mul(u, c), F.mul(r, b)
    return r


def solve_y(ext, x):
    """All y in GF(q^2) with y*(1-y) = x, ascending encoding order.

    Completing the square gives y = (1 + r)/2 with r*r = 1 - 4x, so
    there is a single y exactly when x = 1/4.  r = r0 + r1 s, so y has
    the base coordinates (1 + r0)/2 and r1/2.
    """
    F = ext.base
    disc = F.sub(1, F.mul(F.from_int(4), x))
    half = F.half
    ys = []
    for r in sqrt_ext(ext, disc):
        r0, r1 = ext.parts(r)
        ys.append(ext.make(F.mul(F.add(1, r0), half), F.mul(r1, half)))
    return tuple(sorted(ys))


def enumerate_v(ext):
    """The q-element set {v in GF(q^2) : v^q = 1 - v}, as an ascending
    range of encodings.

    With Frobenius as conjugation, v = a0 + a1*s satisfies the
    equation iff a0 = 1 - a0, i.e. a0 = 1/2 with a1 free; the base
    field meets the set exactly in {1/2}.
    """
    return range(ext.base.half, ext.size, ext.q)
