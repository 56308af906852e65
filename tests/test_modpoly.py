"""Polynomial products mod p against a dense schoolbook product."""

import random

import pytest

from rdickson import modpoly


def schoolbook(a, b, p):
    # every pair of positions, zero or not, then trimmed
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] = (out[i + j] + a[i] * b[j]) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def operand(rng, p):
    """Up to 16 coefficients in runs: zero runs, nonzero runs, and zeros
    left at either end (trailing ones make the list non-canonical)."""
    out, size = [], rng.randrange(17)
    while len(out) < size:
        run = rng.randrange(1, 5)
        if rng.random() < 0.5:
            out += [0] * run
        else:
            out += [rng.randrange(1, p) for _ in range(run)]
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 13])
class TestMul:
    def test_random_operands_with_zero_runs(self, p):
        rng = random.Random(p)
        for _ in range(400):
            a, b = operand(rng, p), operand(rng, p)
            a_copy, b_copy = list(a), list(b)
            assert modpoly.mul(a, b, p) == schoolbook(a, b, p), (a, b)
            assert (a, b) == (a_copy, b_copy)

    def test_empty_and_single_term_operands(self, p):
        rng = random.Random(100 + p)
        for _ in range(50):
            b = operand(rng, p)
            single = [0] * rng.randrange(5) + [rng.randrange(1, p)]
            for a in ([], [0], [0, 0, 0], single):
                assert modpoly.mul(a, b, p) == schoolbook(a, b, p)
                assert modpoly.mul(b, a, p) == schoolbook(b, a, p)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_powmod_matches_repeated_products(p):
    # a^n mod m against n schoolbook products, each reduced mod m
    rng = random.Random(200 + p)
    for _ in range(20):
        m = [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1]
        a = operand(rng, p)
        want = modpoly.mod([1], m, p)
        for n in range(12):
            assert modpoly.powmod(a, n, m, p) == want, (a, n, m)
            want = modpoly.mod(schoolbook(want, a, p), m, p)


def test_power_over_integers():
    for a in range(-3, 4):
        for n in range(10):
            assert modpoly.power(lambda u, v: u * v, a, n, 1) == a ** n


def test_library_refusals():
    with pytest.raises(ZeroDivisionError,
                       match="polynomial division by zero"):
        modpoly.divmod_poly([1], [], 5)
