"""Sum tables against the add-it-all-up oracle."""

import hashlib
import json
from math import comb

import pytest

from rdickson import charsum as cs
from rdickson import cli
from rdickson import gf
from rdickson import rdpoly as rd
from rdickson.gf import InternalCheckError

F5 = gf.make_field(5)
F7 = gf.make_field(7)
F9 = gf.make_field(3, 2)


def _b_by_cases(F, k):
    # digit formula: j = alpha + beta q with 0 <= alpha < q
    q, p = F.q, F.p
    out = [0] * (q * q - q + 2)
    for j in range(len(out)):
        alpha, beta = j % q, j // q
        s = alpha + beta
        if s == q - 1:
            v = (-1) ** (beta + 1) * (2 - k) * comb(q - 1, beta)
        elif s == q:
            v = (-1) ** (beta + 1) * (k - 1) * comb(q - 1, beta)
        elif s == 1:
            v = 1 - k
        elif s == 0:
            v = k - 2
        else:
            v = 0
        out[j] = v % p
    return out


def _sums_direct(F, k, c):
    """The closed expressions for S(n) themselves, from c alone: no d
    vector and no running offsets."""
    q, p = F.q, F.p
    inv2 = pow(2, -1, p)
    h = [1] * (q * q)             # h[m] = 2^-m, one running power
    for m in range(1, q * q):
        h[m] = h[m - 1] * inv2 % p
    two_q = pow(2, q, p)
    S = [0] * (q * q)
    for j in range(1, q):
        S[j] = (-c[j] + (k * (j - 1) + 2) * h[j]) % p
    S[q] = (c[1] - c[q] + (2 - k) * h[q]) % p
    half_step = (1 - two_q + pow(2, q - 1, p)) % p
    for l in range(1, q - 1):
        if l >= 2:
            S[l * q] = (S[(l - 1) * q] - S[(l - 1) * q + 1] - c[l * q]
                        + ((k - 2) * (two_q - 1) + two_q)
                        * h[l * q]) % p
        for j in range(1, q):
            S[l * q + j] = (S[(l - 1) * q + j] - S[(l - 1) * q + j + 1]
                            - c[l * q + j]
                            + ((k * j + 2) * half_step + k * (two_q - 1))
                            * h[l * q + j]) % p
    acc = 0
    for j in range(q - 1, -1, -1):
        acc = (acc + c[q * q + j]) % p
        S[q * q - q + j] = (acc + (k * (j - 1) + 2)
                            * h[q * q - q + j]) % p
    return S


class TestPowerSum:
    @pytest.mark.parametrize("F", [F5, F9], ids=lambda F: f"GF({F.q})")
    def test_divisibility_shape(self, F):
        for m in range(0, 3 * (F.q - 1) + 2):
            want = F.neg(1) if m > 0 and m % (F.q - 1) == 0 else 0
            assert cs.power_sum(F, m) == want

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            cs.power_sum(F5, -1)


class TestQuarterOffsets:
    @pytest.mark.parametrize("F", [F5, F9, gf.make_field(5, 2),
                                   gf.make_field(3, 3)],
                             ids=lambda F: f"GF({F.q})")
    def test_running_power_matches_value_at_quarter(self, F):
        for k in range(F.p):
            want = [rd.value_at_quarter(F, n, k) for n in range(F.q * F.q)]
            assert cs._quarter_offsets(F.p, k, F.q * F.q) == want


class TestBVector:
    @pytest.mark.parametrize("q", [5, 7, 9, 25, 27, 49, 125, 243, 343])
    def test_matches_digit_formula(self, q):
        F = gf.parse_field_descriptor(str(q))
        for k in range(F.p):
            assert cs.b_coeffs(F, k) == _b_by_cases(F, k), k

    def test_frozen_entries_q5_k3(self):
        # worked out from the digit formula by hand: pairs sit at the
        # digit-sum q-1 and q diagonals
        b = cs.b_coeffs(F5, 3)
        assert len(b) == 22
        assert (b[0], b[1]) == (1, 3)          # k-2 and 1-k mod 5
        assert (b[4], b[5]) == (1, 3)
        assert (b[20], b[21]) == (1, 3)
        assert [j for j, v in enumerate(b) if v] == \
            [0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21]

    def test_rejects_char2(self):
        with pytest.raises(ValueError):
            cs.b_coeffs(gf.make_field(2, 2), 1)


class TestCVector:
    def test_structure(self):
        for F in (F5, F9):
            for k in range(F.p):
                c = cs.c_coeffs(F, k)
                assert len(c) == F.q ** 2 + F.q
                assert c[0] == 0

    # sha256 of the comma-joined vector, recorded with the dense product
    # (every entry of b walked) before mul skipped zeros
    DIGESTS = {
        (125, 2):
        "1633f19aadb008497b08f3c05d9d6243766dd8ce1eb3ef1f89e7f75ef93cc7b1",
        (169, 3):
        "b20052211c59796bf2dd0ed6108c65d36d210a60b23282aeab1bb7e8f87243a1",
        (243, 1):
        "630b74cde980f753c9b0a11c51b24871053ac10a5725606022169fcec3e8a0de",
        (343, 3):
        "9de395932d221f2f8ed6182eb2a8ca53d8cfd699146edb73e507e860f7251ae1",
    }

    @pytest.mark.parametrize("q, k", list(DIGESTS),
                             ids=[f"GF({q})-k{k}" for q, k in DIGESTS])
    def test_frozen_digests(self, q, k):
        c = cs.c_coeffs(gf.parse_field_descriptor(str(q)), k)
        digest = hashlib.sha256(",".join(map(str, c)).encode()).hexdigest()
        assert digest == self.DIGESTS[q, k]


class TestSumTable:
    @pytest.mark.parametrize("F", [F5, F7, F9, gf.make_field(5, 2),
                                   gf.make_field(3, 3), gf.make_field(7, 2)],
                             ids=lambda F: f"GF({F.q})")
    def test_matches_bruteforce_all_k(self, F):
        for k in range(F.p):
            table = cs.sums_via_recurrence(F, k)
            assert table.sums[0] == 0
            brute = cs.sums_bruteforce(F, k)
            for n in range(1, F.q ** 2):
                assert table.sums[n] == brute[n], (k, n)

    @pytest.mark.parametrize("q", [5, 9, 25, 27, 49, 125, 169, 243, 343])
    def test_matches_closed_expressions(self, q):
        F = gf.parse_field_descriptor(str(q))
        for k in range(3):
            table = cs.sums_via_recurrence(F, k)
            assert table.sums[1:] == _sums_direct(F, k, table.c)[1:], k

    def test_frozen_q5_k3(self):
        # frozen from brute-force summation before the table existed
        table = cs.sums_via_recurrence(F5, 3)
        assert table.sums[1:9] == [0, 0, 0, 0, 0, 0, 0, 1]
        assert table.sums[24] == cs.sums_bruteforce(F5, 3)[24]

    def test_overdetermined_tail_guard_fires(self):
        c = cs.c_coeffs(F5, 3)
        c[F5.q ** 2] = (c[F5.q ** 2] + 1) % F5.p
        with pytest.raises(InternalCheckError):
            cs._d_vector(F5, c)

    def test_json_rows(self, capsys):
        # the table as the CLI writes it in json
        assert cli.main(["sums", "--field", "3^2/1,0,1", "--k", "2",
                         "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["field"] == "3^2/1,0,1" and blob["k"] == 2
        assert len(blob["rows"]) == 80
        assert blob["rows"][0]["n"] == 1
        first = blob["rows"][0]
        assert first["sum"] == list(F9.coeffs(cs.sums_bruteforce(F9, 2)[1]))
        table = cs.sums_via_recurrence(F9, 2)
        for n, row in enumerate(blob["rows"], start=1):
            assert row == {"n": n, "d": table.d[n],
                           "sum": list(F9.coeffs(table.sums[n]))}

    def test_rejects_char2(self):
        with pytest.raises(ValueError):
            cs.sums_via_recurrence(gf.make_field(2), 1)


class TestBruteforce:
    @pytest.mark.parametrize("F", [F5, F7, F9, gf.make_field(3, 3)],
                             ids=lambda F: f"GF({F.q})")
    def test_matches_summed_doubling_kernel(self, F):
        # the one-pass table against eval_recurrence added up over the
        # field index by index, which ties the doubling kernel to the sums
        for k in range(F.p):
            brute = cs.sums_bruteforce(F, k)
            assert len(brute) == F.q ** 2
            for n in range(F.q ** 2):
                acc = 0
                for x in F.elements():
                    acc = F.add(acc, rd.eval_recurrence(F, n, k, x))
                assert brute[n] == acc, (k, n)


class TestResidueIdentity:
    def test_holds_from_bruteforce_sums(self):
        for F in (F5, F9):
            for k in (0, 2, F.p - 1):
                assert cs.residue_identity_holds(
                    cs.sums_via_recurrence(F, k), cs.sums_bruteforce(F, k))
