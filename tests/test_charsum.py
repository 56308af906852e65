"""Sum tables against the add-it-all-up oracle."""

import hashlib
import json
from math import comb

import pytest

from rdickson import charsum as cs
from rdickson import cli
from rdickson import gf, modpoly
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


def _add(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return modpoly.trim(out)


def _c_by_products(F, k):
    """c from the products of its definition: part1 from three shifted
    geometric rows, the mixer by Horner's rule in (z - 1), and the sparse
    product of the mixer with the digit-formula b."""
    q, p = F.q, F.p
    geo = [0] + [1] * (q * q - 1)
    part1 = _add(geo, [0] * (q - 1) + geo, p)
    part1 = modpoly.sub(part1, [0] * q + geo, p)
    # mixer <- mixer (z - 1) + 4^(-m) z^(2m)
    inv4, r, mixer = pow(4, -1, p), 1, []
    for m in range(1, q):
        r = r * inv4 % p
        mixer = _add(modpoly.mul(mixer, [p - 1, 1], p), [0] * (2 * m) + [r],
                     p)
    mixer = _add(mixer, [0] * (2 * (q - 1)) + [1], p)
    c = modpoly.sub(part1, modpoly.mul(mixer, _b_by_cases(F, k), p), p)
    return c + [0] * (q * q + q - len(c))


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


def _sums_by_columns(F, k):
    """The per-kind oracle: S[n] = sum over x of D(n,k; 1,x), n < q^2,
    from one pass per x of v_0 = 2 - k, v_1 = 1,
    v_m = v_{m-1} - x v_{m-2}; O(q^3) field ops for one kind."""
    S = [0] * (F.q * F.q)
    for x in F.elements():
        v, w = F.from_int(2 - k), 1
        for n in range(len(S)):
            S[n] = F.add(S[n], v)
            v, w = w, F.sub(w, F.mul(x, v))
    return S


def _u_walk(F, x, count):
    """U_0(x) .. U_{count-1}(x), stepped with the field's methods."""
    out, u, w = [], 0, 1
    for _ in range(count):
        out.append(u)
        u, w = w, F.sub(w, F.mul(x, u))
    return out


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

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_period_repeats_around_its_length(self, p):
        # one period of p(p - 1) values is built and repeated
        F, period = gf.make_field(p), p * (p - 1)
        for count in (0, 1, period - 1, period, period + 1, 3 * period + 2):
            for k in range(p):
                want = [rd.value_at_quarter(F, n, k) for n in range(count)]
                assert cs._quarter_offsets(p, k, count) == want, (count, k)


class TestBVector:
    @pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49, 125, 243, 343])
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
        # c reads b's tooth without building b, so it refuses on its own
        for refused in (lambda: cs.b_coeffs(gf.make_field(2, 2), 1),
                        lambda: cs.c_coeffs(gf.make_field(2, 3), 1)):
            with pytest.raises(ValueError, match="odd characteristic"):
                refused()


class TestCVector:
    def test_structure(self):
        for F in (F5, F9):
            for k in range(F.p):
                c = cs.c_coeffs(F, k)
                assert len(c) == F.q ** 2 + F.q
                assert c[0] == 0

    # q = 3 leaves an interior of (q - 1)(q - 2) = 2 entries between the
    # edges, one period
    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121])
    def test_matches_products_of_the_definition(self, q):
        F = gf.parse_field_descriptor(str(q))
        for k in range(F.p):
            assert cs.c_coeffs(F, k) == _c_by_products(F, k), k

    @pytest.mark.parametrize("q", [3, 5, 9, 25, 343])
    def test_mixer_division_is_exact_only_for_its_numerator(self, q):
        p = gf.parse_field_descriptor(str(q)).p
        # z^(2q) - (z^2 + ... + z^(q+1)) = (z - 2)^2 (mixer - z^(2q-2))
        num = [0, 0] + [p - 1] * q + [0] * (q - 2) + [1]
        once = cs._divide_by_z_minus_2(num, p)
        assert len(cs._divide_by_z_minus_2(once, p)) == 2 * q - 1
        for i in range(len(num)):
            # off by one coefficient: the value at z = 2 moves by 2^i
            bad = list(num)
            bad[i] = (bad[i] + 1) % p
            with pytest.raises(InternalCheckError, match="z - 2"):
                cs._divide_by_z_minus_2(bad, p)
        # divisible once but not twice: the second division refuses
        bad = list(num)
        bad[1], bad[2] = (bad[1] - 2) % p, (bad[2] + 1) % p
        with pytest.raises(InternalCheckError, match="z - 2"):
            cs._divide_by_z_minus_2(cs._divide_by_z_minus_2(bad, p), p)

    @pytest.mark.parametrize("fault, message", [
        (lambda m: [(m[0] + 1) % 5] + m[1:], "constant term"),
        (lambda m: m + [1], "degree")])
    def test_shape_checks_fire_on_a_wrong_mixer(self, monkeypatch, fault,
                                                message):
        real = cs._mixer
        monkeypatch.setattr(cs, "_mixer", lambda q, p: fault(real(q, p)))
        with pytest.raises(InternalCheckError, match=message):
            cs.c_coeffs(F5, 3)

    @pytest.mark.parametrize("q", [3, 5, 9, 25, 27])
    def test_seam_check_fires_on_a_rotated_period(self, monkeypatch, q):
        # the interior filled with its period rotated by one place: the
        # last period, summed again from the teeth, disagrees with the
        # fill wherever the rotation moves an entry
        F = gf.parse_field_descriptor(str(q))
        periods = {k: cs.c_coeffs(F, k)[2 * q - 1:3 * q - 2]
                   for k in range(F.p)}
        real = cs._comb_window

        def rotated(q_, p, tooth, lo, hi):
            v = real(q_, p, tooth, lo, hi)
            return v[1:] + v[:1] if (lo, hi) == (2 * q - 1, 3 * q - 2) else v
        monkeypatch.setattr(cs, "_comb_window", rotated)
        moved = [k for k, period in periods.items()
                 if period[1:] + period[:1] != period]
        for k in periods:
            if k in moved:
                with pytest.raises(InternalCheckError, match="teeth"):
                    cs.c_coeffs(F, k)
            else:
                assert cs.c_coeffs(F, k) == _c_by_products(F, k)
        # over GF(3) the two entries of every period are equal
        assert (moved == []) == (q == 3)

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
    @pytest.mark.parametrize("F", [gf.make_field(3), F5, F7, F9,
                                   gf.make_field(5, 2), gf.make_field(3, 3),
                                   gf.make_field(7, 2)],
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


class TestUColumns:
    @pytest.mark.parametrize("fd", ["3", "5", "9", "8", "25"])
    def test_x_zero_column_never_returns(self, fd):
        # U_m(0) = 1 for every m >= 1: the walk stops at q^2 + 1 terms
        F = gf.parse_field_descriptor(fd)
        columns = dict(cs._u_columns(F))
        assert columns[0] == [0] + [1] * F.q ** 2

    @pytest.mark.parametrize("fd", ["5", "7", "9", "4", "8", "27"])
    def test_columns_are_periods_tiling_the_plain_walk(self, fd):
        F = gf.parse_field_descriptor(fd)
        size = F.q ** 2 + 1
        uneven = 0
        for x, col in cs._u_columns(F):
            walk = _u_walk(F, x, size + 2)
            period = len(col)
            assert (col * -(-size // period))[:size] == walk[:size], x
            if x:
                # the first return of the state (U_m, U_{m+1}) to (0, 1)
                assert period < size
                assert [m for m in range(1, period + 1)
                        if walk[m:m + 2] == [0, 1]] == [period], x
            uneven += size % period != 0
        # some period leaves a partial copy at the end of the tiling
        assert uneven

    @pytest.mark.parametrize("fd", ["2", "3", "4", "5", "7", "8", "9", "11",
                                    "13", "16", "25", "27", "32", "49"])
    def test_every_kind_matches_the_per_kind_loop(self, fd):
        F = gf.parse_field_descriptor(fd)
        for k in range(F.p):
            assert cs.sums_bruteforce(F, k) == _sums_by_columns(F, k), k

    def test_one_pass_kept_for_the_last_field_alone(self, monkeypatch):
        cs.u_column_sums.cache_clear()
        passes = []
        real = cs._u_columns
        monkeypatch.setattr(cs, "_u_columns",
                            lambda F: passes.append(F.q) or real(F))
        for F in (F5, F5, F7, F5):
            for k in range(F.p):
                brute = cs.sums_bruteforce(F, k)
                brute[1] = F.add(brute[1], 1)      # a caller's own list
        assert passes == [5, 7, 5]
        assert cs.sums_bruteforce(F5, 2) == _sums_by_columns(F5, 2)
        info = cs.u_column_sums.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)


class TestResidueIdentity:
    def test_holds_from_bruteforce_sums(self):
        for F in (F5, F9):
            for k in (0, 2, F.p - 1):
                assert cs.residue_identity_holds(
                    cs.sums_via_recurrence(F, k), cs.sums_bruteforce(F, k))
