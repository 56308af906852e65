"""Sum tables against the add-it-all-up oracle."""

import hashlib
import json
import sys
import tracemalloc
from array import array
from itertools import cycle
from math import comb

import pytest

from rdickson import charsum as cs
from rdickson import cli
from rdickson import gf, modpoly
from rdickson import rdpoly as rd
from rdickson import sumoracle as so
from rdickson.gf import InternalCheckError

F5 = gf.make_field(5)
F7 = gf.make_field(7)
F9 = gf.make_field(3, 2)
F25 = gf.make_field(5, 2)


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


def _sums_by_lags(q, p, tooth, lags, signs):
    """S[0 .. q^2 + 2q - 1] of a three-term recurrence with the given
    lags and signs, one entry at a time: the sign-flipped or re-lagged
    copies of charsum._recurring_sums that the period guard must
    catch."""
    S = [0] * (q * q + 2 * q)
    S[2 * q - 2:2 * q] = tooth
    for n in range(2 * q, len(S)):
        S[n] = sum(sign * S[n - lag] for lag, sign in zip(lags, signs)) % p
    return S


def _recurring_sums_by_lists(q, p, tooth):
    """S[0 .. q^2 + 2q - 1] as a list, one list pass per block of q
    entries: the reference for charsum._recurring_sums' lanes."""
    S = [0] * (q * q + 2 * q)
    S[2 * q - 2:2 * q] = tooth
    for lo in range(2 * q, q * q + 2 * q, q):
        S[lo:lo + q] = [(a + b - c) % p for a, b, c in zip(
            S[lo - q:lo], S[lo - 2 * q + 2:lo - q + 2],
            S[lo - 2 * q + 1:lo - q + 1])]
    return S


def _shifted_sums_by_cycle(p, k, S):
    """d as a list: one period of p(p - 1) offsets by a running power of
    1/2, cycled along S, with d[0] held at 0: the reference for the
    halved lanes of charsum._recurring_sums."""
    inv2, r, period = pow(2, -1, p), 1, []
    for n in range(p * (p - 1)):
        period.append((k * (n - 1) + 2) * r % p)
        r = r * inv2 % p
    d = [(s - o) % p for s, o in zip(S, cycle(period))]
    d[0] = 0
    return d


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


def _shifted_by_value_at_quarter(F, k, S):
    """S[n] minus value_at_quarter(F, n, k) for n >= 1, and 0 at n = 0."""
    return [0] + [(S[n] - rd.value_at_quarter(F, n, k)) % F.p
                  for n in range(1, len(S))]


class TestQuarterOffsets:
    @pytest.mark.parametrize("F", [F5, F9, gf.make_field(5, 2),
                                   gf.make_field(3, 3)],
                             ids=lambda F: f"GF({F.q})")
    def test_running_power_matches_value_at_quarter(self, F):
        # the oracle's d of any S, and the table's d of its own sums
        S = [n * n % F.p for n in range(F.q * F.q)]
        for k in range(F.p):
            want = _shifted_by_value_at_quarter(F, k, S)
            assert cs.shifted_sums(F.p, k, S).tolist() == want, k
            table = cs.sums_via_recurrence(F, k)
            assert table.d.tolist() == _shifted_by_value_at_quarter(
                F, k, table.sums), k

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_period_repeats_around_its_length(self, p):
        # the oracle cycles one period of p(p - 1) offsets along S, which
        # may end anywhere in it
        F, period = gf.make_field(p), p * (p - 1)
        for count in (1, period - 1, period, period + 1, 3 * period + 2):
            S = [(3 * n + 1) % p for n in range(count)]
            for k in range(p):
                want = _shifted_by_value_at_quarter(F, k, S)
                assert cs.shifted_sums(p, k, S).tolist() == want, (count, k)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_row_zero_is_held_at_zero(self, p):
        # the oracle's d[0] is 0 whatever S[0] and the offset 2 - k at
        # n = 0
        for k in range(p):
            for s0 in range(p):
                assert cs.shifted_sums(p, k, [s0, 1])[0] == 0, (k, s0)


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

    # from q = 3, where each tooth, 2q wide at a stride of q - 1, overlaps
    # the next two
    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121])
    def test_matches_products_of_the_definition(self, q):
        F = gf.parse_field_descriptor(str(q))
        for k in range(F.p):
            assert cs.c_coeffs(F, k) == _c_by_products(F, k), k

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49, 125, 337, 343])
    def test_mixer_matches_its_binomial_expansion(self, q):
        # z^(2q-2) + sum_m 4^(-m) z^(2m) (z - 1)^(q-1-m), each power of
        # z - 1 expanded by the binomial theorem: no Horner step
        p = gf.parse_field_descriptor(str(q)).p
        want = [0] * (2 * q - 1)
        want[2 * q - 2] = 1
        for m in range(1, q):
            r = pow(4, -m, p)
            for j in range(q - m):
                want[2 * m + j] += (r * comb(q - 1 - m, j)
                                    * (-1) ** (q - 1 - m - j))
        assert so._mixer(q, p) == tuple(v % p for v in want)

    @pytest.mark.parametrize("fault, message", [
        (lambda m: ((m[0] + 1) % 5,) + m[1:], "constant term"),
        (lambda m: m + (1,), "degree")])
    def test_shape_checks_fire_on_a_wrong_mixer(self, monkeypatch, fault,
                                                message):
        real = so._mixer
        monkeypatch.setattr(so, "_mixer", lambda q, p: fault(real(q, p)))
        with pytest.raises(InternalCheckError, match=message):
            cs.c_coeffs(F5, 3)

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
            c = cs.c_coeffs(F, k)
            assert table.sums[1:].tolist() == _sums_direct(F, k, c)[1:], k

    def test_frozen_q5_k3(self):
        # frozen from brute-force summation before the table existed
        table = cs.sums_via_recurrence(F5, 3)
        assert table.sums[1:9].tolist() == [0, 0, 0, 0, 0, 0, 0, 1]
        assert table.sums[24] == cs.sums_bruteforce(F5, 3)[24]

    @pytest.mark.parametrize("F", [gf.make_field(3), F5, F7, F9,
                                   gf.make_field(5, 2), gf.make_field(3, 3)],
                             ids=lambda F: f"GF({F.q})")
    def test_row_zero_is_held_at_zero(self, F):
        # S(0) sums a constant q times; d[0] is held at 0 with it, not
        # S(0) minus the offset 2 - k
        for k in range(F.p):
            table = cs.sums_via_recurrence(F, k)
            assert table.d[0] == table.sums[0] == 0, k
            assert len(table.d) == len(table.sums) == F.q ** 2, k

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 25, 27, 49])
    def test_period_guard_fires_on_a_faulty_recurrence(self, monkeypatch,
                                                       q):
        # a fault of one seed (off by +-1), one lag (q - 1, or one more)
        # or one sign breaks d's period q^2 - 1 within the two blocks run
        # past the table; one block misses the flipped sign of the lag-q
        # term at k = 2, whose first q entries past the table are right
        F = gf.parse_field_descriptor(str(q))
        p = F.p
        lags, signs = (q, 2 * q - 2, 2 * q - 1), (1, 1, -1)
        faults = [((dv, 0), lags, signs) for dv in (1, -1)]
        faults += [((0, dv), lags, signs) for dv in (1, -1)]
        for i in range(3):
            for lag in (q - 1, lags[i] + 1):
                faults.append(((0, 0), lags[:i] + (lag,) + lags[i + 1:],
                               signs))
            faults.append(((0, 0), lags,
                           signs[:i] + (-signs[i],) + signs[i + 1:]))
        real = cs._recurring_sums
        for k in range(p):
            tooth = cs._b_tooth(F, k)
            good = _sums_by_lags(q, p, tooth, lags, signs)
            S, d = real(q, p, tooth, k)
            assert S.tolist() == good, k
            assert d.tolist() == _shifted_sums_by_cycle(p, k, good), k
            for (d0, d1), bad_lags, bad_signs in faults:
                def faulty(q_, p_, t, k_, d0=d0, d1=d1, bad_lags=bad_lags,
                           bad_signs=bad_signs):
                    S = _sums_by_lags(q_, p_, [(t[0] + d0) % p_,
                                               (t[1] + d1) % p_],
                                      bad_lags, bad_signs)
                    return S, _shifted_sums_by_cycle(p_, k_, S)
                monkeypatch.setattr(cs, "_recurring_sums", faulty)
                # each of these faults moves a value of the sequence
                assert cs._recurring_sums(q, p, tooth, k)[0] != good
                with pytest.raises(InternalCheckError, match="period"):
                    cs.sums_via_recurrence(F, k)

    def test_table_memory_is_two_compact_arrays(self):
        # S and d, each run two blocks past the table, at one machine
        # word of _typecode(p) an entry (one byte on GF(243), two on
        # GF(337)); no list of q^2 entries and no offsets period
        for fd in ("243", "337"):
            F = gf.parse_field_descriptor(fd)
            size = array(cs._typecode(F.p)).itemsize
            tracemalloc.start()
            try:
                cs.sums_via_recurrence(F, 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * size * F.q ** 2, fd

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


class TestCompactTables:
    @pytest.mark.parametrize("fd", ["3", "9", "27", "81", "243", "125", "169",
                                    "343", "257", "337"])
    def test_matches_the_list_built_table(self, fd):
        # entries pass 255 on GF(257) and GF(337), whose typecode is 'H'
        F = gf.parse_field_descriptor(fd)
        q, p = F.q, F.p
        assert cs._typecode(p) == ("B" if p < 256 else "H")
        for k in range(p) if p < 20 else (0, 1, 2, p - 1):
            S = _recurring_sums_by_lists(q, p, cs._b_tooth(F, k))
            d = _shifted_sums_by_cycle(p, k, S)
            table = cs.sums_via_recurrence(F, k)
            assert table.sums.typecode == table.d.typecode == cs._typecode(p)
            assert table.sums.tolist() == S[:q * q], k
            assert table.d.tolist() == d[:q * q], k

    @pytest.mark.parametrize("p", [3, 255, 256, 257, 65536, 65537,
                                   2 ** 32 - 5])
    def test_typecode_is_the_narrowest_that_holds_p(self, p):
        sizes = [array(tc).itemsize for tc in "BHIL"]
        tc = cs._typecode(p)
        assert p - 1 < 256 ** array(tc).itemsize
        assert all(p - 1 >= 256 ** size for size in sizes
                   if size < array(tc).itemsize)

    @pytest.mark.parametrize("p", [3, 251, 257, 65521, 65537, 2 ** 32 - 5])
    def test_lane_arithmetic_holds_at_every_width(self, p):
        # the recurrence at each lane width, on short blocks (q here is
        # only the lag, not a field size)
        for q in (3, 5):
            for tooth in ([p - 1, p - 1], [1, p - 2], [0, 1]):
                S, d = cs._recurring_sums(q, p, tooth, 0)
                assert S.typecode == d.typecode == cs._typecode(p)
                want = _sums_by_lags(q, p, tooth, (q, 2 * q - 2, 2 * q - 1),
                                     (1, 1, -1))
                assert S.tolist() == want, (q, tooth)

    @pytest.mark.parametrize("p, q", [(3, 3), (127, 8), (257, 17),
                                      (65537, 33), (2 ** 31 - 1, 32)])
    def test_offset_lanes_halve_at_every_width(self, p, q):
        # the offsets at each lane width: a lag q = 1 + ord_p(2) has
        # 2^q = 2 mod p, so at k = 0 each block's offsets are the last's
        # halved, as they are at every k when p divides q
        F = gf.make_field(p)
        assert pow(2, q, p) == 2
        for tooth in ([p - 1, p - 1], [1, p - 2], [0, 1]):
            for k in range(p) if q % p == 0 else (0,):
                S, d = cs._recurring_sums(q, p, tooth, k)
                assert d.tolist() == \
                    _shifted_by_value_at_quarter(F, k, S), (tooth, k)

    def test_lanes_read_items_in_either_byte_order(self, monkeypatch):
        items = array("H", [1, 258, 65535, 0, 4660])
        lanes = cs._lanes(items)
        assert lanes == sum(v << 32 * j for j, v in enumerate(items))
        swapped = array("H", items)
        swapped.byteswap()
        other = "big" if sys.byteorder == "little" else "little"
        monkeypatch.setattr(cs.sys, "byteorder", other)
        assert cs._lanes(swapped) == lanes
        out = array("H")
        cs._extend(out, lanes, len(items))
        assert out == swapped

    def test_too_large_to_index_is_refused_before_building(self):
        q = 4294967311
        with pytest.raises(ValueError, match=f"{q * q + 2 * q} entries"):
            cs.sums_via_recurrence(gf.make_field(q), 1)


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
        # U_n(0) = 1 for every n >= 1: the walk stops at q^2 + 1 terms
        F = gf.parse_field_descriptor(fd)
        columns = {x: col for x, _, col in so._u_columns(F)}
        assert columns[0] == [0] + [1] * F.q ** 2

    @pytest.mark.parametrize("fd", ["5", "7", "9", "4", "8", "27", "81"])
    def test_columns_are_periods_tiling_the_plain_walk(self, fd):
        F = gf.parse_field_descriptor(fd)
        size = F.q ** 2 + 1
        uneven, covered = 0, []
        for x, m, col in so._u_columns(F):
            # x is the least of its orbit, which has m elements, m | e
            orbit = [F.pow(x, F.p ** i) for i in range(m)]
            assert F.pow(x, F.p ** m) == x and min(orbit) == x, x
            assert len(set(orbit)) == m and F.e % m == 0, x
            covered += orbit
            walk = _u_walk(F, x, size + 2)
            period = len(col)
            assert (col * -(-size // period))[:size] == walk[:size], x
            if x:
                # the first return of the state (U_n, U_{n+1}) to (0, 1)
                assert period < size
                assert [n for n in range(1, period + 1)
                        if walk[n:n + 2] == [0, 1]] == [period], x
            uneven += size % period != 0
        # the orbits walked cover the field, each element once
        assert sorted(covered) == list(F.elements())
        # some period leaves a partial copy at the end of the tiling
        assert uneven

    @pytest.mark.parametrize("fd", ["4", "8", "9", "25", "27", "49"])
    def test_column_of_x_to_the_p_is_the_pth_power(self, fd):
        # U's recurrence has its coefficients in GF(p), so Frobenius
        # carries x's column onto that of x^p: the fact that lets one
        # walk serve an orbit
        F = gf.parse_field_descriptor(fd)
        size = F.q ** 2 + 1
        for x in F.elements():
            want = [F.pow(u, F.p) for u in _u_walk(F, x, size)]
            assert _u_walk(F, F.pow(x, F.p), size) == want, x

    # e = 1 .. 5, so orbits of each length m | e: on GF(27) an x of GF(3)
    # has m = 1, where e U = 3 U = 0
    @pytest.mark.parametrize("fd", ["2", "3", "4", "5", "7", "8", "9", "11",
                                    "13", "16", "25", "27", "32", "49", "81",
                                    "5^3"])
    def test_every_kind_matches_the_per_kind_loop(self, fd):
        F = gf.parse_field_descriptor(fd)
        # A[n] lies in GF(p), and its encodings are the ints below p
        A = so.u_column_sums(F)
        assert len(A) == F.q ** 2 + 1
        assert all(type(a) is int and 0 <= a < F.p for a in A)
        # on GF(125), k = 1 reads every A[n] past A[0], k = 3 both terms
        for k in (1, 3) if F.q > 100 else range(F.p):
            assert cs.sums_bruteforce(F, k) == _sums_by_columns(F, k), k

    def test_one_pass_kept_for_the_last_field_alone(self, monkeypatch):
        so.u_column_sums.cache_clear()
        passes = []
        real = so._u_columns
        monkeypatch.setattr(so, "_u_columns",
                            lambda F: passes.append(F.q) or real(F))
        for F in (F5, F5, F7, F5):
            for k in range(F.p):
                brute = cs.sums_bruteforce(F, k)
                brute[1] = F.add(brute[1], 1)      # a caller's own list
        assert passes == [5, 7, 5]
        assert cs.sums_bruteforce(F5, 2) == _sums_by_columns(F5, 2)
        info = so.u_column_sums.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)


class TestResidueIdentity:
    def test_holds_from_bruteforce_sums(self):
        for F in (F5, F9):
            for k in (0, 2, F.p - 1):
                d = cs.shifted_sums(F.p, k, cs.sums_bruteforce(F, k))
                assert cs.residue_identity_holds(
                    cs.sums_via_recurrence(F, k), d), k

    @pytest.mark.parametrize("F", [F5, F9, F25], ids=lambda F: f"GF({F.q})")
    def test_fails_on_one_wrong_sum(self, F):
        # where the three shifted copies of d start and end
        q = F.q
        table, brute = cs.sums_via_recurrence(F, 2), cs.sums_bruteforce(F, 2)
        for n in (1, q - 1, q, q * q - 1):
            bad = list(brute)
            bad[n] = F.add(bad[n], 1)
            d = cs.shifted_sums(F.p, 2, bad)
            assert not cs.residue_identity_holds(table, d), n

    @pytest.mark.parametrize("F", [F5, F9, F25], ids=lambda F: f"GF({F.q})")
    def test_fails_on_one_wrong_c_coefficient(self, F, monkeypatch):
        q, real = F.q, so.c_coeffs
        table = cs.sums_via_recurrence(F, 2)
        d = cs.shifted_sums(F.p, 2, cs.sums_bruteforce(F, 2))
        for i in (1, q, q * q - 1, q * q + q - 1):
            def faulted(F, k, i=i):
                c = real(F, k)
                c[i] = (c[i] + 1) % F.p
                return c
            monkeypatch.setattr(so, "c_coeffs", faulted)
            assert not cs.residue_identity_holds(table, d), i
