"""Permutation criteria against each other and against plain counting."""

import collections
import itertools
import sys

import pytest

from rdickson import gf, permcheck as pc, rowkernels
from rdickson import rdpoly as rd
from test_gf import field_in_state

F3 = gf.make_field(3)
F5 = gf.make_field(5)
F7 = gf.make_field(7)
F9 = gf.make_field(3, 2)
F25 = gf.make_field(5, 2)
F27 = gf.make_field(3, 3)


def two_to_one_pass(F, n, k):
    """The 2-to-1 domain (GF(q) union V) minus {1/2} in pass order, the
    map's value at each point and the excluded value."""
    ext = gf.quadratic_extension(F)
    domain = [y for y in itertools.chain(F.elements(), gf.enumerate_v(ext))
              if y != F.half]
    row = rd.functional_row(ext, n, k)
    return domain, [row(y) for y in domain], rd.value_at_quarter(F, n, k)


def one_minus(ext, y):
    """1 - y in GF(q^2), coordinate by coordinate."""
    F = ext.base
    a0, a1 = ext.parts(y)
    return ext.make(F.sub(1, a0), F.neg(a1))


def representatives(F):
    """One y of each pair {y, 1 - y} of the 2-to-1 domain, in the order
    of the count's walk: 1/2 + t on GF(q), then 1/2 + t s on V, for each
    t != 0 whose last nonzero coordinate is at most (p-1)/2, ascending."""
    ext = gf.quadratic_extension(F)
    ts = [t for t in range(1, F.q)
          if [c for c in F.coeffs(t) if c][-1] <= (F.p - 1) // 2]
    return ([F.add(F.half, t) for t in ts]
            + [ext.make(F.half, t) for t in ts])


def is_permutation(F, fn):
    # independent oracle: compare sorted image with sorted domain
    return sorted(fn(x) for x in F.elements()) == sorted(F.elements())


class TestBruteForce:
    def test_agrees_with_counting_oracle(self):
        maps = [lambda x: x,
                lambda x: F7.add(F7.mul(3, x), 2),
                lambda x: F7.mul(x, x),
                lambda x: F7.pow(x, 5),
                lambda x: 0]
        for fn in maps:
            assert pc.is_pp_bruteforce(F7, fn).verdict == is_permutation(F7, fn)

    def test_witness_is_first_collision(self):
        rep = pc.is_pp_bruteforce(F5, lambda x: F5.mul(x, x))
        assert not rep.verdict
        # 2^2 = 3^2 = 4 is the first collision in enumeration order
        assert tuple(map(F5.coeffs, rep.witness)) == ((2,), (3,))

    def test_witness_may_be_the_first_point(self):
        # x(x - 1) takes 0 at x = 0 and again at x = 1
        rep = pc.is_pp_bruteforce(F5, lambda x: F5.mul(x, F5.sub(x, 1)))
        assert not rep.verdict
        assert tuple(map(F5.coeffs, rep.witness)) == ((0,), (1,))

    def test_pp_has_no_witness(self):
        rep = pc.is_pp_bruteforce(F5, lambda x: F5.add(x, 1))
        assert rep.verdict and rep.witness is None


class TestMonomial:
    def test_matches_brute_force(self):
        for F in (F5, F9):
            for n in range(1, 25):
                want = is_permutation(F, lambda x: F.pow(x, n))
                assert pc.monomial_pp(F, n).verdict == want

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            pc.monomial_pp(F5, 0)


class TestTwoToOne:
    # frozen from an exhaustive image count done beforehand
    def test_gf9_n3_k1_is_pp(self):
        assert pc.dickson_pp_bruteforce(F9, 3, 1).verdict
        assert pc.is_pp_two_to_one(F9, 3, 1).verdict

    def test_agrees_with_brute_force_everywhere(self):
        for F in (F3, F5, F9, F25, F27):
            for n in range(1, F.q ** 2):
                for k in range(F.p):
                    assert pc.is_pp_two_to_one(F, n, k).verdict == \
                        pc.dickson_pp_bruteforce(F, n, k).verdict, (F.q, n, k)

    def test_stops_at_the_first_point_that_decides(self, monkeypatch):
        # a permutation row maps the q-1 representatives in walk order,
        # any other row a shorter prefix of them
        calls = []
        real = rd.functional_row

        def counted(ext, n, k):
            row = real(ext, n, k)

            def point(y):
                calls.append(y)
                return row(y)
            return point

        monkeypatch.setattr(rowkernels, "functional_row", counted)
        reps = representatives(F25)
        seen = set()
        for n in range(1, 50):
            for k in range(F25.p):
                calls.clear()
                pp = pc.dickson_pp_bruteforce(F25, n, k).verdict
                assert pc.is_pp_two_to_one(F25, n, k).verdict == pp
                seen.add(pp)
                assert calls == reps[:len(calls)], (n, k)
                if pp:
                    assert len(calls) == F25.q - 1, (n, k)
                else:
                    assert len(calls) < F25.q - 1, (n, k)
        assert seen == {True, False}

    def test_witness_is_the_last_point_mapped(self):
        # the pass stops at the first representative whose value was
        # seen before or is the excluded value, and names it
        for F in (F5, F9, F25):
            ext = gf.quadratic_extension(F)
            reps = representatives(F)
            for n in range(1, F.q ** 2):
                for k in range(F.p):
                    rep = pc.is_pp_two_to_one(F, n, k)
                    row = rd.functional_row(ext, n, k)
                    seen = {rd.value_at_quarter(F, n, k)}
                    for y in reps:
                        val = row(y)
                        if val in seen:
                            assert rep.witness == (y,), (F.q, n, k)
                            break
                        seen.add(val)
                    else:
                        assert rep.verdict and rep.witness is None

    def test_representatives_take_one_point_of_each_pair(self):
        for F in (F3, F5, F9, F25, F27):
            ext = gf.quadratic_extension(F)
            domain, _, _ = two_to_one_pass(F, 1, 0)
            reps = representatives(F)
            assert len(reps) == F.q - 1
            assert sorted(reps + [one_minus(ext, y) for y in reps]) == \
                sorted(domain)

    @pytest.mark.parametrize("F", [F5, F9, F25], ids=lambda F: f"GF({F.q})")
    def test_verdict_is_the_full_domain_fiber_count(self, F):
        # the paper's statement on all 2q-2 points: every value taken
        # exactly twice and the excluded value never
        for n in range(1, F.q ** 2):
            for k in range(F.p):
                _, values, excluded = two_to_one_pass(F, n, k)
                fibers = collections.Counter(values)
                want = set(fibers.values()) == {2} and excluded not in fibers
                assert pc.is_pp_two_to_one(F, n, k).verdict == want, \
                    (F.q, n, k)

    @pytest.mark.parametrize("p, e, tables", [(7, 1, True), (5, 2, True),
                                              (3, 3, True), (3, 2, False)],
                             ids=["GF(7)-tables", "GF(25)-tables",
                                  "GF(27)-tables", "GF(9)-none"])
    def test_map_takes_one_value_on_each_pair(self, p, e, tables,
                                              monkeypatch):
        # g(y) = g(1 - y) at every point of (GF(q) union V) minus {1/2},
        # every kind, n below and past q^2 - 1: the walk maps one y a pair
        F = field_in_state(p, e, tables, monkeypatch)
        ext = gf.QuadExt(F)
        q = F.q
        domain = [y for y in range(q) if y != F.half]
        domain += [F.half + t * q for t in range(1, q)]
        for n in [*range(1, 2 * q + 1), q * q - 2, q * q - 1, q * q,
                  q * q + 5, 10 ** 9 + 7]:
            for k in range(p):
                row = rd.functional_row(ext, n, k)
                for y in domain:
                    assert row(y) == row(one_minus(ext, y)), (n, k, y)

    def test_fibers_are_exact_pairs_when_pp(self):
        assert pc.is_pp_two_to_one(F9, 3, 1).verdict
        domain, values, excluded = two_to_one_pass(F9, 3, 1)
        fibers = collections.Counter(values)
        assert sum(fibers.values()) == len(domain) == 2 * F9.q - 2
        assert set(fibers.values()) == {2}
        assert excluded not in fibers

    def test_failure_carries_extension_witness(self):
        ext = gf.quadratic_extension(F5)
        n = next(n for n in range(1, 25)
                 if not pc.is_pp_two_to_one(F5, n, 0).verdict)
        (y,) = pc.is_pp_two_to_one(F5, n, 0).witness
        assert len(ext.coeffs(y)) == 2    # quadratic extension coordinates
        domain, values, excluded = two_to_one_pass(F5, n, 0)
        val = values[domain.index(y)]
        assert val == excluded or values.count(val) != 2

    def test_rejections(self):
        with pytest.raises(ValueError):
            pc.is_pp_two_to_one(gf.make_field(2, 2), 3, 1)
        with pytest.raises(ValueError):
            pc.is_pp_two_to_one(F5, 0, 1)

    def test_refusals_name_the_criterion_as_criteria_does(self):
        # both read "two_to_one", the --criteria name of the criterion
        with pytest.raises(ValueError) as exc:
            pc.is_pp_two_to_one(F5, 0, 1)
        assert str(exc.value) == "the two_to_one criterion needs n >= 1"
        with pytest.raises(ValueError) as exc:
            pc.is_pp_two_to_one(gf.make_field(2, 2), 3, 1)
        assert str(exc.value) == ("the two_to_one criterion needs odd "
                                  "characteristic")


def holds(entries):
    """A statement holds on a grid iff every entry has ok true."""
    return all(ent["ok"] for ent in entries)


class TestTheoremGrids:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            pc.verify_theorem("T9.9", [5], [1])

    def test_size_guard(self):
        with pytest.raises(ValueError):
            pc.verify_theorem("T2.1", [7], [4])

    def test_a0_statement(self):
        rows = pc.verify_theorem("T2.2", [5], [1], ns=range(25))
        assert holds(rows) and len(rows) == 25 * 5
        # spot-check one entry against a direct count
        ent = next(e for e in rows if e["n"] == 4 and e["k"] == 1)
        want = is_permutation(F5, lambda x: rd.eval_a0(F5, 4, 1, x))
        assert ent["lhs"] == want == ent["rhs"] and ent["ok"]
        # on GF(25), n/2 = 3 divides q - 1 = 24 but is prime to p - 1
        rows = pc.verify_theorem("T2.2", [5], [2], ns=[6])
        assert holds(rows) and not any(e["rhs"] for e in rows)

    def test_prime_power_statement_p3_vs_p5(self):
        assert holds(pc.verify_theorem("T2.1", [3], [1, 2]))
        rows = pc.verify_theorem("T2.1", [5], [1], ls=[1])
        assert holds(rows)
        assert all(e["rhs"] is False for e in rows)   # p > 3: never

    def test_pl1_statements(self):
        assert holds(pc.verify_theorem("T-pl1-k2", [3, 5], [1, 2],
                                       ls=[0, 1, 2]))
        rows = pc.verify_theorem("T-pl1-gen", [5], [1], ls=[0, 1])
        assert holds(rows)
        assert all(e["k"] != 2 for e in rows)
        # on GF(27), (3^3 - 1)/2 = 13 divides q - 1 = 26 but not p - 1
        rows = pc.verify_theorem("T-pl1-k2", [3], [3], ls=[3])
        assert holds(rows) and not any(e["rhs"] for e in rows)

    def test_pl2_statements(self):
        rows = pc.verify_theorem("T-pl2-k2", [5], [1, 2], ls=[0, 1])
        assert holds(rows)
        assert all("binomial_pp" in e for e in rows)
        rows = pc.verify_theorem("T-pl2-k4", [5, 7], [1], ls=[0, 1])
        assert holds(rows)
        assert all("l_zero_claim_ok" in e for e in rows)
        assert pc.verify_theorem("T-pl2-k4", [3], [1]) == []
        rows = pc.verify_theorem("T-pl2-gen", [7], [1], ls=[0, 1])
        assert holds(rows)
        assert all(e["k"] not in (0, 2, 4) for e in rows)

    def test_k0_order_plus_two(self):
        rows = pc.verify_theorem("T-k0-pe2", [3, 5, 7], [1, 2])
        assert holds(rows)
        by_q = {e["q"]: e["rhs"] for e in rows}
        assert by_q == {3: False, 9: False, 5: False, 25: True,
                        7: True, 49: True}


class TestStatementTable:
    BASE = {"field", "q", "n", "k", "lhs", "rhs", "ok"}
    SHAPES = {"T2.2": BASE, "T2.1": BASE | {"l"}, "T-pl1-k2": BASE | {"l"},
              "T-pl1-gen": BASE | {"l"},
              "T-pl2-k2": BASE | {"l", "binomial_pp"},
              "T-pl2-k4": BASE | {"l", "l_zero_claim_ok"},
              "T-pl2-gen": BASE | {"l"}, "T-k0-pe2": BASE | {"l"}}

    def test_ids_and_order(self):
        assert pc.THEOREM_IDS == tuple(self.SHAPES)

    @pytest.mark.parametrize("theorem", pc.THEOREM_IDS)
    def test_row_shape(self, theorem):
        # pins the CSV columns of `verify` for each statement: the CLI
        # reads every column of every entry, across fields too
        rows = pc.verify_theorem(theorem, [5], [1, 2], ns=[2, 3], ls=[0, 1])
        assert len({ent["field"] for ent in rows}) == 2
        assert all(set(ent) == self.SHAPES[theorem] for ent in rows)

    @pytest.mark.parametrize("theorem", pc.THEOREM_IDS)
    @pytest.mark.parametrize("axes", [
        {},
        {"ns": [0, 3, 3, 8], "ls": [0, 2, 2], "ks": [0, 2, 2, 4, 9, -1]},
        {"ns": [1], "ls": [1], "ks": [2]},
    ])
    def test_grid_size_is_exact(self, theorem, axes):
        # duplicate kinds count twice, kinds outside the statement's
        # domain not at all, exactly as verify_theorem runs them
        rows = pc.verify_theorem(theorem, [3, 5], [1, 2], **axes)
        grid = pc.statement_grid(theorem, [3, 5], [1, 2], **axes)
        assert pc.grid_size(grid) == len(rows)
        assert len(list(pc.grid_points(theorem, grid))) == len(rows)

    @pytest.mark.parametrize("theorem", pc.THEOREM_IDS)
    @pytest.mark.parametrize("ps, es, match", [
        ([2], [1], "odd characteristic"),
        ([10 ** 9 + 7], [1], "size bound"),
        ([3], [10 ** 12], "size bound"),
    ])
    def test_grid_size_refuses_what_verify_refuses(self, theorem, ps, es,
                                                   match):
        # checked before any kind list or p^e is built, by the one
        # validation that the CLI's size guard and scan both read
        for fn in (pc.statement_grid, pc.verify_theorem):
            with pytest.raises(ValueError, match=match):
                fn(theorem, ps, es, ls=[0])

    @pytest.mark.parametrize("theorem", pc.THEOREM_IDS)
    def test_grid_size_without_a_bound_takes_any_field(self, theorem):
        # max_q=None, what the CLI passes under --unsafe-large, refuses
        # no q; T2.2 takes its default indices 0..30
        size = pc.grid_size(pc.statement_grid(
            theorem, [10 ** 9 + 7], [1], ls=[0], ks=[1], max_q=None))
        assert size == (31 if theorem == "T2.2" else 1)

    @pytest.mark.parametrize("theorem", [t for t in pc.THEOREM_IDS
                                         if t not in ("T2.2", "T-k0-pe2")])
    def test_exponents_whose_n_cannot_print_are_refused(self, theorem):
        # 3^9012 + 2 has 4300 decimal digits, 3^9013 has 4301; both
        # functions refuse alike, before any p^l with l = 10^12 is formed
        pc.statement_grid(theorem, [3], [1], ls=[9012])
        for ls in ([0, 9013], [10 ** 12]):
            for fn in (pc.statement_grid, pc.verify_theorem):
                with pytest.raises(ValueError, match="--l"):
                    fn(theorem, [3], [1], ls=ls)

    def test_an_exponent_past_the_float_range_is_refused(self):
        # l log10(p) overflowed a float past l = 10^308: a traceback
        for l in (10 ** 400, 10 ** 4299):
            with pytest.raises(ValueError, match="is too large for p = 3"):
                pc.statement_grid("T2.1", [3], [1], ls=[l])

    @pytest.mark.parametrize("ps, es, max_q, match", [
        ([9], [1], gf.DEFAULT_MAX_Q, "p must be prime, got 9"),
        ([3, 9], [1], None, "p must be prime, got 9"),
        ([3], [0], None, "e must be a positive integer, got 0"),
        ([3317044064679887385961981], [1], None, "decided exactly")])
    def test_each_field_of_a_grid_passes_the_field_rule(
            self, monkeypatch, ps, es, max_q, match):
        # the rule, gf.check_field, refuses before any field is built
        def refuse(*args):
            raise AssertionError("a field was built before the rule ran")
        monkeypatch.setattr(gf, "make_field", refuse)
        for fn in (pc.statement_grid, pc.verify_theorem):
            with pytest.raises(ValueError, match=match):
                fn("T2.1", ps, es, max_q=max_q)

    def test_the_exponent_bound_reads_the_live_digit_limit(self):
        # 3^1341 has 640 decimal digits, 3^1342 has 641
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            pc.statement_grid("T2.1", [3], [1], ls=[1341])
            with pytest.raises(ValueError, match="640 decimal digits"):
                pc.statement_grid("T2.1", [3], [1], ls=[1342])
        finally:
            sys.set_int_max_str_digits(old)
