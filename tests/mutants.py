"""Mutant catalogue: each fast route with the oracle tests that catch it.

Every row of MUTANTS changes one line of the package: the file under
src/rdickson, the exact old text (which must occur there once), the new
text, the route the change breaks and the ids of the tests that must
fail on it.  For each row the script copies the tree to a temporary
directory, runs the named tests there once unchanged (they must pass)
and once with the change applied (each must fail).  It exits 1 if a
mutant survives, if its old text is gone or repeated, or if a named
test fails on the unchanged tree.

Run from anywhere, with pytest installed (pytest does not collect this
file):

    python tests/mutants.py            # every mutant
    python tests/mutants.py lucas sub  # the rows whose route names one
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "*.egg-info")

CHARSUM = "tests/test_charsum.py::"
CLI = "tests/test_cli.py::"
GF = "tests/test_gf.py::"
PERMCHECK = "tests/test_permcheck.py::"
RDPOLY = "tests/test_rdpoly.py::"
SUITE = "tests/test_acceptance.py::test_criterion_3_theorem_suite"

# (file, old text, new text, route, test ids that must fail)
MUTANTS = [
    ("charsum.py",
     "+ p * ones - (",
     "+ p * ones + (",
     "sum recurrence: the sign of a lag term",
     [CHARSUM + "TestSumTable::test_matches_bruteforce_all_k[GF(25)]"]),
    ("rowkernels.py",
     "(w * w - x * u * u) % p\n",
     "(w * w + x * u * u) % p\n",
     "lucas, prime-field body: the doubling step",
     [RDPOLY + "TestRowKernels::"
      "test_each_body_matches_the_stepped_recurrence[GF(7)-tables]",
      RDPOLY + "TestEvaluatorAgreement::test_four_routes_small_grid[GF(7)]"]),
    ("rowkernels.py",
     "return (k * (n - 1) + 2) * pow(",
     "return (k * (n + 1) + 2) * pow(",
     "the x = 1/4 constant: value_at_quarter's numerator",
     [RDPOLY + "TestQuarterPoint::test_constant_equals_sequence_value",
      CHARSUM + "TestQuarterOffsets::"
      "test_running_power_matches_value_at_quarter[GF(5)]",
      CLI + "TestChecks::"
      "test_pp_criteria_split_on_a_wrong_quarter_constant[7-29]"]),
    # x -> -x is a bijection, so no permutation verdict sees this one:
    # value tests at a = 0 must
    ("rowkernels.py",
     "F.pow(F.neg(x), n // 2)",
     "F.pow(x, n // 2)",
     "the a = 0 closed value: eval_a0 reads (-x)^(n/2) as x^(n/2)",
     [RDPOLY + "TestEvaluatorAgreement::test_a0_closed_value",
      RDPOLY + "TestEvaluatorAgreement::"
      "test_general_a_definition_matches_recurrence"]),
    ("permcheck.py",
     "seen = {rowkernels.value_at_quarter(F, n, k)}",
     "seen = set()",
     "2-to-1 criterion: the seen-set without its excluded seed",
     [PERMCHECK + "TestTwoToOne::test_agrees_with_brute_force_everywhere",
      PERMCHECK + "TestTwoToOne::"
      "test_verdict_is_the_full_domain_fiber_count[GF(5)]"]),
    ("permcheck.py",
     "(p + 1) // 2 * p ** i)",
     "(p + 1) // 2 * p ** i + 1)",
     "2-to-1 criterion: a pair walked twice, as t and as -t",
     [PERMCHECK + "TestTwoToOne::test_agrees_with_brute_force_everywhere",
      PERMCHECK + "TestTwoToOne::test_stops_at_the_first_point_that_decides"]),
    ("permcheck.py",
     "range(p ** i, ",
     "range(p ** i + 1, ",
     "2-to-1 criterion: a pair skipped, t = p^i never walked",
     [PERMCHECK + "TestTwoToOne::test_stops_at_the_first_point_that_decides",
      PERMCHECK + "TestTwoToOne::test_witness_is_the_last_point_mapped"]),
    ("permcheck.py",
     "(half + t * q for r in ts for t in r)",
     "(half * q + t for r in ts for t in r)",
     "2-to-1 criterion: V's point 1/2 + t s encoded with its coordinates "
     "swapped",
     [PERMCHECK + "TestTwoToOne::test_agrees_with_brute_force_everywhere",
      PERMCHECK + "TestTwoToOne::test_witness_is_the_last_point_mapped"]),
    ("rdpoly.py",
     "return F.add(F.mul(kh, low), F.sub(1, kh))",
     "return F.add(F.mul(kh, low), F.sub(1, k))",
     "closed form, n = p^l: the constant 1 - k/2 read as 1 - k",
     [RDPOLY + "TestClosedForm::test_all_supported_shapes[GF(5)]",
      RDPOLY + "TestClosedForm::test_all_supported_shapes[GF(9)]"]),
    ("rdpoly.py",
     "F.mul(F.sub(half, kq), high)",
     "F.mul(F.add(half, kq), high)",
     "closed form, n = p^l + 1: the high term's 1/2 - k/4 read as "
     "1/2 + k/4",
     [RDPOLY + "TestClosedForm::test_all_supported_shapes[GF(5)]",
      RDPOLY + "TestClosedForm::test_all_supported_shapes[GF(9)]"]),
    ("rdpoly.py",
     "return F.add(F.sub(t, F.mul(F.sub(1, kh), x)), half)",
     "return F.add(F.add(t, F.mul(F.sub(1, kh), x)), half)",
     "closed form, n = p^l + 2: the term (1 - k/2) x added, not "
     "subtracted",
     [RDPOLY + "TestClosedForm::test_all_supported_shapes[GF(5)]",
      RDPOLY + "TestClosedForm::test_all_supported_shapes[GF(9)]"]),
    ("rowkernels.py",
     "d = zech[(ly + zech[0] + h) % m] + h",
     "d = zech[(ly + zech[0] + h) % m]",
     "binet, log body: the sign of y - z",
     [RDPOLY + "TestRowKernels::"
      "test_binet_matches_the_method_formula[GF(25)-tables]",
      RDPOLY + "TestRowKernels::"
      "test_binet_matches_the_method_formula[GF(7)-tables]",
      RDPOLY + "TestFunctionalRow::"
      "test_row_matches_the_point_formula[GF(25)-tables]",
      PERMCHECK + "TestTwoToOne::test_agrees_with_brute_force_everywhere"]),
    ("charsum.py",
     "if d[q * q:] != d[1:2 * q + 1]:",
     "if d[q * q:q * q + q] != d[1:q + 1]:",
     "sum recurrence: the period guard over one block, not two",
     [CHARSUM + "TestSumTable::"
      "test_period_guard_fires_on_a_faulty_recurrence[5]"]),
    # p = 2 keeps the period without the factor 2, so only odd fields
    # kill this one
    ("rowkernels.py",
     "m = (n - 1) % (F.p * (F.q * F.q - 1))",
     "m = (n - 1) % (F.q * F.q - 1)",
     "recurrence row: the period's factor p dropped, x = 1/4 misread",
     [RDPOLY + "TestDoublingKernel::test_huge_index[3^2/2,1,1]",
      RDPOLY + "TestDoublingKernel::test_huge_index[3^3/1,0,2,1]",
      RDPOLY + "TestQuarterPoint::"
      "test_index_reduction_is_wrong_at_quarter_and_patched[343]"]),
    ("rowkernels.py",
     "F.p * (F.q * F.q - 1)",
     "F.p * F.q * F.q",
     "recurrence row: the index reduced mod p q^2, not p(q^2 - 1)",
     [RDPOLY + "TestDoublingKernel::test_huge_index[2^3/1,0,1,1]",
      RDPOLY + "TestDoublingKernel::test_huge_index[3^2/2,1,1]",
      RDPOLY + "TestDoublingKernel::test_huge_index[3^3/1,0,2,1]"]),
    ("gf.py",
     "return self.mul(self.p - 1, a)",
     "return self.mul(1, a)",
     "FieldSpec.neg as the product with 1",
     [GF + "test_digit_recursion_add_tables_match_per_pair[7-3]",
      GF + "test_digit_recursion_add_tables_match_per_pair[337-1]",
      GF + "test_digit_recursion_add_tables_match_per_pair[3-2-no-tables]"]),
    ("gf.py",
     "return self.add(a, self.neg(b))",
     "return self.add(a, b)",
     "FieldSpec.sub without the negative",
     [GF + "test_digit_recursion_add_tables_match_per_pair[7-3]",
      GF + "test_digit_recursion_add_tables_match_per_pair[337-1]",
      GF + "test_digit_recursion_add_tables_match_per_pair[3-2-no-tables]"]),
    ("gf.py",
     "return self.pow(a, -1)",
     "return self.pow(a, 1)",
     "FieldSpec.inv as the power 1",
     [GF + "test_inverses_all_fields", GF + "test_inverse_in_gf5"]),
    ("sumoracle.py",
     "[(a - b) % p for a, b in zip([0] + mixer, mixer + [0])]",
     "[(a + b) % p for a, b in zip([0] + mixer, mixer + [0])]",
     "c's mixer: the Horner step by z + 1, not z - 1",
     [CHARSUM + "TestCVector::test_mixer_matches_its_binomial_expansion[5]",
      CHARSUM + "TestCVector::test_matches_products_of_the_definition[5]"]),
    ("sumoracle.py",
     "chain([0] * q, d)",
     "chain([0] * (q + 1), d)",
     "residue identity: the left side's z^q copy of d",
     [CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums"]),
    ("sumoracle.py",
     "chain([0] * (q - 1), d, [0])",
     "chain([0] * (q - 2), d, [0, 0])",
     "residue identity: the left side's z^(q-1) copy of d",
     [CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums"]),
    ("sumoracle.py",
     "chain(d, [0] * q)",
     "chain([0], d, [0] * (q - 1))",
     "residue identity: the left side's unshifted copy of d",
     [CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums"]),
    ("sumoracle.py",
     "return lhs == c_coeffs(F, k)",
     "return lhs == lhs[:len(c_coeffs(F, k))]",
     "residue identity: c built but the left side compared with itself",
     [CHARSUM + "TestResidueIdentity::test_fails_on_one_wrong_sum[GF(5)]",
      CHARSUM + "TestResidueIdentity::"
      "test_fails_on_one_wrong_c_coefficient[GF(25)]"]),
    ("sumoracle.py",
     "for s in range(0, q * q - q + 1, q - 1):",
     "for s in range(0, q * q - q + 1, q + 1):",
     "c's teeth: the stride q + 1, not q - 1",
     [CHARSUM + "TestCVector::test_matches_products_of_the_definition[5]",
      CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums"]),
    ("rowkernels.py",
     "z = zech[(xh + 2 * (u - w)) % m]",
     "z = zech[(xh + 2 * (w - u)) % m]",
     "lucas, log body: the sign of U_i - U_(i+1) in U_(2i+1)",
     [RDPOLY + "TestRowKernels::"
      "test_each_body_matches_the_stepped_recurrence[GF(9)-tables]",
      RDPOLY + "TestRowKernels::"
      "test_each_body_matches_the_stepped_recurrence[GF(25)-tables]"]),
    # add and sub agree in characteristic 2, so GF(8) without tables
    # does not see this one
    ("rowkernels.py",
     "u, w = w, sub(w, mul(x, u))",
     "u, w = w, add(w, mul(x, u))",
     "lucas, method body: the one-bit step's U_(i+1) - x U_i as a sum",
     [RDPOLY + "TestRowKernels::"
      "test_each_body_matches_the_stepped_recurrence[GF(9)-none]",
      *(CLI + "TestExtensionTables::"
        f"test_output_is_the_same_with_tables_on_and_off[argv{i}]"
        for i in range(5))]),
    # fields with tables reach the method body too, when binet's log
    # body meets a zero
    ("rowkernels.py",
     "return mul(num, F.inv(sub(y, z)))",
     "return mul(num, F.inv(sub(z, y)))",
     "binet, method body: the sign of the denominator y - z",
     [*(RDPOLY + "TestRowKernels::test_binet_matches_the_method_formula"
        f"[GF({q})-{tables}]" for q, tables in (
            (5, "tables"), (9, "tables"), (9, "none"), (7, "none"))),
      RDPOLY + "TestEvaluatorAgreement::test_four_routes_small_grid[GF(5)]",
      RDPOLY + "TestEvaluatorAgreement::test_four_routes_small_grid[GF(7)]",
      *(RDPOLY + "TestFunctionalMap::"
        f"test_base_line_and_v_against_two_powers[GF({q})]"
        for q in (13, 25, 49)),
      *(RDPOLY + "TestFunctionalRow::test_row_matches_the_point_formula"
        f"[GF({q})-{tables}]" for q, tables in (
            (5, "tables"), (7, "tables"), (25, "tables"), (49, "tables"),
            (125, "tables"), (9, "none"), (7, "none"))),
      PERMCHECK + "TestTwoToOne::test_agrees_with_brute_force_everywhere",
      PERMCHECK + "TestTwoToOne::test_stops_at_the_first_point_that_decides",
      "tests/test_acceptance.py::test_criterion_1_four_way_equivalence",
      "tests/test_acceptance.py::test_criterion_4_two_to_one_equivalence",
      GF + "test_a_wrong_base_power_fails_the_build",
      CLI + "test_readme_cli_example[pp --field 7 --n 1..10 --k 0..6-None]",
      *(CLI + f"TestPPWriter::test_bytes_match_whole_grid_rendering[25-{fmt}]"
        for fmt in ("pretty", "json", "csv")),
      CLI + "TestPPWriter::test_grid_memory_peak_per_row",
      CLI + "TestParser::test_flag_value_argv_runs_as_its_plain_form[pp]",
      *(CLI + "TestChecks::test_pp_criteria_split_on_a_wrong_quarter_"
        f"constant[{case}]" for case in ("7-29", "25-15")),
      *(CLI + "TestExtensionTables::"
        f"test_output_is_the_same_with_tables_on_and_off[argv{i}]"
        for i in range(3)),
      CLI + "TestGuardsAndErrors::"
      "test_reader_closing_the_pipe_keeps_the_exit_code[pp]"]),
    ("quadext.py",
     "exp[(log[d] - log[2] + alpha + l1 - log[t]) % m])",
     "exp[(log[d] + log[2] + alpha + l1 - log[t]) % m])",
     "QuadExt.binet, coset-table body: B times 2t, not over it",
     [RDPOLY + "TestFunctionalRow::"
      "test_row_matches_the_point_formula[GF(25)-tables]",
      RDPOLY + "TestFunctionalMap::"
      "test_base_line_and_v_against_two_powers[GF(25)]"]),
    ("gf.py",
     "z = zech[self._log[b] - la]",
     "z = zech[la - self._log[b]]",
     "FieldSpec.add, Zech add: log(b/a) read as log(a/b)",
     [GF + "test_digit_recursion_add_tables_match_per_pair[3-5]",
      GF + "test_digit_recursion_add_tables_match_per_pair[2-8]"]),
    ("rowkernels.py",
     "n = (n - 1) % (ext.size - 1) + 1 if n else 0",
     "n = (n - 1) % ext.size + 1 if n else 0",
     "functional row: the index reduced mod q^2, not q^2 - 1",
     [RDPOLY + "TestFunctionalRow::"
      "test_row_matches_the_point_formula[GF(5)-tables]",
      RDPOLY + "TestFunctionalRow::"
      "test_row_matches_the_point_formula[GF(9)-none]",
      RDPOLY + "TestFunctionalMap::"
      "test_base_line_and_v_against_two_powers[GF(13)]"]),
    ("rdpoly.py",
     "(a, F.neg(x), 1, 0)",
     "(a, x, 1, 0)",
     "matrix route: the step matrix's -x read as x",
     [RDPOLY + "TestMatrixRoute::"
      "test_every_small_case_against_the_plain_loop[GF(5)]",
      RDPOLY + "TestMatrixRoute::"
      "test_every_small_case_against_the_plain_loop[GF(9)]",
      RDPOLY + "TestMatrixRoute::"
      "test_unreduced_index_against_the_recurrence[25]"]),
    ("rowkernels.py",
     "scale = F.inv(F.mul(a, a))",
     "scale = F.inv(a)",
     "recurrence row: the rescale of x by 1/a, not 1/a^2",
     [RDPOLY + "TestEvaluatorAgreement::"
      "test_general_a_definition_matches_recurrence",
      RDPOLY + "TestPeriodAndScaling::test_scaling_identity"]),
    ("rdpoly.py",
     "F.mul(powers[s * i % m], y[i % r])",
     "F.mul(powers[s * i % r], y[i % r])",
     "as_polynomial's transform: the twiddle index mod m/f, not m",
     [RDPOLY + "TestAsPolynomial::test_transform_against_the_naive_transform"
      "[27]",
      RDPOLY + "TestAsPolynomial::test_transform_matches_the_quadratic_sums"
      "[27]"]),
    # on GF(25) and GF(27) an orbit has m = 1, read without a trace, or
    # m = e, so only GF(81)'s orbits of length 2 tell m from e
    ("sumoracle.py",
     "for i in range(m)])",
     "for i in range(F.e)])",
     "sum oracle: the trace over e Frobenius powers, not the orbit's m",
     [CHARSUM + "TestUColumns::test_every_kind_matches_the_per_kind_loop[81]"]),
    ("sumoracle.py",
     "share = col if m == 1 else",
     "share = col if m < 3 else",
     "sum oracle: a column of an orbit of length 2 read without its trace",
     [CHARSUM + "TestUColumns::test_every_kind_matches_the_per_kind_loop[81]"]),
    ("charsum.py",
     "neg = (neg + (neg & ones) * p) >> 1",
     "neg = (neg + (neg & ones) * p) >> 1 if len(d) > q else neg",
     "the x = 1/4 offsets: the second block's not halved from the first's",
     [CHARSUM + "TestQuarterOffsets::"
      "test_running_power_matches_value_at_quarter[GF(25)]",
      CHARSUM + "TestCompactTables::"
      "test_offset_lanes_halve_at_every_width[127-8]",
      CHARSUM + "TestCompactTables::"
      "test_offset_lanes_halve_at_every_width[65537-33]"]),
    # the running power is read by the table's first block and by the
    # oracle alike, so the oracle's own checks must see it
    ("charsum.py",
     "r = r * inv2 % p",
     "r = r * 2 % p",
     "the x = 1/4 offsets: the running power stepped by 2, not 1/2",
     [CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums",
      CLI + "TestChecks::test_a_wrong_table_d_fails_its_row[24]"]),
    ("sumoracle.py",
     "cycle([(k * (n - 1) + 2) % p for n in range(p)])",
     "cycle([(k * (n - 1) + 2) % p for n in range(p - 1)])",
     "the oracle's offsets: k(n-1) + 2 cycled with period p - 1, not p",
     [CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums",
      CHARSUM + "TestQuarterOffsets::test_period_repeats_around_its_length[5]",
      CLI + "TestChecks::test_a_wrong_table_d_fails_its_row[24]"]),
    ("charsum.py",
     "if p - 1 < 1 << 8 * array(tc).itemsize)",
     "if p - 1 <= 1 << 8 * array(tc).itemsize)",
     "compact tables: p = 257 held in one byte",
     [CHARSUM + "TestCompactTables::test_matches_the_list_built_table[257]",
      CHARSUM + "TestCompactTables::"
      "test_typecode_is_the_narrowest_that_holds_p[257]"]),
    ("sumoracle.py",
     "if c[0] != 0:",
     "if c[0] < 0:",
     "c's constant-term check: a sign that reduced entries never have",
     [CHARSUM + "TestCVector::"
      "test_shape_checks_fire_on_a_wrong_mixer[<lambda>-constant term]"]),
    ("sumoracle.py",
     "if any(c[size:]):",
     "if any(c[size + 1:]):",
     "c's degree check: from one past the bound",
     [CHARSUM + "TestCVector::"
      "test_shape_checks_fire_on_a_wrong_mixer[<lambda>-degree]"]),
    ("charsum.py",
     "    d[0] = 0\n    return S, d\n",
     "    return S, d\n",
     "shifted sums: the table's d[0] left at S[0] minus the offset 2 - k",
     [CHARSUM + "TestSumTable::test_row_zero_is_held_at_zero[GF(5)]",
      CHARSUM + "TestQuarterOffsets::"
      "test_running_power_matches_value_at_quarter[GF(5)]"]),
    ("sumoracle.py",
     "    d[0] = 0\n    return d\n",
     "    return d\n",
     "shifted sums: the oracle's d[0] left at S[0] minus the offset 2 - k",
     [CHARSUM + "TestQuarterOffsets::test_row_zero_is_held_at_zero[5]",
      CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums"]),
    ("permcheck.py",
     "if v in seen:",
     "if v in seen and seen[v]:",
     "image scan: the collision test misses a collision with x = 0",
     [PERMCHECK + "TestBruteForce::test_witness_may_be_the_first_point",
      PERMCHECK + "TestTwoToOne::test_agrees_with_brute_force_everywhere"]),
    ("cli.py",
     "block = range(max(lo, rows.start), min(lo + size, rows.stop))",
     "block = range(max(lo + 1, rows.start), min(lo + size, rows.stop))",
     "block writer: each block after the first starts one row late",
     [CLI + "TestSumsWriter::test_row_numbers_are_the_decimals_of_n"
      "[343-pretty]",
      CLI + "TestSumsWriter::test_bytes_match_across_write_blocks[csv]",
      CLI + "TestPPWriter::test_bytes_match_across_write_blocks[csv]"]),
    ("cli_values.py",
     '"fnk,", map(str, b),',
     '"fnk,", map(str, range(len(b))),',
     "fnk row writer: each FNK_ROWS_PER_WRITE block numbers its degrees "
     "from 0",
     [CLI + "TestPolyWriter::test_bytes_match_whole_document_rendering"
      "[5-3-1931-csv]"]),
    ("rdpoly.py",
     "(c * i // (n - i)))",
     "(c * i // (n - i + 1)))",
     "ratio-built row: C(n-i-1, i-1) read as C(n-i, i) i / (n-i+1)",
     [RDPOLY + "TestWeights::test_rows_match_recurrence_over_z",
      RDPOLY + "TestWeights::test_ratio_rows_match_binomials_at_large_n"
      "[2047]"]),
    ("rdpoly.py",
     "c = step // (2 * j + 2)",
     "c = step // (2 * j + 1)",
     "ratio-built fnk row: C(n, 2j+2) stepped over 2j + 1, not 2j + 2",
     [RDPOLY + "TestFnk::test_k1_expansion_against_inline_binomials",
      RDPOLY + "TestWeights::test_fnk_ratio_row_matches_binomials_at_large_n"
      "[1931]"]),
    ("rdpoly.py",
     "t = F.sub(1, F.mul(F.from_int(4), x))",
     "t = F.sub(1, F.mul(F.from_int(2), x))",
     "half-scaled route: the fnk row read at 1 - 2x, not 1 - 4x",
     [RDPOLY + "TestEvaluatorAgreement::test_four_routes_small_grid[GF(5)]",
      RDPOLY + "TestEvaluatorAgreement::test_four_routes_small_grid[GF(7)]"]),
    ("gf.py",
     '__getattr__ = _loader(globals(), ("quadext",))',
     "__getattr__ = _loader(globals())",
     "deferred names: gf forwards every name of _HOMES, not only quadext's",
     [CLI + "TestModuleEntry::test_split_modules_forward_their_public_names"]),
    ("__init__.py",
     "value = namespace[name] = getattr(",
     "value = getattr(",
     "deferred names: a forwarded name not kept where it was read, so the "
     "tracer's wrapper would not replace it",
     [CLI + "TestModuleEntry::test_split_modules_forward_their_public_names"]),
    ("cli.py",
     '(("cli_grids", "cmd_pp"),',
     '(("cli_sums", "cmd_sums"),',
     "command table: pp's entry names the sums handler and its module",
     [CLI + "TestParser::test_each_command_dispatches_to_its_handler_module"
      "[argv2-rdickson.cli_grids-cmd_pp]",
      CLI + "TestModuleEntry::test_each_command_loads_only_the_modules_it_runs"
      "[argv4-extra4]"]),
    ("__main__.py",
     "    gc.freeze()\n",
     "",
     "process entry: run returns without freezing the heap",
     [CLI + "TestModuleEntry::test_run_returns_mains_code_and_freezes_once"
      "[ok]"]),
    # run still freezes here; what fails is main's own freeze, which an
    # in-process caller would keep for life
    ("cli.py",
     "    args = _fast_args(argv)\n",
     "    __import__(\"gc\").freeze()\n    args = _fast_args(argv)\n",
     "process entry: a freeze in cli.main",
     [CLI + "TestModuleEntry::test_main_never_freezes"]),
    ("gf.py",
     "        if i == order - 1:\n",
     "        if order % (i + 1) == 0:\n",
     "_cyclic_tables' order test: a walk back at 1 before q - 1 steps is "
     "taken for a generator",
     [GF + "test_prime_field_tables_start_at_the_first_primitive_root[7]",
      GF + "test_linear_walk_tables_match_the_slow_walk[3-2]"]),
    ("quadext.py",
     "m, c = i, F.mul(b, b)",
     "m, c = i, b",
     "Tonelli-Shanks' root-fixing round: c not squared for the next round",
     [GF + "test_sqrt_ext_matches_scan[17]",
      GF + "test_sqrt_ext_matches_scan[41]",
      RDPOLY + "TestEvaluatorAgreement::test_four_routes_small_grid[GF(5)]"]),
    ("permcheck.py",
     "    digits = gf.digit_limit()\n",
     "    digits = 4300\n",
     "_n_prints: n's digits held to the default limit, not the "
     "interpreter's",
     [PERMCHECK + "TestStatementTable::"
      "test_the_exponent_bound_reads_the_live_digit_limit",
      CLI + "TestGuardsAndErrors::"
      "test_a_lowered_digit_limit_leaves_no_partial_output[verify-json]",
      CLI + "TestGuardsAndErrors::"
      "test_a_lowered_digit_limit_leaves_no_partial_output[verify-csv]"]),
    ("gf.py",
     'if all(map(str.isdecimal, body.split("_"))):',
     "if False:",
     "read_int: an integer past the digit limit refused as malformed text, "
     "echoed whole",
     [GF + "test_read_int_names_the_limit_past_it[plain-]",
      GF + "test_read_int_names_the_limit_past_it[underscores--]",
      CLI + "TestGuardsAndErrors::"
      "test_an_integer_past_the_digit_limit_is_named_not_echoed[eval-n]",
      CLI + "TestGuardsAndErrors::"
      "test_an_integer_past_the_digit_limit_is_named_not_echoed[field-e]"]),
    ("cli_values.py",
     "if fnk and max(map(abs, fnk)) >= 10 ** gf.digit_limit():",
     "if False:",
     "poly's digit guard: an integer row past the limit written in part",
     [CLI + "TestGuardsAndErrors::"
      "test_a_lowered_digit_limit_leaves_no_partial_output[poly-pretty]",
      CLI + "TestGuardsAndErrors::"
      "test_a_lowered_digit_limit_leaves_no_partial_output[poly-json]",
      CLI + "TestGuardsAndErrors::"
      "test_a_lowered_digit_limit_leaves_no_partial_output[poly-csv]"]),
    ("gf.py",
     "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
     "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
     "is_prime: base 41 dropped, so psi_12 passes for a prime",
     [GF + "test_is_prime_refuses_strong_pseudoprimes[psi12]",
      CLI + "TestGuardsAndErrors::test_strong_pseudoprimes_are_refused"
      "[psi12-eval]"]),
    ("gf.py",
     "    if p >= _MR_EXACT:\n",
     "    if False:\n",
     "the field rule: a p at or past psi_13 admitted untested",
     [GF + "test_check_field_order[psi13]",
      GF + "test_check_field_order[big]",
      CLI + "TestGuardsAndErrors::test_strong_pseudoprimes_are_refused"
      "[psi13-unsafe]"]),
    ("gf.py",
     """    if max_q is not None and p ** min(e, max_q.bit_length()) > max_q:
        raise ValueError(f"GF({excerpt(p)}^{excerpt(e)}) exceeds the size "
                         f"bound q <= {max_q}; pass --unsafe-large")
    if p >= _MR_EXACT:
        raise ValueError(f"p must lie below {_MR_EXACT}, where primality "
                         f"is decided exactly, got {excerpt(p)}")
""",
     """    if p >= _MR_EXACT:
        raise ValueError(f"p must lie below {_MR_EXACT}, where primality "
                         f"is decided exactly, got {excerpt(p)}")
    if max_q is not None and p ** min(e, max_q.bit_length()) > max_q:
        raise ValueError(f"GF({excerpt(p)}^{excerpt(e)}) exceeds the size "
                         f"bound q <= {max_q}; pass --unsafe-large")
""",
     "the field rule: the size bound checked after the psi_13 refusal",
     [GF + "test_check_field_order[psi13-size]",
      CLI + "TestGuardsAndErrors::test_strong_pseudoprimes_are_refused"
      "[psi13]",
      CLI + "TestGuardsAndErrors::"
      "test_a_large_prime_is_refused_for_its_size_at_once[field-info]"]),
    ("gf.py",
     "return text if len(text) <= 63 else",
     "return text if True else",
     "excerpt: a long argument echoed whole in its refusal",
     [GF + "test_excerpt_keeps_the_head_and_tail_of_long_text[int-4001]",
      CLI + "TestGuardsAndErrors::test_a_refusal_quotes_a_bounded_excerpt"
      "[pp-n]",
      CLI + "TestGuardsAndErrors::test_a_refusal_quotes_a_bounded_excerpt"
      "[field-size]"]),
    ("gf.py",
     "                nxt += d * col\n",
     "                nxt += col\n",
     "_cyclic_tables' linear walk: the next product by g without its digit",
     [GF + "test_linear_walk_tables_match_the_slow_walk[3-2]",
      GF + "test_linear_walk_tables_match_the_slow_walk[7-1]"]),
    ("gf.py",
     "    check_field(p, e, max_q)\n",
     "    check_field(p, e)\n",
     "make_field: the bound it is given left unapplied",
     [CLI + "TestGuardsAndErrors::test_field_size_guard",
      CLI + "TestGuardsAndErrors::"
      "test_field_size_guard_runs_before_the_field_is_built[3^40]"]),
    ("gf.py",
     "    if isinstance(value, int) and abs(value) >= 10 ** digit_limit():\n",
     "    if False:\n",
     "excerpt: an integer past the digit limit quoted by its repr",
     [GF + "test_excerpt_keeps_the_head_and_tail_of_long_text[int-4301]",
      GF + "test_excerpt_gives_an_integer_past_the_limit_by_its_digit_count",
      CLI + "TestGuardsAndErrors::"
      "test_a_grid_count_past_the_digit_limit_is_refused_in_one_line[pp]"]),
    # every route reads k mod p alone, so only the printed kind shows it
    ("cli_grids.py",
     "ks = [k % F.p for k in ",
     "ks = [k for k in ",
     "the kind rule: pp's kinds not reduced where the CLI reads them",
     [CLI + "TestChecks::"
      "test_a_kind_moved_by_a_multiple_of_p_writes_the_same_bytes[pretty-pp]",
      CLI + "TestChecks::"
      "test_a_kind_moved_by_a_multiple_of_p_writes_the_same_bytes[json-pp]"]),
    ("cli_values.py",
     'k = _parse_int(args.k, "--k") % F.p\n    x =',
     'k = _parse_int(args.k, "--k")\n    x =',
     "the kind rule: eval's kind not reduced where the CLI reads it",
     [CLI + "TestChecks::test_a_kind_moved_by_a_multiple_of_p_writes_the_"
      "same_bytes[json-eval-25]"]),
    ("quadext.py",
     "F.mul(r1, half)))",
     "r1))",
     "solve_y: y's s coordinate r1, not r1 / 2",
     [GF + "test_solve_y_inverts_the_parabola",
      RDPOLY + "TestEvaluatorAgreement::test_four_routes_small_grid[GF(5)]"]),
    # the right side of each permutation statement, against its left side
    # (an exhaustive scan) on the grids of the statement tests
    ("permcheck.py",
     "and math.gcd(n // 2, F.q - 1) == 1)",
     "and math.gcd(n // 2, F.p - 1) == 1)",
     "statement T2.2's right side: gcd(n/2, p - 1), not gcd(n/2, q - 1)",
     [PERMCHECK + "TestTheoremGrids::test_a0_statement",
      SUITE]),
    ("permcheck.py",
     "math.gcd((3 ** l - 1) // 2, F.q - 1) == 1)",
     "math.gcd((3 ** l + 1) // 2, F.q - 1) == 1)",
     "statement T2.1's right side: (3^l + 1)/2, not (3^l - 1)/2",
     [PERMCHECK + "TestTheoremGrids::test_prime_power_statement_p3_vs_p5",
      SUITE]),
    ("permcheck.py",
     "rhs=lambda F, l, n, k: math.gcd((F.p ** l - 1) // 2, F.q - 1) == 1)",
     "rhs=lambda F, l, n, k: math.gcd((F.p ** l - 1) // 2, F.p - 1) == 1)",
     "statement T-pl1-k2's right side: gcd with p - 1, not q - 1",
     [PERMCHECK + "TestTheoremGrids::test_pl1_statements",
      SUITE]),
    ("permcheck.py",
     "math.gcd((F.p ** l + 1) // 2, F.q - 1) == 1)",
     "math.gcd((F.p ** l - 1) // 2, F.q - 1) == 1)",
     "statement T-pl1-gen's right side at k = 0: (p^l - 1)/2, not "
     "(p^l + 1)/2",
     [PERMCHECK + "TestTheoremGrids::test_pl1_statements",
      SUITE]),
    ("permcheck.py",
     "rhs=lambda F, l, n, k: l == 0,",
     "rhs=lambda F, l, n, k: l <= 1,",
     "statement T-pl2-k2's right side: l <= 1, not l = 0",
     [PERMCHECK + "TestTheoremGrids::test_pl2_statements",
      SUITE]),
    # the binomial's -x/2 read as x/2 gave the same right side at every
    # l <= 3 over GF(5), GF(7), GF(11), GF(13), GF(25) and GF(49)
    ("permcheck.py",
     "((1, (F.p ** l - 1) // 2), (F.neg(F.half), 1))",
     "((1, (F.p ** l + 1) // 2), (F.neg(F.half), 1))",
     "statement T-pl2-k4's right side: the binomial's exponent (p^l + 1)/2, "
     "not (p^l - 1)/2",
     [PERMCHECK + "TestTheoremGrids::test_pl2_statements",
      SUITE]),
    ("permcheck.py",
     "(F.from_int(2 - k), 1)",
     "(F.from_int(k - 2), 1)",
     "statement T-pl2-gen's right side: the trinomial's (2 - k) x read as "
     "(k - 2) x",
     [PERMCHECK + "TestTheoremGrids::test_pl2_statements",
      SUITE]),
    ("permcheck.py",
     "F.q % 3 == 1",
     "F.p % 3 == 1",
     "statement T-k0-pe2's right side: p = 1 mod 3, not q = 1 mod 3",
     [PERMCHECK + "TestTheoremGrids::test_k0_order_plus_two",
      SUITE]),
]


def failed_ids(tree, ids):
    """Run the tests named by ids in tree; the set of those that failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         *ids], cwd=tree, env=env, capture_output=True, text=True)
    # an id may hold a space; the message follows " - "
    failed = set(re.findall(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.M))
    if proc.returncode not in (0, 1) or (proc.returncode == 1) != bool(failed):
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout}"
                 f"{proc.stderr}")
    return failed


def check(path, old, new, ids):
    """The reason the mutant is not killed as its row says, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        target = tree / "src" / "rdickson" / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"the old text occurs {text.count(old)} times in {path}"
        if failed_ids(tree, ids):
            return "a named test fails on the unchanged tree"
        target.write_text(text.replace(old, new), encoding="utf-8")
        survivors = set(ids) - failed_ids(tree, ids)
        if survivors:
            return "survives " + ", ".join(sorted(survivors))
    return None


def main(words):
    rows = [row for row in MUTANTS
            if not words or any(w in row[3] for w in words)]
    bad = 0
    for path, old, new, route, ids in rows:
        why = check(path, old, new, ids)
        print(f"{'FAIL' if why else 'killed'}: {path}: {route}"
              + (f": {why}" if why else ""), flush=True)
        bad += why is not None
    print(f"{len(rows) - bad} of {len(rows)} mutants killed")
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
