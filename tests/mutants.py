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

# (file, old text, new text, route, test ids that must fail)
MUTANTS = [
    ("charsum.py",
     "+ p * ones - (",
     "+ p * ones + (",
     "sum recurrence: the sign of a lag term",
     [CHARSUM + "TestSumTable::test_matches_bruteforce_all_k[GF(25)]"]),
    ("gf.py",
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
      "test_running_power_matches_value_at_quarter[GF(5)]"]),
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
     "if val == excluded or len(fiber) == 3:",
     "if len(fiber) == 3:",
     "2-to-1 criterion: the excluded-value test",
     [PERMCHECK + "TestTwoToOne::test_agrees_with_brute_force_everywhere"]),
    ("gf.py",
     "d = zech[(ly + zech[0] + h) % m] + h",
     "d = zech[(ly + zech[0] + h) % m]",
     "binet, log body: the sign of y - z",
     [RDPOLY + "TestFunctionalRow::"
      "test_row_matches_the_point_formula[GF(25)-tables]",
      PERMCHECK + "TestTwoToOne::test_agrees_with_brute_force_everywhere"]),
    ("charsum.py",
     "if d[q * q:] != d[1:2 * q + 1]:",
     "if d[q * q:q * q + q] != d[1:q + 1]:",
     "sum recurrence: the period guard over one block, not two",
     [CHARSUM + "TestSumTable::"
      "test_period_guard_fires_on_a_faulty_recurrence[5]"]),
    ("rowkernels.py",
     "m = (n - 1) % (F.q * F.q - 1)",
     "m = (n - 1) % (F.q * F.q)",
     "recurrence row: the index reduced mod q^2, not q^2 - 1",
     [RDPOLY + "TestDoublingKernel::test_band_around_period[3^2/2,1,1]",
      RDPOLY + "TestEvaluatorAgreement::"
      "test_reduction_agrees_with_definition_gf25"]),
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
    ("charsum.py",
     "[(a - b) % p for a, b in zip([0] + mixer, mixer + [0])]",
     "[(a + b) % p for a, b in zip([0] + mixer, mixer + [0])]",
     "c's mixer: the Horner step by z + 1, not z - 1",
     [CHARSUM + "TestCVector::test_mixer_matches_its_binomial_expansion[5]",
      CHARSUM + "TestCVector::test_matches_products_of_the_definition[5]"]),
    ("charsum.py",
     "chain([0] * q, d)",
     "chain([0] * (q + 1), d)",
     "residue identity: the left side's z^q copy of d",
     [CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums"]),
    ("charsum.py",
     "chain([0] * (q - 1), d, [0])",
     "chain([0] * (q - 2), d, [0, 0])",
     "residue identity: the left side's z^(q-1) copy of d",
     [CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums"]),
    ("charsum.py",
     "chain(d, [0] * q)",
     "chain([0], d, [0] * (q - 1))",
     "residue identity: the left side's unshifted copy of d",
     [CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums"]),
    ("charsum.py",
     "return lhs == c_coeffs(F, k)",
     "return lhs == lhs[:len(c_coeffs(F, k))]",
     "residue identity: c built but the left side compared with itself",
     [CHARSUM + "TestResidueIdentity::test_fails_on_one_wrong_sum[GF(5)]",
      CHARSUM + "TestResidueIdentity::"
      "test_fails_on_one_wrong_c_coefficient[GF(25)]"]),
    ("charsum.py",
     "for s in range(0, q * q - q + 1, q - 1):",
     "for s in range(0, q * q - q + 1, q + 1):",
     "c's teeth: the stride q + 1, not q - 1",
     [CHARSUM + "TestCVector::test_matches_products_of_the_definition[5]",
      CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums"]),
    ("gf.py",
     "z = zech[(xh + 2 * (u - w)) % m]",
     "z = zech[(xh + 2 * (w - u)) % m]",
     "lucas, log body: the sign of U_i - U_(i+1) in U_(2i+1)",
     [RDPOLY + "TestRowKernels::"
      "test_each_body_matches_the_stepped_recurrence[GF(9)-tables]",
      RDPOLY + "TestRowKernels::"
      "test_each_body_matches_the_stepped_recurrence[GF(25)-tables]"]),
    ("gf.py",
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
    ("charsum.py",
     "for i in range(m)])",
     "for i in range(F.e)])",
     "sum oracle: the trace over e Frobenius powers, not the orbit's m",
     [CHARSUM + "TestUColumns::test_every_kind_matches_the_per_kind_loop[81]"]),
    ("charsum.py",
     "share = col if m == 1 else",
     "share = col if m < 3 else",
     "sum oracle: a column of an orbit of length 2 read without its trace",
     [CHARSUM + "TestUColumns::test_every_kind_matches_the_per_kind_loop[81]"]),
    ("charsum.py",
     "neg = (neg + (neg & ones) * p) >> 1",
     "neg = (neg + (neg & ones) * p) >> 1 if lo else neg",
     "the x = 1/4 offsets: the second block's not halved from the first's",
     [CHARSUM + "TestQuarterOffsets::test_period_repeats_around_its_length[3]",
      CHARSUM + "TestQuarterOffsets::test_period_repeats_around_its_length[5]",
      CHARSUM + "TestQuarterOffsets::"
      "test_running_power_matches_value_at_quarter[GF(25)]"]),
    ("charsum.py",
     "if p - 1 < 1 << 8 * array(tc).itemsize)",
     "if p - 1 <= 1 << 8 * array(tc).itemsize)",
     "compact tables: p = 257 held in one byte",
     [CHARSUM + "TestCompactTables::test_matches_the_list_built_table[257]",
      CHARSUM + "TestCompactTables::"
      "test_typecode_is_the_narrowest_that_holds_p[257]"]),
    ("charsum.py",
     "if c[0] != 0:",
     "if c[0] < 0:",
     "c's constant-term check: a sign that reduced entries never have",
     [CHARSUM + "TestCVector::"
      "test_shape_checks_fire_on_a_wrong_mixer[<lambda>-constant term]"]),
    ("charsum.py",
     "if any(c[size:]):",
     "if any(c[size + 1:]):",
     "c's degree check: from one past the bound",
     [CHARSUM + "TestCVector::"
      "test_shape_checks_fire_on_a_wrong_mixer[<lambda>-degree]"]),
    ("charsum.py",
     "    d[0] = 0\n",
     "",
     "shifted sums: d[0] left at S[0] minus the offset 2 - k",
     [CHARSUM + "TestQuarterOffsets::test_row_zero_is_held_at_zero[5]",
      CHARSUM + "TestSumTable::test_row_zero_is_held_at_zero[GF(5)]",
      CHARSUM + "TestResidueIdentity::test_holds_from_bruteforce_sums"]),
    ("permcheck.py",
     "if v in seen:",
     "if v in seen and seen[v]:",
     "image scan: the collision test misses a collision with x = 0",
     [PERMCHECK + "TestBruteForce::test_witness_may_be_the_first_point",
      PERMCHECK + "TestTwoToOne::test_agrees_with_brute_force_everywhere"]),
    ("permcheck.py",
     "if val == excluded or len(fiber) == 3:",
     "if val == excluded or len(fiber) == 4:",
     "2-to-1 criterion: the third-point test waits for a fourth point",
     [PERMCHECK + "TestTwoToOne::test_witness_is_the_last_point_mapped"]),
    ("permcheck.py",
     "if len(fiber) == 1:",
     "if len(fiber) == 0:",
     "2-to-1 criterion: the one-point-fiber test after the pass",
     [PERMCHECK + "TestTwoToOne::test_lone_point_decides_after_the_pass"]),
    ("rowkernels.py",
     "        if x == quarter:\n            return at_quarter\n",
     "",
     "recurrence row: the x = 1/4 branch dropped, the reduced index used",
     [RDPOLY + "TestQuarterPoint::"
      "test_index_reduction_is_wrong_at_quarter_and_patched"]),
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
