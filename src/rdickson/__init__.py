"""Exact arithmetic for a reversed Dickson-type polynomial family over
finite fields: evaluation along independent routes, permutation
criteria, and full-field sum tables, all cross-checkable against
brute force."""

from .charsum import (SumTable, b_coeffs, c_coeffs, power_sum,
                      residue_identity_holds, sums_bruteforce,
                      sums_via_recurrence)
from .gf import (FieldSpec, InternalCheckError, QuadExt, enumerate_v,
                 field_descriptor, is_irreducible, is_prime, make_field,
                 parse_field_descriptor, quadratic_extension, solve_y,
                 sqrt_ext)
from .permcheck import (PPReport, THEOREM_IDS, TheoremReport,
                        dickson_pp_bruteforce, is_pp_bruteforce,
                        is_pp_two_to_one, monomial_pp, verify_theorem)
from .rdpoly import (FieldPolynomial, IntPolynomial, as_polynomial,
                     char2_eval, closed_form, eval_a0, eval_definition,
                     eval_functional, eval_recurrence, eval_via_fnk,
                     family_weights, first_kind_weights, fnk_coeffs,
                     functional_map, genfun_coeffs, second_kind_weights,
                     value_at_quarter)

__version__ = "0.1.0"

__all__ = [
    "FieldSpec", "QuadExt", "InternalCheckError", "make_field",
    "field_descriptor", "parse_field_descriptor",
    "is_prime", "is_irreducible", "quadratic_extension", "sqrt_ext",
    "solve_y", "enumerate_v",
    "IntPolynomial", "FieldPolynomial",
    "first_kind_weights", "second_kind_weights", "family_weights",
    "eval_definition", "eval_recurrence", "eval_functional",
    "eval_via_fnk", "eval_a0", "char2_eval", "closed_form",
    "value_at_quarter", "functional_map", "fnk_coeffs",
    "genfun_coeffs", "as_polynomial",
    "PPReport", "TheoremReport", "THEOREM_IDS", "is_pp_bruteforce",
    "monomial_pp", "is_pp_two_to_one", "dickson_pp_bruteforce",
    "verify_theorem",
    "SumTable", "power_sum", "b_coeffs", "c_coeffs",
    "sums_via_recurrence", "sums_bruteforce", "residue_identity_holds",
    "__version__",
]
