"""Exact arithmetic for a reversed Dickson-type polynomial family over
finite fields: evaluation along independent routes, permutation
criteria, and full-field sum tables, all cross-checkable against
brute force.

The public names load their module on first use (PEP 562), so that a
command imports only the modules it runs."""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "gf": ("FieldSpec", "InternalCheckError", "make_field",
           "field_descriptor", "parse_field_descriptor", "is_prime",
           "is_irreducible"),
    "quadext": ("QuadExt", "quadratic_extension", "sqrt_ext", "solve_y",
                "enumerate_v"),
    "rowkernels": ("value_at_quarter", "eval_a0", "recurrence_row",
                   "functional_row"),
    "rdpoly": ("first_kind_weights", "second_kind_weights",
               "family_weights", "eval_definition", "eval_recurrence",
               "eval_functional", "eval_via_fnk", "eval_matrix",
               "char2_eval", "closed_form", "functional_map",
               "fnk_coeffs", "genfun_coeffs", "as_polynomial"),
    "permcheck": ("PPReport", "THEOREM_IDS",
                  "is_pp_bruteforce", "monomial_pp", "is_pp_two_to_one",
                  "dickson_pp_bruteforce", "verify_theorem"),
    "charsum": ("SumTable", "sums_via_recurrence"),
    "sumoracle": ("power_sum", "b_coeffs", "c_coeffs", "sums_bruteforce",
                  "residue_identity_holds"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
