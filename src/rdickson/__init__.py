"""Exact arithmetic for a reversed Dickson-type polynomial family over
finite fields: evaluation along independent routes, permutation
criteria, and full-field sum tables, all cross-checkable against
brute force.

_HOMES is the one list of the names that load on first use (PEP 562),
each under the module that defines it, so that a command imports only
the modules it runs.  _loader builds a module's __getattr__ from it:
the package's serves every name, gf's the names of quadext and
charsum's those of sumoracle.  A name is kept where it was first read,
so it can be replaced there."""

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
                  "shifted_sums", "residue_identity_holds"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def _loader(namespace, homes=_HOMES):
    """The __getattr__ of the module whose globals are namespace, for
    the names that _HOMES lists under the modules homes: each is read
    from its home on first use and kept in namespace."""
    def __getattr__(name):
        module = _MODULE_OF.get(name)
        if module not in homes:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        # __import__ is the import statement's path, which -X importtime
        # reports; importlib.import_module is not
        value = namespace[name] = getattr(
            __import__(f"{__name__}.{module}", fromlist=[name]), name)
        return value
    return __getattr__


__getattr__ = _loader(globals())
