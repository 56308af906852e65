"""The library names that the benchmark's tracer looks up still exist.

perfbench/traced_op.py wraps library functions and methods by name, and
calls two of them with a fixed argument shape, when a traced benchmark
run starts.  A change that deletes or renames one of them would break
only traced benchmark runs, so this module loads the tracer by path,
without running it, and resolves every name it pins.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from rdickson import cli, gf, modpoly, permcheck, rdpoly

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    # traced_op puts src/ on sys.path when loaded; undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced_op(monkeypatch):
    return _load("traced_op", monkeypatch)


def test_spanned_names_resolve(traced_op):
    missing = [f"{module.__name__}.{name}"
               for module, names in traced_op.SPANNED.items()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []


def test_counted_methods_resolve(traced_op):
    missing = [f"{cls.__name__}.{method}"
               for cls, method, _ in traced_op.COUNTED
               if not callable(getattr(cls, method, None))]
    assert missing == []


def test_argument_counters_keep_their_call_shape(traced_op):
    # the tracer calls is_pp_bruteforce(F, fn, params) and mul(a, b, p)
    pre = traced_op.Tracer()._pre
    F = gf.make_field(5)
    scan = pre("permcheck", "is_pp_bruteforce", permcheck.is_pp_bruteforce)
    assert scan(F, lambda x: x).verdict is True
    mul = pre("modpoly", "mul", modpoly.mul)
    assert mul([1, 1], [4, 1], 5) == modpoly.mul([1, 1], [4, 1], 5)


def test_private_caches_keep_cache_info():
    # counted into rdpoly.cache_entries by the tracer's install()
    for fn in (rdpoly._fnk_row_mod, rdpoly._principal_y):
        assert callable(fn.cache_info)


def test_small_n_matches_the_benchmark_checks(monkeypatch):
    checks = _load("checks", monkeypatch)
    assert cli.SMALL_N == checks.SMALL_N
