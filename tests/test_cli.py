"""Command line behaviour: exact output, formats, guards, exit codes."""

import collections
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from rdickson import (charsum, cli, cli_grids, cli_sums, cli_values, gf,
                      permcheck, rdpoly, rowkernels)
from rdickson.cli import main

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(*argv):
    """Run the CLI in a child capped at 1 GiB of address space and 20 s,
    so that a regression to unbounded work fails fast instead of taking
    the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    return subprocess.run([sys.executable, "-m", "rdickson", *argv],
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=cap)


def assert_same_text(got, want):
    """got == want, exactly.  A mismatch is reported as (line count, first
    differing line number, that line): pytest's diff of two whole
    outputs of several MB takes minutes to build."""
    if got != want:
        a, b = got.splitlines(True), want.splitlines(True)
        first = next((i for i, (x, y) in enumerate(zip(a, b), 1) if x != y),
                     min(len(a), len(b)) + 1)
        assert (len(a), first, a[first - 1:first]) == \
            (len(b), first, b[first - 1:first])


class TestDocumentedExamples:
    # frozen end-to-end transcripts; the values come from the oracle
    # recurrence, not from a previous run of this code
    def test_eval_gf5(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "5", "--n", "4",
                           "--k", "3", "--x", "2")
        assert (code, out) == (0, "0\n")

    def test_eval_gf7_index_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "7", "--n", "0",
                           "--k", "5", "--x", "3")
        assert (code, out) == (0, "4\n")

    def test_eval_gf5_quarter(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "5", "--n", "4",
                           "--k", "3", "--x", "4")
        assert (code, out) == (0, "1\n")

    def test_poly_gf7(self, capsys):
        code, out, _ = run(capsys, "poly", "--field", "7", "--n", "3",
                           "--k", "0")
        assert code == 0
        assert out.splitlines()[0] == "1 + 4x"

    def test_pp_gf9(self, capsys):
        code, out, _ = run(capsys, "pp", "--field", "9", "--n", "3",
                           "--k", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n k brute_force two_to_one agree"
        assert lines[1] == "3 1 true true true"


def _readme_cli_examples():
    """(argv, expected first output line or None) for every `rdickson`
    line of the README's CLI block; "# -> text" gives the line, and two
    spaces end it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    examples = []
    for line in block.split("```", 1)[0].splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] != ["rdickson"]:
            continue
        literal = re.match(r"\s*->\s*(.*?)(?:\s{2,}.*)?$", comment)
        examples.append((argv[1:], literal and literal.group(1)))
    return examples


@pytest.mark.parametrize("argv, first_line", _readme_cli_examples(),
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else None)
def test_readme_cli_example(capsys, argv, first_line):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if first_line is not None:
        assert out.splitlines()[0] == first_line


class TestFormats:
    def test_json_is_sorted_and_parseable(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "9", "--n", "7",
                           "--k", "2", "--x", "1,2", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["field"] == "3^2/1,0,1"
        assert list(blob) == sorted(blob)

    def test_csv_sums_columns(self, capsys):
        code, out, _ = run(capsys, "sums", "--field", "5", "--k", "3",
                           "--format", "csv", "--check")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "sum", "d", "oracle_match"]
        assert len(rows) == 25                    # header + q^2 - 1
        assert all(row[3] == "true" for row in rows[1:])

    def test_csv_without_check_leaves_oracle_blank(self, capsys):
        _, out, _ = run(capsys, "sums", "--field", "5", "--k", "0",
                        "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert all(row[3] == "" for row in rows[1:])

    @pytest.mark.parametrize("fmt, caps", [
        ("pretty", {"_coords": 5, "dumps": 0, "writer": 0}),
        ("csv", {"_coords": 5, "dumps": 0, "writer": 1}),
        ("json", {"_coords": 0, "dumps": 5 + 1, "writer": 0})])
    def test_sums_renders_only_requested_format(self, monkeypatch, fmt, caps):
        # 624 rows but at most p = 5 distinct sums: each value's
        # coordinates are rendered once (json also dumps the field
        # descriptor), and only in the format asked for
        F = gf.make_field(5, 2)
        table = charsum.sums_via_recurrence(F, 3)
        brute = charsum.sums_bruteforce(F, 3)
        oracle = [a == b for a, b in zip(brute, table.sums)]
        calls = collections.Counter()
        for owner, name in ((gf.FieldSpec, "coeffs"), (cli_sums, "_coords"),
                            (json, "dumps"), (csv, "writer")):
            def counted(*a, _real=getattr(owner, name), _name=name, **kw):
                calls[_name] += 1
                return _real(*a, **kw)
            monkeypatch.setattr(owner, name, counted)
        out = io.StringIO()
        cli_sums._write_sums(out, fmt, table, oracle)
        assert out.getvalue().count("\n") > 624
        assert 0 < calls["coeffs"] <= 5
        for name, cap in caps.items():
            assert (calls[name] > 0) == (cap > 0), name
            assert calls[name] <= cap, name

    def test_output_is_byte_identical_across_runs(self, capsys):
        argv = ("verify", "T-k0-pe2", "--p", "3,5", "--e", "1",
                "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "eval", "--field", "5", "--n", "4",
                           "--k", "3", "--x", "2", "--format", "json",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["value"] == [0]


def _sums_reference(F, k, fmt, check):
    """The sums output built whole: json.dumps of the table object,
    csv.writer rows, or the space-joined pretty lines."""
    table = charsum.sums_via_recurrence(F, k)
    rows = range(1, F.q ** 2)
    match = {}
    if check:
        brute = charsum.sums_bruteforce(F, k)
        match = {n: brute[n] == table.sums[n] for n in rows}
    coords = {n: list(F.coeffs(table.sums[n])) for n in rows}
    if fmt == "json":
        obj = {"command": "sums", "field": gf.field_descriptor(F),
               "k": k % F.p, "rows": []}
        for n in rows:
            row = {"n": n, "sum": coords[n], "d": table.d[n]}
            if check:
                row["oracle_match"] = match[n]
            obj["rows"].append(row)
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    header = ["n", "sum", "d", "oracle_match"]
    cells = [[str(n), ",".join(map(str, coords[n])), str(table.d[n]),
              ("true" if match[n] else "false") if check else ""]
             for n in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buf.getvalue()
    return "\n".join([" ".join(header)]
                     + [" ".join(c).rstrip() for c in cells]) + "\n"


class TestSumsWriter:
    # the table is written row by row; the bytes must be those of the
    # whole-table renderings
    def _check(self, capsys, tmp_path, fd, k, fmt, check, dest):
        argv = ["sums", "--field", fd, "--k", str(k), "--format", fmt]
        argv += ["--check"] if check else []
        target = tmp_path / "sums.out"
        argv += ["--out", str(target)] if dest == "out" else []
        code, out, err = run(capsys, *argv)
        if dest == "out":
            assert out == ""
            out = target.read_text(encoding="utf-8")
        want = _sums_reference(gf.parse_field_descriptor(fd), k, fmt, check)
        assert_same_text(out, want)
        assert err == ""
        return code

    @pytest.mark.parametrize("dest", ["stdout", "out"])
    @pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    @pytest.mark.parametrize("fd", ["5", "7", "9", "25", "27"])
    def test_bytes_match_whole_table_rendering(self, capsys, tmp_path, fd,
                                               fmt, check, dest):
        assert self._check(capsys, tmp_path, fd, 4, fmt, check, dest) == 0

    @pytest.mark.parametrize("fd, k, dest", [("125", 2, "stdout"),
                                             ("243", 1, "out")])
    def test_large_json_bytes(self, capsys, tmp_path, fd, k, dest):
        assert self._check(capsys, tmp_path, fd, k, "json", False, dest) == 0

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_oracle_mismatch_rows(self, capsys, tmp_path, monkeypatch, fmt):
        real = charsum.sums_bruteforce

        def off_by_one(F, k):
            brute = real(F, k)
            brute[3] = F.add(brute[3], 1)
            return brute
        monkeypatch.setattr(charsum, "sums_bruteforce", off_by_one)
        assert self._check(capsys, tmp_path, "9", 2, fmt, True,
                           "stdout") == 1

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_bytes_match_across_write_blocks(self, capsys, tmp_path, fmt):
        # 6560 rows: several ROWS_PER_WRITE blocks and a partial last one
        assert 81 ** 2 - 1 > 6 * cli.ROWS_PER_WRITE
        assert self._check(capsys, tmp_path, "81", 2, fmt, True,
                           "stdout") == 0

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_oracle_mismatch_on_a_block_boundary(self, capsys, tmp_path,
                                                 monkeypatch, fmt):
        real = charsum.sums_bruteforce
        # the last row of the first block and the first of the second
        last = cli.ROWS_PER_WRITE - 1

        def off_by_one(F, k):
            brute = real(F, k)
            for n in (last, last + 1):
                brute[n] = F.add(brute[n], 1)
            return brute
        monkeypatch.setattr(charsum, "sums_bruteforce", off_by_one)
        assert self._check(capsys, tmp_path, "49", 3, fmt, True,
                           "stdout") == 1
        code, out, _ = run(capsys, "sums", "--field", "49", "--k", "3",
                           "--check", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[0] for row in rows if row[3] == "false"] == \
            [str(last), str(last + 1)]

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    @pytest.mark.parametrize("fd", ["27", "343"])
    def test_row_numbers_are_the_decimals_of_n(self, fd, fmt):
        # GF(27) has fewer rows than one block; GF(343) has six-digit n
        # and block prefixes up to 117
        F = gf.parse_field_descriptor(fd)
        table = charsum.sums_via_recurrence(F, 1)
        out = io.StringIO()
        cli_sums._write_sums(out, fmt, table, [True] * F.q ** 2)
        if fmt == "json":
            names = re.findall(r'^      "n": (.*),$', out.getvalue(), re.M)
        else:
            sep = "," if fmt == "csv" else " "
            names = [line.partition(sep)[0]
                     for line in out.getvalue().splitlines()[1:]]
        want = [str(n) for n in range(1, F.q ** 2)]
        # the first wrong row, not a diff of 117648 names
        first = next((n for n, (a, b) in enumerate(zip(names, want), 1)
                      if a != b), None)
        assert (len(names), first) == (len(want), None)

    def test_json_table_memory_peak(self):
        # only the writer is traced: rendered as one json.dumps string the
        # GF(243) table peaked at about 80 MiB, row by row at about 0.5 MiB
        table = charsum.sums_via_recurrence(gf.make_field(3, 5), 1)
        with open(os.devnull, "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                cli_sums._write_sums(fh, "json", table, None)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2 * 2 ** 20


def _format_terms(parts):
    """Join (coeff_text, degree, negative) triples into a readable sum."""
    if not parts:
        return "0"
    out = []
    for text, deg, negative in parts:
        var = "" if deg == 0 else ("x" if deg == 1 else f"x^{deg}")
        if text == "1" and var:
            text = ""
        body = f"{text}{'*' if text and var and text[-1] == ')' else ''}{var}" or "1"
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"{'-' if negative else '+'} {body}")
    return " ".join(out)


def _int_terms(coeffs):
    parts = [(str(abs(c)), i, c < 0)
             for i, c in enumerate(coeffs) if c]
    return _format_terms(parts)


def _field_terms(F, coeffs):
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        text = str(c) if F.e == 1 else "(" + ",".join(map(str, F.coeffs(c))) + ")"
        parts.append((text, i, False))
    return _format_terms(parts)


def _poly_reference(F, n, k, fmt):
    """The poly output built whole: json.dumps of the document,
    csv.writer rows, or the joined pretty lines.  The terms are written
    by an oracle of their own: terms in x, renamed to t for the integer
    form."""
    poly = rdpoly.as_polynomial(F, n, k)
    fnk = rdpoly.fnk_coeffs(n, k % F.p) if n <= cli.SMALL_N else None
    if fmt == "json":
        obj = {"command": "poly", "field": gf.field_descriptor(F), "n": n,
               "k": k % F.p,
               "poly": {"field": gf.field_descriptor(F),
                        "coeffs": [list(F.coeffs(c)) for c in poly]},
               "poly_str": _field_terms(F, poly),
               "fnk": {"coeffs": [str(c) for c in fnk]}
               if fnk is not None else None}
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("source", "degree", "coeff"))
        writer.writerows(("poly", i, ",".join(map(str, F.coeffs(c))))
                         for i, c in enumerate(poly))
        if fnk is not None:
            writer.writerows(("fnk", i, str(c)) for i, c in enumerate(fnk))
        return buf.getvalue()
    lines = [_field_terms(F, poly)]
    if fnk is not None:
        lines.append(f"f = {_int_terms(fnk).replace('x', 't')}"
                     "   (value = f(1 - 4x) / 2^n)")
    return "\n".join(lines) + "\n"


# poly output captured whole, byte for byte: the integer row in t with a
# negative coefficient, extension coordinates with "*x^2", and the zero
# polynomial on both lines
POLY_LITERALS = {
    ("7", 3, 0, "pretty"):
        "1 + 4x\nf = 2 + 6t   (value = f(1 - 4x) / 2^n)\n",
    ("7", 3, 0, "json"): """\
{
  "command": "poly",
  "field": "7",
  "fnk": {
    "coeffs": [
      "2",
      "6"
    ]
  },
  "k": 0,
  "n": 3,
  "poly": {
    "coeffs": [
      [
        1
      ],
      [
        4
      ]
    ],
    "field": "7"
  },
  "poly_str": "1 + 4x"
}
""",
    ("7", 3, 0, "csv"):
        "source,degree,coeff\npoly,0,1\npoly,1,4\nfnk,0,2\nfnk,1,6\n",
    ("9", 5, 2, "pretty"):
        "(1,0) + (1,0)*x^2\n"
        "f = 10 + 20t + 2t^2   (value = f(1 - 4x) / 2^n)\n",
    ("9", 5, 2, "json"): """\
{
  "command": "poly",
  "field": "3^2/1,0,1",
  "fnk": {
    "coeffs": [
      "10",
      "20",
      "2"
    ]
  },
  "k": 2,
  "n": 5,
  "poly": {
    "coeffs": [
      [
        1,
        0
      ],
      [
        0,
        0
      ],
      [
        1,
        0
      ]
    ],
    "field": "3^2/1,0,1"
  },
  "poly_str": "(1,0) + (1,0)*x^2"
}
""",
    ("9", 5, 2, "csv"):
        'source,degree,coeff\npoly,0,"1,0"\npoly,1,"0,0"\npoly,2,"1,0"\n'
        "fnk,0,10\nfnk,1,20\nfnk,2,2\n",
    ("5", 4, 3, "pretty"):
        "1 + 4x + 4x^2\nf = 11 + 6t - t^2   (value = f(1 - 4x) / 2^n)\n",
    ("5", 4, 3, "json"): """\
{
  "command": "poly",
  "field": "5",
  "fnk": {
    "coeffs": [
      "11",
      "6",
      "-1"
    ]
  },
  "k": 3,
  "n": 4,
  "poly": {
    "coeffs": [
      [
        1
      ],
      [
        4
      ],
      [
        4
      ]
    ],
    "field": "5"
  },
  "poly_str": "1 + 4x + 4x^2"
}
""",
    ("5", 4, 3, "csv"):
        "source,degree,coeff\npoly,0,1\npoly,1,4\npoly,2,4\n"
        "fnk,0,11\nfnk,1,6\nfnk,2,-1\n",
    ("5", 0, 2, "pretty"): "0\nf = 0   (value = f(1 - 4x) / 2^n)\n",
    ("5", 0, 2, "json"): """\
{
  "command": "poly",
  "field": "5",
  "fnk": {
    "coeffs": []
  },
  "k": 2,
  "n": 0,
  "poly": {
    "coeffs": [],
    "field": "5"
  },
  "poly_str": "0"
}
""",
    ("5", 0, 2, "csv"): "source,degree,coeff\n",
}


def _out_and_file(capsys, tmp_path, *argv):
    """(exit code, stdout, stderr) of a run to stdout, after checking that
    a run with --out writes the same bytes to the file and none to
    stdout."""
    target = tmp_path / "cli.out"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert out == ""
    got = (code, target.read_text(encoding="utf-8"), err)
    again = run(capsys, *argv)
    assert (again[0], again[2]) == (code, err)
    assert_same_text(again[1], got[1])
    return got


class TestPolyWriter:
    # the fnk row is written a few entries at a time; the bytes must be
    # those of the whole-document renderings, to stdout and to --out
    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 37, 1931, cli.SMALL_N,
                                   cli.SMALL_N + 1])
    @pytest.mark.parametrize("fd, k", [("5", 3), ("9", 2), ("7", 0),
                                       ("7", 1), ("7", 2), ("7", 6),
                                       ("9", 0), ("9", 1)])
    def test_bytes_match_whole_document_rendering(self, capsys, tmp_path,
                                                  fd, k, n, fmt):
        got = _out_and_file(capsys, tmp_path, "poly", "--field", fd,
                            "--n", str(n), "--k", str(k), "--format", fmt)
        want = _poly_reference(gf.parse_field_descriptor(fd), n, k, fmt)
        assert (got[0], got[2]) == (0, "")
        assert_same_text(got[1], want)

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_fnk_row_memory_peak(self, fmt):
        # rendered whole, the GF(343) row of n = 5000 peaked at 7.5-7.8
        # times its own size; a few entries per write keep it near 1
        fnk = rdpoly.fnk_coeffs(cli.SMALL_N, 2)
        size = sys.getsizeof(fnk) + sum(map(sys.getsizeof, fnk))
        argv = ["poly", "--field", "343", "--n", str(cli.SMALL_N), "--k",
                "2", "--format", fmt]
        with open(os.devnull, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0 and peak <= 1.5 * size

    @pytest.mark.parametrize("fd, n, k, fmt", sorted(POLY_LITERALS),
                             ids=lambda v: str(v))
    def test_bytes_match_literal_output(self, capsys, fd, n, k, fmt):
        code, out, err = run(capsys, "poly", "--field", fd, "--n", str(n),
                             "--k", str(k), "--format", fmt)
        assert (code, out, err) == (0, POLY_LITERALS[fd, n, k, fmt], "")

    def test_rows_cover_negative_and_empty_fnk_rows(self):
        # k >= 2 gives negative coefficients; n = 0, k = 2 the zero row
        assert min(rdpoly.fnk_coeffs(cli.SMALL_N, 3)) < 0
        assert rdpoly.fnk_coeffs(0, 2) == ()

    def test_terms(self):
        F9 = gf.make_field(3, 2)
        assert cli_values._terms((5, -1), "x") == "5 - x"
        assert cli_values._terms((), "x") == "0"
        assert cli_values._terms((0, 2, 0, -7), "x") == "2x - 7x^3"
        assert cli_values._terms((-1, 0, 1), "t") == "-1 + t^2"
        assert cli_values._terms((4, 0, 7), "x", F9) == "(1,1) + (1,2)*x^2"
        assert cli_values._terms((1, 1), "x", gf.make_field(7)) == "1 + x"

    def test_json_coefficients(self, capsys):
        # the integer row as decimal strings, since its entries outgrow
        # fixed-width ints; field elements as coordinate lists
        _, out, _ = run(capsys, "poly", "--field", "5", "--n", "80",
                        "--k", "3", "--format", "json")
        coeffs = json.loads(out)["fnk"]["coeffs"]
        assert coeffs[0] == str(3 * 79 + 2)
        assert all(isinstance(c, str) for c in coeffs)
        _, out, _ = run(capsys, "poly", "--field", "9", "--n", "7",
                        "--k", "2", "--format", "json")
        blob = json.loads(out)["poly"]
        F9 = gf.make_field(3, 2)
        assert blob["field"] == "3^2/1,0,1"
        assert blob["coeffs"] == [list(F9.coeffs(c))
                                  for c in rdpoly.as_polynomial(F9, 7, 2)]


PP_CRITERIA = {"brute_force": "dickson_pp_bruteforce",
               "two_to_one": "is_pp_two_to_one"}


def _pp_reference(F, ns, ks, criteria, fmt):
    """The pp output built whole: json.dumps of the document with a dict
    per row, csv.writer rows, or space-joined cells; the criteria are
    looked up in permcheck at call time, so a patched one counts."""
    header = ["n", "k", *criteria, "agree"]
    rows, cells, disagreements = [], [], 0
    for n in ns:
        for k in ks:
            verdicts = {crit: getattr(permcheck, PP_CRITERIA[crit])(
                F, n, k).verdict for crit in criteria}
            agree = len(set(verdicts.values())) == 1
            disagreements += not agree
            rows.append({"n": n, "k": k % F.p, **verdicts, "agree": agree})
            cells.append([str(n), str(k % F.p),
                          *(json.dumps(v) for v in verdicts.values()),
                          json.dumps(agree)])
    if fmt == "json":
        return json.dumps({"command": "pp", "field": gf.field_descriptor(F),
                           "criteria": criteria, "rows": rows,
                           "disagreements": disagreements},
                          sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buf.getvalue()
    lines = [" ".join(row) for row in [header, *cells]]
    if disagreements:
        lines.append(f"criteria disagree on {disagreements} rows")
    return "\n".join(lines) + "\n"


# the traced peak of a 20000-row GF(25) grid read 36-38 bytes per row
# in every format (Python 3.11), against 585-1399 when held whole
PP_BYTES_PER_ROW = 64


class TestPPWriter:
    # every row is decided first, then written in blocks of rows; the
    # bytes must be those of the whole-grid renderings
    def _check(self, capsys, tmp_path, fd, ns, ks, criteria, fmt):
        argv = ["pp", "--field", fd, "--n", ",".join(map(str, ns)),
                "--criteria", ",".join(criteria), "--format", fmt]
        argv += ["--k", ",".join(map(str, ks))] if ks else []
        F = gf.parse_field_descriptor(fd)
        code, out, err = _out_and_file(capsys, tmp_path, *argv)
        want = _pp_reference(F, ns, ks or range(F.p), criteria, fmt)
        assert_same_text(out, want)
        assert err == ""
        return code

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    @pytest.mark.parametrize("fd, ns, ks, criteria", [
        ("9", range(1, 31), None, ("brute_force", "two_to_one")),
        ("9", [4, 2, 4, 9], [7, 1, 1, 3], ("two_to_one", "brute_force")),
        ("25", range(1, 61), [0, 2, 5, 9, 2], ("brute_force", "two_to_one")),
        ("25", [24, 1, 24], [11], ("two_to_one",)),
        ("8", range(1, 41), [0, 1, 2, 5], ("brute_force",)),
        ("8", [3, 3], None, ("brute_force",))],
        ids=["9", "9-repeats", "25", "25-one", "8", "8-repeats"])
    def test_bytes_match_whole_grid_rendering(self, capsys, tmp_path, fd,
                                              ns, ks, criteria, fmt):
        assert self._check(capsys, tmp_path, fd, list(ns), ks,
                           list(criteria), fmt) == 0

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_bytes_match_across_write_blocks(self, capsys, tmp_path, fmt):
        # 2010 rows: two full blocks and a partial last one
        assert 3 * cli.ROWS_PER_WRITE > 2010 > 2 * cli.ROWS_PER_WRITE
        assert self._check(capsys, tmp_path, "9", range(1, 671), None,
                           ["brute_force", "two_to_one"], fmt) == 0

    @pytest.mark.parametrize("order", [("brute_force", "two_to_one"),
                                       ("two_to_one", "brute_force")])
    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_disagreements(self, capsys, tmp_path, monkeypatch, fmt, order):
        # the 2-to-1 verdict flipped on the rows n = 2 (mod 5) of k = 1,
        # across a block boundary: the count, the agree column and the
        # pretty trailer
        real = permcheck.is_pp_two_to_one

        def flipped(F, n, k):
            report = real(F, n, k)
            if n % 5 == 2 and k % F.p == 1:
                report.verdict = not report.verdict
            return report
        monkeypatch.setattr(permcheck, "is_pp_two_to_one", flipped)
        assert self._check(capsys, tmp_path, "25", range(1, 301), None,
                           list(order), fmt) == 1

    def test_a_late_failing_row_leaves_stdout_empty(self, capsys,
                                                    monkeypatch):
        # every row is decided before the first byte is written
        real = permcheck.is_pp_two_to_one

        def late(F, n, k):
            if n == 1200:
                raise ValueError("late row")
            return real(F, n, k)
        monkeypatch.setattr(permcheck, "is_pp_two_to_one", late)
        code, out, err = run(capsys, "pp", "--field", "9", "--n", "1..1200")
        assert (code, out, err) == (2, "", "error: late row\n")

    def test_grid_memory_peak_per_row(self):
        # 20000 rows over GF(25): one verdict byte per row, the --n
        # list, and one block of text in json, the widest rows
        argv = ["pp", "--field", "25", "--n", "1..4000", "--format", "json"]
        with open(os.devnull, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < PP_BYTES_PER_ROW * 20000


def _verify_reference(target, entries, fmt):
    """The verify output built whole from verify_theorem's entries:
    json.dumps of the document, csv.writer rows under the sorted keys,
    or the count, FAIL and pass lines."""
    failures = [ent for ent in entries if not ent["ok"]]
    if fmt == "json":
        return json.dumps({"theorem": target, "pass": not failures,
                           "grid": entries, "failures": failures},
                          sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        keys = sorted({key for ent in entries for key in ent})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([json.dumps(ent[key]) if isinstance(ent[key], bool)
                          else str(ent[key]) for key in keys]
                         for ent in entries)
        return buf.getvalue()
    lines = [f"{target}: {len(entries)} grid points, "
             f"{len(failures)} failures"]
    lines += ["FAIL " + json.dumps(ent, sort_keys=True) for ent in failures]
    lines.append(f"pass: {json.dumps(not failures)}")
    return "\n".join(lines) + "\n"


# a grid per statement: extension fields, whose descriptors csv quotes,
# and repeated indices and kinds
VERIFY_GRIDS = {
    "T2.2": ([3, 5], [1, 2], {"ns": [0, 1, 2, 4, 4, 9, 30],
                              "ks": [0, 1, 2, 7]}),
    "T2.1": ([3, 5], [1, 2], {"ls": [0, 1, 2, 3]}),
    "T-pl1-k2": ([3, 5, 7], [1, 2], {"ls": [0, 1, 2]}),
    "T-pl1-gen": ([3, 5], [1, 2], {"ls": [0, 1, 1, 2], "ks": [1, 3, 3]}),
    "T-pl2-k2": ([3, 5], [1, 2], {"ls": [0, 1]}),
    "T-pl2-k4": ([5, 7], [1, 2], {"ls": [0, 1]}),
    "T-pl2-gen": ([5, 7], [1, 2], {"ls": [0, 1]}),
    "T-k0-pe2": ([3, 5, 7], [1, 2, 3], {}),
}

# the traced peak of a 21000-point grid over GF(7) read 7-29 bytes per
# point (Python 3.11), against 616-1778 when held whole
VERIFY_BYTES_PER_POINT = 64


class TestVerifyWriter:
    # every point is decided first, into one byte, then written in blocks
    # of rows; the bytes must be those of the whole-grid renderings
    @staticmethod
    def _check(capsys, tmp_path, target, fmt, ps, es, **axes):
        argv = ["verify", target, "--p", ",".join(map(str, ps)),
                "--e", ",".join(map(str, es)), "--format", fmt]
        for name, values in axes.items():
            argv += [f"--{name[0]}", ",".join(map(str, values))]
        code, out, err = _out_and_file(capsys, tmp_path, *argv)
        entries = permcheck.verify_theorem(target, ps, es, **axes)
        assert_same_text(out, _verify_reference(target, entries, fmt))
        assert err == ""
        return code

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    @pytest.mark.parametrize("target", permcheck.THEOREM_IDS)
    def test_bytes_match_whole_grid_rendering(self, capsys, tmp_path,
                                              target, fmt):
        ps, es, axes = VERIFY_GRIDS[target]
        assert self._check(capsys, tmp_path, target, fmt, ps, es,
                           **axes) == 0

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_bytes_match_across_write_blocks(self, capsys, tmp_path, fmt):
        # 3612 points over two fields: three full blocks and a partial one
        assert self._check(capsys, tmp_path, "T2.2", fmt, [5, 7], [1],
                           ns=range(301)) == 0

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_failures(self, capsys, tmp_path, monkeypatch, fmt):
        # the right side of T-pl2-k2 flipped at l = 1 on every field: the
        # failures, their rows and the pass flag, across fields
        st = permcheck.STATEMENTS["T-pl2-k2"]
        real = st.rhs
        monkeypatch.setattr(st, "rhs", lambda F, l, n, k: real(F, l, n, k)
                            != (l == 1))
        assert self._check(capsys, tmp_path, "T-pl2-k2", fmt, [3, 5],
                           [1, 2], ls=[0, 1, 2]) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_extra_flag_splits_a_class(self, capsys, tmp_path, monkeypatch,
                                       fmt):
        # the extra flag of T-pl2-k4 set on odd l alone: points of one
        # field with equal sides then differ in their rows
        st = permcheck.STATEMENTS["T-pl2-k4"]
        monkeypatch.setattr(st, "extra", lambda F, l, n, k, lhs:
                            {"l_zero_claim_ok": l % 2 == 1})
        assert self._check(capsys, tmp_path, "T-pl2-k4", fmt, [5], [2],
                           ls=range(5)) == 0

    def test_a_late_failing_point_leaves_stdout_empty(self, capsys,
                                                      monkeypatch):
        # every point is decided before the first byte is written
        real = permcheck.dickson_pp_bruteforce

        def late(F, n, k, a=1):
            if (F.q, n) == (7, 300):
                raise ValueError("late point")
            return real(F, n, k, a)
        monkeypatch.setattr(permcheck, "dickson_pp_bruteforce", late)
        for fmt in ("pretty", "json", "csv"):
            code, out, err = run(capsys, "verify", "T2.2", "--p", "5,7",
                                 "--e", "1", "--n", "0..300", "--format", fmt)
            assert (code, out, err) == (2, "", "error: late point\n")

    def test_grid_memory_peak_per_point(self):
        # 21000 points over GF(7): one byte a point, the --n list, and one
        # block of text in json, the widest rows
        argv = ["verify", "T2.2", "--p", "7", "--e", "1", "--n", "0..2999",
                "--format", "json"]
        with open(os.devnull, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < VERIFY_BYTES_PER_POINT * 21000


_WORDS = st.sampled_from(("3", "1", "0..2", "1,1", "json", "csv", "xml",
                          "T2.1", "sums", "pp", "", "-1", "-x", "--"))


@st.composite
def _plain_and_other_argvs(draw):
    """A command with its required arguments and some optional flags in
    any order, among further flags (repeated, bare, abbreviated, in "="
    form), help, "--", positionals and values with a leading "-"; now
    and then the command is moved or an argument left out."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    spec = cli._SHARED + cli._COMMANDS[name][2]
    flags = st.sampled_from([flag for flag, _ in spec if flag[0] == "-"])
    items = [[draw(_WORDS)] if flag[0] != "-" else [flag]
             if "action" in options else [flag, draw(_WORDS)]
             for flag, options in spec if options.get("required")
             or flag[0] != "-" or draw(st.booleans())]
    items += draw(st.lists(st.one_of(
        st.tuples(flags, _WORDS), st.tuples(flags),
        st.tuples(flags.flatmap(lambda f: st.integers(2, len(f) - 1).map(
            lambda i: f[:i])), _WORDS),
        st.tuples(flags, _WORDS).map(lambda t: ["=".join(t)]),
        st.tuples(st.sampled_from(("-h", "--help", "--", "", "extra")))),
        max_size=3))
    items = draw(st.permutations(items))
    if items and draw(st.integers(0, 4)) == 0:
        del items[draw(st.integers(0, len(items) - 1))]
    argv = [token for item in items for token in item]
    at = draw(st.integers(0, len(argv))) if draw(st.integers(0, 4)) == 0 else 0
    return argv[:at] + [name] + argv[at:]


def _main_io(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestParser:
    # argvs that argparse parses (help and usage errors) exit 0 or 2 with
    # output and no traceback
    @pytest.mark.parametrize("argv", [
        ("--help",), (), ("bogus",), ("bogus", "--field", "5"),
        ("--format", "json", "poly"),
        *((name, "--help") for name in cli._COMMANDS),
        ("eval", "--field", "5"),
        ("poly", "--field", "5", "--n", "3", "--k", "1", "--check"),
        ("pp", "--field", "5", "--n", "1..3", "--format", "xml"),
        ("verify",),
        ("sums", "--field", "5", "--k", "1", "--chec"),
        ("field-info", "--field", "5", "--bogus"),
        ("verify", "T2.1", "--p", "3", "--e", "1", "extra")],
        ids=" ".join)
    def test_argparse_argv_exits_0_or_2_with_output(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code in (0, 2) and out + err
        assert "Traceback" not in out + err

    # a plain argv is read without argparse; what it reads, and what main
    # prints and returns, is that of the full parser
    @settings(max_examples=300, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(_plain_and_other_argvs())
    @example(["pp", "--format", "xml", "--field", "5", "--n", "1",
              "--format", "csv"])
    @example(["eval", "--field", "5", "--n", "1", "--k", "-1", "--x", "1"])
    @example(["verify", "T2.1", "--p", "3", "--e", "1", "extra"])
    # "--flag=--", which argparse reads as [] before Python 3.13
    @example(["eval", "--field", "5", "--n", "1", "--k", "1", "--x=--"])
    @example(["poly", "--field=--", "--n", "3", "--k", "1"])
    @example(["pp", "--field", "7", "--n=--", "--k", "0"])
    @example(["verify", "T2.1", "--p=--", "--e", "1"])
    @example(["sums", "--field", "7", "--k=--"])
    @example(["field-info", "--out", "3", "--field=--"])
    def test_fast_pass_reads_as_argparse(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)          # where an --out value lands
        fast = cli._fast_args(argv)
        if fast is not None:
            assert vars(fast) == vars(cli._build_parser()[0].parse_args(argv))
        got = _main_io(argv)
        with mock.patch.object(cli, "_fast_args", lambda argv: None):
            assert _main_io(argv) == got

    @pytest.mark.parametrize("argv", [
        ("eval", "--field", "5", "--n", "1", "--k", "1", "--x=--"),
        ("poly", "--field=--", "--n", "3", "--k", "1"),
        ("pp", "--field", "7", "--n=--", "--k", "0"),
        ("verify", "T2.1", "--p=--", "--e", "1"),
        ("sums", "--field", "7", "--k=--"),
        ("field-info", "--out=--", "--field", "7")], ids=lambda argv: argv[0])
    def test_double_dash_flag_value_is_one_usage_line(self, tmp_path,
                                                      monkeypatch, argv):
        # the same refusal on every Python, naming the flag; no file made
        monkeypatch.chdir(tmp_path)
        flag = next(t for t in argv if t.endswith("=--"))[:-3]
        assert _main_io(list(argv)) == (
            2, "", f"error: bad value '--' for {flag}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("workload", ("scan", "sums", "check"))
    def test_benchmark_argvs_take_the_fast_pass(self, workload):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", BENCH_DIR / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        parser = cli._build_parser()[0]
        for seed in range(3):
            setup, timed = workloads.build(workload, seed)
            for op in setup + timed:
                fast = cli._fast_args(list(op.argv))
                assert fast is not None, op.text
                assert vars(fast) == vars(parser.parse_args(op.argv))

    # every command's "--flag=value" argv goes to the full parser and runs
    # as its plain form does through the fast pass
    @pytest.mark.parametrize("argv", [
        ("eval", "--field", "7", "--n", "8", "--k", "4", "--x", "3",
         "--check"),
        ("poly", "--field", "5", "--n", "7", "--k", "2", "--format", "csv"),
        ("pp", "--field", "49", "--n", "1..50"),
        ("verify", "T2.1", "--p", "3", "--e", "1", "--format", "json"),
        ("sums", "--field", "5", "--k", "1", "--check"),
        ("field-info", "--field", "9")], ids=lambda argv: argv[0])
    def test_flag_value_argv_runs_as_its_plain_form(self, argv):
        argv = list(argv)
        joined = [argv[0]]
        for token in argv[1:]:
            if joined[-1][:2] == "--" and token[:1] != "-" and (
                    joined[-1] != "--check"):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        assert len(joined) < len(argv)
        fast = cli._fast_args(argv)
        assert fast is not None and cli._fast_args(joined) is None
        assert vars(fast) == vars(cli._build_parser()[0].parse_args(joined))
        got = _main_io(argv)
        assert got[0] == 0 and got[1] and not got[2]
        assert _main_io(joined) == got

    # a command of a handler module reaches that module's function by
    # the plain argv pass and by argparse alike; the function, patched,
    # runs nothing
    @pytest.mark.parametrize("argv, module, name", [
        (["eval", "--field", "7", "--n", "8", "--k", "4", "--x", "3"],
         cli_values, "cmd_eval"),
        (["poly", "--field", "5", "--n", "7", "--k", "2"],
         cli_values, "cmd_poly"),
        (["pp", "--field", "49", "--n", "1..50"], cli_grids, "cmd_pp"),
        (["verify", "T2.1", "--p", "3", "--e", "1"],
         cli_grids, "cmd_verify_statement"),
        (["verify", "sums", "--field", "5"], cli_sums, "cmd_verify_sums"),
        (["sums", "--field", "5", "--k", "1"], cli_sums, "cmd_sums")])
    def test_each_command_dispatches_to_its_handler_module(
            self, monkeypatch, argv, module, name):
        calls = []
        monkeypatch.setattr(module, name,
                            lambda args, max_q: calls.append(vars(args)) or 7)
        assert cli._fast_args(argv) is not None
        assert main(argv) == main(argv + ["--format=pretty"]) == 7
        assert len(calls) == 2 and calls[0] == calls[1]
        assert calls[0]["command"] == argv[0]


class TestChecks:
    def test_eval_check_agreement(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "7", "--n", "8",
                           "--k", "4", "--x", "3", "--check")
        assert code == 0
        assert "agree: true" in out
        assert "closed_form" in out               # 8 = 7 + 1 has a shape

    @pytest.mark.parametrize("n, routes", [(7000, ["matrix", "recurrence"]),
                                           (3, ["definition", "recurrence"])])
    def test_eval_check_at_a0_prints_no_echoed_route(self, capsys, n, routes):
        # at a = 0 eval_recurrence is eval_a0, so an "a0" route would only
        # repeat the recurrence line
        argv = ("eval", "--field", "5", "--n", str(n), "--k", "1", "--x", "2",
                "--a", "0", "--check")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert [line.split(": ")[0] for line in out.splitlines()] == \
            routes + ["agree"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        obj = json.loads(out)
        assert code == 0 and sorted(obj["methods"]) == routes and obj["agree"]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert [row[0] for row in csv.reader(io.StringIO(out))] == \
            ["quantity", "value", *routes, "agree"]

    @staticmethod
    def off_by_one(real):
        """real with 1 added to the value of its outermost call alone: the
        rescaled recurrence calls itself, and two shifts could cancel."""
        depth = []

        def wrong(F, *rest):
            depth.append(None)
            try:
                value = real(F, *rest)
            finally:
                depth.pop()
            return value if depth else (value + 1) % F.q
        return wrong

    ROUTES = {"recurrence": "eval_recurrence", "definition": "eval_definition",
              "functional": "eval_functional", "fnk": "eval_via_fnk",
              "closed_form": "closed_form", "matrix": "eval_matrix"}

    # p = 2 and odd, a = 0, 1 and other, x = 1/4 (2 in GF(7)) or not
    @pytest.mark.parametrize("n", [cli.SMALL_N, cli.SMALL_N + 1])
    @pytest.mark.parametrize("field, x, a", [
        (field, x, a) for field, xs, others in [("16", ["1,1"], "0,1"),
                                                 ("7", ["3", "2"], "5")]
        for x in xs for a in ("0", "1", others)])
    def test_eval_check_catches_any_one_corrupted_computation(
            self, capsys, monkeypatch, field, x, a, n):
        argv = ("eval", "--field", field, "--n", str(n), "--k", "3",
                "--x", x, "--a", a, "--check")
        code, clean, _ = run(capsys, *argv)
        routes = [line.split(": ")[0] for line in clean.splitlines()[:-1]]
        assert code == 0 and len(routes) >= 2
        # the routes, and the closed values that routes may share, which
        # the row kernels read in rowkernels and rdpoly re-exports; each
        # closed value is read at its point: a = 0, or x = 1/4 at a = 1
        closed = {"value_at_quarter": (field, x, a) == ("7", "2", "1"),
                  "eval_a0": a == "0"}
        for name in [self.ROUTES[r] for r in routes] + list(closed):
            wrong = self.off_by_one(getattr(rdpoly, name))
            with monkeypatch.context() as m:
                for module in (rdpoly, rowkernels):
                    if hasattr(module, name):
                        m.setattr(module, name, wrong)
                code, out, _ = run(capsys, *argv)
            if closed.get(name, True) or out != clean:
                assert (code, "agree: false") == (1, out.splitlines()[-1]), \
                    name

    def test_eval_check_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(rdpoly, "eval_functional",
                            lambda F, n, k, x: (rdpoly.eval_recurrence(
                                F, n, k, x) + 1) % F.p)
        code, out, _ = run(capsys, "eval", "--field", "7", "--n", "8",
                           "--k", "4", "--x", "3", "--check")
        assert code == 1
        assert "agree: false" in out

    def test_verify_sums_failure_exits_1(self, capsys, monkeypatch):
        real = charsum.sums_bruteforce
        monkeypatch.setattr(charsum, "sums_bruteforce",
                            lambda F, k: [(v + 1) % F.p for v in real(F, k)])
        code, out, _ = run(capsys, "verify", "sums", "--field", "5",
                           "--k", "1")
        assert code == 1
        assert "pass: false" in out

    def test_verify_sums_fails_on_a_wrong_c_alone(self, capsys, monkeypatch):
        # the table and the oracle agree, so the identity is what fails
        real = charsum.c_coeffs

        def faulted(F, k):
            c = real(F, k)
            c[F.q] = (c[F.q] + 1) % F.p
            return c
        monkeypatch.setattr(charsum, "c_coeffs", faulted)
        argv = ("verify", "sums", "--field", "25", "--k", "2", "--format")
        runs = {fmt: run(capsys, *argv, fmt)
                for fmt in ("pretty", "json", "csv")}
        assert {fmt: code for fmt, (code, _, _) in runs.items()} == {
            "pretty": 1, "json": 1, "csv": 1}
        assert runs["pretty"][1] == ("sums over GF(25): k=2 FAIL (624 rows)\n"
                                     "pass: false\n")
        assert runs["csv"][1].endswith("\n2,624,0,false,false\n")
        report = json.loads(runs["json"][1])
        assert report["failures"] == [{"identity": "residue", "k": 2}]

    @pytest.mark.parametrize("argv, tables", [
        (("verify", "sums", "--field", "5", "--k", "0..4"), 5),
        (("sums", "--field", "5", "--k", "1", "--check"), 1),
    ])
    def test_sum_ingredients_built_once(self, capsys, monkeypatch, argv,
                                        tables):
        # the oracle once per kind, c once per kind for the residue
        # identity of verify sums and never for a table, b never (c
        # reads its tooth alone), and the U columns that the oracle reads
        # walked once for all kinds
        charsum.u_column_sums.cache_clear()
        calls = collections.Counter()
        names = ("sums_bruteforce", "c_coeffs", "b_coeffs", "_u_columns")
        for name in names:
            def counted(*a, _real=getattr(charsum, name), _name=name):
                calls[_name] += 1
                return _real(*a)
            monkeypatch.setattr(charsum, name, counted)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert {name: calls[name] for name in names} == {
            "sums_bruteforce": tables,
            "c_coeffs": tables if argv[0] == "verify" else 0, "b_coeffs": 0,
            "_u_columns": 1}

    def test_pp_disagreement_exits_1(self, capsys, monkeypatch):
        # one flipped verdict of the 2-to-1 criterion, at n = 2, k = 1
        real = permcheck.is_pp_two_to_one

        def flipped(F, n, k):
            report = real(F, n, k)
            if (n, k) == (2, 1):
                report.verdict = not report.verdict
            return report
        monkeypatch.setattr(permcheck, "is_pp_two_to_one", flipped)
        argv = ("pp", "--field", "7", "--n", "1..3", "--k", "0,1")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.splitlines()[-1] == "criteria disagree on 1 rows"
        code, out, _ = run(capsys, *argv, "--format", "json")
        blob = json.loads(out)
        assert code == 1 and blob["disagreements"] == 1
        assert [(row["n"], row["k"]) for row in blob["rows"]
                if not row["agree"]] == [(2, 1)]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 1 and len(rows) == 6
        assert [(row["n"], row["k"]) for row in rows
                if row["agree"] == "false"] == [("2", "1")]

    @pytest.mark.parametrize("field, rows", [("7", 29), ("25", 15)])
    def test_pp_criteria_split_on_a_wrong_quarter_constant(
            self, capsys, monkeypatch, field, rows):
        # the image scan reads x = 1/4 through the recurrence, the 2-to-1
        # count the closed constant as its excluded value: a wrong
        # constant flips 2-to-1 verdicts that the image scan must contest
        argv = ("pp", "--field", field, "--n", "1..60")
        assert run(capsys, *argv)[0] == 0
        real = rowkernels.value_at_quarter
        for module in (rowkernels, rdpoly):
            monkeypatch.setattr(module, "value_at_quarter",
                                lambda F, n, k: (real(F, n, k) + 1) % F.p)
        code, out, _ = run(capsys, *argv)
        assert (code, out.splitlines()[-1]) == \
            (1, f"criteria disagree on {rows} rows")

    def test_verify_theorem_failure_exits_1(self, capsys, monkeypatch):
        # the right side of T2.2 flipped at n = 4 for k = 0 and k = 1
        st = permcheck.STATEMENTS["T2.2"]
        real = st.rhs
        monkeypatch.setattr(st, "rhs", lambda F, l, n, k: real(F, l, n, k)
                            != (n == 4 and k in (0, 1)))
        argv = ("verify", "T2.2", "--p", "5", "--e", "1", "--n", "0..12")
        code, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == "T2.2: 65 grid points, 2 failures"
        assert lines[-1] == "pass: false"
        fails = [json.loads(line[len("FAIL "):]) for line in lines[1:-1]]
        assert all(line.startswith("FAIL ") for line in lines[1:-1])
        assert [(f["n"], f["k"], f["ok"]) for f in fails] == \
            [(4, 0, False), (4, 1, False)]
        code, out, _ = run(capsys, *argv, "--format", "json")
        blob = json.loads(out)
        assert code == 1 and blob["pass"] is False
        assert blob["failures"] == fails
        assert blob["failures"] == [ent for ent in blob["grid"]
                                    if not ent["ok"]]

    def test_verify_theorem_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "T2.2", "--p", "5", "--e", "1",
                           "--n", "0..12")
        assert code == 0
        assert "pass: true" in out

    def test_verify_theorem_json(self, capsys):
        code, out, _ = run(capsys, "verify", "T2.1", "--p", "3", "--e", "1",
                           "--format", "json")
        blob = json.loads(out)
        assert code == 0 and blob["theorem"] == "T2.1"
        assert blob["pass"] is True and blob["failures"] == []
        assert {"field", "q", "l", "n", "k", "lhs", "rhs", "ok"} <= \
            set(blob["grid"][0])


class TestExtensionTables:
    """The GF(q^2) coset tables are built by the first operation that
    needs them, hold at most q + 1 entries each, and change no output."""

    @staticmethod
    def fresh_caches():
        gf.quadratic_extension.cache_clear()
        rdpoly._principal_y.cache_clear()

    @staticmethod
    def ext343():
        return gf.quadratic_extension(gf.parse_field_descriptor("343"))

    def test_field_info_builds_nothing(self, capsys):
        self.fresh_caches()
        code, _, _ = run(capsys, "field-info", "--field", "343")
        assert code == 0
        assert self.ext343()._rho is None

    @pytest.mark.parametrize("argv", [
        ("eval", "--field", "343", "--n", "117000", "--k", "3", "--x",
         "5,1,0", "--check"),
        ("pp", "--field", "343", "--n", "115962,117063", "--k", "1",
         "--criteria", "two_to_one"),
    ])
    def test_a_run_on_the_base_line_builds_nothing(self, capsys, argv):
        # 1 - 4x is a square at x = 5 + t, and both rows are decided by
        # points of GF(343) before the pass reaches V
        self.fresh_caches()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert self.ext343()._rho is None

    @pytest.mark.parametrize("argv", [
        ("eval", "--field", "343", "--n", "117000", "--k", "3", "--x",
         "0,1", "--check"),
        ("pp", "--field", "343", "--n", "2", "--k", "1",
         "--criteria", "two_to_one"),
    ])
    def test_a_run_builds_tables_of_at_most_q_plus_1_entries(self, capsys,
                                                             argv):
        self.fresh_caches()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        ext = self.ext343()
        sizes = [len(t) for t in (ext._reps, ext._rho)]
        assert max(sizes) == ext.q + 1

    @pytest.mark.parametrize("argv", [
        ("pp", "--field", "25", "--n", "1..30", "--k", "0..4"),
        ("pp", "--field", "27", "--n", "1,2,3,9,10,11,27,28,29",
         "--format", "json"),
        ("pp", "--field", "49", "--n", "1..10,48,49,50", "--k", "0,2,4",
         "--format", "csv"),
        ("verify", "T-pl1-gen", "--p", "3,5", "--e", "1,2", "--l", "0..2"),
        ("verify", "T-k0-pe2", "--p", "3,5,7", "--e", "1,2",
         "--format", "json"),
    ])
    def test_output_is_the_same_with_tables_on_and_off(self, capsys,
                                                       monkeypatch, argv):
        outputs = []
        for bound in (0, gf._LOG_TABLE_MAX_Q):
            with monkeypatch.context() as m:
                m.setattr(gf, "_LOG_TABLE_MAX_Q", bound)
                self.fresh_caches()
                outputs.append(run(capsys, *argv))
                if argv[0] == "pp":
                    F = gf.parse_field_descriptor(argv[2])
                    built = gf.quadratic_extension(F)._rho is not None
                    assert built == (bound > 0)
        self.fresh_caches()
        assert outputs[0] == outputs[1]


class TestGuardsAndErrors:
    def test_field_size_guard(self, capsys):
        code, _, err = run(capsys, "field-info", "--field", "625")
        assert (code, err) == (2, "error: field size 5^4 exceeds the bound "
                                  "q <= 343; pass --unsafe-large\n")

    @pytest.mark.parametrize("fd", ["3^40", "2^64", "3^12", "3^40/1,2"])
    def test_field_size_guard_runs_before_the_field_is_built(
            self, capsys, monkeypatch, fd):
        # the guard used to run after make_field, whose modulus search
        # did not finish within 20 s for 3^40 and 2^64
        def refuse(*args):
            raise AssertionError("make_field ran before the size guard")
        monkeypatch.setattr(gf, "make_field", refuse)
        code, out, err = run(capsys, "field-info", "--field", fd)
        assert (code, out) == (2, "")
        assert f"field size {fd.partition('/')[0]} exceeds the bound" in err

    def test_large_composite_descriptor_is_refused_at_once(self, capsys):
        # 1000000007 * 1000000009: trial division ran past a 5 s timeout
        start = time.perf_counter()
        code, out, err = run(capsys, "field-info", "--field",
                             "1000000016000000063")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert "1000000016000000063 is not a prime power" in err

    def test_invalid_descriptors_keep_their_messages(self, capsys):
        for fd, msg in (("4^40", "p must be prime, got 4"),
                        ("3^0", "e must be a positive integer, got 0"),
                        ("3^x", "bad field descriptor '3^x'"),
                        ("9^2/1,2", "p must be prime, got 9"),
                        ("9/", "bad modulus in field descriptor '9/'")):
            code, _, err = run(capsys, "field-info", "--field", fd)
            assert code == 2 and msg in err, fd

    @pytest.mark.parametrize("fd", ["", "abc", "3^x", "^3", "3^4^5", "x/1,2"])
    def test_non_integer_descriptor_names_the_forms(self, capsys, fd):
        # int()'s "invalid literal" text used to reach the user
        code, out, err = run(capsys, "field-info", "--field", fd)
        assert (code, out) == (2, "")
        assert err == (f"error: bad field descriptor {fd!r}: expected q, "
                       "p^e or p^e/c0,...,1\n")

    @pytest.mark.parametrize("criteria", [(), ("--criteria", "two_to_one")],
                             ids=["default", "two_to_one"])
    def test_pp_refuses_two_to_one_in_characteristic_2(self, capsys,
                                                       tmp_path, criteria):
        # every row is decided before the first byte is written, so the
        # criterion's own refusal leaves stdout and --out untouched
        out_file = tmp_path / "pp.txt"
        for out_args in ((), ("--out", str(out_file))):
            code, out, err = run(capsys, "pp", "--field", "8", "--n", "1..3",
                                 *criteria, *out_args)
            assert (code, out) == (2, "")
            assert err == ("error: the two_to_one criterion needs odd "
                           "characteristic\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("command", [("sums",), ("verify", "sums")],
                             ids=["sums", "verify-sums"])
    def test_sum_table_too_large_to_index_is_refused(self, command):
        # q^2 + 2q entries past sys.maxsize used to end in an
        # OverflowError traceback from the list that held S
        q = 4294967311
        proc = run_capped(*command, "--field", str(q), "--k", "1",
                          "--unsafe-large")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: a sum table over GF({q}) has {q * q + 2 * q} entries, "
            f"more than the {sys.maxsize} an array can index\n")

    def test_sum_tables_of_every_kind_are_refused_by_the_first(self):
        # the default kinds are range(p): a list of p ints ran out of
        # memory before the first table's size refusal could speak
        q = 4294967311
        proc = run_capped("verify", "sums", "--field", str(q),
                          "--unsafe-large")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: a sum table over GF({q}) has {q * q + 2 * q} entries, "
            f"more than the {sys.maxsize} an array can index\n")

    @pytest.mark.parametrize("argv, msg", [
        (("field-info", "--field", "3^2/2,0,1"),
         "modulus (2, 0, 1) is reducible over GF(3)"),
        (("field-info", "--field", "3^1/1,1"),
         "a prime field takes the modulus x, (0, 1), alone; got (1, 1)"),
        (("verify", "T2.1", "--p", "3", "--e", "7"),
         "grid point GF(3^7) exceeds the size bound q <= 343"),
        (("poly", "--field", "8", "--n", "3", "--k", "1"),
         "as_polynomial needs odd characteristic"),
        (("sums", "--field", "8", "--k", "1"),
         "sum tables need odd characteristic"),
        (("verify", "sums", "--field", "8"),
         "sum tables need odd characteristic"),
    ], ids=["reducible-modulus", "prime-field-modulus", "verify-past-bound",
            "library-error", "sums-char2", "verify-sums-char2"])
    def test_library_value_errors_are_one_usage_line(self, argv, msg):
        # a ValueError from the library reaches main unwrapped: exit 2
        # and its message as the one stderr line, with no traceback
        proc = run_capped(*argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {msg}\n"

    @pytest.mark.parametrize("argv", [
        ("poly", "--field", "5", "--n", "3", "--k", "1"),
        ("pp", "--field", "5", "--n", "1..3"),
        ("verify", "T2.1", "--p", "3", "--e", "1"),
        ("field-info", "--field", "5"),
    ], ids=lambda argv: argv[0])
    def test_check_is_refused_where_nothing_reads_it(self, capsys, argv):
        # --check used to be accepted here and checked nothing, exit 0
        code, out, err = run(capsys, *argv, "--check")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --check" in err
        assert err.splitlines()[0].startswith(f"usage: rdickson {argv[0]}")

    @pytest.mark.parametrize("argv, flag, reads", [
        (("T2.1", "--p", "3", "--e", "1", "--field", "343"), "--field",
         "the fields of --p and --e"),
        (("T2.2", "--p", "3", "--e", "1", "--field", "3"), "--field",
         "the fields of --p and --e"),
        (("sums", "--field", "5", "--k", "1", "--p", "3", "--e", "9",
          "--l", "4"), "--p", "the field of --field"),
        (("sums", "--field", "5", "--e", "9"), "--e", "the field of --field"),
        (("sums", "--field", "5", "--l", "4"), "--l", "the field of --field"),
        (("sums", "--field", "5", "--n", "3"), "--n", "the field of --field"),
        (("T2.1", "--p", "3", "--e", "1", "--n", "5"), "--n",
         "n = p^l + c over the exponents l"),
        (("T-k0-pe2", "--n", "0..3", "--p", "3", "--e", "1"), "--n",
         "n = p^l + c over the exponents l"),
    ], ids=["T2.1-field", "T2.2-field", "sums-p", "sums-e", "sums-l",
            "sums-n", "T2.1-n", "T-k0-pe2-n"])
    def test_verify_refuses_a_flag_its_target_never_reads(self, capsys,
                                                          argv, flag, reads):
        # these used to check GF(3), or GF(5), and exit 0 as if the
        # ignored flag had been checked
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: verify {argv[0]} does not read {flag}; "
                       f"it checks {reads}\n")

    @pytest.mark.parametrize("target", permcheck.THEOREM_IDS)
    def test_every_statement_takes_l_n_and_k(self, capsys, target):
        # a statement that does not run --l or --k sizes its grid without
        # it, so those flags stay accepted on every statement; --n is
        # refused where the statement walks exponents l (above)
        ns = ("--n", "0..3") if target == "T2.2" else ()
        code, out, err = run(capsys, "verify", target, "--p", "3,5",
                             "--e", "1", "--l", "0..1", *ns, "--k", "0..1")
        assert (code, err) == (0, "")
        assert out.endswith("pass: true\n")

    def test_unsafe_large_lifts_guard(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "625", "--n", "2",
                           "--k", "1", "--x", "7", "--unsafe-large")
        assert code == 0

    def test_grid_guard(self, capsys):
        code, _, err = run(capsys, "pp", "--field", "3", "--n",
                           "1..2000000", "--k", "1")
        assert code == 2 and "grid" in err

    def test_bad_field(self, capsys):
        code, _, err = run(capsys, "eval", "--field", "6", "--n", "1",
                           "--k", "1", "--x", "1")
        assert code == 2 and "prime power" in err

    def test_missing_field(self, capsys):
        code, _, err = run(capsys, "sums", "--k", "1")
        assert code == 2 and "--field" in err

    def test_bad_element(self, capsys):
        code, _, err = run(capsys, "eval", "--field", "9", "--n", "1",
                           "--k", "1", "--x", "1,2,2")
        assert code == 2 and "coordinates" in err

    def test_bad_subcommand(self, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_pp_rejects_index_zero(self, capsys):
        code, _, err = run(capsys, "pp", "--field", "5", "--n", "0..3")
        assert code == 2 and "at least 1" in err

    def test_pp_rejects_unknown_criterion(self, capsys):
        code, _, err = run(capsys, "pp", "--field", "5", "--n", "1..3",
                           "--criteria", "magic")
        assert code == 2 and "criterion" in err

    def test_verify_rejects_nonprime(self, capsys):
        code, _, err = run(capsys, "verify", "T2.1", "--p", "9", "--e", "1")
        assert code == 2 and "prime" in err

    @pytest.mark.parametrize("target", permcheck.THEOREM_IDS)
    def test_verify_refuses_characteristic_2(self, capsys, target):
        # every statement assumes odd p; running it at p = 2 used to
        # report false counterexamples
        code, out, err = run(capsys, "verify", target, "--p", "2",
                             "--e", "1..3")
        assert (code, out) == (2, "")
        assert "odd characteristic" in err

    @pytest.mark.parametrize("target,flag", [("T-pl1-gen", "--l"),
                                             ("T2.2", "--n")])
    def test_verify_rejects_negative_indices(self, capsys, target, flag):
        code, _, err = run(capsys, "verify", target, "--p", "3",
                           "--e", "1", flag, "-1")
        assert code == 2 and "at least 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("e", ["0", "-1"])
    def test_verify_rejects_degree_below_one(self, capsys, e):
        # --e 0 used to fail inside make_field, --e -1 as an empty domain
        code, out, err = run(capsys, "verify", "T2.1", "--p", "3", "--e", e)
        assert (code, out) == (2, "")
        assert err == "error: --e entries must be at least 1\n"

    @pytest.mark.parametrize("argv, flag", [
        (("pp", "--field", "7", "--n", "1..3", "--k"), "--k"),
        (("verify", "T2.1", "--p", "3", "--e", "1", "--l"), "--l"),
        (("verify", "T2.2", "--p", "3", "--e", "1", "--n"), "--n"),
        (("verify", "sums", "--field", "5", "--k"), "--k"),
    ], ids=["pp-k", "T2.1-l", "T2.2-n", "sums-k"])
    def test_empty_range_is_a_usage_error(self, capsys, argv, flag):
        # an empty range used to fall back to the default grid, exit 0
        code, out, err = run(capsys, *argv, "")
        assert (code, out) == (2, "")
        assert err == (f"error: bad {flag} '': expected N, N..M or a "
                       "comma list\n")

    @pytest.mark.parametrize("argv, msg", [
        (("eval", "--field", "7", "--n", "3", "--k", "1", "--x", "2",
          "--out"), "cannot write --out '': "),
        (("field-info", "--field"), "bad field descriptor ''"),
        (("verify", "T2.1", "--e", "1", "--p"), "bad --p ''"),
        (("verify", "T2.1", "--p", "3", "--e"), "bad --e ''"),
    ], ids=["out", "field", "p", "e"])
    @pytest.mark.parametrize("joined", [False, True], ids=["apart", "joined"])
    def test_empty_flag_value_is_a_bad_value(self, capsys, argv, msg, joined):
        # an empty value used to read as a missing flag: --out '' wrote
        # to stdout and exited 0, and the others were reported as required
        argv = (*argv[:-1], argv[-1] + "=") if joined else (*argv, "")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + msg) and err.count("\n") == 1
        assert "Traceback" not in err

    def test_verify_grid_guard(self, capsys):
        # 400001 indices times 3 kinds is past the 10^6 point bound
        code, _, err = run(capsys, "verify", "T2.2", "--p", "3", "--e", "1",
                           "--n", "0..400000")
        assert code == 2 and "grid" in err

    def test_pp_rejects_a_repeated_criterion(self, capsys):
        # a repeated criterion ran twice, and its pretty and csv column
        # repeated while each json row held its key once
        code, out, err = run(capsys, "pp", "--field", "7", "--n", "1..3",
                             "--criteria", "two_to_one,brute_force,two_to_one")
        assert (code, out) == (2, "")
        assert err == "error: criterion 'two_to_one' is named twice\n"

    def test_pp_rejects_empty_criteria(self, capsys):
        code, out, err = run(capsys, "pp", "--field", "9", "--n", "1",
                             "--k", "0", "--criteria", ",")
        assert (code, out) == (2, "")
        assert "criterion" in err

    @pytest.mark.parametrize("target,axes,points", [
        ("T-k0-pe2", ("--l", "0..400000"), 1),
        ("T-pl1-k2", ("--l", "0..1", "--k", "0..600000"), 2),
    ])
    def test_verify_grid_guard_counts_points_run(self, capsys, target,
                                                 axes, points):
        # axes a statement ignores no longer count against the bound
        code, out, _ = run(capsys, "verify", target, "--p", "3", "--e", "1",
                           *axes)
        assert code == 0
        assert out == f"{target}: {points} grid points, 0 failures\n" \
                      "pass: true\n"

    @pytest.mark.parametrize("argv", [
        ("T-pl1-gen", "--p", "5", "--e", "1", "--k", "2"),
        ("T-pl2-k4", "--p", "3", "--e", "1"),
    ])
    def test_verify_refuses_empty_grid(self, capsys, argv):
        # a grid outside the statement's domain used to pass vacuously
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert "domain" in err

    def test_huge_range_is_refused_before_it_is_built(self):
        # the range used to be built before any guard ran, ending in a
        # MemoryError traceback
        proc = run_capped("pp", "--field", "5", "--n", "1..1000000000000")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "grid" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("target", ["T2.1", "T-pl1-gen", "T-k0-pe2"])
    @pytest.mark.parametrize("axes", [
        ("--p", "1000000007", "--e", "1"),
        ("--p", "3", "--e", "1000000000000", "--l", "0"),
    ])
    def test_oversized_field_is_refused_before_any_work(self, target, axes):
        # the q bound must hold before the kinds 0..p-1 or p^e are built
        proc = run_capped("verify", target, *axes)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "size bound" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("verify", "T2.1", "--p", "3", "--e", "1000000000000", "--l", "0",
         "--k", "1"),
        ("field-info", "--field", "3^1000000000000")])
    def test_unsafe_large_past_memory_is_a_usage_error(self, argv):
        # the default modulus of degree 10^12 cannot be searched for;
        # field-info ended in a MemoryError traceback, and verify reaches
        # the same search once --unsafe-large lifts its q bound
        proc = run_capped(*argv, "--unsafe-large")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "out of memory" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("target", ["T2.1", "T-pl1-gen", "T-k0-pe2"])
    def test_unsafe_large_lifts_the_verify_size_bound(self, capsys,
                                                       monkeypatch, target):
        # --unsafe-large used to leave a bound of q <= 10^9 in place; the
        # grid is sized for real, and the scan of GF(10^9 + 7) stubbed
        # where the grid's entries are made
        seen = []

        def verify(theorem, ps, es, **grid):
            seen.append(grid["max_q"])
            return []
        monkeypatch.setattr(permcheck, "verify_points", verify)
        code, out, err = run(capsys, "verify", target, "--p", "1000000007",
                             "--e", "1", "--l", "0", "--k", "1",
                             "--unsafe-large")
        assert (code, err, seen) == (0, "", [None])
        assert out.endswith("pass: true\n")

    @pytest.mark.parametrize("argv", [
        ("sums", "--field", "5", "--k", "1"),
        ("eval", "--field", "5", "--n", "4", "--k", "3", "--x", "2")],
        ids=["sums", "eval"])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, argv, where):
        # used to end in a FileNotFoundError or IsADirectoryError traceback
        target = tmp_path / "missing" / "x.txt" if where == "missing-dir" \
            else tmp_path
        proc = run_capped(*argv, "--out", str(target))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(
            f"error: cannot write --out {str(target)!r}: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, lines, code", [
        (("sums", "--field", "125", "--k", "1"), 1, 0),
        (("sums", "--field", "125", "--k", "1", "--check"), 1, 1),
        (("eval", "--field", "5", "--n", "4", "--k", "3", "--x", "2"), 0, 0),
        (("pp", "--field", "49", "--n", "1..2400"), 1, 0),
        (("poly", "--field", "343", "--n", "5000", "--k", "2", "--format",
          "csv"), 1, 0)],
        ids=["sums", "sums-check", "eval", "pp", "poly"])
    def test_reader_closing_the_pipe_keeps_the_exit_code(self, tmp_path,
                                                         argv, lines, code):
        # the reader closes its end after `lines` lines: the sums rows
        # outgrow the pipe buffer, so rows are still unwritten, and eval
        # has not flushed its one line yet; with --check the oracle is
        # made to disagree, and the 1 must survive
        (tmp_path / "sitecustomize.py").write_text(
            "from rdickson import charsum\n"
            "real = charsum.sums_bruteforce\n"
            "def off(F, k):\n"
            "    S = real(F, k); S[1] = F.add(S[1], 1); return S\n"
            "charsum.sums_bruteforce = off\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tmp_path), *sys.path]))
        # leaving the with block closes both pipes
        with subprocess.Popen([sys.executable, "-m", "rdickson", *argv],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as proc:
            for _ in range(lines):
                proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=20), err) == (code, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ("field-info", "--field", "9"),
        ("pp", "--field", "9", "--n", "1..3"),
        ("sums", "--field", "125", "--k", "1"),
        ("poly", "--field", "343", "--n", "5000", "--k", "2")],
        ids=["field-info", "pp", "sums", "poly"])
    def test_a_full_stdout_is_a_usage_error(self, argv):
        # used to end in an OSError traceback and exit 1; the flush at
        # exit must find fd 1 on the null device, or it exits 120
        with open("/dev/full", "w", encoding="utf-8") as full:
            proc = subprocess.run([sys.executable, "-m", "rdickson", *argv],
                                  stdout=full, stderr=subprocess.PIPE,
                                  text=True, timeout=20)
        assert (proc.returncode, proc.stderr) == (
            2, "error: cannot write stdout: No space left on device\n")

    @pytest.mark.parametrize("l", ["100000", "1000000000000"])
    def test_huge_exponent_is_refused_before_any_scan(self, l):
        # n = 3^l would not print in decimal, and 3^(10^12) would not
        # even finish: refused from p and l alone
        proc = run_capped("verify", "T2.1", "--p", "3", "--e", "1", "--l", l)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "--l" in proc.stderr and "Traceback" not in proc.stderr

    def test_small_exponents_pass_the_digit_bound_unchanged(self, capsys):
        # the digest was recorded on this output before the bound existed
        code, out, _ = run(capsys, "verify", "T2.1", "--p", "3", "--e", "1",
                           "--l", "0..7", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f322b2c607ad54afb98f6b0f8376406eea33b2c4fc05e283fbf44594f5f83be7")


class TestCharTwo:
    def test_eval_and_check_work(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "4", "--n", "6",
                           "--k", "3", "--x", "1,1", "--check")
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "agree: true"
        assert {line.split(": ")[0] for line in lines[:-1]} == \
            {"definition", "recurrence"}

    def test_pp_needs_brute_force_only(self, capsys):
        code, out, _ = run(capsys, "pp", "--field", "4", "--n", "1..5",
                           "--criteria", "brute_force")
        assert code == 0
        code, _, err = run(capsys, "pp", "--field", "4", "--n", "1..5")
        assert code == 2 and "odd characteristic" in err

    def test_check_skips_linear_route_at_large_index(self):
        # --check used to run the O(n) char2 route at any n and never
        # finished at n = 10^20
        proc = run_capped("eval", "--field", "8", "--n", str(10 ** 20),
                          "--k", "6", "--x", "1", "--check")
        assert (proc.returncode, proc.stdout) == \
            (0, "matrix: 1,0,0\nrecurrence: 1,0,0\nagree: true\n")

    def test_general_scale_falls_back_to_definition(self, capsys):
        # worked by hand over GF(4), t^2 = t + 1: with k = 1, a = t + 1,
        # x = t the sequence runs 1, 3, 0, 1, 3, 0, 1 (int encodings)
        code, out, _ = run(capsys, "eval", "--field", "4", "--n", "6",
                           "--k", "1", "--x", "0,1", "--a", "1,1")
        assert code == 0 and out == "1,0\n"
        # period 3, so n = 6000 repeats n = 6
        code, out, _ = run(capsys, "eval", "--field", "4", "--n", "6000",
                           "--k", "1", "--x", "0,1", "--a", "1,1")
        assert (code, out) == (0, "1,0\n")
        # the rescaled value depends on n mod q^2 - 1 = 63 only
        F8 = gf.make_field(2, 3)
        want = F8.coeffs(rdpoly.eval_definition(
            F8, (10 ** 20 - 1) % 63 + 1, 1, 2, 3))
        code, out, _ = run(capsys, "eval", "--field", "8", "--n",
                           str(10 ** 20), "--k", "1", "--x", "0,1",
                           "--a", "1,1")
        assert (code, out) == (0, ",".join(map(str, want)) + "\n")


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdickson", "eval", "--field", "5",
             "--n", "4", "--k", "3", "--x", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "0\n"

    def test_import_leaves_heavy_stdlib_modules_out(self):
        # every invocation is a fresh process, so the import is paid on
        # each one; dataclasses and the inspect it loads cost about 20 ms
        # of a 36 ms import on Python 3.11
        code = ("import sys; before = set(sys.modules); import rdickson.cli; "
                "print(sorted({'dataclasses', 'inspect', 'fractions'}"
                " & (set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    # a fresh process per command: the package modules loaded once main
    # returns.  Stdlib modules are left out: site hooks may preload them.
    @pytest.mark.parametrize("argv, extra", [
        (("field-info", "--field", "9"), ()),
        (("verify", "--help"), ()),
        (("eval", "--field", "9", "--n", "4", "--k", "1", "--x", "1,1"),
         ("cli_values", "rdpoly", "rowkernels")),
        (("poly", "--field", "9", "--n", "4", "--k", "1"),
         ("cli_values", "rdpoly", "rowkernels")),
        (("pp", "--field", "9", "--n", "1..3"),
         ("cli_grids", "permcheck", "rowkernels")),
        (("verify", "T2.1", "--p", "3", "--e", "1"),
         ("cli_grids", "permcheck", "rowkernels")),
        (("sums", "--field", "9", "--k", "1"), ("cli_sums", "charsum")),
        (("verify", "sums", "--field", "3"), ("cli_sums", "charsum"))])
    def test_each_command_loads_only_the_modules_it_runs(self, argv, extra):
        code = ("import contextlib, io, sys; from rdickson.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rc = main({list(argv)!r})\n"
                "print(rc, *sorted(m for m in sys.modules"
                " if m.partition('.')[0] == 'rdickson'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        want = sorted(["rdickson"] + [f"rdickson.{m}" for m in
                                      ("cli", "gf", "modpoly", *extra)])
        assert proc.stdout.split() == ["0", *want], proc.stderr

    def test_a_plain_argv_loads_no_argparse(self):
        # argparse with the gettext and locale it loads costs about 2.6 ms
        # of a fresh process; help and usage errors still go through it
        argvs = [["field-info", "--field", "9"],
                 ["pp", "--field", "9", "--n", "1..3", "--format", "csv"],
                 ["sums", "--field", "9", "--k", "1", "--format", "json"],
                 ["eval", "--field", "9", "--n", "4", "--k", "1", "--x",
                  "1,1", "--check"],
                 ["verify", "T2.1", "--p", "3", "--e", "1", "--l", "0..2"],
                 ["verify", "sums", "--field", "3"]]
        code = ("import contextlib, io, sys; before = set(sys.modules)\n"
                "from rdickson.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [main(argv) for argv in {argvs!r}]\n"
                "print(*codes, *sorted({'argparse', 'gettext', 'locale'}"
                " & (set(sys.modules) - before)))\n"
                "main(['pp', '--help'])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        codes, usage = proc.stdout.split("\n")[:2]
        assert codes == " ".join(["0"] * len(argvs)), proc.stderr
        assert usage.startswith("usage: rdickson pp"), proc.stderr

    def test_package_names_resolve_to_their_home_modules(self):
        import rdickson
        homes = (gf, rowkernels, rdpoly, permcheck, charsum)
        for name in rdickson.__all__:
            value = getattr(rdickson, name)
            holders = [m for m in homes if name in vars(m)]
            assert all(vars(m)[name] is value for m in holders), name
            assert holders or name == "__version__", name
        with pytest.raises(AttributeError, match="no_such_name"):
            rdickson.no_such_name
        star = {}
        exec("from rdickson import *", star)
        assert set(rdickson.__all__) <= set(star)
        assert all(star[name] is getattr(rdickson, name)
                   for name in rdickson.__all__)
        # the package alone loads none of its modules
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, rdickson; print(*sorted("
             "m for m in sys.modules if m.partition('.')[0] == 'rdickson'))"],
            capture_output=True, text=True)
        assert proc.stdout == "rdickson\n", proc.stderr


# -- generated argument lists ----------------------------------------------

_FIELDS = st.sampled_from(("3", "4", "5", "7", "8", "9", "3^2/1,0,1",
                           "2^3", "16", "25", "27", "6", "1", "0", "x"))


def _ranges(lo, hi):
    single = st.integers(lo, hi).map(str)
    span = st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(
        lambda t: f"{t[0]}..{t[1]}")
    return st.lists(st.one_of(single, span), min_size=1, max_size=3).map(
        ",".join)


def _opt(flag, values):
    return st.one_of(st.just(()), values.map(lambda v: (flag, v)))


_ELEMENT = st.lists(st.integers(-1, 30), min_size=1, max_size=3).map(
    lambda cs: ",".join(map(str, cs)))

_EVAL = st.tuples(
    st.just(("eval", "--field")), _FIELDS,
    st.tuples(st.just("--n"), st.one_of(st.integers(-2, 60),
                                        st.just(10 ** 20)).map(str)),
    st.tuples(st.just("--k"), st.integers(-3, 30).map(str)),
    st.tuples(st.just("--x"), _ELEMENT), _opt("--a", _ELEMENT),
    st.sampled_from(((), ("--check",))))
_PP = st.tuples(
    st.just(("pp", "--field")), _FIELDS,
    st.tuples(st.just("--n"), _ranges(-1, 40)), _opt("--k", _ranges(-3, 9)),
    _opt("--criteria", st.sampled_from(
        ("brute_force", "two_to_one", "two_to_one,brute_force", ",",
         "magic"))))
_VERIFY = st.tuples(
    st.tuples(st.just("verify"),
              st.sampled_from(permcheck.THEOREM_IDS + ("T9.9",))),
    st.sampled_from((("--p", "3", "--e", "1..3"), ("--p", "5", "--e", "1..2"),
                     ("--p", "3,5", "--e", "1,2"), ("--p", "2", "--e", "1"),
                     ("--p", "9", "--e", "1"), ("--p", "3", "--e", "0"),
                     ("--p", "3", "--e", "4"), ("--p", "3",), ())),
    _opt("--l", _ranges(-1, 4)), _opt("--n", _ranges(-1, 30)),
    _opt("--k", _ranges(-3, 9)))
_VERIFY_SUMS = st.tuples(
    st.just(("verify", "sums", "--field")),
    st.sampled_from(("3", "4", "5", "6")), _opt("--k", _ranges(-3, 6)))
_FIELD_INFO = st.tuples(st.just(("field-info", "--field")), _FIELDS)


def _flatten(parts):
    out = []
    for part in parts:
        out.extend((part,) if isinstance(part, str) else part)
    return out


class TestGeneratedArguments:
    # the exit-code contract on generated invocations: 0 ok, 1 only
    # with a reported failure, 2 usage; never an uncaught exception
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_EVAL, _PP, _VERIFY, _VERIFY_SUMS, _FIELD_INFO).map(
        _flatten))
    def test_exit_code_contract(self, argv):
        code, out, err = _main_io(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert ("pass: false" in out or "agree: false" in out
                    or "criteria disagree" in out
                    or "internal cross-check failed" in err)
