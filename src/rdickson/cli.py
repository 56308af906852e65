"""Command line front end.

Subcommands:
  eval        one value D(n,k; a,x), optionally cross-checked
  poly        reduced polynomial mod x^q - x plus the integer form
  pp          permutation scan over an (n, k) grid
  verify      both-sides check of a named statement, or of the sum tables
  sums        full-field sum table for one kind
  field-info  parameters of a field descriptor

Shared flags: --field, --format {pretty,json,csv}, --out FILE and
--unsafe-large; eval and sums also take --check.  Fields are given as
"q", "p^e" or "p^e/c0,c1,...,1"; elements as comma-separated
coordinates ("3" or "1,2").  Sizes are guarded by q <= DEFAULT_MAX_Q
(343), and grids and range arguments by 10^6 points; --unsafe-large
lifts both.  Each handler takes max_q: the bound, or None under
--unsafe-large, which then lifts the grid bound too.

Exit codes: 0 verified/ok, 1 a check failed or an internal
cross-check tripped, 2 usage error, an --out that cannot be written
included.  Output is deterministic: equal invocations produce identical
bytes.  Commands render their whole output and write it once; `sums`
builds and checks its table first and then writes it ROWS_PER_WRITE
rows at a time, rendering each of its at most p distinct sum values
once.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from itertools import islice, repeat

from . import charsum, gf, permcheck, rdpoly
from .gf import InternalCheckError
from .permcheck import DEFAULT_MAX_Q

GRID_LIMIT = 10 ** 6
SMALL_N = 5000          # bound for the O(n) and O(n^2) cross-check routes


class UsageError(Exception):
    pass


# -- parsing helpers -------------------------------------------------------


def _parse_range_list(text, what, max_q, minimum=None):
    """Accept "4", "1..10", "5,7,9" and mixtures like "0..2,6".

    The entries are counted, and held to the grid bound, before any
    list is built.
    """
    spans = []
    for token in text.split(","):
        lo, sep, hi = token.strip().partition("..")
        try:
            spans.append(range(int(lo), int(hi if sep else lo) + 1))
        except ValueError:
            raise UsageError(
                f"bad {what} {text!r}: expected N, N..M or a comma list")
    _guard_grid(sum(max(0, r.stop - r.start) for r in spans), max_q)
    out = [v for r in spans for v in r]
    if not out:
        raise UsageError(f"empty {what} {text!r}")
    if minimum is not None and min(out) < minimum:
        raise UsageError(f"{what} entries must be at least {minimum}")
    return out


def _parse_int(text, what, minimum=None):
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"bad {what} {text!r}: expected an integer")
    if minimum is not None and value < minimum:
        raise UsageError(f"{what} must be at least {minimum}")
    return value


def _load_field(args, max_q):
    if not getattr(args, "field", None):
        raise UsageError("--field is required for this command")
    p, e, modulus = gf.split_field_descriptor(args.field)
    _guard_field(p, e, max_q)
    return gf.make_field(p, e, modulus)


def _guard_field(p, e, max_q):
    """Refuse GF(p^e) above the q bound before anything of it is built."""
    if gf.exceeds_size_bound(p, e, max_q):
        size = p if e == 1 else f"{p}^{e}"
        raise UsageError(f"field size {size} exceeds the bound "
                         f"q <= {max_q}; pass --unsafe-large")


def _guard_grid(n_points, max_q):
    if max_q is not None and n_points > GRID_LIMIT:
        raise UsageError(
            f"grid of {n_points} points exceeds {GRID_LIMIT}; "
            "pass --unsafe-large to proceed")


def _parse_element(F, text, what):
    try:
        coords = [int(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(
            f"bad {what} {text!r}: expected comma-separated coordinates")
    try:
        return F.element(coords)
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}: {exc}")


def _coords(F, v):
    return ",".join(str(c) for c in F.coeffs(v))


def _bool(v):
    return "true" if v else "false"


# -- output ----------------------------------------------------------------


def _render(fmt, pretty_lines, json_obj, csv_header, csv_rows):
    if fmt == "json":
        return json.dumps(json_obj, sort_keys=True, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        return buf.getvalue().rstrip("\n")
    return "\n".join(pretty_lines)


@contextlib.contextmanager
def _output(args):
    """The stream a command writes to: the --out file, or stdout.

    An OSError from opening or writing --out is a usage error.  A reader
    that closes stdout early (say `| head`) ends the output quietly and
    leaves the exit code to the command.
    """
    if not args.out:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError:
            # what is left, and the flush at exit, goes to the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(
            f"cannot write --out {args.out}: {exc.strerror or exc}")


def _emit(args, pretty_lines, json_obj, csv_header, csv_rows):
    text = _render(args.format, pretty_lines, json_obj, csv_header, csv_rows)
    text += "\n"               # appends in place: no second copy of text
    with _output(args) as fh:
        fh.write(text)


# -- eval --------------------------------------------------------------


def cmd_eval(args, max_q):
    F = _load_field(args, max_q)
    n = _parse_int(args.n, "--n", minimum=0)
    k = _parse_int(args.k, "--k")
    x = _parse_element(F, args.x, "--x")
    a = _parse_element(F, args.a, "--a")
    value = rdpoly.eval_recurrence(F, n, k, x, a)
    methods = {"recurrence": value}
    if args.check:
        if n <= SMALL_N:
            methods["definition"] = rdpoly.eval_definition(F, n, k, x, a)
        if F.p != 2 and a == 1:
            methods["functional"] = rdpoly.eval_functional(F, n, k, x)
            if n <= SMALL_N:
                methods["fnk"] = rdpoly.eval_via_fnk(F, n, k, x)
            if rdpoly._power_shape(F.p, n) is not None:
                methods["closed_form"] = rdpoly.closed_form(F, n, k, x)
    agree = len(set(methods.values())) == 1

    pretty = [_coords(F, value)]
    if args.check:
        pretty = [f"{name}: {_coords(F, val)}"
                  for name, val in sorted(methods.items())]
        pretty.append(f"agree: {_bool(agree)}")
    jobj = {"command": "eval", "field": gf.field_descriptor(F), "n": n,
            "k": k % F.p, "a": list(F.coeffs(a)), "x": list(F.coeffs(x)),
            "value": list(F.coeffs(value))}
    rows = [("value", _coords(F, value))]
    if args.check:
        jobj["methods"] = {name: list(F.coeffs(val))
                           for name, val in methods.items()}
        jobj["agree"] = agree
        rows += [(name, _coords(F, val))
                 for name, val in sorted(methods.items())]
        rows.append(("agree", _bool(agree)))
    _emit(args, pretty, jobj, ("quantity", "value"), rows)
    return 0 if agree else 1


# -- poly --------------------------------------------------------------


def cmd_poly(args, max_q):
    F = _load_field(args, max_q)
    n = _parse_int(args.n, "--n", minimum=0)
    k = _parse_int(args.k, "--k")
    poly = rdpoly.as_polynomial(F, n, k)
    fnk = rdpoly.fnk_coeffs(n, k % F.p) if n <= SMALL_N else None

    pretty = [str(poly)]
    if fnk is not None:
        pretty.append(f"f = {str(fnk).replace('x', 't')}"
                      "   (value = f(1 - 4x) / 2^n)")
    jobj = {"command": "poly", "field": gf.field_descriptor(F), "n": n,
            "k": k % F.p, "poly": poly.to_json(), "poly_str": str(poly),
            "fnk": fnk.to_json() if fnk is not None else None}
    rows = [("poly", i, _coords(F, c)) for i, c in enumerate(poly.coeffs)]
    if fnk is not None:
        rows += [("fnk", i, str(c)) for i, c in enumerate(fnk.coeffs)]
    _emit(args, pretty, jobj, ("source", "degree", "coeff"), rows)
    return 0


# -- pp ----------------------------------------------------------------


def cmd_pp(args, max_q):
    F = _load_field(args, max_q)
    ns = _parse_range_list(args.n, "--n", max_q, minimum=1)
    ks = (_parse_range_list(args.k, "--k", max_q) if args.k is not None
          else list(range(F.p)))
    _guard_grid(len(ns) * len(ks), max_q)
    criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
    if not criteria:
        raise UsageError("--criteria names no criterion")
    allowed = ("brute_force", "two_to_one")
    for crit in criteria:
        if crit not in allowed:
            raise UsageError(f"unknown criterion {crit!r}; "
                             f"choose from {', '.join(allowed)}")
    if F.p == 2 and "two_to_one" in criteria:
        raise UsageError("the two_to_one criterion needs odd characteristic")

    rows, disagreements = [], 0
    for n in ns:
        for k in ks:
            verdicts = {}
            for crit in criteria:
                if crit == "brute_force":
                    verdicts[crit] = permcheck.dickson_pp_bruteforce(
                        F, n, k).verdict
                else:
                    verdicts[crit] = permcheck.is_pp_two_to_one(
                        F, n, k).verdict
            agree = len(set(verdicts.values())) == 1
            disagreements += not agree
            rows.append({"n": n, "k": k % F.p, **verdicts, "agree": agree})

    header = ["n", "k", *criteria, "agree"]
    pretty = [" ".join(header)]
    csv_rows = []
    for row in rows:
        cells = [str(row["n"]), str(row["k"])]
        cells += [_bool(row[c]) for c in criteria]
        cells.append(_bool(row["agree"]))
        pretty.append(" ".join(cells))
        csv_rows.append(cells)
    if disagreements:
        pretty.append(f"criteria disagree on {disagreements} rows")
    jobj = {"command": "pp", "field": gf.field_descriptor(F),
            "criteria": criteria, "rows": rows,
            "disagreements": disagreements}
    _emit(args, pretty, jobj, header, csv_rows)
    return 1 if disagreements else 0


# -- verify ------------------------------------------------------------


def cmd_verify(args, max_q):
    if args.target == "sums":
        return _verify_sums(args, max_q)
    if args.target not in permcheck.THEOREM_IDS:
        raise UsageError(
            f"unknown verify target {args.target!r}; expected 'sums' or "
            f"one of {', '.join(permcheck.THEOREM_IDS)}")
    if not args.p or not args.e:
        raise UsageError("--p and --e are required for theorem grids")
    ps = _parse_range_list(args.p, "--p", max_q)
    es = _parse_range_list(args.e, "--e", max_q, minimum=1)
    ls = (_parse_range_list(args.l, "--l", max_q, minimum=0)
          if args.l is not None else None)
    ns = (_parse_range_list(args.n, "--n", max_q, minimum=0)
          if args.n is not None else None)
    ks = (_parse_range_list(args.k, "--k", max_q)
          if args.k is not None else None)
    for p in ps:
        if not gf.is_prime(p):
            raise UsageError(f"--p entries must be prime, got {p}")
    grid = dict(ns=ns, ls=ls, ks=ks, max_q=max_q)
    size = permcheck.grid_size(args.target, ps, es, **grid)
    _guard_grid(size, max_q)
    if not size:
        raise UsageError(
            f"no point of this grid lies in the domain of {args.target}")
    report = permcheck.verify_theorem(args.target, ps, es, **grid)

    pretty = [f"{args.target}: {len(report.entries)} grid points, "
              f"{len(report.counterexamples)} failures"]
    for ent in report.counterexamples:
        pretty.append("FAIL " + json.dumps(ent, sort_keys=True))
    pretty.append(f"pass: {_bool(report.passed)}")
    keys = sorted({key for ent in report.entries for key in ent})
    csv_rows = [[_csv_cell(ent.get(key)) for key in keys]
                for ent in report.entries]
    _emit(args, pretty, report.to_json(), keys, csv_rows)
    return 0 if report.passed else 1


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return _bool(value)
    return str(value)


def _verify_sums(args, max_q):
    F = _load_field(args, max_q)
    if F.p == 2:
        raise UsageError("sum tables need odd characteristic")
    ks = (_parse_range_list(args.k, "--k", max_q) if args.k is not None
          else list(range(F.p)))
    _guard_grid(len(ks) * F.q ** 2, max_q)
    results, failures = [], []
    for k in ks:
        table = charsum.sums_via_recurrence(F, k)
        brute = charsum.sums_bruteforce(F, k)
        bad = 0
        for n in range(1, F.q ** 2):
            if table.sums[n] != brute[n]:
                bad += 1
                failures.append({"k": k % F.p, "n": n})
        residue = charsum.residue_identity_holds(table, brute)
        if not residue:
            failures.append({"k": k % F.p, "identity": "residue"})
        results.append({"k": k % F.p, "rows": F.q ** 2 - 1,
                        "mismatches": bad, "residue_identity": residue,
                        "ok": bad == 0 and residue})
    passed = not failures
    pretty = [f"sums over GF({F.q}): k={r['k']} "
              f"{'ok' if r['ok'] else 'FAIL'} ({r['rows']} rows)"
              for r in results]
    pretty.append(f"pass: {_bool(passed)}")
    jobj = {"command": "verify", "target": "sums",
            "field": gf.field_descriptor(F), "results": results,
            "failures": failures, "pass": passed}
    csv_rows = [[r["k"], r["rows"], r["mismatches"],
                 _bool(r["residue_identity"]), _bool(r["ok"])]
                for r in results]
    _emit(args, pretty, jobj,
          ("k", "rows", "mismatches", "residue_identity", "ok"), csv_rows)
    return 0 if passed else 1


# -- sums --------------------------------------------------------------


def cmd_sums(args, max_q):
    F = _load_field(args, max_q)
    if F.p == 2:
        raise UsageError("sum tables need odd characteristic")
    k = _parse_int(args.k, "--k")
    table = charsum.sums_via_recurrence(F, k)
    oracle = None
    if args.check:
        brute = charsum.sums_bruteforce(F, k)
        oracle = [brute[n] == table.sums[n] for n in range(F.q ** 2)]
    with _output(args) as fh:
        _write_sums(fh, args.format, table, oracle)
    return 0 if oracle is None or all(oracle[1:]) else 1


ROWS_PER_WRITE = 1000


def _row_blocks(table, oracle):
    """The rows (n, sum, d, oracle_match) for n = 1 .. q^2 - 1, as
    iterators over ROWS_PER_WRITE rows, each to be read before the next."""
    size = len(table.sums)
    checks = islice(oracle, 1, None) if oracle is not None else repeat(None)
    rows = zip(range(1, size), islice(table.sums, 1, None),
               islice(table.d, 1, None), checks)
    for _ in range(1, size, ROWS_PER_WRITE):
        yield islice(rows, ROWS_PER_WRITE)


def _write_sums(fh, fmt, table, oracle):
    """Write the rows n = 1 .. q^2 - 1 of a sum table, ROWS_PER_WRITE
    rows per write.

    The bytes are those of the whole-table renderings: json.dumps(...,
    sort_keys=True, indent=2) of {command, field, k, rows}, csv.writer
    rows, or space-joined cells.  oracle[n] fills oracle_match (json
    leaves the key out, the other formats the cell blank, when oracle is
    None).  Every sum lies in the prime subfield, so each of the at most
    p distinct values is rendered once, for csv by the one csv.writer
    (n, d and oracle_match never need quoting); a row is one f-string
    of those pieces.
    """
    F, sums = table.field, table.sums
    if fmt == "json":
        # a row's sum list sits at nesting depth 3: items at 8 spaces
        cell = {v: json.dumps(list(F.coeffs(v)), indent=2).replace(
                    "\n", "\n      ") for v in set(sums)}
        match = {None: "", True: '      "oracle_match": true,\n',
                 False: '      "oracle_match": false,\n'}
        fh.write(f'{{\n  "command": "sums",\n'
                 f'  "field": {json.dumps(gf.field_descriptor(F))},\n'
                 f'  "k": {table.k},\n  "rows": [\n')
        sep = ""
        for rows in _row_blocks(table, oracle):
            fh.write(sep + ",\n".join([
                f'    {{\n      "d": {dn},\n      "n": {n},\n'
                f'{match[ok]}      "sum": {cell[s]}\n    }}'
                for n, s, dn, ok in rows]))
            sep = ",\n"
        fh.write("\n  ]\n}\n")
        return
    values = list(set(sums))
    header = ("n", "sum", "d", "oracle_match")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_coords(F, v)] for v in values)
        head, *quoted = buf.getvalue().splitlines()
        cell = dict(zip(values, quoted))
        sep, match = ",", {None: ",", True: ",true", False: ",false"}
    else:
        # the blank oracle_match cell and its separator are stripped
        head, cell = " ".join(header), {v: _coords(F, v) for v in values}
        sep, match = " ", {None: "", True: " true", False: " false"}
    fh.write(head + "\n")
    for rows in _row_blocks(table, oracle):
        fh.write("".join([f"{n}{sep}{cell[s]}{sep}{dn}{match[ok]}\n"
                          for n, s, dn, ok in rows]))


# -- field-info --------------------------------------------------------


def cmd_field_info(args, max_q):
    F = _load_field(args, max_q)
    info = {"p": F.p, "e": F.e, "q": F.q,
            "modulus": list(F.modulus),
            "descriptor": gf.field_descriptor(F)}
    if F.p != 2:
        ext = gf.quadratic_extension(F)
        info["non_square"] = list(F.coeffs(ext.d))
        info["half"] = list(F.coeffs(F.half))
        info["quarter"] = list(F.coeffs(F.quarter))
    pretty = [f"{key} = {value}" for key, value in info.items()]
    csv_rows = [(key, _csv_cell(value)) for key, value in info.items()]
    jobj = {"command": "field-info", **info}
    _emit(args, pretty, jobj, ("property", "value"), csv_rows)
    return 0


# -- wiring ------------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", help='field descriptor: "q", "p^e" or '
                                        '"p^e/c0,c1,...,1"')
    common.add_argument("--format", choices=("pretty", "json", "csv"),
                        default="pretty")
    common.add_argument("--out", help="write output to a file instead of stdout")
    common.add_argument("--unsafe-large", action="store_true",
                        help="lift the q and grid size guards")

    parser = argparse.ArgumentParser(
        prog="rdickson",
        description="Exact arithmetic for a reversed Dickson-type "
                    "polynomial family over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate one member at one point")
    p_eval.add_argument("--n", required=True, help="index (any size)")
    p_eval.add_argument("--k", required=True, help="kind parameter")
    p_eval.add_argument("--x", required=True, help="argument element")
    p_eval.add_argument("--a", default="1", help="scale element (default 1)")

    p_poly = sub.add_parser("poly", parents=[common],
                            help="reduced polynomial mod x^q - x")
    p_poly.add_argument("--n", required=True)
    p_poly.add_argument("--k", required=True)

    p_pp = sub.add_parser("pp", parents=[common],
                          help="permutation scan over an (n, k) grid")
    p_pp.add_argument("--n", required=True, help="range, e.g. 1..10")
    p_pp.add_argument("--k", help="range (default: all of 0..p-1)")
    p_pp.add_argument("--criteria", default="brute_force,two_to_one")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="check a named statement or the sum tables")
    p_ver.add_argument("target", help="'sums' or a statement id, one of: "
                       + ", ".join(permcheck.THEOREM_IDS))
    p_ver.add_argument("--p", help="primes, e.g. 3,5,7")
    p_ver.add_argument("--e", help="extension degrees, e.g. 1..2")
    p_ver.add_argument("--l", help="power exponents (default 0..e)")
    p_ver.add_argument("--n", help="indices (T2.2 grids, default 0..30)")
    p_ver.add_argument("--k", help="kinds (default 0..p-1; ignored by the "
                       "fixed-kind statements)")

    p_sums = sub.add_parser("sums", parents=[common],
                            help="full-field sum table for one kind")
    p_sums.add_argument("--k", required=True)
    for checked in (p_eval, p_sums):
        checked.add_argument(
            "--check", action="store_true",
            help="cross-check against the independent routes")

    sub.add_parser("field-info", parents=[common],
                   help="parameters of a field descriptor")
    return parser


_HANDLERS = {"eval": cmd_eval, "poly": cmd_poly, "pp": cmd_pp,
             "verify": cmd_verify, "sums": cmd_sums,
             "field-info": cmd_field_info}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    max_q = None if args.unsafe_large else DEFAULT_MAX_Q
    try:
        return _HANDLERS[args.command](args, max_q)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # with the size guards lifted, a field or grid can outgrow memory
        print("error: out of memory; --unsafe-large lifts the guards "
              "that keep sizes in reach", file=sys.stderr)
        return 2
