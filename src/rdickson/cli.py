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
cross-check tripped, 2 usage error (a ValueError, from here or from the
library), an --out that cannot be written included.  Output is
deterministic: equal invocations produce identical bytes.  Every output
format is written here: the library returns values, records and
coefficient tuples, and _terms writes a tuple as a sum of terms.
Commands render their whole output and write it once; `poly` renders
only the format asked for, so its integer row is turned into decimal
once.  `sums` builds and checks its table first and then writes it
ROWS_PER_WRITE rows at a time, rendering each of its at most p distinct
sum values once; a row number is its block's decimal prefix followed by
a fixed-width suffix that is rendered once per table.

Each process is one command, so the module imports only gf up front:
a handler imports the modules it calls (rdpoly for eval and poly,
permcheck for pp and the statements, charsum for the sum tables), and
json and csv are imported where those formats are rendered.  The
parser holds the subparser of the command named first alone, or all of
them when no command is named first.
"""

import argparse
import contextlib
import io
import os
import sys
from itertools import islice, repeat

from . import gf
from .gf import DEFAULT_MAX_Q, InternalCheckError

GRID_LIMIT = 10 ** 6
SMALL_N = 5000          # bound for the O(n) and O(n^2) cross-check routes


# -- parsing helpers -------------------------------------------------------


def _parse_range_list(text, what, max_q, minimum=None):
    """Accept "4", "1..10", "5,7,9" and mixtures like "0..2,6"; None for
    a flag not given.

    The entries are counted, and held to the grid bound, before any
    list is built.
    """
    if text is None:
        return None
    spans = []
    for token in text.split(","):
        lo, sep, hi = token.strip().partition("..")
        try:
            spans.append(range(int(lo), int(hi if sep else lo) + 1))
        except ValueError:
            raise ValueError(
                f"bad {what} {text!r}: expected N, N..M or a comma list")
    _guard_grid(sum(max(0, r.stop - r.start) for r in spans), max_q)
    out = [v for r in spans for v in r]
    if not out:
        raise ValueError(f"empty {what} {text!r}")
    if minimum is not None and min(out) < minimum:
        raise ValueError(f"{what} entries must be at least {minimum}")
    return out


def _parse_int(text, what, minimum=None):
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}: expected an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}")
    return value


def _load_field(args, max_q):
    if not args.field:
        raise ValueError("--field is required for this command")
    p, e, modulus = gf.split_field_descriptor(args.field)
    # refused above the q bound before anything of the field is built
    if gf.exceeds_size_bound(p, e, max_q):
        size = p if e == 1 else f"{p}^{e}"
        raise ValueError(f"field size {size} exceeds the bound "
                         f"q <= {max_q}; pass --unsafe-large")
    return gf.make_field(p, e, modulus)


def _guard_grid(n_points, max_q):
    if max_q is not None and n_points > GRID_LIMIT:
        raise ValueError(
            f"grid of {n_points} points exceeds {GRID_LIMIT}; "
            "pass --unsafe-large to proceed")


def _parse_element(F, text, what):
    try:
        coords = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(
            f"bad {what} {text!r}: expected comma-separated coordinates")
    try:
        return F.element(coords)
    except ValueError as exc:
        raise ValueError(f"bad {what} {text!r}: {exc}")


def _coords(F, v):
    return ",".join(str(c) for c in F.coeffs(v))


def _bool(v):
    return "true" if v else "false"


# -- output ----------------------------------------------------------------


def _terms(coeffs, var, F=None):
    """A coefficient tuple, constant term first, as a sum of terms in var.

    The coefficients are signed integers when F is None, else elements
    of F, written as coordinates in parentheses, with "*" before a
    power, when F.e > 1.  A coefficient 1 before a power is left out,
    and () is "0".
    """
    out = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if F is None:
            sign, text = "-" if c < 0 else "+", str(abs(c))
        else:
            sign, text = "+", str(c) if F.e == 1 else f"({_coords(F, c)})"
        if i:
            power = var if i == 1 else f"{var}^{i}"
            if text == "1":
                text = power
            else:
                text += ("*" if text[-1] == ")" else "") + power
        out.append(f"{sign} {text}")
    if not out:
        return "0"
    text = " ".join(out)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _json_text(obj):
    import json
    return json.dumps(obj, sort_keys=True, indent=2)


def _csv_text(header, rows):
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


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
        raise ValueError(
            f"cannot write --out {args.out}: {exc.strerror or exc}")


def _emit(args, pretty_lines, json_obj, csv_header, csv_rows):
    if args.format == "json":
        text = _json_text(json_obj)
    elif args.format == "csv":
        text = _csv_text(csv_header, csv_rows)
    else:
        text = "\n".join(pretty_lines)
    _write(args, text)


def _write(args, text):
    text += "\n"               # appends in place: no second copy of text
    with _output(args) as fh:
        fh.write(text)


# -- eval --------------------------------------------------------------


def cmd_eval(args, max_q):
    from . import rdpoly
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
        # where fewer than two independent routes would run
        if n > SMALL_N and (F.p == 2 or a != 1 or x == F.quarter):
            methods["matrix"] = rdpoly.eval_matrix(F, n, k, x, a)
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
    from . import rdpoly
    F = _load_field(args, max_q)
    n = _parse_int(args.n, "--n", minimum=0)
    k = _parse_int(args.k, "--k")
    poly = rdpoly.as_polynomial(F, n, k)
    fnk = rdpoly.fnk_coeffs(n, k % F.p) if n <= SMALL_N else None
    # only the format asked for is rendered, so the big ints of the fnk
    # row are turned into decimal once
    if args.format == "json":
        field = gf.field_descriptor(F)
        text = _json_text({
            "command": "poly", "field": field, "n": n, "k": k % F.p,
            "poly": {"field": field,
                     "coeffs": [list(F.coeffs(c)) for c in poly]},
            "poly_str": _terms(poly, "x", F),
            # decimal strings: the coefficients outgrow fixed-width ints
            "fnk": {"coeffs": [str(c) for c in fnk]}
            if fnk is not None else None})
    elif args.format == "csv":
        text = _csv_text(("source", "degree", "coeff"),
                         [("poly", i, _coords(F, c))
                          for i, c in enumerate(poly)])
        if fnk is not None:
            # a decimal integer never needs csv quoting
            text += "".join([f"\nfnk,{i},{c}" for i, c in enumerate(fnk)])
    else:
        text = _terms(poly, "x", F)
        if fnk is not None:
            text += f"\nf = {_terms(fnk, 't')}   (value = f(1 - 4x) / 2^n)"
    _write(args, text)
    return 0


# -- pp ----------------------------------------------------------------


def cmd_pp(args, max_q):
    from . import permcheck
    F = _load_field(args, max_q)
    ns = _parse_range_list(args.n, "--n", max_q, minimum=1)
    ks = _parse_range_list(args.k, "--k", max_q) or list(range(F.p))
    _guard_grid(len(ns) * len(ks), max_q)
    criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
    if not criteria:
        raise ValueError("--criteria names no criterion")
    tests = {"brute_force": permcheck.dickson_pp_bruteforce,
             "two_to_one": permcheck.is_pp_two_to_one}
    for i, crit in enumerate(criteria):
        if crit not in tests:
            raise ValueError(f"unknown criterion {crit!r}; "
                             f"choose from {', '.join(tests)}")
        if crit in criteria[:i]:
            raise ValueError(f"criterion {crit!r} is named twice")
    if F.p == 2 and "two_to_one" in criteria:
        raise ValueError("the two_to_one criterion needs odd characteristic")

    header = ["n", "k", *criteria, "agree"]
    rows, csv_rows, disagreements = [], [], 0
    for n in ns:
        for k in ks:
            verdicts = {crit: tests[crit](F, n, k).verdict
                        for crit in criteria}
            agree = len(set(verdicts.values())) == 1
            disagreements += not agree
            rows.append({"n": n, "k": k % F.p, **verdicts, "agree": agree})
            csv_rows.append([str(n), str(k % F.p),
                             *map(_bool, verdicts.values()), _bool(agree)])
    pretty = [" ".join(cells) for cells in [header, *csv_rows]]
    if disagreements:
        pretty.append(f"criteria disagree on {disagreements} rows")
    jobj = {"command": "pp", "field": gf.field_descriptor(F),
            "criteria": criteria, "rows": rows,
            "disagreements": disagreements}
    _emit(args, pretty, jobj, header, csv_rows)
    return 1 if disagreements else 0


# -- verify ------------------------------------------------------------


def cmd_verify(args, max_q):
    sums = args.target == "sums"
    if not sums:
        from . import permcheck
        if args.target not in permcheck.THEOREM_IDS:
            raise ValueError(
                f"unknown verify target {args.target!r}; expected 'sums' "
                f"or one of {', '.join(permcheck.THEOREM_IDS)}")
    # a flag the target never reads would pass as if it had been checked
    unread, reads = ((("--p", "--e", "--l", "--n"), "the field of --field")
                     if sums else (("--field",), "the fields of --p and --e"))
    for flag in unread:
        if getattr(args, flag[2:]) is not None:
            raise ValueError(f"verify {args.target} does not read {flag}; "
                             f"it checks {reads}")
    if sums:
        return _verify_sums(args, max_q)
    if not args.p or not args.e:
        raise ValueError("--p and --e are required for theorem grids")
    ps = _parse_range_list(args.p, "--p", max_q)
    es = _parse_range_list(args.e, "--e", max_q, minimum=1)
    ls = _parse_range_list(args.l, "--l", max_q, minimum=0)
    ns = _parse_range_list(args.n, "--n", max_q, minimum=0)
    ks = _parse_range_list(args.k, "--k", max_q)
    for p in ps:
        if not gf.is_prime(p):
            raise ValueError(f"--p entries must be prime, got {p}")
    grid = dict(ns=ns, ls=ls, ks=ks, max_q=max_q)
    size = permcheck.grid_size(args.target, ps, es, **grid)
    _guard_grid(size, max_q)
    if not size:
        raise ValueError(
            f"no point of this grid lies in the domain of {args.target}")
    entries = permcheck.verify_theorem(args.target, ps, es, **grid)
    failures = [ent for ent in entries if not ent["ok"]]

    pretty = [f"{args.target}: {len(entries)} grid points, "
              f"{len(failures)} failures"]
    if failures:
        import json
        pretty += ["FAIL " + json.dumps(ent, sort_keys=True)
                   for ent in failures]
    pretty.append(f"pass: {_bool(not failures)}")
    keys = sorted({key for ent in entries for key in ent})
    csv_rows = [[_csv_cell(ent[key]) for key in keys] for ent in entries]
    jobj = {"theorem": args.target, "pass": not failures, "grid": entries,
            "failures": failures}
    _emit(args, pretty, jobj, keys, csv_rows)
    return 1 if failures else 0


def _csv_cell(value):
    if isinstance(value, bool):
        return _bool(value)
    return str(value)


def _verify_sums(args, max_q):
    from . import charsum
    F = _load_field(args, max_q)
    ks = _parse_range_list(args.k, "--k", max_q) or list(range(F.p))
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
    from . import charsum
    F = _load_field(args, max_q)
    k = _parse_int(args.k, "--k")
    table = charsum.sums_via_recurrence(F, k)
    oracle = None
    if args.check:
        brute = charsum.sums_bruteforce(F, k)
        oracle = [brute[n] == table.sums[n] for n in range(F.q ** 2)]
    with _output(args) as fh:
        _write_sums(fh, args.format, table, oracle)
    return 0 if oracle is None or all(oracle[1:]) else 1


ROWS_PER_WRITE = 1000    # a power of ten, so a block's n share a prefix


def _row_blocks(table, oracle):
    """The rows n = 1 .. q^2 - 1, one block per value of
    n // ROWS_PER_WRITE, as (prefix, rows): rows iterates over
    (suffix, sum, d, oracle_match), to be read before the next block,
    with prefix + suffix the decimal of n and d in decimal.  The first
    block's suffixes are the plain decimals 1 .. ROWS_PER_WRITE - 1 and
    its prefix is empty; every later block reads one list of zero-padded
    suffixes, and d one list of the decimals below p, both built once
    per table."""
    size, digits = len(table.sums), [str(v) for v in range(table.field.p)]
    sums = islice(table.sums, 1, None)
    ds = map(digits.__getitem__, islice(table.d, 1, None))
    checks = islice(oracle, 1, None) if oracle is not None else repeat(None)
    yield "", zip(map(str, range(1, ROWS_PER_WRITE)), sums, ds, checks)
    width = len(str(ROWS_PER_WRITE - 1))
    suffixes = [str(j).zfill(width) for j in range(ROWS_PER_WRITE)]
    for block in range(1, (size - 1) // ROWS_PER_WRITE + 1):
        yield str(block), zip(suffixes, sums, ds, checks)


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
    of those pieces and of the decimals of n and d from _row_blocks, so
    no row turns an int into decimal.
    """
    F, sums = table.field, table.sums
    if fmt == "json":
        import json
        # a row's sum list sits at nesting depth 3: items at 8 spaces
        cell = {v: json.dumps(list(F.coeffs(v)), indent=2).replace(
                    "\n", "\n      ") for v in set(sums)}
        match = {None: "", True: '      "oracle_match": true,\n',
                 False: '      "oracle_match": false,\n'}
        fh.write(f'{{\n  "command": "sums",\n'
                 f'  "field": {json.dumps(gf.field_descriptor(F))},\n'
                 f'  "k": {table.k},\n  "rows": [\n')
        sep = ""
        for pre, rows in _row_blocks(table, oracle):
            fh.write(sep + ",\n".join([
                f'    {{\n      "d": {dn},\n      "n": {pre}{n},\n'
                f'{match[ok]}      "sum": {cell[s]}\n    }}'
                for n, s, dn, ok in rows]))
            sep = ",\n"
        fh.write("\n  ]\n}\n")
        return
    values = list(set(sums))
    header = ("n", "sum", "d", "oracle_match")
    if fmt == "csv":
        import csv
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
    for pre, rows in _row_blocks(table, oracle):
        fh.write("".join([f"{pre}{n}{sep}{cell[s]}{sep}{dn}{match[ok]}\n"
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


# name -> (handler, help, arguments); --check is listed where the
# handler reads it
_CHECK = ("--check", {"action": "store_true",
                      "help": "cross-check against the independent routes"})
_COMMANDS = {
    "eval": (cmd_eval, "evaluate one member at one point", (
        ("--n", {"required": True, "help": "index (any size)"}),
        ("--k", {"required": True, "help": "kind parameter"}),
        ("--x", {"required": True, "help": "argument element"}),
        ("--a", {"default": "1", "help": "scale element (default 1)"}),
        _CHECK)),
    "poly": (cmd_poly, "reduced polynomial mod x^q - x", (
        ("--n", {"required": True}), ("--k", {"required": True}))),
    "pp": (cmd_pp, "permutation scan over an (n, k) grid", (
        ("--n", {"required": True, "help": "range, e.g. 1..10"}),
        ("--k", {"help": "range (default: all of 0..p-1)"}),
        ("--criteria", {"default": "brute_force,two_to_one"}))),
    "verify": (cmd_verify, "check a named statement or the sum tables", (
        ("target", {"help": "'sums' or a statement id (an unknown target "
                            "lists them)"}),
        ("--p", {"help": "primes, e.g. 3,5,7"}),
        ("--e", {"help": "extension degrees, e.g. 1..2"}),
        ("--l", {"help": "power exponents (default 0..e)"}),
        ("--n", {"help": "indices (T2.2 grids, default 0..30)"}),
        ("--k", {"help": "kinds (default 0..p-1; ignored by the "
                         "fixed-kind statements)"}))),
    "sums": (cmd_sums, "full-field sum table for one kind", (
        ("--k", {"required": True}), _CHECK)),
    "field-info": (cmd_field_info, "parameters of a field descriptor", ()),
}


def _build_parser(only=None):
    """The parser and its subparsers by name: all of them, or only the
    one named `only`, which parses and reports that command alike."""
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
    for name, (_, text, arguments) in _COMMANDS.items():
        if only in (None, name):
            cmd = sub.add_parser(name, parents=[common], help=text)
            for flag, options in arguments:
                cmd.add_argument(flag, **options)
    return parser, sub.choices


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # a run builds the subparser of its command alone
    parser, commands = _build_parser(argv[0] if argv and argv[0] in _COMMANDS
                                     else None)
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # with the usage of the command they were given to
            commands[args.command].error(
                "unrecognized arguments: " + " ".join(extra))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    max_q = None if args.unsafe_large else DEFAULT_MAX_Q
    try:
        return _COMMANDS[args.command][0](args, max_q)
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
