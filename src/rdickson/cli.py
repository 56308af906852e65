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
library), an --out or stdout that cannot be written included.  Output
is deterministic: equal invocations produce identical bytes.  Every
output format is written here: the library returns values, records and
coefficient tuples, and _terms writes a tuple as a sum of terms.  The
short outputs are rendered whole and written once.  The long ones go
through one block writer, _write_rows, with _write_json around it:
`sums` builds and checks its table, `pp` decides every row (one byte
each), and `poly` builds its integer row, before the first write; then
each writes ROWS_PER_WRITE rows at a time (the fnk row
FNK_ROWS_PER_WRITE), a block being one join of its columns.  So a
command holds its data and one block, never its rendered text.

Each process is one command, so the module imports only gf up front:
a handler imports the modules it calls (rdpoly for eval and poly,
permcheck for pp and the statements, charsum for the sum tables), and
json and csv are imported where those formats are rendered.  A plain
argv is read by one pass over _SHARED and _COMMANDS; argparse loads
only for help and usage errors, and builds the named subparser alone.
"""

import contextlib
import io
import os
import sys
import types
from itertools import compress, islice
from operator import eq, ne

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
    return "".join(_term_pieces(coeffs, var, F)) or "0"


def _term_pieces(coeffs, var, F=None):
    """The text of _terms one coefficient at a time: "" for a zero one,
    else its term with the sign that joins it to the terms before."""
    first = True
    for i, c in enumerate(coeffs):
        if not c:
            yield ""
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
        yield (sign.strip("+") if first else f" {sign} ") + text
        first = False


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

    An OSError from opening or writing --out, or from writing stdout, is
    a usage error.  A reader that closes stdout early (say `| head`)
    ends the output quietly and leaves the exit code to the command.
    """
    if not args.out:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            # what is left, and the flush at exit, goes to the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            if not isinstance(exc, BrokenPipeError):
                raise ValueError(f"cannot write stdout: {exc.strerror or exc}")
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(
            f"cannot write --out {args.out}: {exc.strerror or exc}")


def _emit(args, pretty_lines, json_obj, csv_header, csv_rows):
    if args.format == "json":
        text = _json_parts(json_obj)[0]
    elif args.format == "csv":
        text = _csv_text(csv_header, csv_rows)
    else:
        text = "\n".join(pretty_lines)
    text += "\n"               # appends in place: no second copy of text
    with _output(args) as fh:
        fh.write(text)


ROWS_PER_WRITE = 1000    # a power of ten, so a block's n share a prefix
FNK_ROWS_PER_WRITE = 50  # of up to 1505 digits at SMALL_N: 75 kB a block
_HOLE = "\0"             # a placeholder that no document holds


def _write_rows(fh, rows, columns, size=ROWS_PER_WRITE, skip=0):
    """Write the rows of the range `rows` in blocks: the rows whose
    index has one quotient by `size` go in one write.  columns(block)
    gives a row's pieces in order for the rows of the range block, each
    a string that every row repeats or an iterable of one string per
    row; the block is one "".join of them, interleaved by slice
    assignment.  The first row drops its first `skip` characters."""
    for lo in range(rows.start - rows.start % size, rows.stop, size):
        block = range(max(lo, rows.start), min(lo + size, rows.stop))
        cols = columns(block)
        width, count = len(cols), len(block)
        pieces = [""] * (width * count)
        for i, col in enumerate(cols):
            pieces[i::width] = [col] * count if isinstance(col, str) else col
        pieces[0] = pieces[0][skip:]
        skip = 0
        fh.write("".join(pieces))


def _json_parts(obj, depth=0):
    """json.dumps(obj, sort_keys=True, indent=2) nested `depth` levels
    deep, split at each value _HOLE."""
    import json
    return (json.dumps(obj, sort_keys=True, indent=2)
            .replace("\n", "\n" + "  " * depth).split('"\\u0000"'))


def _write_json(fh, obj, depth, rows, columns, size=ROWS_PER_WRITE):
    """Write the json text of obj, in which a value _HOLE, if any, is
    the list of `rows` under a key `depth` levels deep, written by
    _write_rows; each row starts with the ",\\n" that joins it."""
    head, *tail = _json_parts(obj)
    fh.write(head)
    if tail:
        fh.write("[")
        _write_rows(fh, rows, columns, size, skip=1)
        fh.write(("\n" + "  " * depth if rows else "") + "]" + tail[0])
    fh.write("\n")


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
    pretty = [f"{name}: {val}" for name, val in rows[1:]] or [rows[0][1]]
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
    # the fnk row's entries run to 0.3 n digits: each is turned into
    # decimal once, FNK_ROWS_PER_WRITE at a time
    rows = range(len(fnk or ()))
    with _output(args) as fh:
        if args.format == "json":
            field = gf.field_descriptor(F)
            _write_json(fh, {
                "command": "poly", "field": field, "n": n, "k": k % F.p,
                "poly": {"field": field,
                         "coeffs": [list(F.coeffs(c)) for c in poly]},
                "poly_str": _terms(poly, "x", F),
                # decimal strings: the coefficients outgrow fixed-width ints
                "fnk": {"coeffs": _HOLE} if fnk is not None else None},
                2, rows, lambda b: [
                    ',\n      "', map(str, fnk[b.start:b.stop]), '"'],
                FNK_ROWS_PER_WRITE)
        elif args.format == "csv":
            fh.write(_csv_text(("source", "degree", "coeff"),
                               [("poly", i, _coords(F, c))
                                for i, c in enumerate(poly)]) + "\n")
            # a decimal integer never needs csv quoting
            _write_rows(fh, rows, lambda b: [
                "fnk,", map(str, b), ",", map(str, fnk[b.start:b.stop]), "\n"],
                FNK_ROWS_PER_WRITE)
        else:
            fh.write(_terms(poly, "x", F) + "\n")
            if fnk is not None:
                terms = _term_pieces(fnk, "t")
                fh.write("f = " + ("" if fnk else "0"))
                _write_rows(fh, rows, lambda b: [islice(terms, len(b))],
                            FNK_ROWS_PER_WRITE)
                fh.write("   (value = f(1 - 4x) / 2^n)\n")
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

    # every row is decided before the first byte is written, so a row
    # that raises leaves the output empty; a row keeps one byte: bit i
    # the verdict of criteria[i], then the agree bit
    verdicts = bytearray()
    for n in ns:
        for k in ks:
            bits = [tests[crit](F, n, k).verdict for crit in criteria]
            bits.append(len(set(bits)) == 1)
            verdicts.append(sum(bit << i for i, bit in enumerate(bits)))
    disagreements = sum(v >> len(criteria) == 0 for v in verdicts)
    header = ["n", "k", *criteria, "agree"]
    sep = "," if args.format == "csv" else " "
    texts = {}       # a verdict byte: its row's text around n and k
    for v in set(verdicts):
        row = {"n": _HOLE, "k": _HOLE}
        for i, name in enumerate(header[2:]):
            row[name] = bool(v >> i & 1)
        texts[v] = (_json_parts(row, 2) if args.format == "json" else
                    sep.join(map(_csv_cell, row.values())).split(_HOLE))

    def columns(block):
        pre, mid, post = zip(*map(texts.__getitem__,
                                  verdicts[block.start:block.stop]))
        n = [str(ns[r // len(ks)]) for r in block]
        k = [str(ks[r % len(ks)] % F.p) for r in block]
        # json sorts its keys, so k precedes n
        if args.format == "json":
            return [",\n    ", pre, k, mid, n, post]
        return [pre, n, mid, k, post, "\n"]
    rows = range(len(verdicts))
    with _output(args) as fh:
        if args.format == "json":
            _write_json(fh, {"command": "pp", "field": gf.field_descriptor(F),
                             "criteria": criteria, "rows": _HOLE,
                             "disagreements": disagreements}, 1, rows, columns)
        else:
            fh.write(sep.join(header) + "\n")
            _write_rows(fh, rows, columns)
            if disagreements and args.format == "pretty":
                fh.write(f"criteria disagree on {disagreements} rows\n")
    return 1 if disagreements else 0


# -- verify ------------------------------------------------------------


def cmd_verify(args, max_q):
    sums = args.target == "sums"
    # a flag the target never reads would pass as if it had been checked
    unread = (dict.fromkeys(("--p", "--e", "--l", "--n"),
                            "the field of --field")
              if sums else {"--field": "the fields of --p and --e"})
    if not sums:
        from . import permcheck
        if args.target not in permcheck.THEOREM_IDS:
            raise ValueError(
                f"unknown verify target {args.target!r}; expected 'sums' "
                f"or one of {', '.join(permcheck.THEOREM_IDS)}")
        # the axis a statement walks is the same for every degree e
        if permcheck.STATEMENTS[args.target].axis(1, None, None)[0] != "n":
            unread["--n"] = "n = p^l + c over the exponents l"
    for flag, reads in unread.items():
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
        # n = 0, the constant member, is not a row of the table
        bad = [n for n in compress(range(F.q ** 2),
                                   map(ne, table.sums, brute)) if n]
        failures += [{"k": k % F.p, "n": n} for n in bad]
        residue = charsum.residue_identity_holds(table, brute)
        if not residue:
            failures.append({"k": k % F.p, "identity": "residue"})
        results.append({"k": k % F.p, "rows": F.q ** 2 - 1,
                        "mismatches": len(bad), "residue_identity": residue,
                        "ok": not bad and residue})
    passed = not failures
    pretty = [f"sums over GF({F.q}): k={r['k']} "
              f"{'ok' if r['ok'] else 'FAIL'} ({r['rows']} rows)"
              for r in results]
    pretty.append(f"pass: {_bool(passed)}")
    jobj = {"command": "verify", "target": "sums",
            "field": gf.field_descriptor(F), "results": results,
            "failures": failures, "pass": passed}
    _emit(args, pretty, jobj, list(results[0]),
          [list(map(_csv_cell, r.values())) for r in results])
    return 0 if passed else 1


# -- sums --------------------------------------------------------------


def cmd_sums(args, max_q):
    from . import charsum
    F = _load_field(args, max_q)
    k = _parse_int(args.k, "--k")
    table = charsum.sums_via_recurrence(F, k)
    oracle = None
    if args.check:
        oracle = list(map(eq, charsum.sums_bruteforce(F, k), table.sums))
    with _output(args) as fh:
        _write_sums(fh, args.format, table, oracle)
    return 0 if oracle is None or all(islice(oracle, 1, None)) else 1


def _write_sums(fh, fmt, table, oracle):
    """Write the rows n = 1 .. q^2 - 1 of a sum table by _write_rows.

    The bytes are those of json.dumps(..., sort_keys=True, indent=2) of
    {command, field, k, rows}, of csv.writer rows, or of space-joined
    cells; oracle[n] fills oracle_match (left out, or blank, when oracle
    is None).  A row is five pieces in the format's order: n's block
    prefix and suffix, the sum, d and oracle_match, each with the fixed
    text around it.  Every sum lies in the prime subfield, so the at
    most p distinct sums, the p decimals of d and the ROWS_PER_WRITE
    zero-padded suffixes are rendered once per table (n, d and
    oracle_match never need csv quoting), and no row formats a string.
    """
    F, sums = table.field, table.sums
    digits = [str(v) for v in range(F.p)]
    if fmt == "json":
        # a row's sum list sits at nesting depth 3
        cell = {v: '      "sum": ' + _json_parts(list(F.coeffs(v)), 3)[0]
                + "\n    }" for v in set(sums)}
        dcell = [f',\n    {{\n      "d": {v},\n      "n": ' for v in digits]
        match = {None: "", True: '      "oracle_match": true,\n',
                 False: '      "oracle_match": false,\n'}
        end, order = ",\n", "dpnms"
    else:
        values = list(set(sums))
        header = ("n", "sum", "d", "oracle_match")
        if fmt == "csv":
            head, *quoted = _csv_text(header, ([_coords(F, v)] for v in values)
                                      ).split("\n")
            sep = ","
            match = {None: ",\n", True: ",true\n", False: ",false\n"}
        else:
            # the blank oracle_match cell and its separator are stripped
            head, quoted = " ".join(header), [_coords(F, v) for v in values]
            sep = " "
            match = {None: "\n", True: " true\n", False: " false\n"}
        fh.write(head + "\n")
        cell = {v: text + sep for v, text in zip(values, quoted)}
        dcell, end, order = digits, sep, "pnsdm"
    width = len(str(ROWS_PER_WRITE - 1))
    suffixes = [str(j).zfill(width) + end for j in range(ROWS_PER_WRITE)]

    def columns(block):
        lo, rows = block.start, slice(block.start, block.stop)
        # the first block's n are the plain decimals, with no prefix
        prefix, names = ((str(lo // ROWS_PER_WRITE), suffixes[:len(block)])
                         if lo >= ROWS_PER_WRITE else
                         ("", [str(n) + end for n in block]))
        column = {"p": prefix, "n": names,
                  "s": map(cell.__getitem__, sums[rows]),
                  "d": map(dcell.__getitem__, table.d[rows]),
                  "m": match[None] if oracle is None
                  else map(match.__getitem__, oracle[rows])}
        return [column[key] for key in order]
    rows = range(1, len(sums))
    if fmt == "json":
        _write_json(fh, {"command": "sums", "field": gf.field_descriptor(F),
                         "k": table.k, "rows": _HOLE}, 1, rows, columns)
    else:
        _write_rows(fh, rows, columns)


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


# the flags of every command, then name -> (handler, help, arguments);
# --check is listed where the handler reads it
_SHARED = (("--field", {"help": 'field descriptor: "q", "p^e" or '
                                    '"p^e/c0,c1,...,1"'}),
           ("--format", {"choices": ("pretty", "json", "csv"),
                         "default": "pretty"}),
           ("--out", {"help": "write output to a file instead of stdout"}),
           ("--unsafe-large", {"action": "store_true",
                               "help": "lift the q and grid size guards"}))
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
    import argparse
    common = argparse.ArgumentParser(add_help=False)
    for flag, options in _SHARED:
        common.add_argument(flag, **options)

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


def _fast_args(argv):
    """The namespace argparse builds for a plain argv (the command, its
    exact long flags each with a value not starting with "-", store_true
    flags bare, verify's one target); None for any other argv, such as
    help, "--flag=value" or "--", which argparse then parses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    spec = dict(_SHARED + _COMMANDS[argv[0]][2])
    dest = {name: name.lstrip("-").replace("-", "_") for name in spec}
    # a store_true flag defaults to False
    values = {dest[name]: "action" not in options and options.get("default")
              for name, options in spec.items()}
    needed = {name for name, options in spec.items()
              if options.get("required") or name[0] != "-"}
    for token in (tokens := iter(argv[1:])):
        # argparse reads "" as a positional too; verify takes one target
        name = token if token[:1] == "-" else "target"
        if name not in spec or name == "target" and name not in needed:
            return None
        value = (token if name == "target" else
                 "action" in spec[name] or next(tokens, "-"))
        # argparse checks the choices of every occurrence, not the last
        if (value is not True and value[:1] == "-"
                or value not in spec[name].get("choices", (value,))):
            return None
        values[dest[name]] = value
        needed.discard(name)
    return None if needed else types.SimpleNamespace(command=argv[0],
                                                     **values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv)
    if args is None:
        # a run builds the subparser of its command alone
        parser, commands = _build_parser(
            argv[0] if argv and argv[0] in _COMMANDS else None)
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
