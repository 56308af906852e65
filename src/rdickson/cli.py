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
output format is written by the CLI: the library returns values,
records and coefficient tuples.  The short outputs are rendered whole
and written once.  The long ones go through one block writer,
_write_rows, with _write_json around it: `sums` builds and checks its
table, `pp` and `verify` decide every grid point (one byte each, in
permcheck), and `poly` builds its integer row, before the first write;
then each writes ROWS_PER_WRITE rows at a time, a block being one join
of its columns.  A grid row is a %-format per class of points
(_row_format) filled in with each point's coordinates.  So a command
holds its data and one block, never its rendered text.

Each process is one command, and it loads (without bytecode, compiles)
only the code it runs.  This module holds what the commands share (the
argv reader, the parse helpers, the writer), field-info and verify's
choice of handler, and imports only gf up front.  _COMMANDS names each
command's handler by module and function, and main imports that module
when the command runs: cli_values (eval and poly, over rdpoly),
cli_grids (pp and the statements, over permcheck) or cli_sums (the sum
tables, over charsum); json and csv are imported where those formats are
rendered.  The library's deferred names are listed in one table,
rdickson._HOMES: quadext, GF(q^2), loads only for the 2-to-1 count, the
functional route and eval's cross-check, and sumoracle, the sum tables'
oracle, only for sums --check and verify sums.  So field-info and a
plain sums compile neither.  A plain argv is read by one pass over
_SHARED and _COMMANDS; argparse loads only for help, usage errors and
argv such as "--flag=value".
"""

import contextlib
import io
import os
import sys
import types
from itertools import islice

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
    refusal = ValueError(f"bad {what} {gf.excerpt(text)}: expected N, N..M "
                         "or a comma list")
    for token in text.split(","):
        lo, sep, hi = token.strip().partition("..")
        spans.append(range(gf.read_int(lo, what, refusal),
                           gf.read_int(hi if sep else lo, what, refusal) + 1))
    _guard_grid(sum(max(0, r.stop - r.start) for r in spans), max_q)
    out = [v for r in spans for v in r]
    if not out:
        raise ValueError(f"empty {what} {gf.excerpt(text)}")
    if minimum is not None and min(out) < minimum:
        raise ValueError(f"{what} entries must be at least {minimum}")
    return out


def _parse_int(text, what, minimum=None):
    value = gf.read_int(text, what, ValueError(
        f"bad {what} {gf.excerpt(text)}: expected an integer"))
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}")
    return value


def _load_field(args, max_q):
    if args.field is None:
        raise ValueError("--field is required for this command")
    # refused by the field rule before anything of the field is built
    return gf.make_field(*gf.split_field_descriptor(args.field), max_q)


def _guard_grid(n_points, max_q):
    if max_q is not None and n_points > GRID_LIMIT:
        raise ValueError(
            f"grid of {gf.excerpt(n_points)} points exceeds "
            f"{GRID_LIMIT}; pass --unsafe-large to proceed")


def _refuse_unread(args, unread):
    # a flag the target never reads would pass as if it had been checked
    for flag, reads in unread.items():
        if getattr(args, flag[2:]) is not None:
            raise ValueError(f"verify {args.target} does not read {flag}; "
                             f"it checks {reads}")


def _coords(F, v):
    return ",".join(str(c) for c in F.coeffs(v))


def _bool(v):
    return "true" if v else "false"


# -- output ----------------------------------------------------------------


def _csv_text(header, rows):
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@contextlib.contextmanager
def _output(args):
    """The stream a command writes to: the --out file, or stdout.

    An OSError from opening or writing --out, or from writing stdout, is
    a usage error.  A reader that closes stdout early (say `| head`)
    ends the output quietly and leaves the exit code to the command.
    """
    if args.out is None:
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
            f"cannot write --out {args.out!r}: {exc.strerror or exc}")


def _emit(args, pretty_lines, json_obj, csv_header, csv_rows, lines=(),
          count=0):
    """Write pretty_lines, json_obj or csv_header and csv_rows.  The
    first count texts of the iterator lines are rows, written by
    _write_rows: as the list at the value _HOLE of json_obj, after
    csv_rows, and after the first pretty line."""
    rows, columns = range(count), lambda block: [islice(lines, len(block))]
    with _output(args) as fh:
        if args.format == "json":
            _write_json(fh, json_obj, 1, rows, columns)
        elif args.format == "csv":
            fh.write(_csv_text(csv_header, csv_rows))
            _write_rows(fh, rows, columns)
        else:
            fh.write(pretty_lines[0] + "\n")
            _write_rows(fh, rows, columns)
            fh.writelines(line + "\n" for line in pretty_lines[1:])


ROWS_PER_WRITE = 1000    # a power of ten, so a block's n share a prefix
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


def _row_format(fmt, row):
    """A grid row, a dict whose coordinates are "%(name)s" placeholders,
    as a %-format (no other value holds a "%"): its json object two
    levels deep after the ",\\n" that joins it, or its line of cells,
    joined by " " (pretty) or by "," as csv.writer joins them (csv)."""
    if fmt == "json":
        return ",\n    " + _json_parts(row, 2)[0].replace(
            '"%(', "%(").replace(')s"', ")s")
    cells = list(map(_csv_cell, row.values()))
    return _csv_text(cells, ()) if fmt == "csv" else " ".join(cells) + "\n"


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


def _csv_cell(value):
    if isinstance(value, bool):
        return _bool(value)
    return str(value)


# -- the commands whose handler is here ---------------------------------


def cmd_verify(args, max_q):
    """verify's two kinds of target, each in the module of its library."""
    if args.target == "sums":
        from .cli_sums import cmd_verify_sums as run
    else:
        from .cli_grids import cmd_verify_statement as run
    return run(args, max_q)


def cmd_field_info(args, max_q):
    F = _load_field(args, max_q)
    info = {"p": F.p, "e": F.e, "q": F.q,
            "modulus": list(F.modulus),
            "descriptor": gf.field_descriptor(F)}
    if F.p != 2:
        info["non_square"] = list(F.coeffs(F.first_non_square()))
        info["half"] = list(F.coeffs(F.half))
        info["quarter"] = list(F.coeffs(F.quarter))
    pretty = [f"{key} = {value}" for key, value in info.items()]
    csv_rows = [(key, _csv_cell(value)) for key, value in info.items()]
    jobj = {"command": "field-info", **info}
    _emit(args, pretty, jobj, ("property", "value"), csv_rows)
    return 0


# -- wiring ------------------------------------------------------------


# the flags of every command, then name -> ((module, function) of the
# handler, help, arguments); --check is listed where the handler reads it
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
    "eval": (("cli_values", "cmd_eval"),
             "evaluate one member at one point", (
        ("--n", {"required": True, "help": "index (any size)"}),
        ("--k", {"required": True, "help": "kind parameter"}),
        ("--x", {"required": True, "help": "argument element"}),
        ("--a", {"default": "1", "help": "scale element (default 1)"}),
        _CHECK)),
    "poly": (("cli_values", "cmd_poly"), "reduced polynomial mod x^q - x", (
        ("--n", {"required": True}), ("--k", {"required": True}))),
    "pp": (("cli_grids", "cmd_pp"),
           "permutation scan over an (n, k) grid", (
        ("--n", {"required": True, "help": "range, e.g. 1..10"}),
        ("--k", {"help": "range (default: all of 0..p-1)"}),
        ("--criteria", {"default": "brute_force,two_to_one"}))),
    "verify": (("cli", "cmd_verify"),
               "check a named statement or the sum tables", (
        ("target", {"help": "'sums' or a statement id (an unknown target "
                            "lists them)"}),
        ("--p", {"help": "primes, e.g. 3,5,7"}),
        ("--e", {"help": "extension degrees, e.g. 1..2"}),
        ("--l", {"help": "power exponents (default 0..e)"}),
        ("--n", {"help": "indices (T2.2 grids, default 0..30)"}),
        ("--k", {"help": "kinds (default 0..p-1; ignored by the "
                         "fixed-kind statements)"}))),
    "sums": (("cli_sums", "cmd_sums"), "full-field sum table for one kind", (
        ("--k", {"required": True}), _CHECK)),
    "field-info": (("cli", "cmd_field_info"),
                   "parameters of a field descriptor", ()),
}


def _build_parser():
    """The parser and its subparsers by name."""
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
        cmd = sub.add_parser(name, parents=[common], help=text)
        for flag, options in arguments:
            cmd.add_argument(flag, **options)
    return parser, sub.choices


def _negative(token):
    # "-6,-2" or "-2..-1": a value, though argparse reads it as a flag
    return token[:1] == "-" and "0" <= token[1:2] <= "9"


def _fast_args(argv):
    """The namespace argparse builds for a plain argv (the command, its
    exact long flags each with a value not starting with "-" unless a
    digit follows, store_true flags bare, verify's one target); None for
    any other argv, such as help, "--flag=value" or "--", which argparse
    then parses."""
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
        if (value is not True and value[:1] == "-" and not _negative(value)
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
        # argparse reads the value of "--flag=--" as [] on Python < 3.13
        for flag, _, value in (token.partition("=") for token in argv):
            if flag[:2] == "--" and value == "--":
                print(f"error: bad value '--' for {flag}", file=sys.stderr)
                return 2
        # a value flag's "-<digit>..." value joins it as "--flag=value",
        # which argparse reads as that flag's value (up to a "--")
        flags = {flag for flag, options in _SHARED + _COMMANDS.get(
            argv[0] if argv else None, (0, 0, ()))[2]
            if flag[0] == "-" and "action" not in options}
        joined = []
        for token in argv:
            if joined and joined[-1] in flags and _negative(token):
                joined[-1] += "=" + token
            else:
                joined.append(token)
            if token == "--":
                flags = ()
        parser, commands = _build_parser()
        try:
            args, extra = parser.parse_known_args(joined)
            if extra:
                # with the usage of the command they were given to
                commands[args.command].error(
                    "unrecognized arguments: " + " ".join(extra))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    max_q = None if args.unsafe_large else DEFAULT_MAX_Q
    module, function = _COMMANDS[args.command][0]
    # the handler's module loads here, by the import statement's path,
    # which -X importtime reports
    run = getattr(__import__(f"{__package__}.{module}", fromlist=[function]),
                  function)
    try:
        return run(args, max_q)
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
