"""The sums command and verify sums, over charsum: a sum table built
and checked whole, then written in blocks of rows."""

from array import array
from itertools import compress, islice
from operator import and_, eq, ne, or_

from . import charsum, gf
from .cli import (ROWS_PER_WRITE, _HOLE, _bool, _coords, _csv_cell,
                  _csv_text, _emit, _guard_grid, _json_parts, _load_field,
                  _output, _parse_int, _parse_range_list, _refuse_unread,
                  _write_json, _write_rows)


def cmd_sums(args, max_q):
    F = _load_field(args, max_q)
    k = _parse_int(args.k, "--k")
    table = charsum.sums_via_recurrence(F, k)
    oracle = None
    if args.check:
        brute = charsum.sums_bruteforce(F, k)
        d = charsum.shifted_sums(F.p, k, brute)
        oracle = list(map(and_, map(eq, brute, table.sums),
                          map(eq, d, table.d)))
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


def cmd_verify_sums(args, max_q):
    _refuse_unread(args, dict.fromkeys(("--p", "--e", "--l", "--n"),
                                       "the field of --field"))
    F = _load_field(args, max_q)
    ks = _parse_range_list(args.k, "--k", max_q) or range(F.p)
    _guard_grid(len(ks) * F.q ** 2, max_q)
    results, failures = [], []
    for k in ks:
        table = charsum.sums_via_recurrence(F, k)
        # the oracle's sums held as the table's are, so that whole columns
        # compare at once; rows are looked for only when one differs, and
        # fail on their sum or their d (n = 0, the constant member, is not
        # a row)
        brute = array(table.sums.typecode, charsum.sums_bruteforce(F, k))
        d = charsum.shifted_sums(F.p, k, brute)
        bad = [] if table.sums == brute and table.d == d else [
            n for n in compress(range(F.q ** 2), map(
                or_, map(ne, table.sums, brute), map(ne, table.d, d))) if n]
        failures += [{"k": k % F.p, "n": n} for n in bad]
        residue = charsum.residue_identity_holds(table, d)
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
