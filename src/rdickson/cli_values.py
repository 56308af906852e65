"""The eval and poly commands, over rdpoly: one value with its
cross-checks, and the reduced polynomial with the integer fnk row."""

from itertools import islice

from . import gf, rdpoly
from .cli import (SMALL_N, _HOLE, _bool, _coords, _csv_text, _emit,
                  _load_field, _output, _parse_int, _write_json, _write_rows)

FNK_ROWS_PER_WRITE = 50  # of up to 1505 digits at SMALL_N: 75 kB a block


def _parse_element(F, text, what):
    refusal = ValueError(f"bad {what} {gf.excerpt(text)}: expected "
                         "comma-separated coordinates")
    coords = [gf.read_int(t, what, refusal) for t in text.split(",")]
    try:
        return F.element(coords)
    except ValueError as exc:
        raise ValueError(f"bad {what} {gf.excerpt(text)}: {exc}")


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


def cmd_eval(args, max_q):
    F = _load_field(args, max_q)
    n = _parse_int(args.n, "--n", minimum=0)
    k = _parse_int(args.k, "--k") % F.p
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
        # char 2 and a != 1 would run fewer than two independent routes
        if n > SMALL_N and (F.p == 2 or a != 1):
            methods["matrix"] = rdpoly.eval_matrix(F, n, k, x, a)
    agree = len(set(methods.values())) == 1

    jobj = {"command": "eval", "field": gf.field_descriptor(F), "n": n,
            "k": k, "a": list(F.coeffs(a)), "x": list(F.coeffs(x)),
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


def cmd_poly(args, max_q):
    F = _load_field(args, max_q)
    n = _parse_int(args.n, "--n", minimum=0)
    k = _parse_int(args.k, "--k") % F.p
    fnk = rdpoly.fnk_coeffs(n, k) if n <= SMALL_N else None
    # the fnk row's entries run to 0.3 n digits: one past the digit limit
    # is refused before the first byte, and each is turned into decimal
    # once, FNK_ROWS_PER_WRITE at a time
    if fnk and max(map(abs, fnk)) >= 10 ** gf.digit_limit():
        raise ValueError(f"--n {n} gives an integer row with an entry of "
                         f"more than {gf.digit_limit()} digits, the limit "
                         "of sys.get_int_max_str_digits(); lower --n")
    poly = rdpoly.as_polynomial(F, n, k)
    rows = range(len(fnk or ()))
    with _output(args) as fh:
        if args.format == "json":
            field = gf.field_descriptor(F)
            _write_json(fh, {
                "command": "poly", "field": field, "n": n, "k": k,
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
                                for i, c in enumerate(poly)]))
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
