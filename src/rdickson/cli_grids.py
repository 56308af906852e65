"""The pp command and verify's statement grids, over permcheck: every
grid point is decided (one byte each) before the first byte is written,
then each row is its class's %-format filled in with its coordinates."""

from itertools import product

from . import gf, permcheck
from .cli import (_HOLE, _bool, _emit, _guard_grid, _load_field,
                  _parse_range_list, _refuse_unread, _row_format)


def cmd_pp(args, max_q):
    F = _load_field(args, max_q)
    ns = _parse_range_list(args.n, "--n", max_q, minimum=1)
    ks = _parse_range_list(args.k, "--k", max_q) or list(range(F.p))
    _guard_grid(len(ns) * len(ks), max_q)
    criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
    if not criteria:
        raise ValueError("--criteria names no criterion")
    # every row is decided before the first byte is written, so a row
    # that raises leaves the output empty
    verdicts = permcheck.pp_grid(F, ns, ks, criteria)
    disagreements = sum(v >> len(criteria) == 0 for v in verdicts)
    header = ["n", "k", *criteria, "agree"]
    # a verdict byte: its row's format of n and k
    texts = {v: _row_format(args.format, {"n": "%(n)s", "k": "%(k)s", **{
        name: bool(v >> i & 1) for i, name in enumerate(header[2:])}})
        for v in set(verdicts)}
    _emit(args, [" ".join(header)] + [
        f"criteria disagree on {disagreements} rows"] * (disagreements > 0),
        {"command": "pp", "field": gf.field_descriptor(F),
         "criteria": criteria, "rows": _HOLE, "disagreements": disagreements},
        header, (), (texts[v] % {"n": n, "k": k % F.p}
                     for (n, k), v in zip(product(ns, ks), verdicts)),
        len(verdicts))
    return 1 if disagreements else 0


def cmd_verify_statement(args, max_q):
    if args.target not in permcheck.THEOREM_IDS:
        raise ValueError(
            f"unknown verify target {args.target!r}; expected 'sums' "
            f"or one of {', '.join(permcheck.THEOREM_IDS)}")
    unread = {"--field": "the fields of --p and --e"}
    # the axis a statement walks is the same for every degree e
    axis = permcheck.STATEMENTS[args.target].axis(1, None, None)[0]
    if axis != "n":
        unread["--n"] = "n = p^l + c over the exponents l"
    _refuse_unread(args, unread)
    if args.p is None or args.e is None:
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
    # as in pp, every point is decided before the first byte is written;
    # a class's row format has its keys sorted, as csv and json sort them
    count, classes, failures, rows = permcheck.verify_grid(
        args.target, ps, es, **grid)
    texts = {key: _row_format(args.format, {
        **dict(sorted(ent.items())), "k": "%(k)s", "n": "%(n)s",
        axis: f"%({axis})s"}) for key, ent in classes.items()}
    pretty = [f"{args.target}: {count} grid points, "
              f"{len(failures)} failures"]
    if failures:
        import json
        pretty += ["FAIL " + json.dumps(ent, sort_keys=True)
                   for ent in failures]
    pretty.append(f"pass: {_bool(not failures)}")
    # pretty lists no point
    _emit(args, pretty, {"theorem": args.target, "pass": not failures,
                         "grid": _HOLE, "failures": failures},
          sorted(next(iter(classes.values()), ())), (),
          (texts[key] % at for key, at in rows),
          count * (args.format != "pretty"))
    return 1 if failures else 0
