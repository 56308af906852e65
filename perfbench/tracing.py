"""Per-layer metrics from the files that traced_op.py writes, and the gf
micro pass.

Self time of a span is its duration minus the time its child spans
cover; a layer metric sums it over the spans of the named functions and
over all ops of one traced pass.  Which end-to-end metric each layer
metric should move, and on which workload:

  cli.self_s                      wall_s on sums; about 0 on scan
  gf.make_field_s                 setup_s on every workload
  gf.*.calls                      cpu_s on scan and check
  rdpoly.eval_recurrence.*        wall_s on scan and check; 0 on sums
  rdpoly.functional_map.self_s    wall_s on scan
  rdpoly.rows.self_s              wall_s and peak_rss_mib on check
  rdpoly.as_polynomial.self_s     wall_s on check
  rdpoly.cache_entries            peak_rss_mib on check
  permcheck.*                     wall_s on scan
  charsum.b_coeffs/c_coeffs/sums_via_recurrence, modpoly.mul.*
                                  wall_s on sums
  charsum.sums_bruteforce/residue_identity_holds
                                  wall_s on check
"""

import json
import subprocess
import sys
from pathlib import Path

ROWS = ("rdpoly.first_kind_weights", "rdpoly.second_kind_weights",
        "rdpoly.family_weights", "rdpoly.fnk_coeffs")

SELF_TIMES = {
    "rdpoly.eval_recurrence.self_s": ("rdpoly.eval_recurrence",),
    "rdpoly.functional_map.self_s": ("rdpoly.functional_map",),
    "rdpoly.rows.self_s": ROWS,
    "rdpoly.as_polynomial.self_s": ("rdpoly.as_polynomial",),
    "permcheck.two_to_one.self_s": ("permcheck.is_pp_two_to_one",),
    "permcheck.verify_theorem.self_s": ("permcheck.verify_theorem",),
    "charsum.b_coeffs.self_s": ("charsum.b_coeffs",),
    "charsum.c_coeffs.self_s": ("charsum.c_coeffs",),
    "charsum.sums_via_recurrence.self_s": ("charsum.sums_via_recurrence",),
    "charsum.sums_bruteforce.self_s": ("charsum.sums_bruteforce",),
    "charsum.residue_identity_holds.self_s":
        ("charsum.residue_identity_holds",),
    "modpoly.mul.self_s": ("modpoly.mul",),
}
CALLS = {
    "rdpoly.eval_recurrence.calls": "rdpoly.eval_recurrence",
    "charsum.b_coeffs.calls": "charsum.b_coeffs",
    "charsum.sums_bruteforce.calls": "charsum.sums_bruteforce",
    "modpoly.mul.calls": "modpoly.mul",
}
GF_COUNTS = ("gf.mul", "gf.add", "gf.sub", "gf.pow", "gf.ext.mul")


def self_times(spans):
    """Self time in ns of each span, in span order.

    Spans are recorded by one thread, so the children of a span run one
    after another and their summed durations are the time they cover.
    """
    covered = [0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [t1 - t0 - covered[i] for i, (_, t0, t1, _) in enumerate(spans)]


def span_errors(spans):
    """Nesting and self-time violations; empty for a sound trace."""
    errors = []
    for i, ((name, t0, t1, parent), own) in enumerate(
            zip(spans, self_times(spans))):
        if t1 < t0:
            errors.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            _, p0, p1, _ = spans[parent]
            if not (parent < i and p0 <= t0 and t1 <= p1):
                errors.append(f"span {i} {name} lies outside its parent")
        if own < 0:
            errors.append(f"span {i} {name} has negative self time")
    return errors


def _load(path):
    # a missing file means the op was skipped or crashed: it is failed
    path = Path(path)
    return json.loads(path.read_text()) if path.is_file() else None


def layer_metrics(span_files, count_files):
    """Sum the per-layer metrics over the ops of one traced pass each."""
    self_ns = {name: 0 for name in SELF_TIMES}
    calls = {name: 0 for name in CALLS}
    counts = {label: 0 for label in GF_COUNTS}
    cli_self = make_field_ns = 0
    scans = points = full = inner = useful = cache_entries = 0
    for path in count_files:
        rec = _load(path)
        for label in GF_COUNTS:
            counts[label] += rec["counts"][label] if rec else 0
    for path in span_files:
        rec = _load(path)
        if rec is None:
            continue
        spans = rec["spans"]
        own = self_times(spans)
        by_name = {}
        for i, span in enumerate(spans):
            by_name.setdefault(span[0], []).append(i)
        for metric, names in SELF_TIMES.items():
            self_ns[metric] += sum(own[i] for n in names
                                   for i in by_name.get(n, ()))
        for metric, name in CALLS.items():
            calls[metric] += len(by_name.get(name, ()))
        cli_self += sum(own[i] for i in by_name.get("cli.main", ()))
        make_field_ns += sum(spans[i][2] - spans[i][1]
                             for i in by_name.get("gf.make_field", ()))
        scans += len(rec["scans"])
        points += sum(n for n, _ in rec["scans"])
        full += sum(1 for n, q in rec["scans"] if n == q)
        inner += rec["mul_inner_ops"]
        useful += rec["mul_useful_ops"]
        cache_entries = max(cache_entries, rec["rdpoly_cache_entries"])
    out = {"cli.self_s": (cli_self / 1e9, "s"),
           "gf.make_field_s": (make_field_ns / 1e9, "s")}
    out.update({f"{label}.calls": (n, "count")
                for label, n in counts.items()})
    out.update({name: (ns / 1e9, "s") for name, ns in self_ns.items()})
    out.update({name: (n, "count") for name, n in calls.items()})
    out.update({
        "rdpoly.cache_entries": (cache_entries, "count"),
        "permcheck.bruteforce.scans": (scans, "count"),
        "permcheck.bruteforce.points": (points, "count"),
        "permcheck.bruteforce.full_frac": (full / scans if scans else 0.0,
                                           "frac"),
        "modpoly.mul.inner_ops": (inner, "count"),
        "modpoly.mul.useful_frac": (useful / inner if inner else 0.0,
                                    "frac"),
    })
    return out


def run_micro(seed, work, env, timeout):
    """gf micro pass in a fresh interpreter; {name: (value, unit)}."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("micro.py")),
         str(seed)], cwd=work, env=env, capture_output=True, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"micro pass failed: {proc.stderr.strip()}")
    return {name: (value, "ns")
            for name, value in json.loads(proc.stdout).items()}
