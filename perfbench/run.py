"""End-to-end benchmark of the rdickson command line tool.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {scan,sums,check} --seed N \
        --seconds S --trace {0,1}

Each op of a workload (see workloads.py) is one `python -m rdickson`
invocation, started as a fresh process with `src` on PYTHONPATH and run
to completion before the next one starts: a closed loop with a single
client.  Fresh processes are deliberate: a CLI user pays cold
lru_caches and field-table construction on every run.

--trace 0 runs the set-up ops three times and the op list
--seconds // 6 times (at least once), and reports with tracing off:
  wall_s        summed wall time of the op list, median over passes
  cpu_s         the same for user + system CPU time of the child processes
  call_p50_s    median over ops of an op's wall time (its median over
                passes)
  peak_rss_mib  largest peak RSS of a single op (from os.wait4)
  setup_s       median over the workload's fields of the wall time of a
                fresh `field-info --field F`: interpreter start, package
                import and make_field table building
  ok_frac       1 - failed / attempted.  fail_frac itself is 0 on a
                healthy run, and an end-to-end metric must never be 0;
                trace runs report fail_frac.
Times are at reference speed (calibrate.py): the speed of a vCPU on a
shared host drifts by up to 1.6x with the other tenants' load, so each
op's time is scaled by a calibration sample taken just before and just
after it.  Raw times and scales are kept in the result file.

--trace 1 runs the op list once untraced, once with spans and once
with call counters, every op in a fresh interpreter under traced_op.py,
and then the gf micro pass (micro.py).  It prints the per-layer metrics
listed in BENCHMARK.json; trace_overhead_frac compares the spans pass
with the untraced one.

Every op's output is checked outside the timed region (checks.py):
exit code 0, no traceback, the recorded digest for the default seed,
and independent library routes for every seed.  A failed op is
counted, never dropped.  The last stdout line is the result object;
the full record with provenance goes to
.bench_build/perfbench/result-<workload>-<seed>-<trace>.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import checks
import tracing
import workloads
from spawner import Spawner

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 3
NOMINAL_PASS_S = 6       # --seconds 24 gives four passes of the op list
RUN_DEADLINE_S = 160     # the whole run, traced or not, ends within 180 s
TRACEBACK = b"Traceback (most recent call last)"


@dataclass
class OpRecord:
    op: object
    wall_s: float
    cpu_s: float
    rss_mib: float
    rc: int
    digest: str
    stdout_path: Path
    errors: list
    scale: float = 1.0       # to reference speed, from calibrate.py


def child_env():
    env = dict(os.environ)
    env.pop("RDK_MAX_Q", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Runs ops one at a time through a spawner, up to a deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = child_env()
        self.spawner = Spawner()

    def close(self):
        self.spawner.close()

    def run_op(self, op, slot, trace_mode=None):
        stdout_path = WORK / f"out-{slot}.txt"
        err_path = WORK / f"out-{slot}.err"
        if trace_mode:
            trace_path = WORK / f"trace-{slot}.json"
            trace_path.unlink(missing_ok=True)   # never read a stale trace
            argv = [sys.executable, str(BENCH_DIR / "traced_op.py"),
                    trace_mode, str(trace_path), *op.argv]
        else:
            argv = [sys.executable, "-m", "rdickson", *op.argv]
        timeout = self.deadline - time.monotonic()
        if timeout > 0:
            res = self.spawner.run(argv, stdout_path, err_path, WORK,
                                   self.env, timeout)
            errors = [] if res["rc"] == 0 else [f"exit code {res['rc']}"]
            if TRACEBACK in err_path.read_bytes():
                errors.append("traceback on stderr")
        else:
            stdout_path.write_bytes(b"")
            res = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mib": 0.0, "rc": -1}
            errors = ["skipped: the run deadline passed"]
        return OpRecord(op, res["wall_s"], res["cpu_s"], res["rss_mib"],
                        res["rc"], digest(stdout_path), stdout_path, errors)


def provenance(args):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:
        git_rev = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "rdickson").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "git_rev": git_rev, "src_sha256": src_hash.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "loadavg_start": list(os.getloadavg())}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small op lists for the smoke check")
    args = parser.parse_args(argv)

    if not (SRC / "rdickson" / "cli.py").is_file():
        print(f"error: no rdickson sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    prov = provenance(args)
    setup_ops, ops = workloads.build(args.workload, args.seed, args.tiny)
    runner = Runner(deadline)
    try:
        return _measure(args, runner, setup_ops, ops, prov)
    finally:
        runner.close()


def _measure(args, runner, setup_ops, ops, prov):
    checker = checks.Checker(SRC, args.seed)
    calibrator = calibrate.Calibrator()
    records = []

    def run_pass(pass_ops, slot, reference=None, trace_mode=None):
        samples = [calibrator.sample()]
        recs = []
        for i, op in enumerate(pass_ops):
            recs.append(runner.run_op(op, f"{slot}{i}", trace_mode))
            samples.append(calibrator.sample())
        for rec, scale in zip(recs, calibrate.scales(samples)):
            rec.scale = scale
        # outside the timed region: the route checks cost as much as some
        # ops, so a repeated pass only compares digests with the first
        for i, rec in enumerate(recs):
            if reference is None:
                rec.errors += checker.check(rec.op, rec.stdout_path,
                                            rec.digest)
            elif rec.digest != reference[i].digest:
                rec.errors.append("output differs from the first pass")
        records.extend(recs)
        return recs

    def repeat(pass_ops, slot, count):
        first = run_pass(pass_ops, slot)
        return [first] + [run_pass(pass_ops, slot, first)
                          for _ in range(count - 1)]

    def total(recs, field="wall_s"):
        return sum(getattr(r, field) * r.scale for r in recs)

    def per_op(passes):
        """Per op, the median over passes of its scaled wall time."""
        return [statistics.median(r.wall_s * r.scale for r in runs)
                for runs in zip(*passes)]

    if args.trace == 0:
        # a warm-up run compiles the package's bytecode before set-up timing
        runner.run_op(setup_ops[0], "warm")
        setup = repeat(setup_ops, "setup-", SETUP_REPEATS)
        passes = repeat(ops, "", max(1, int(args.seconds // NOMINAL_PASS_S)))
        failed = sum(1 for r in records if r.errors)
        metrics = {
            "wall_s": metric(statistics.median(map(total, passes)), "s"),
            "cpu_s": metric(statistics.median(
                total(p, "cpu_s") for p in passes), "s"),
            "call_p50_s": metric(statistics.median(per_op(passes)), "s"),
            "peak_rss_mib": metric(max(r.rss_mib for r in records), "MiB"),
            "setup_s": metric(statistics.median(per_op(setup)), "s"),
            "ok_frac": metric(1 - failed / len(records), "frac"),
        }
        return _finish(args, prov, records, metrics, {"passes": len(passes)})

    untraced = run_pass(ops, "")
    traced = run_pass(ops, "s", untraced, "spans")
    run_pass(ops, "c", untraced, "counts")
    micro = tracing.run_micro(args.seed, WORK, runner.env,
                              max(1.0, runner.deadline - time.monotonic()))
    layers = tracing.layer_metrics(
        [WORK / f"trace-s{i}.json" for i in range(len(ops))],
        [WORK / f"trace-c{i}.json" for i in range(len(ops))])
    failed = sum(1 for r in records if r.errors)
    base = total(untraced)
    overhead = total(traced) / base - 1 if base else 0.0
    metrics = {name: metric(value, unit)
               for name, (value, unit) in {**layers, **micro}.items()}
    metrics["trace_overhead_frac"] = metric(overhead, "frac")
    metrics["fail_frac"] = metric(failed / len(records), "frac")
    return _finish(args, prov, records, metrics, {"passes": 1})


def _finish(args, prov, records, metrics, extra):
    failed = sum(1 for r in records if r.errors)
    prov["loadavg_end"] = list(os.getloadavg())
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    detail = {"provenance": prov, "result": result, **extra,
              "ops": [{"argv": list(r.op.argv), "wall_s": r.wall_s,
                       "cpu_s": r.cpu_s, "scale": r.scale,
                       "rss_mib": r.rss_mib, "rc": r.rc,
                       "digest": r.digest, "errors": r.errors}
                      for r in records]}
    out = WORK / (f"result-{args.workload}-{args.seed}-{args.trace}"
                  f"{'-tiny' if args.tiny else ''}.json")
    out.write_text(json.dumps(detail, indent=1, sort_keys=True))
    for r in records:
        for err in r.errors:
            print(f"FAIL {r.op.text}: {err}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
