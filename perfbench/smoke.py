"""The benchmark's own smoke check; finishes in well under a minute.

Usage, from the root of a source checkout:  python3 perfbench/smoke.py

Runs the tiny op list of every workload with tracing off and on, at the
default seed, and asserts that:
  - every run exits 0 and reports correct, with no failed op (so the
    default-seed digests match and the route checks pass);
  - the metrics printed are exactly the end-to-end metrics (trace 0) or
    the per-layer metrics (trace 1) of BENCHMARK.json, each with its unit;
  - in every span file, child spans lie inside their parents and self
    times are non-negative.
"""

import json
import subprocess
import sys

import checks
import run
import tracing
import workloads


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{name} trace={trace}"
            found = _check_run(name, trace, wanted)
            print(where, "ok" if not found else "FAILED")
            problems += [f"{where}: {p}" for p in found]
    for problem in problems:
        print("PROBLEM", problem)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


def _check_run(name, trace, wanted):
    argv = [sys.executable, str(run.BENCH_DIR / "run.py"),
            "--workload", name, "--seed", str(checks.DEFAULT_SEED),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    problems = []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} failed ops\n{proc.stdout}")
    got = {key: m["unit"] for key, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        problems.append(f"metrics or units differ from BENCHMARK.json: {got}")
    if trace:
        _, ops = workloads.build(name, checks.DEFAULT_SEED, tiny=True)
        for i in range(len(ops)):
            spans = json.loads(
                (run.WORK / f"trace-s{i}.json").read_text())["spans"]
            problems += [f"op {i}: {err}"
                         for err in tracing.span_errors(spans)]
    return problems


if __name__ == "__main__":
    sys.exit(main())
