#!/usr/bin/env python3
"""Self-test of the serving benchmark.

    python3 servebench/selftest.py [--seconds 1]

Runs every workload of BENCHMARK.json for a short length, once with
tracing off and once with tracing on, and checks that each run exits 0,
passes its correctness gate, fails no request, and prints exactly the
end-to-end (--trace 0) or per-layer (--trace 1) metrics BENCHMARK.json
names, each with its unit and a finite value.  Exits 1 on any mismatch.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace, seconds, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        errors.append("exit code %d: %s" % (proc.returncode,
                                             proc.stderr.strip()[-500:]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return errors + ["last stdout line is not a JSON object"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("correctness gate failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted %r" % result.get("attempted"))
    if result.get("failed") != 0:
        errors.append("failed %r" % result.get("failed"))
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if sorted(got) != sorted(want):
        errors.append("metric names differ: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            errors.append("%s: unit %r, want %r" % (name, m.get("unit"),
                                                    want[name]))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: value %r" % (name, value))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check_run(spec, workload, trace, args.seconds, args.seed)
            status = "ok" if not errors else "FAIL"
            print("%-12s trace %d  %s" % (workload, trace, status))
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
