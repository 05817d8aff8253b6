"""Self-test of the benchmark harness at toy sizes.

Runs every workload once traced (one untraced and one traced repeat) and
one workload untraced, each through ``run.py --size toy``, and checks that
the result line has the contract's keys, that every operation passed its
checks, that traced and untraced artifacts matched, and that the metric
names and units are exactly those in ``BENCHMARK.json``.  About 15 s::

    python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

import run
import tracing
import workloads


def _bench_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "toy"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return None, [f"{workload} trace={trace}: rc {proc.returncode}: {proc.stderr[-1000:]}"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), []


def _check_result(label, result, expected_units):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected_units:
        problems.append(f"{label}: metric names/units differ from BENCHMARK.json: "
                        f"{sorted(set(units.items()) ^ set(expected_units.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{label}: {name} = {m['value']!r}")
    return problems


def main():
    e2e_units, layer_units, names = _bench_spec()
    problems = []
    if names != list(workloads.NAMES):
        problems.append(f"BENCHMARK.json workloads {names} != {list(workloads.NAMES)}")
    if e2e_units != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layer_units != tracing.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    for workload in workloads.NAMES:
        result, errs = _run(workload, 1)
        problems += errs
        if result is not None:
            problems += _check_result(f"{workload} traced", result, layer_units)
            print(f"{workload}: traced run ok, {result['attempted']} operations")
    result, errs = _run("certify", 0)
    problems += errs
    if result is not None:
        problems += _check_result("certify untraced", result, e2e_units)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
