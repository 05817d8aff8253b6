"""latentpde benchmark: one workload, end-to-end or traced.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload heat-session --seed 1 --seconds 20 --trace 0

Each repeat of the workload runs in a fresh process (``worker.py``) that
imports ``latentpde.cli`` from ``src/`` and calls ``latentpde.cli.main``
once per CLI verb of the workload.  Repeats continue until ``--seconds``
have passed (at least ``MIN_REPEATS``), and every reported time is a median
over repeats.  Set-up time is measured by separate cold interpreter starts.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats and prints the per-layer metrics plus the
tracing overhead.  Human-readable lines come first; the last line of
stdout is the JSON result.  A longer record (environment, every sample,
failures) goes to ``.perfbench_work/results/``.  See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_REPEATS = 3
SETUP_PROBES = 7
DEADLINE_S = 165.0     # the whole run must end within 180 s

# name -> unit, defined in README.md; success_rate is 1 - error_rate,
# reported this way because an end-to-end metric must never read 0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "success_rate": "share"}

_PROBE = "import time, latentpde.cli; print(repr(time.time()))"


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # never more BLAS threads than cores; an explicit lower setting stays
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_child(cmd, env, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child timed out: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child failed (rc {proc.returncode}): {' '.join(cmd)}\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return lines[-1]


def _setup_sample(env, deadline):
    """Seconds from spawning a cold interpreter to ``latentpde.cli.main``
    being callable."""
    t0 = time.time()
    return float(_run_child([sys.executable, "-c", _PROBE], env, deadline)) - t0


def _repeat(args, env, deadline, ws, trace, index):
    shutil.rmtree(ws, ignore_errors=True)
    os.makedirs(ws)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--ws", ws, "--src", SRC,
           "--trace", str(trace)]
    if trace:
        spans = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}-{index}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans-out", spans]
    try:
        return json.loads(_run_child(cmd, env, deadline))
    finally:
        shutil.rmtree(ws, ignore_errors=True)


def _spread(values):
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}  q3 {q3:.6g}"


def _measure(args, env, start):
    """Set-up probes plus untraced (and, when tracing, traced) repeats until
    ``args.seconds`` have passed; returns (setup samples, {trace: results})."""
    deadline = start + DEADLINE_S
    ws = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    # the first start compiles bytecode and is not kept; the kept probes are
    # spread over the run so that their median sees the same machine as the
    # repeats do
    _setup_sample(env, deadline)
    setup = []
    runs = {0: [], 1: []}
    index = 0
    probes = SETUP_PROBES if args.size == "full" else 1
    while True:
        if len(setup) < probes:
            setup.append(_setup_sample(env, deadline))
        for trace in ((0, 1) if args.trace else (0,)):
            runs[trace].append(_repeat(args, env, deadline, ws, trace, index))
            index += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / len(runs[0])
        enough = len(runs[0]) >= (1 if args.trace else MIN_REPEATS)
        if (enough and elapsed >= args.seconds) or time.monotonic() + 1.5 * per_round > deadline:
            break
    while len(setup) < probes:
        setup.append(_setup_sample(env, deadline))
    return setup, runs


def run(args):
    if not os.path.isfile(os.path.join(SRC, "latentpde", "cli.py")):
        raise HarnessError(f"no latentpde source under {SRC}; run from a source checkout")
    start = time.monotonic()
    env = _child_env()
    setup, runs = _measure(args, env, start)

    reps = runs[0] + runs[1]
    first = reps[0]["digest"]
    rerun_mismatch = sum(1 for r in reps[1:] if r["digest"] != first)
    attempted = sum(r["attempted"] for r in reps) + len(reps) - 1
    failed = sum(r["failed"] for r in reps) + rerun_mismatch
    failures = sorted({f for r in reps for f in r["failures"]})
    if rerun_mismatch:
        failures.append(f"{rerun_mismatch} repeat(s) wrote artifacts that differ from repeat 0")

    untraced = runs[0]
    samples = {
        "wall_s": [r["wall_s"] for r in untraced],
        "cpu_s": [r["cpu_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "setup_s": [s + statistics.median([r["prep_s"] for r in reps]) for s in setup],
    }
    e2e = {name: statistics.median(vals) for name, vals in samples.items()}
    e2e["success_rate"] = 1.0 - failed / attempted

    if args.trace:
        traced = runs[1]
        layer = {name: statistics.median([r["layers"][name] for r in traced])
                 for name in traced[0]["layers"]}
        layer["trace.overhead_s"] = (statistics.median([r["wall_s"] for r in traced])
                                     - e2e["wall_s"])
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": time.monotonic() - start,
        "env": {"python": platform.python_version(), **reps[0]["env"],
                "blas_threads_env": env["OPENBLAS_NUM_THREADS"],
                "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
                "git_commit": _git_commit(), "workload_seed": args.seed},
        "samples": samples, "end_to_end": e2e, "attempted": attempted, "failed": failed,
        "failures": failures,
        "traced_wall_s": [r["wall_s"] for r in runs[1]],
        "per_layer": metrics if args.trace else None,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result_path = os.path.join(WORK, "results",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"repeats {len(untraced)} untraced, {len(runs[1])} traced")
    for name, vals in samples.items():
        print(f"  {name:<13} {e2e[name]:12.6g} {END_TO_END[name]:<5} "
              f"median of {len(vals)}  {_spread(vals)}")
    print(f"  {'error_rate':<13} {failed / attempted:12.6g} share       "
          f"{failed} of {attempted} operations failed")
    print(f"  {'success_rate':<13} {e2e['success_rate']:12.6g} share")
    if args.trace:
        print(f"  tracing overhead {layer['trace.overhead_s']:+.4f} s "
              f"(traced minus untraced median wall_s)")
        for name, m in metrics.items():
            label = "  (computed)" if name in tracing.COMPUTED else ""
            print(f"  {name:<50} {m['value']:14.6g} {m['unit']}{label}")
    for f in failures:
        print(f"  FAILED {f}")
    print("env " + json.dumps(record["env"]))
    print(f"record {os.path.relpath(result_path, ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the harness self-test only")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
