"""One repeat of one workload, in a process of its own.

Imports ``latentpde.cli``, writes the workload's inputs, then calls
``latentpde.cli.main`` once per operation and times the whole sequence:
wall time, user plus system CPU time, and the process's peak resident
memory.  Checks run after the timed part.  With ``--trace 1`` the layer
functions are wrapped first (see ``tracing.py``) and the spans are written
to ``--spans-out`` at the end.  The result is one JSON line on stdout.

Run by ``run.py``; by hand::

    PYTHONPATH=src python3 perfbench/worker.py --workload certify --seed 1 \\
        --ws /tmp/ws --src src
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _call(main, argv):
    """Run one CLI call; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = 1
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _numeric_env():
    """numpy and scipy versions, BLAS vendor, and the threads BLAS will use."""
    import ctypes

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": threads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--ws", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--src", required=True, help="source tree latentpde must come from")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import latentpde.cli as cli
    import_s = time.perf_counter() - t0
    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"latentpde imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, args.size, args.ws)
    prep_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
        tracing.install(tracer)

    calls = []
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    for op in ops:
        if tracer is None:
            calls.append(_call(cli.main, op.argv))
        else:
            calls.append(tracer.call(f"cli.{op.argv[0]}", _call, cli.main, op.argv))
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []    # at most one per operation
    for op, (rc, stdout, stderr) in zip(ops, calls):
        if rc != op.expected_rc:
            failures.append(f"{op.name}: exit code {rc}, expected {op.expected_rc}: "
                            f"{stderr.strip()[-300:]}")
            continue
        for check in op.checks:
            try:
                problem = check(stdout)
            except Exception as exc:
                problem = f"check raised {exc!r}"
            if problem:
                failures.append(f"{op.name}: {problem}")
                break

    result = {
        "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "import_s": import_s, "prep_s": prep_s,
        "attempted": len(ops), "failed": len(failures),
        "failures": failures, "digest": workloads.digest(args.ws), "env": _numeric_env(),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, import_s)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
