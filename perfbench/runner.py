"""One benchmark sample in a fresh interpreter.

    python3 perfbench/runner.py --result OUT.json [--trace] [--machine] CONFIG...

Imports ``scramble.cli`` and loads every config (timed as set-up), then calls
``run_experiment`` on each in order (timed as the run), and writes the times,
the peak resident set of this process and its waited-for children (pool
workers), and with ``--trace`` the recorded spans, to OUT.json. The exit code
follows ``scramble run``: 2 for a config error, 3 for an assertion violation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, in MB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--machine", action="store_true")
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args()

    started = time.perf_counter()
    from scramble import cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result: dict = {}
    code = 0
    try:
        cfgs = [cli.load_config(path) for path in args.configs]
        result["setup_s"] = time.perf_counter() - started
        run_start = time.perf_counter()
        for cfg in cfgs:
            cli.run_experiment(cfg)
        result["run_s"] = time.perf_counter() - run_start
    except cli.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except cli.AssertionViolation as exc:
        print(f"assertion violation: {exc}", file=sys.stderr)
        code = 3
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["missing_bindings"] = tracer.missing_bindings()
    if args.machine:
        result["machine"] = machine_info()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
