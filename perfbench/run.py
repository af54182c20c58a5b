"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, with two BLAS threads, inside a
fresh temporary directory under the checkout that is removed at the end.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics from
spans recorded around calls into the program. Exits 2 without a result when
the program cannot be imported or a workload is unknown.
"""

from __future__ import annotations

import time

# the perf_counter reading at which this process started: the CPU time spent
# so far is interpreter start-up, which runs on one thread and waits on nothing
STARTED = time.perf_counter() - time.process_time()

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench-work")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
        from spans import Tracer
    except ImportError as e:
        print(f"perfbench: cannot import the program from {ROOT}/src: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}', expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # a terminated run still removes its directory on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tracer = Tracer(enabled=bool(args.trace))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    run = workloads.Run(args.seed, args.seconds, workdir, tracer, STARTED)
    tracer.install()
    tracer.recording = tracer.enabled
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass                     # another run still uses it

    metrics = tracer.metrics(run.rounds, run.epochs) if tracer.enabled else run.metrics
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {run.rounds} rounds in "
          f"{run.measured_s:.3f} s, {run.measured_s / run.rounds:.4f} s per round")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
