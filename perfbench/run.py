"""Benchmark of the repro synthesis stack, one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is imported from ``./src``; nothing is installed.
``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs the same workload with the pipeline's phase
tracing on and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files go to ``./.perfbench_work``
and are removed on exit.  Workloads and metrics: ``perfbench/README.md``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "compile-cold": "compile_cold",
    "sim-long": "sim_long",
}

# One cold start is too noisy to compare across commits: set-up is
# sampled this many times, each in a fresh interpreter, and the median
# reported.
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark one workload of the repro synthesis stack.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: take one set-up sample and print {"setup_s": ...}.
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(args) -> float:
    """Median cold set-up time: importing the program plus the workload's
    set-up, each sample in a fresh interpreter, as a user pays it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-sample",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def measure(args, work: Path) -> int:
    setup_s = 0.0
    if not args.setup_sample and not args.trace:
        setup_s = setup_seconds(args)
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(WORKLOADS[args.workload])
    imported = time.perf_counter()
    bench = module.Bench(args.seed, work, bool(args.trace))
    try:
        bench.prepare()
        started = time.perf_counter()
        bench.setup()
        if args.setup_sample:
            elapsed = (imported - STARTED) + (time.perf_counter() - started)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        bench.run(args.seconds)
        correct = bench.check() and bench.failed == 0
        if args.trace:
            metrics = bench.layers()
        else:
            metrics = bench.end_to_end(setup_s)
    finally:
        bench.close()
    print(common.result_line(correct, bench.attempted, bench.failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from "
              f"the root of a repro checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # Anything that falls back to the default artifact cache stays inside
    # the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass        # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
