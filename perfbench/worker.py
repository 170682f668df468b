"""One benchmark process: set up one workload in a fresh interpreter and time it.

run.py starts several of these one after another and combines their results:

    python3 perfbench/worker.py --workload NAME --seed N --window SECONDS --trace 0|1

Set-up runs from the first line of this file to the end of one untimed,
checked warm-up round: importing numpy, scipy and driftflow, building the
inputs, and filling driftflow's operator caches.  Timed rounds follow until
the window is spent; with ``--trace 1`` the first half of the window is timed
untraced and the second half with every layer wrapped in spans.  The
workload's reference computation (``reference.py``) is timed three times
after set-up and once after every round, and its times are reported with the
wall times so that run.py can scale them to a nominal machine speed.  The
last line of standard output is the result as JSON.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads: BLAS threads would otherwise compete for the two
# cores and make run times depend on what else the machine is doing.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time

START = time.perf_counter()

import argparse
import gc
import json
import platform
import resource
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import reference  # noqa: E402  (this directory; imports numpy)


def import_driftflow():
    """Import driftflow from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import driftflow
        import driftflow.acceptance  # noqa: F401  (imported so that tracing can wrap it)
        import driftflow.cli  # noqa: F401
        import driftflow.runner  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import driftflow from {SRC}: {exc}")
    if Path(driftflow.__file__).resolve().parent != SRC / "driftflow":
        raise SystemExit(f"perfbench: driftflow was imported from {driftflow.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(workload, window: float, references: list) -> list:
    """Whole rounds until the next one would likely overrun the window.

    The reference computation is timed after every round; those times and
    the ones taken inside the round are appended to ``references``.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(workload.round())
        references += rounds[-1].references + [reference.seconds(workload.reference_kind)]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > window:
            return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_driftflow()
    import spans
    from workloads import WORKLOADS

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=HERE / "out") as scratch:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        warmup = workload.round()
        setup_wall_s = time.perf_counter() - START - sum(warmup.references)
        reference.seconds(workload.reference_kind)  # untimed: builds its inputs, fills caches
        references = warmup.references + [reference.seconds(workload.reference_kind) for _ in range(3)]

        traced, layers = [], {}
        if args.trace:
            untraced = measure(workload, args.window / 2, references)
            with spans.install(spans.Tracer()) as tracer:
                traced = measure(workload, args.window / 2, references)
            layers = tracer.totals()
        else:
            untraced = measure(workload, args.window, references)

    timed = untraced + traced
    result = {
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_wall_s": [r.op_seconds for r in untraced],
        "traced_op_wall_s": [r.op_seconds for r in traced],
        "reference_s": references,
        "nominal_s": reference.NOMINAL_S[workload.reference_kind],
        "attempted": sum(r.attempted for r in timed),
        "failed": sum(len(r.failures) for r in timed),
        "traced_attempted": sum(r.attempted for r in traced),
        "problems": [p for r in [warmup] + timed for p in r.problems],
        "failures": sorted({f for r in [warmup] + timed for f in r.failures}),
        "layers": layers,
        "environment": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
