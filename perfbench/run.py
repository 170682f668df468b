"""driftflow benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in several fresh worker
processes one after another (``worker.py``), each with BLAS threads pinned
to 1; the measured window is split evenly between them.  With ``--trace 0``
the metrics are the end-to-end ones named in ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones.  ``setup_s`` and ``op_s`` are wall times
scaled to a nominal machine speed (``speed_scale``, ``reference.py``).  The
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the full record (every sample, every worker's environment) is written to
``perfbench/results/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Worker processes per run: each sets up once, so a run reports the median of
# several set-ups.  verify_suite gets two because each of its set-ups holds a
# full warm-up verify.
PROCESSES = {
    "product_scalars": 3,
    "eternal_gaussian": 3,
    "spectral_ladder": 3,
    "verify_suite": 2,
}
DEADLINE_S = 170.0
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_worker(args, window: float, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--window", repr(window),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ, **WORKER_ENV)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} worker overran the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_scale(workers: list) -> float:
    """The factor that turns this run's wall times into nominal-speed times.

    Every worker times its workload's reference computation (``reference.py``)
    after set-up and between rounds.  The factor is the nominal reference time
    over the median of all of them; the median, because a reference time now
    and then reads two or three times its neighbours while the workload's
    operations around it do not.
    """
    return workers[0]["nominal_s"] / statistics.median(s for w in workers for s in w["reference_s"])


def end_to_end(workers: list) -> dict:
    scale = speed_scale(workers)
    return {
        "setup_s": scale * statistics.median(w["setup_wall_s"] for w in workers),
        "op_s": scale * statistics.median(s for w in workers for s in w["op_wall_s"]),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }


def per_layer(workers: list) -> dict:
    """Layer totals per traced operation, the tracing overhead, the raw times."""
    ops = sum(w["traced_attempted"] for w in workers)
    totals = {}
    for w in workers:
        for name, value in w["layers"].items():
            totals[name] = totals.get(name, 0.0) + value
    values = {name: value / ops for name, value in totals.items()}
    op_wall_s = statistics.median(s for w in workers for s in w["op_wall_s"])
    traced_wall_s = statistics.median(s for w in workers for s in w["traced_op_wall_s"])
    values["trace.overhead_s"] = speed_scale(workers) * (traced_wall_s - op_wall_s)
    values["op_wall_s"] = op_wall_s
    values["setup_wall_s"] = statistics.median(w["setup_wall_s"] for w in workers)
    values["reference_s"] = statistics.median(s for w in workers for s in w["reference_s"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its worker: SystemExit inside
    # subprocess.run kills the child and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "driftflow" / "__init__.py").is_file():
        print(f"perfbench: no driftflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + DEADLINE_S
    count = PROCESSES[args.workload]
    workers = [run_worker(args, args.seconds / count, deadline) for _ in range(count)]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(workers) if args.trace else end_to_end(workers)
    problems = [p for w in workers for p in w["problems"]]
    result = {
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "result": result, "workers": workers}
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    env = workers[0]["environment"]
    print(
        f"perfbench: {args.workload} seed {args.seed}: {count} processes, "
        f"{sum(len(w['op_wall_s']) + len(w['traced_op_wall_s']) for w in workers)} timed rounds; "
        f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
        f"threads {env['threads']}, nproc {env['nproc']}"
    )
    for label in sorted({f for w in workers for f in w["failures"]}):
        print(f"perfbench: failing operation: {label}")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
