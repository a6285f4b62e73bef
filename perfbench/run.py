"""dscluster benchmark launcher.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 40 --trace 0

The launcher chooses the workload's connected deployments from ``--seed``
(``seeds.py``, which needs scipy) and hands their scenario seeds to fresh
worker processes (``worker.py``) with numeric libraries pinned to one
thread.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  Before the
measured process, ``SETUP_PROBES`` more processes only set up, so that
``setup_s`` is a median.  Every line but the last on stdout is the full
record of the run (seeds, digests, environment); the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and baseline figures are described in README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS
from seeds import connected_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 8
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def _worker(args, seeds: list[int], deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scenario-seeds", ",".join(map(str, seeds)),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(spawned_at), "--out-dir", str(OUT_DIR),
    ]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 1 and --seconds positive")
    if not (ROOT / "src" / "dscluster" / "cli.py").is_file():
        print(f"error: no dscluster sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        seeds = connected_seeds(WORKLOADS[args.workload], args.seed)
        probes = [_worker(args, seeds, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        record = _worker(args, seeds, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    setup_samples = [p["setup_s"] for p in probes] + [record["setup_s"]]
    known_ok = all(p["known_answer_ok"] for p in probes) and record["known_answer_ok"]
    if not known_ok:
        record["problems"].append("paper23 known-answer digest mismatch")
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples_s=setup_samples, environment=environment())
    metrics = record.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(record, metrics=metrics), indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not record["problems"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
