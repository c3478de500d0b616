"""Benchmark of whole qbmlab scenario runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
Set-up time is measured over SETUP_SAMPLES fresh processes (the timed
workload process is the last of them).  The workload process runs whole
rounds of scenario operations for about S seconds and checks their outputs
afterwards.  The end-to-end times are scaled to a fixed host speed,
measured by a reference kernel in each process (``worker.Reference``).
The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Outputs go to ``.bench_out/`` and are removed after the run, except for
the span file of a traced run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 7
# every run must end well inside three minutes
PROBE_TIMEOUT_S = 30.0
RUN_TIMEOUT_S = 150.0


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # one client: BLAS single-threaded, the sweep's pool at most 2 threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["QBM_MAX_THREADS"] = str(min(2, os.cpu_count() or 1))
    return env


def _spawn(args, out: Path, mode: str, timeout: float) -> tuple[float, dict]:
    """Run one worker; returns (set-up seconds at the reference speed, its
    JSON result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(out), "--mode", mode]
    if args.trace:
        cmd += ["--spans", str(ROOT / ".bench_out" / (
            f"spans-{args.workload}-seed{args.seed}.jsonl"))]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(),
                            cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{mode} worker exceeded {timeout:g} s")
    if proc.returncode != 0:
        raise SystemExit(f"{mode} worker exited {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return (result["ready"] - start) * result["scale"], result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    base = ROOT / ".bench_out"
    run_dir = base / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        # a traced run reports no set-up time
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [_spawn(args, run_dir / f"setup{i}", "setup",
                         PROBE_TIMEOUT_S)[0] for i in range(probes)]
        setup_s, result = _spawn(args, run_dir / "run", "measure",
                                 RUN_TIMEOUT_S)
        setups.append(setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    times = result["op_seconds"]
    print(f"{args.workload}, seed {args.seed}: {len(times)} operations, "
          f"wall median {statistics.median(result['wall_seconds']):.4g} s, "
          f"reference kernel median {result['reference_s']:.4g} s")
    if args.trace:
        metrics = result["per_layer"]
        width = max(len(name) for name in metrics)
        print(f"per-layer metrics, {args.workload}, seed {args.seed}")
        for name, m in metrics.items():
            print(f"  {name:<{width}}  {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "scenario_p50_s": {"value": statistics.median(times),
                               "unit": "s"},
            "scenarios_per_s": {"value": len(times) / sum(times),
                                "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
