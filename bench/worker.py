"""One workload process: set up, run whole rounds of scenario operations
for a fixed time, then check every operation's outputs.

    python3 bench/worker.py --workload W --seed N --seconds S --out DIR
                            --mode setup|measure [--spans FILE]

``setup`` stops once qbmlab is imported and the inputs are written; run.py
times it from the spawn.  ``measure`` is a closed loop with one client:
each operation is ``qbmlab.cli.main(["scenario", ...])`` called in
process, and the next starts only when it has returned.  It prints one
JSON line.  With ``--spans`` the rounds alternate untraced and traced,
so the same run gives the per-layer numbers and the tracing overhead.

Both modes also time a fixed reference kernel: when ready, and in
``measure`` after every operation.  The host runs everything up to 40%
slower for tens of seconds to minutes at a time.  The kernel's median
time in the process measures that, and every time the process reports is
scaled by ``REFERENCE_S`` over that median (see the README).
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import round_configs

ROOT = Path(__file__).resolve().parent.parent
# times are reported in seconds of a host on which the reference kernel
# takes this long: about its median on this host over many runs
REFERENCE_S = 0.03
# after each operation the kernel runs at least this often, and for at
# least this share of the operation's time
REFERENCE_MIN_RUNS = 3
REFERENCE_SHARE = 0.05


class Reference:
    """A fixed numpy kernel whose time measures the host's current speed.

    It does what the workloads do most: elementwise transcendental
    functions over arrays larger than a core's L2 cache, into fresh
    temporaries, so page faults count as they do in qbmlab's own array
    code.  It depends on no qbmlab code.
    """

    def __init__(self):
        self.x = np.random.default_rng(0).standard_normal(1 << 19)
        self.times = []

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            y = np.cos(self.x * 1.3) * self.x
        y.sum()
        return time.perf_counter() - start

    def sample(self, budget_s: float = 0.0) -> None:
        """Time the kernel REFERENCE_MIN_RUNS times, and again until
        ``budget_s`` seconds have passed."""
        start = time.perf_counter()
        runs = 0
        while (runs < REFERENCE_MIN_RUNS
               or time.perf_counter() - start < budget_s):
            self.times.append(self._once())
            runs += 1

    def scale(self) -> float:
        """REFERENCE_S over the kernel's median time so far."""
        return REFERENCE_S / statistics.median(self.times)


def _import_package():
    """qbmlab from the checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "qbmlab" / "__init__.py").is_file():
        raise SystemExit(f"no qbmlab package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("qbmlab")
    importlib.import_module("qbmlab.cli")
    if Path(package.__file__).resolve().parent != src / "qbmlab":
        raise SystemExit(f"qbmlab was imported from {package.__file__}, "
                         f"not from {src}")
    return package


def _write_inputs(workload: str, seed: int, out: Path) -> list[tuple]:
    """The round as (scenario, params, config path), configs on disk."""
    cfg_dir = out / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, doc in enumerate(round_configs(workload, seed)):
        path = cfg_dir / f"op{i}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        ops.append((doc["scenario"], doc["params"], path))
    return ops


def _written(out_dir: Path) -> tuple[int, int]:
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _run_op(package, scenario: str, config: Path, out_dir: Path) -> tuple:
    """(wall seconds, exit code or the exception's text)."""
    argv = ["scenario", scenario, "--config", str(config), "--out",
            str(out_dir), "--quiet"]
    start = time.perf_counter()
    try:
        code = package.cli.main(argv)
    except (Exception, SystemExit) as exc:   # a raise fails the operation
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code


def measure(package, args, ops, reference) -> dict:
    tracer = Tracer(package) if args.spans is not None else None
    io = Counter()
    records = []        # (scenario, params, out_dir, seconds, code, round)
    round_times = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(round_times) % 2 == 1
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        for scenario, params, config in ops:
            op = len(records)
            out_dir = args.out / f"op{op:04d}"
            if traced:
                tracer.op = op
            seconds, code = _run_op(package, scenario, config, out_dir)
            if traced:
                files, size = _written(out_dir)
                io["files"] += files
                io["bytes"] += size
            reference.sample(REFERENCE_SHARE * seconds)
            records.append((scenario, params, out_dir, seconds, code,
                            len(round_times)))
        round_times.append(time.perf_counter() - round_start)
        if traced:
            tracer.uninstall()
        elapsed = time.perf_counter() - begin
        # start another round only if it ends within the run's time; a
        # traced run needs a traced round between two untraced ones
        need = 3 if tracer is not None else 1
        if (len(round_times) >= need
                and elapsed + statistics.mean(round_times) > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks   # scipy loads here, after the timed loop

    failures = []
    for op, (scenario, params, out_dir, _, code, _) in enumerate(records):
        if code != 0:
            failures.append(f"op {op} ({scenario}): exit {code}")
            continue
        try:
            checks.CHECKS[scenario](out_dir, params, op)
        except (checks.CheckFailed, OSError, ValueError, KeyError,
                TypeError) as exc:
            failures.append(f"op {op} ({scenario}): {exc}")

    scale = reference.scale()
    result = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "op_seconds": [r[3] * scale for r in records],
        "wall_seconds": [r[3] for r in records],
        "reference_s": statistics.median(reference.times),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        # odd rounds are traced; the first round is left out of the
        # overhead, as a process's first operation sometimes runs slower
        traced = [r[3] for r in records if r[5] % 2 == 1]
        untraced = [r[3] for r in records if r[5] % 2 == 0 and r[5] > 0]
        layers = layer_metrics(tracer, len(traced), io)
        layers["trace.overhead_pct"] = {
            "value": 100.0 * (statistics.median(traced)
                              / statistics.median(untraced) - 1.0),
            "unit": "%"}
        result["per_layer"] = layers
        tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    package = _import_package()
    ops = _write_inputs(args.workload, args.seed, args.out)
    ready = time.monotonic()
    reference = Reference()
    reference.sample()
    setup_scale = reference.scale()
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "scale": setup_scale}))
        return 0
    result = measure(package, args, ops, reference)
    result["ready"] = ready
    result["scale"] = setup_scale
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
