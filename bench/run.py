"""spinvibronic benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload table1-bundled --seed 1 --seconds 20 --trace 0

Workloads and metrics are described in BENCHMARK.json.  Each call runs the
workload in a fresh worker process (bench/worker.py) with the BLAS thread
count pinned through OPENBLAS_NUM_THREADS/OMP_NUM_THREADS.  It also starts
fresh processes that only set up, half of them before the worker and half
after it, so that setup_s is the median of the set-ups spread over the whole
run.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
run (--trace 1).  The line before it records the environment.  Scratch files
go to .bench_work/ in the repository root; the determinism digests, the
span dumps and one result file per run stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("table1-bundled", "large-sector", "soc-sweep", "pes-fit")
SETUP_PROBES = 8  # set-up-only processes besides the worker, half before and half after
BLAS_THREADS = 2
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "success_rate": "ratio"}


def _spawn(root: Path, args, env: dict, work: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--spawn-time", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM unwinds through subprocess.run, which then kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "spinvibronic" / "__init__.py").is_file():
        print("bench/run.py: no src/spinvibronic here; run it from the repository root",
              file=sys.stderr)
        return 2

    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    base = root / ".bench_work"
    work = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"

    def probe() -> float:
        setup = _spawn(root, args, env, work, deadline, True)["setup_s"]
        shutil.rmtree(work, ignore_errors=True)
        return setup

    try:
        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        res = _spawn(root, args, env, work, deadline, False)
        setups.append(res["setup_s"])
        shutil.rmtree(work, ignore_errors=True)
        setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    res["setup_samples"] = setups
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layer_metrics"].items()}
    else:
        values = {
            "wall_s": res["wall_s"],
            "setup_s": statistics.median(setups),
            "cpu_s": res["cpu_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "success_rate": 1.0 - res["failed"] / max(res["attempted"], 1),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    (base / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1) + "\n"
    )
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"environment": res["environment"], "passes": len(res["pass_walls"]),
                      "pass_walls_s": res["pass_walls"], "setup_samples_s": setups}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
