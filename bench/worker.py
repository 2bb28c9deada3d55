"""One benchmark run of one workload in a fresh process (started by run.py).

Set-up is everything from process start to the first operation: the
interpreter, importing spinvibronic/numpy/scipy and generating, writing and
parsing the seeded inputs.  It is reported against the spawn time the parent
passes in.  With --setup-only the process stops there.

A pass runs the workload's fixed operation list once; passes repeat while
another one fits into the time budget (at least one).  Each operation is
timed (wall and process CPU), then checked, then its output digest is
compared with every earlier digest of the same operation: across the passes
of this run and across earlier runs of the same seed and the same
``output_key`` (package and benchmark sources, library versions, CPU model
and BLAS thread count), kept in ``<work>/../digests.json``.  A mismatch
fails the operation.

A traced run splits its budget: untraced passes first, then the same passes
with the tracer installed; the difference of their mean pass times is the
tracing overhead.  Spans are written out at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import tracer as tracing
import workloads


class Tally:
    """Attempted and failed units plus the digests seen, for one run."""

    def __init__(self, digests: dict[str, str], prefix: str):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests = digests
        self.prefix = prefix

    def record(self, op, out, error: str | None) -> None:
        errors = [error] if error else []
        if not errors:
            try:
                errors = op.check(out)
                key = f"{self.prefix}:{op.key}"
                digest = op.digest(out)
                if self.digests.setdefault(key, digest) != digest:
                    errors.append("output differs from an earlier run of the same inputs")
            except Exception:
                errors = ["checker raised: " + traceback.format_exc(limit=3)]
        self.attempted += op.units
        if errors:
            self.failed += op.units
            self.errors += [f"{op.key}: {e}" for e in errors]


def run_pass(ops, tally: Tally, tracer=None, op_base: int = 0) -> tuple[float, float]:
    wall = cpu = 0.0
    for i, op in enumerate(ops):
        scope = tracer.operation(op_base + i, op.key) if tracer else nullcontext()
        out, error = None, None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with scope:
                out = op.run()
        except Exception:
            error = "raised: " + traceback.format_exc(limit=3)
        t1, c1 = time.perf_counter(), time.process_time()
        wall += t1 - t0
        cpu += c1 - c0
        tally.record(op, out, error)
    return wall, cpu


def run_passes(ops, tally: Tally, budget: float, tracer=None):
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu = run_pass(ops, tally, tracer, op_base=len(walls) * len(ops))
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return walls, cpus


def source_digest(directory: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob(pattern)):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# environment entries the package's outputs may depend on
OUTPUT_KEYS = ("cpu_model", "python", "numpy", "scipy", "blas", "blas_threads",
               "source_sha256", "bench_sha256")


def output_key(env: dict) -> str:
    """Digests are compared only between runs that agree on everything in OUTPUT_KEYS."""
    blob = json.dumps([env[k] for k in OUTPUT_KEYS]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": commit,
        "source_sha256": source_digest(root / "src" / "spinvibronic", "*"),
        "bench_sha256": source_digest(Path(__file__).resolve().parent, "*.py"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, args.work).ops()
    setup_s = time.time() - args.spawn_time
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    root = Path.cwd()
    env = environment(root)
    state = args.work.parent / "digests.json"
    digests = json.loads(state.read_text()) if state.is_file() else {}
    tally = Tally(digests, f"{output_key(env)}:{args.workload}:{args.seed}")

    result = {"setup_s": setup_s, "environment": env}
    if args.trace:
        walls, cpus = run_passes(ops, tally, args.seconds / 2)
        tr = tracing.Tracer()
        tr.install()
        t_walls, _ = run_passes(ops, tally, args.seconds / 2, tracer=tr)
        tr.uninstall()
        layers = tracing.layer_metrics(tr, len(t_walls))
        # per-pass means, like the per-layer numbers they are compared with
        layers["trace.wall_s"] = statistics.fmean(t_walls)
        layers["trace.untraced_wall_s"] = statistics.fmean(walls)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["reports.bytes_written"] = workloads.bytes_written(args.work)
        result["layer_metrics"] = {k: [float(layers[k]), unit]
                                   for k, unit in tracing.PER_LAYER.items()}
        result["traced_pass_walls"] = t_walls
        tr.dump(args.work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        walls, cpus = run_passes(ops, tally, args.seconds)
    result.update(
        pass_walls=walls,
        pass_cpus=cpus,
        wall_s=statistics.median(walls),
        cpu_s=statistics.median(cpus),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors[:20],
    )
    tmp = state.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(tally.digests, indent=0, sort_keys=True))
    os.replace(tmp, state)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
