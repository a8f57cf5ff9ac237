"""One benchmark process: set-up, then a timed or traced phase.

Started by ``run.py``, never by hand. ``--mode probe`` stops after
set-up; ``--mode timed`` runs rounds for ``--seconds`` with tracing off;
``--mode trace`` runs the traced pass. The result is written as JSON
to ``--out``.

Set-up is everything before the first timed round: interpreter start,
imports, the C kernel build into the empty ``REPRO_KERNEL_CACHE`` the
parent created, scenario construction, and one untimed pass (which
also starts the first worker pool).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("probe", "timed", "trace"), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    return p.parse_args()


def _setup(args: argparse.Namespace):
    """Imports, kernel build, scenario construction and the untimed pass."""
    os.environ["REPRO_SIM_BACKEND"] = "compiled"
    t0 = time.monotonic()
    import tracing
    import workloads

    import_s = time.monotonic() - t0
    from repro.simulation import compiled

    t0 = time.monotonic()
    available = compiled.kernel_available()
    kernel_build_s = time.monotonic() - t0
    if not available:
        raise RuntimeError(f"compiled kernel unavailable: {compiled.kernel_status()['error']}")
    guard = tracing.Tracer()
    guard_counts = {"batched_chunks": 0}
    tracing.install_path_guard(guard, guard_counts)
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir), guard_counts)
    wl.build()
    wl.warmup()
    setup_s = time.monotonic() - args.spawned_at
    return wl, {"setup_s": setup_s, "import_s": import_s, "kernel_build_s": kernel_build_s}


def _attribution(wl, setup: dict) -> dict:
    import hashlib

    import numpy as np

    from repro.simulation import compiled

    kernel_c = HERE.parent / "src" / "repro" / "simulation" / "_kernel.c"
    cache = Path(os.environ["REPRO_KERNEL_CACHE"])
    status = compiled.kernel_status()
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_source_sha256": hashlib.sha256(kernel_c.read_bytes()).hexdigest()[:16],
        "kernel_builds": sorted(p.name for p in cache.glob("*.so")),
        "fallback_reason": status["error"],
        **wl.attribution(),
        **setup,
    }


def _timed(wl, seconds: float) -> dict:
    rounds = []
    end = time.perf_counter() + seconds
    while True:
        rounds.append(wl.run_round())
        if time.perf_counter() >= end:
            break
    wl.check()
    med = statistics.median
    return {
        "rounds": [{k: r[k] for k in ("wall", "units", "events", "failed")} for r in rounds],
        "wall_s": med(r["wall"] for r in rounds),
        "units_per_s": med(r["units"] / r["wall"] for r in rounds),
        "events_per_s": med(r["events"] / r["wall"] for r in rounds),
        "attempted": sum(r["units"] for r in rounds) + wl.attempted_checks,
        "failed": sum(r["failed"] for r in rounds) + wl.mismatches,
    }


def _traced_rounds(wl, tracer, seconds: float) -> tuple[list, list]:
    """Alternate untraced and traced rounds for ``seconds``."""
    import tracing

    untraced, with_spans = [], []
    end = time.perf_counter() + seconds
    while True:
        untraced.append(wl.run_round())
        with tracing.traced(tracer):
            with_spans.append(wl.run_round())
        if time.perf_counter() >= end:
            break
    return untraced, with_spans


def _trace(wl, args: argparse.Namespace, setup: dict) -> dict:
    """The traced run: the named workload's rounds, traced and untraced,
    then one traced round of every other workload for the layers the
    named one does not reach."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    if wl.traced_workers != wl.n_workers:
        wl.n_workers = wl.traced_workers
        wl.warmup()
    untraced, traced = _traced_rounds(wl, tracer, args.seconds)
    walls = sum(r["wall"] for r in traced)
    layers = tracer.layer_self_times()
    med = statistics.median
    metrics = {
        "trace.overhead_frac": med(r["wall"] for r in traced) / med(r["wall"] for r in untraced)
        - 1.0,
        "trace.accounted_frac": tracer.root_seconds() / walls,
        "setup.import_s": setup["import_s"],
        "setup.kernel_build_s": setup["kernel_build_s"],
    }
    spans = tracer.dump()
    metrics.update(wl.layer_metrics(tracer, traced))
    wl.check()
    failures = list(wl.failures)
    attempted = sum(r["units"] for r in untraced + traced) + wl.attempted_checks
    failed = sum(r["failed"] for r in untraced + traced) + wl.mismatches

    for name, cls in workloads.WORKLOADS.items():
        if name == wl.name:
            continue
        other = cls(args.seed, wl.workdir, wl.guard_counts)
        other.n_workers = other.traced_workers
        other.build()
        other.warmup()
        tracer.clear()
        with tracing.traced(tracer):
            rounds = [other.run_round()]
        found = other.layer_metrics(tracer, rounds)
        other.check()
        for key, value in found.items():
            metrics.setdefault(key, value)
        failures += other.failures
        attempted += sum(r["units"] for r in rounds) + other.attempted_checks
        failed += sum(r["failed"] for r in rounds) + other.mismatches

    trace_dir = Path(".perfbench") / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{wl.name}-seed{args.seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": wl.name,
                "traced_round_walls": [r["wall"] for r in traced],
                "untraced_round_walls": [r["wall"] for r in untraced],
                "layer_self_s": layers,
                "spans": spans,
            }
        )
    )
    print(f"layer self time over {len(traced)} traced round(s), {walls:.3f} s:", file=sys.stderr)
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:32s} {secs:9.4f} s  {100 * secs / walls:5.1f}%", file=sys.stderr)
    print(f"spans written to {trace_file}", file=sys.stderr)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "failures": failures}


def main() -> int:
    args = _args()
    out = Path(args.out)
    try:
        wl, setup = _setup(args)
        result: dict = {"setup": setup}
        if args.mode == "timed":
            result.update(_timed(wl, args.seconds))
            result["failures"] = wl.failures
        elif args.mode == "trace":
            result.update(_trace(wl, args, setup))
        if args.mode != "probe":
            result["attribution"] = _attribution(wl, setup)
    except Exception:
        traceback.print_exc()
        return 1
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
