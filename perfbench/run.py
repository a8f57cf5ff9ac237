"""Benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_short --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: two set-up-only
processes, then one process that sets up and runs timed rounds for
``--seconds``; ``setup_s`` is the median of the three set-ups and
``peak_rss_mb`` the peak memory of the timed process and its pool
workers. ``--trace 1`` runs one traced process and reports the
per-layer metrics. The last line of standard output is the JSON
result; attribution (host, versions, path taken) is the line before.

This file imports only the standard library; the library is loaded by
``worker.py`` in child processes.
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
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_short", "fleet_long", "replicate", "optimize")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER = {
    "setup.import_s": "s",
    "setup.kernel_build_s": "s",
    "simulation.rng.seed_us_per_unit": "us",
    "simulation.compiled.batch_setup_us_per_unit": "us",
    "simulation.compiled.unit_setup_us_per_rep": "us",
    "simulation.compiled.finalize_us_per_unit": "us",
    "simulation._kernel.loop_s": "s",
    "simulation._kernel.events_per_s": "1/s",
    "simulation.results_store.append_us_per_unit": "us",
    "simulation.results_store.bytes_written": "bytes",
    "simulation.fleet.batched_chunk_frac": "frac",
    "simulation.fleet.worker_busy_frac": "frac",
    "simulation.fleet.pool_start_s": "s",
    "simulation.parallel.pool_start_s": "s",
    "simulation.parallel.worker_busy_frac": "frac",
    "simulation.replications.aggregate_ms": "ms",
    "simulation.adaptive.n_simulated": "count",
    "core.batch_eval.candidates": "count",
    "core.batch_eval.us_per_candidate": "us",
    "optimize.constrained.nfev": "count",
    "optimize.sweep.warm_accept_frac": "frac",
    "core.opt_cost.feasibility_evals": "count",
    "core.opt_cost.memo_hit_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
}


class TreeMemory:
    """Samples the peak resident memory of a process and its descendants.

    Every 250 ms it sums the ``VmHWM`` (peak RSS) of each live process
    in the tree; the result is the largest such sum.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _tree(self) -> list[int]:
        parents: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            parents.setdefault(ppid, []).append(int(entry))
        tree, todo = [], [self.pid]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo.extend(parents.get(pid, ()))
        return tree

    def _sample(self) -> None:
        total = 0
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                continue
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(0.25):
            self._sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def _child(args: argparse.Namespace, mode: str, workdir: Path, index: int) -> tuple[dict, int]:
    """Run one worker process; returns its result and the tree's peak KB."""
    out = workdir / f"result-{index}.json"
    scratch = workdir / f"proc-{index}"
    kcache = workdir / f"kernel-cache-{index}"
    scratch.mkdir()
    kcache.mkdir()
    env = dict(os.environ, REPRO_KERNEL_CACHE=str(kcache), REPRO_SIM_BACKEND="compiled")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(scratch),
        "--out", str(out),
        "--spawned-at", repr(time.monotonic()),
    ]
    # Its own session, so any pool worker it leaves behind can be
    # stopped through the process group.
    proc = subprocess.Popen(
        cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True
    )
    memory = TreeMemory(proc.pid)
    try:
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        rc = -1
    finally:
        memory.stop()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if rc != 0 or not out.exists():
        raise SystemExit(f"perfbench: {mode} process failed (exit {rc})")
    return json.loads(out.read_text()), memory.peak_kb


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # A terminated benchmark still stops its worker process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no library under src/repro; run from a repository checkout",
            file=sys.stderr,
        )
        return 2

    base = Path.cwd() / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = base / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        if args.trace:
            result, _ = _child(args, "trace", workdir, 0)
            metrics = {
                name: _metric(result["metrics"][name], unit) for name, unit in PER_LAYER.items()
            }
        else:
            setups = []
            for i in range(SETUP_SAMPLES - 1):
                probe, _ = _child(args, "probe", workdir, i)
                setups.append(probe["setup"]["setup_s"])
            result, peak_kb = _child(args, "timed", workdir, SETUP_SAMPLES - 1)
            setups.append(result["setup"]["setup_s"])
            result["attribution"]["setup_samples_s"] = setups
            result["attribution"]["round_walls_s"] = [r["wall"] for r in result["rounds"]]
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": result["wall_s"],
                "units_per_s": result["units_per_s"],
                "events_per_s": result["events_per_s"],
                "peak_rss_mb": peak_kb / 1024.0,
                "ok_frac": 1.0 - result["failed"] / result["attempted"],
            }
            metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in result["failures"][:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"attribution": result["attribution"]}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not result["failures"],
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
