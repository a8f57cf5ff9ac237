"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, runs one
*round* (a closed batch of fixed size) per call to :meth:`run_round`,
and checks the outputs. A round returns its wall time measured around
the library calls only, its unit and event counts, and its failures.

All library calls go through module attributes (``sim.run_fleet``,
``opt_delay.minimize_delay``, ...) so the traced run's wrappers see
them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
from pathlib import Path
from typing import Any

import numpy as np

import repro.simulation as sim
from repro.core import opt_cost, opt_delay, opt_energy
from repro.experiments import common
from repro.optimize import sweep
from repro.simulation import results_store
from repro.simulation.rng import RngStreams
from tracing import Tracer, clock, traced

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "optimize_reference.json"

#: Load factors of the fleet grid (small_cluster, 2 tiers x 2 classes).
LOAD_FACTORS = (0.5, 0.7, 0.9, 1.1)


def _same_bits(a: Any, b: Any) -> bool:
    """Bit-for-bit equality of two numbers or arrays (NaN == NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        a, b = a.astype(np.float64), b.astype(np.float64)
    return a.tobytes() == b.tobytes()


def _python_engine(fn, *args, **kwargs):
    """Run ``fn`` with the pure-Python simulation engine selected."""
    os.environ["REPRO_SIM_BACKEND"] = "python"
    try:
        return fn(*args, **kwargs)
    finally:
        os.environ["REPRO_SIM_BACKEND"] = "compiled"


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _median_wall(fn, n: int = 3) -> float:
    """Median wall time of ``n`` calls of ``fn``."""
    walls = []
    for _ in range(n):
        t0 = clock()
        fn()
        walls.append(clock() - t0)
    return statistics.median(walls)


class Workload:
    """Shared bookkeeping: failures, attribution and trace helpers."""

    name = ""
    n_workers = 1
    #: Worker count in the traced run. Pool workers run untraced, so a
    #: workload whose layers are all split from its own rounds traces
    #: them serially.
    traced_workers = 1

    def __init__(self, seed: int, workdir: Path, guard_counts: dict[str, int]):
        self.seed = seed
        self.workdir = workdir
        self.guard_counts = guard_counts
        self.failures: list[str] = []
        self.attempted_checks = 0
        self.mismatches = 0
        self.n_rounds = 0

    def fail(self, message: str) -> None:
        """Record why an operation failed (its round counts it)."""
        self.failures.append(message)

    def mismatch(self, message: str) -> None:
        """Record a failed output or path check (counted here)."""
        self.failures.append(message)
        self.mismatches += 1


# ---------------------------------------------------------------------------
# fleets
# ---------------------------------------------------------------------------


class Fleet(Workload):
    """``run_fleet`` over the load-factor grid on ``small_cluster``."""

    horizon: float
    reps: int
    n_python_checks: int

    def build(self) -> None:
        cluster = common.small_cluster()
        self.scenarios = [
            sim.FleetScenario(
                label=f"load={f:g}",
                cluster=cluster,
                workload=common.small_workload(f),
                horizon=self.horizon,
                params={"load_factor": f},
            )
            for f in LOAD_FACTORS
        ]
        self.n_units = len(self.scenarios) * self.reps
        self.digest: str | None = None
        self.kept_store: Path | None = None
        self.path: dict[str, Any] = {}

    def warmup(self) -> None:
        self.run_round()

    def _fleet(self, out: Path, scenarios, reps: int, n_jobs: int, **kw: Any):
        return sim.run_fleet(
            scenarios,
            reps,
            out,
            seed=self.seed,
            n_jobs=n_jobs,
            backend="compiled",
            store_format="npz",
            **kw,
        )

    def run_round(self) -> dict[str, Any]:
        out = self.workdir / f"{self.name}-store-{self.n_rounds}"
        self.n_rounds += 1
        batched_before = self.guard_counts["batched_chunks"]
        t0 = clock()
        summary = self._fleet(out, self.scenarios, self.reps, self.n_workers)
        wall = clock() - t0
        batched = self.guard_counts["batched_chunks"] - batched_before

        store = results_store.FleetStore.open(out)
        cols = store.read()
        meta = store.meta
        self.path = {
            "backend": meta.get("backend"),
            "batch_size": meta.get("batch_size"),
            "transport": meta.get("transport"),
            "store_format": store.fmt,
            "workers": meta.get("n_workers"),
        }
        failed = summary.n_failed + (self.n_units - summary.n_done - summary.n_failed)
        for unit, msg in meta.get("failures", [])[:4]:
            self.fail(f"{self.name}: unit {unit} failed: {msg}")
        if failed and not meta.get("failures"):
            self.fail(f"{self.name}: {failed} unit(s) failed")
        self.attempted_checks += 2
        if meta.get("backend") != "compiled":
            self.mismatch(f"{self.name}: store backend is {meta.get('backend')!r}, not compiled")
        # Every chunk must take the batched kernel path: the path guard
        # fails a chunk that falls back; a single-unit chunk never tries.
        batch = int(meta.get("batch_size") or 0)
        chunks = len(self.scenarios) * math.ceil(self.reps / max(batch, 1))
        if batch < 2 or self.reps % batch == 1:
            self.mismatch(f"{self.name}: batch size {batch} leaves single-unit chunks")
        if self.n_workers == 1:
            batched_frac = batched / chunks
        else:
            batched_frac = 1.0 if failed == 0 else (chunks - failed / batch) / chunks
        if self.n_workers == 1 and batched != chunks:
            self.mismatch(f"{self.name}: {batched} of {chunks} chunks ran batched")
        digest = _row_digest(store, cols)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.mismatch(f"{self.name}: row digest changed between rounds of one seed")
        events = int(cols["n_events"].sum())
        self.path["batched_chunk_frac"] = batched_frac
        info = {
            "store_bytes": _dir_bytes(out),
            "busy_s": float(cols["wall_s"].sum()),
            "batched_chunk_frac": batched_frac,
        }
        if self.kept_store is None:
            self.kept_store = out
        else:
            shutil.rmtree(out, ignore_errors=True)
        return {
            "wall": wall,
            "units": self.n_units,
            "events": events,
            "failed": failed,
            "info": info,
        }

    def check(self) -> None:
        """Re-run sampled units on the pure-Python engine, bit for bit."""
        store = results_store.FleetStore.open(self.kept_store)
        cols = store.read()
        order = np.argsort(cols["unit"])
        rng = np.random.default_rng([self.seed, 1])
        for unit in rng.choice(self.n_units, self.n_python_checks, replace=False):
            self.attempted_checks += 1
            sid, rep = divmod(int(unit), self.reps)
            sc = self.scenarios[sid]
            res = _python_engine(
                sim.simulate,
                sc.cluster,
                sc.workload,
                horizon=sc.horizon,
                warmup_fraction=sc.warmup_fraction,
                seed=np.random.SeedSequence(self.seed, spawn_key=(sid, rep)),
            )
            expect = {
                "n_events": int(res.meta.get("n_events", 0)),
                "n_completed": int(res.n_completed.sum()),
                "mean_delay": res.mean_delay,
                "average_power": res.average_power,
                "energy_per_request": res.energy_per_request,
                **{f"delay_c{k}": res.delays[k] for k in range(len(res.class_names))},
            }
            row = order[np.searchsorted(cols["unit"][order], unit)]
            bad = [c for c, v in expect.items() if not _same_bits(cols[c][row], v)]
            if bad:
                self.mismatch(f"{self.name}: unit {unit} differs from the Python engine in {bad}")
        shutil.rmtree(self.kept_store, ignore_errors=True)

    def attribution(self) -> dict[str, Any]:
        return self.path

    # -- per-layer -----------------------------------------------------------

    def layer_metrics(self, tracer: Tracer, rounds: list[dict[str, Any]]) -> dict[str, float]:
        units = sum(r["units"] for r in rounds)
        walls = [r["wall"] for r in rounds]
        out = {
            "simulation.results_store.bytes_written": statistics.median(
                r["info"]["store_bytes"] for r in rounds
            ),
            "simulation.fleet.batched_chunk_frac": statistics.median(
                r["info"]["batched_chunk_frac"] for r in rounds
            ),
            "simulation.fleet.worker_busy_frac": sum(r["info"]["busy_s"] for r in rounds)
            / (self.n_workers * sum(walls)),
        }
        store_s = sum(
            s[2] - s[1]
            for s in tracer.spans
            if s[0].startswith("simulation.results_store:")
            and (s[3] < 0 or not tracer.spans[s[3]][0].startswith("simulation.results_store:"))
        )
        out["simulation.results_store.append_us_per_unit"] = 1e6 * store_s / units
        if self.n_workers == 1:
            out.update(batch_split(tracer, units, sum(r["events"] for r in rounds), len(rounds)))
        return out


def batch_split(tracer: Tracer, units: int, events: int, n_rounds: int) -> dict[str, float]:
    """Seeding / setup / event loop / finalize split of batched chunks."""
    seed_s = setup_s = loop_s = fin_s = 0.0
    spans = tracer.spans
    children: dict[int, list[list[Any]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append(s)
    for i, s in enumerate(spans):
        if s[0] != "simulation.compiled:maybe_simulate_fleet_batch":
            continue
        kids = children.get(i, [])
        kernels = [k for k in kids if k[0] == "simulation._kernel:run_kernel_batch"]
        seeding = sum(k[2] - k[1] for k in kids if k[0] == "simulation.rng:stream_seed")
        if not kernels:
            continue
        seed_s += seeding
        setup_s += (kernels[0][1] - s[1]) - seeding
        loop_s += sum(k[2] - k[1] for k in kernels)
        fin_s += s[2] - kernels[-1][2]
    return {
        "simulation.rng.seed_us_per_unit": 1e6 * seed_s / units,
        "simulation.compiled.batch_setup_us_per_unit": 1e6 * setup_s / units,
        "simulation.compiled.finalize_us_per_unit": 1e6 * fin_s / units,
        "simulation._kernel.loop_s": loop_s / n_rounds,
        "simulation._kernel.events_per_s": events / loop_s if loop_s else 0.0,
    }


def _row_digest(store, cols: dict[str, np.ndarray]) -> str:
    """SHA-256 over every column but ``wall_s``, rows in unit order."""
    order = np.argsort(cols["unit"], kind="stable")
    h = hashlib.sha256()
    for name in store.columns:
        if name == "wall_s":
            continue
        h.update(name.encode())
        h.update(np.ascontiguousarray(cols[name][order]).tobytes())
    return h.hexdigest()


class FleetShort(Fleet):
    name = "fleet_short"
    horizon = 10.0
    reps = 250
    n_workers = 2
    traced_workers = 1
    n_python_checks = 8


class FleetLong(Fleet):
    name = "fleet_long"
    horizon = 1000.0
    reps = 200
    n_workers = 2
    traced_workers = 2
    n_python_checks = 2

    def layer_metrics(self, tracer: Tracer, rounds: list[dict[str, Any]]) -> dict[str, float]:
        """Pool workers run untraced, so the in-kernel split comes from a
        serial traced sample of the same grid (16 units per scenario),
        scaled to the round's event count for ``loop_s``. The pool start
        is the wall time of a pooled fleet with one 2-unit chunk per
        worker."""
        out = super().layer_metrics(tracer, rounds)
        sample_reps = 16
        sample = self.workdir / f"{self.name}-sample"
        tracer.clear()
        with traced(tracer):
            self._fleet(sample, self.scenarios, sample_reps, 1)
        events = int(results_store.FleetStore.open(sample).read(["n_events"])["n_events"].sum())
        shutil.rmtree(sample, ignore_errors=True)
        out.update(batch_split(tracer, len(self.scenarios) * sample_reps, events, 1))
        tracer.clear()
        round_events = statistics.median(r["events"] for r in rounds)
        out["simulation._kernel.loop_s"] = round_events / out["simulation._kernel.events_per_s"]

        tiny = [dataclasses.replace(self.scenarios[0], horizon=10.0)]
        pool = self.workdir / "pool-start"

        def pool_start() -> None:
            self._fleet(pool, tiny, 2 * self.n_workers, self.n_workers, batch_size=2)
            shutil.rmtree(pool, ignore_errors=True)

        out["simulation.fleet.pool_start_s"] = _median_wall(pool_start)
        return out


# ---------------------------------------------------------------------------
# replications
# ---------------------------------------------------------------------------


class Replicate(Workload):
    """Fixed-count plus adaptive replications of ``canonical_cluster``."""

    name = "replicate"
    horizon = 2000.0
    reps = 24
    n_workers = 2
    traced_workers = 2
    # Met at the first stopping check, so the simulated count is the
    # same for every seed.
    target = dict(rel_ci=0.02, min_replications=8, max_replications=16, round_size=4)

    def build(self) -> None:
        self.cluster = common.canonical_cluster()
        self.workload = common.canonical_workload()
        self.precision = sim.PrecisionTarget(estimator="cv", **self.target)
        self.digest: str | None = None
        self.last: tuple[Any, Any] | None = None

    def warmup(self) -> None:
        self.run_round()

    def _fixed(self, reps: int, n_jobs: int, horizon: float | None = None):
        return sim.simulate_replications(
            self.cluster,
            self.workload,
            horizon=self.horizon if horizon is None else horizon,
            n_replications=reps,
            seed=self.seed,
            n_jobs=n_jobs,
        )

    def run_round(self) -> dict[str, Any]:
        self.n_rounds += 1
        t0 = clock()
        try:
            fixed = self._fixed(self.reps, self.n_workers)
            t1 = clock()
            adaptive = sim.simulate_replications_adaptive(
                self.cluster,
                self.workload,
                horizon=self.horizon,
                target=self.precision,
                seed=self.seed,
                n_jobs=self.n_workers,
            )
        except Exception as exc:  # a failed replication fails the whole call
            self.fail(f"{self.name}: {type(exc).__name__}: {exc}")
            return {"wall": clock() - t0, "units": 0, "events": 0, "failed": self.reps, "info": {}}
        wall = clock() - t0
        n_sim = int(adaptive.meta["adaptive"]["n_simulated"])
        events = sum(int(r["n_events"]) for r in fixed.meta["replications"])
        events += sum(int(r["n_events"]) for r in adaptive.meta["replications"])

        self.attempted_checks += 2
        digest = _result_digest(fixed)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.mismatch(f"{self.name}: replicated result changed between rounds of one seed")
        # The adaptive engine's replications are a prefix of the same
        # seed's fixed-count replications.
        n_common = min(int(adaptive.n_replications), self.reps)
        if any(
            _result_digest_one(a) != _result_digest_one(f)
            for a, f in zip(adaptive.replications[:n_common], fixed.replications[:n_common])
        ):
            self.mismatch(f"{self.name}: adaptive replications differ from the fixed-count prefix")
        self.last = (fixed, adaptive)
        busy = sum(r["wall_time_s"] for r in fixed.meta["replications"])
        return {
            "wall": wall,
            "units": self.reps + n_sim,
            "events": events,
            "failed": 0,
            "info": {
                "fixed_wall": t1 - t0,
                "fixed_meta_wall": float(fixed.meta["wall_time_s"]),
                "busy_s": busy,
                "n_simulated": n_sim,
            },
        }

    def check(self) -> None:
        """Re-run one sampled replication on the pure-Python engine."""
        fixed, _ = self.last
        index = int(np.random.default_rng([self.seed, 2]).integers(self.reps))
        seed = RngStreams.replication_seeds(self.seed, self.reps)[index]
        self.attempted_checks += 1
        res = _python_engine(
            sim.simulate, self.cluster, self.workload, horizon=self.horizon, seed=seed
        )
        if _result_digest_one(res) != _result_digest_one(fixed.replications[index]):
            self.mismatch(f"{self.name}: replication {index} differs from the Python engine")

    def attribution(self) -> dict[str, Any]:
        fixed = self.last[0] if self.last else None
        return {
            "backend": os.environ["REPRO_SIM_BACKEND"],
            "workers": self.n_workers,
            "replication_backend": fixed.meta.get("backend") if fixed else None,
        }

    def layer_metrics(self, tracer: Tracer, rounds: list[dict[str, Any]]) -> dict[str, float]:
        """Pool workers run untraced: the unit compiled path is split on
        a serial traced sample of two replications, and the pool start is
        the wall time of a pooled two-replication call at horizon 5."""
        info = [r["info"] for r in rounds]
        tracer.clear()
        with traced(tracer):
            sample = self._fixed(2, 1)
        setup = loop = 0.0
        spans = tracer.spans
        for i, s in enumerate(spans):
            if s[0] != "simulation.compiled:maybe_simulate_compiled":
                continue
            kernels = [k for k in spans if k[3] == i and k[0] == "simulation._kernel:run_kernel"]
            if kernels:
                setup += kernels[0][1] - s[1]
                loop += sum(k[2] - k[1] for k in kernels)
        tracer.clear()
        events = sum(int(r.meta.get("n_events", 0)) for r in sample.replications)
        events_per_s = events / loop if loop else 0.0
        round_events = statistics.median(r["events"] for r in rounds)
        return {
            "simulation.compiled.unit_setup_us_per_rep": 1e6 * setup / 2,
            "simulation._kernel.events_per_s": events_per_s,
            "simulation._kernel.loop_s": round_events / events_per_s if loop else 0.0,
            "simulation.parallel.pool_start_s": _median_wall(
                lambda: self._fixed(2, self.n_workers, horizon=5.0)
            ),
            "simulation.parallel.worker_busy_frac": statistics.median(
                i["busy_s"] / (self.n_workers * i["fixed_wall"]) for i in info
            ),
            "simulation.replications.aggregate_ms": 1e3
            * statistics.median(i["fixed_wall"] - i["fixed_meta_wall"] for i in info),
            "simulation.adaptive.n_simulated": float(info[-1]["n_simulated"]),
        }


_RESULT_FIELDS = (
    "n_completed",
    "delays",
    "delay_std",
    "delay_ci",
    "station_waits",
    "station_sojourns",
    "utilizations",
    "average_power",
    "energy_per_request",
    "per_class_dynamic_energy",
)


def _result_digest_one(res) -> str:
    h = hashlib.sha256()
    for name in _RESULT_FIELDS:
        h.update(np.ascontiguousarray(np.asarray(getattr(res, name), dtype=np.float64)).tobytes())
    h.update(str(int(res.meta.get("n_events", 0))).encode())
    return h.hexdigest()


def _result_digest(rep) -> str:
    h = hashlib.sha256()
    for name in ("delays", "delays_ci", "mean_delay", "mean_delay_ci", "utilizations",
                 "average_power", "average_power_ci", "energy_per_request"):
        h.update(np.ascontiguousarray(np.asarray(getattr(rep, name), dtype=np.float64)).tobytes())
    for r in rep.replications:
        h.update(_result_digest_one(r).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


class Optimize(Workload):
    """P1 frontier, P2b solves and a P3 solve on ``canonical_cluster``.

    The seed draws the inputs from the level grids of the committed
    reference: the P1 frontier starts cold at the largest budget and
    continues warm down through one budget per lower cell; P2b solves
    cold at one SLA tightness per cell; P3 solves at one tightness.
    """

    name = "optimize"
    n_starts = 3

    def build(self) -> None:
        self.cluster = common.canonical_cluster()
        self.workload = common.canonical_workload()
        ref = json.loads(REFERENCE.read_text())
        self.rtol = float(ref["rtol"])
        rng = np.random.default_rng([self.seed, 3])
        drawn = [cell[rng.integers(len(cell))] for cell in ref["p1"][:-1]]
        self.p1 = [ref["p1"][-1][-1], *drawn[::-1]]
        self.p2b = [cell[rng.integers(len(cell))] for cell in ref["p2b"]]
        self.p3 = ref["p3"][rng.integers(len(ref["p3"]))]
        self.info: dict[str, Any] = {}

    def warmup(self) -> None:
        """One single-start solve of each kind, so lazy imports and
        first-call costs land in set-up."""
        c, w = self.cluster, self.workload
        opt_delay.minimize_delay(c, w, power_budget=self.p1[0]["budget"], n_starts=1)
        sla = common.canonical_sla(self.p2b[0]["tightness"])
        opt_energy.minimize_energy(c, w, sla=sla, n_starts=1)
        sla = common.canonical_sla(self.p3["tightness"])
        opt_cost.minimize_cost(c, w, sla, optimize_speeds=False)

    def _p1(self, budget: float, hint):
        return opt_delay.minimize_delay(
            self.cluster, self.workload, power_budget=float(budget),
            n_starts=self.n_starts, x0_hint=hint,
        )

    def run_round(self) -> dict[str, Any]:
        self.n_rounds += 1
        t0 = clock()
        frontier = sweep.continuation_sweep(self._p1, [p["budget"] for p in self.p1], label="p1")
        energy = [
            opt_energy.minimize_energy(
                self.cluster, self.workload, sla=common.canonical_sla(p["tightness"]),
                n_starts=self.n_starts,
            )
            for p in self.p2b
        ]
        alloc = opt_cost.minimize_cost(
            self.cluster, self.workload, common.canonical_sla(self.p3["tightness"])
        )
        wall = clock() - t0
        failed = self._check_round(frontier.points, energy, alloc)
        p3_speed = alloc.meta.get("speed_optimization")
        evals = frontier.total_evaluations + sum(r.n_evaluations for r in energy)
        evals += alloc.n_evaluations + (p3_speed.n_evaluations if p3_speed is not None else 0)
        warm = [p for p in frontier.points if p.warm]
        self.info = {
            "warm": len(warm),
            "accepted": sum(1 for p in warm if p.accepted),
            "feasibility_evals": int(alloc.meta["evals"]),
            "evals_cached": int(alloc.meta["evals_cached"]),
        }
        return {
            "wall": wall,
            "units": len(self.p1) + len(self.p2b) + 1,
            "events": evals,
            "failed": failed,
            "info": dict(self.info),
        }

    def _close(self, value: float, ref: float) -> bool:
        return abs(value - ref) <= self.rtol * abs(ref)

    def _check_round(self, frontier, energy, alloc) -> int:
        failed = 0
        for point, ref in zip(frontier, self.p1):
            self.attempted_checks += 1
            r = point.result
            ok = (
                r is not None
                and r.success
                and r.meta["power"] <= ref["budget"] * (1 + 1e-9)
                and self._close(r.fun, ref["delay"])
            )
            if not ok:
                failed += 1
                self.fail(f"optimize: P1 at budget {ref['budget']:.6g} off its reference")
        for r, ref in zip(energy, self.p2b):
            self.attempted_checks += 1
            bounds = common.canonical_sla(ref["tightness"]).delay_bounds(self.workload)
            ok = (
                r.success
                and bool(np.all(r.meta["delays"] <= bounds * (1 + 1e-6)))
                and self._close(r.fun, ref["power"])
            )
            if not ok:
                failed += 1
                self.fail(f"optimize: P2b at tightness {ref['tightness']} off its reference")
        self.attempted_checks += 1
        ref = self.p3
        bounds = common.canonical_sla(ref["tightness"]).delay_bounds(self.workload)
        ok = (
            bool(np.all(alloc.delays <= bounds * (1 + 1e-6)))
            and alloc.server_counts.tolist() == ref["server_counts"]
            and self._close(alloc.total_cost, ref["total_cost"])
            and self._close(alloc.average_power, ref["power"])
        )
        if not ok:
            failed += 1
            self.fail(f"optimize: P3 at tightness {ref['tightness']} off its reference")
        return failed

    def check(self) -> None:
        """Every round already checks its results against the reference."""

    def attribution(self) -> dict[str, Any]:
        return {"workers": 1, "n_starts": self.n_starts}

    def layer_metrics(self, tracer: Tracer, rounds: list[dict[str, Any]]) -> dict[str, float]:
        n = len(rounds)
        batch_spans = [
            s for s in tracer.spans
            if s[0].startswith("core.batch_eval:")
            and (s[3] < 0 or not tracer.spans[s[3]][0].startswith("core.batch_eval:"))
        ]
        candidates = sum(s[4] for s in batch_spans)
        batch_s = sum(s[2] - s[1] for s in batch_spans)
        nfev = sum(s[4] for s in tracer.named("optimize.constrained:scipy_minimize"))
        info = rounds[-1]["info"]
        lookups = info["feasibility_evals"] + info["evals_cached"]
        return {
            "core.batch_eval.candidates": candidates / n,
            "core.batch_eval.us_per_candidate": 1e6 * batch_s / candidates if candidates else 0.0,
            "optimize.constrained.nfev": nfev / n,
            "optimize.sweep.warm_accept_frac": (
                info["accepted"] / info["warm"] if info["warm"] else 0.0
            ),
            "core.opt_cost.feasibility_evals": float(info["feasibility_evals"]),
            "core.opt_cost.memo_hit_frac": info["evals_cached"] / lookups if lookups else 0.0,
        }


WORKLOADS = {w.name: w for w in (FleetShort, FleetLong, Replicate, Optimize)}
