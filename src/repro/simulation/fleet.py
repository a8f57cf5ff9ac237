"""Fleet-scale sweep runner: thousands of (scenario × replication) units.

The replication engine in :mod:`repro.simulation.replications` is
shaped for *one* scenario at a time; a policy-evaluation grid in the
style of Neely's trace-driven studies is thousands of independent
units spanning many scenarios, where static per-scenario chunking
leaves workers idle whenever scenarios have unequal cost (higher load
⇒ more events ⇒ slower units). :func:`run_fleet` cuts the flat unit
index space into ``(scenario, rep0, count)`` chunks, each one task on
the shared :class:`~repro.simulation.parallel.WorkerPool` (work
stealing: each worker takes the next chunk the moment it goes idle).
A chunk runs its replications through one batched
:func:`~repro.simulation.compiled.maybe_simulate_fleet_batch` kernel
call (falling back to unit-at-a-time
:func:`~repro.simulation.simulator.simulate` when the batch path does
not apply), and its rows come back as schema-dtyped column arrays that
are appended to a :class:`~repro.simulation.results_store.FleetStore`
— no per-run pickles, one queryable artifact per sweep.

Two layers keep the path batch-native end to end:

* **Chunked dispatch** — work units travel as ``(scenario, rep0,
  count)`` chunks (never crossing a scenario boundary), auto-sized
  from the grid shape and worker count or pinned with ``batch_size``;
  the simulation backend is resolved once in :func:`run_fleet` and
  pinned in every worker instead of re-read from the environment per
  unit.
* **Batched kernel dispatch** — a chunk of B replications of one
  scenario is a single C call: kernel state, station arrays and RNG
  arenas are allocated once and reset between replications, with the
  per-unit ``SeedSequence(seed, spawn_key=(scenario, replication))``
  streams preserved so every row is bit-identical to the
  unit-at-a-time path for any chunk size, worker count or steal order.

A chunk's columns travel back pickled, one message per chunk (a few
kilobytes at the default chunk sizes). A worker that dies costs only
the chunk it was running: its units are counted as failed and the
pool replaces the worker for the remaining chunks.

Determinism is scheduling-independent: unit ``(s, r)`` always runs
under ``SeedSequence(master_seed, spawn_key=(s, r))``, computed inside
the worker from the indices alone, so the stored rows are bit-identical
for any worker count, chunk size or steal order (rows are written in
completion order; the ``unit`` column recovers the canonical order).

Progress rides the existing telemetry seam: a throttled ``fleet.unit``
event plus a terminal ``fleet.done`` event flow through the global
tracer, land in ``progress.jsonl`` when the run is under
``--telemetry``, and surface in ``repro status``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro import obs
from repro.exceptions import ModelValidationError
from repro.simulation.compiled import resolve_backend
from repro.simulation.parallel import WorkerPool, resolve_n_jobs
from repro.simulation.results_store import FleetStore, _column_dtype
from repro.simulation.simulator import _mean_delay

__all__ = ["FleetScenario", "FleetSummary", "run_fleet", "fleet_columns"]

#: Largest replication chunk a single kernel call runs; beyond this the
#: per-call amortization is flat while failure blast radius and latency
#: to first result keep growing.
_MAX_BATCH = 64


@dataclass(frozen=True)
class FleetScenario:
    """One cell of a sweep grid: a cluster + workload + horizon.

    ``params`` carries the grid coordinates (e.g. ``{"load_factor":
    0.9}``) into the store manifest so queries can join metric rows
    back to what was swept.
    """

    label: str
    cluster: Any
    workload: Any
    horizon: float
    warmup_fraction: float = 0.1
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class FleetSummary:
    """What :func:`run_fleet` returns: the sweep's vital signs."""

    store_path: str
    n_scenarios: int
    n_replications: int
    n_units: int
    n_done: int
    n_failed: int
    n_workers: int
    wall_time_s: float
    units_per_sec: float


def fleet_columns(n_classes: int) -> tuple[str, ...]:
    """The store schema for a fleet over ``n_classes``-class scenarios."""
    return (
        "unit",
        "scenario",
        "replication",
        "n_events",
        "n_completed",
        "mean_delay",
        *(f"delay_c{k}" for k in range(n_classes)),
        "average_power",
        "energy_per_request",
        "wall_s",
    )


def _unit_seed(master_seed: int, scenario: int, replication: int) -> np.random.SeedSequence:
    """The deterministic per-unit seed, computable from indices alone."""
    return np.random.SeedSequence(master_seed, spawn_key=(scenario, replication))


def _resolve_batch_size(
    batch_size: int | str, n_replications: int, n_units: int, n_workers: int
) -> int:
    """Pin or auto-size the replication chunk.

    Auto sizing balances two pressures: big chunks amortize the
    per-call kernel setup (the point of batching), while the pool needs
    enough chunks in flight that work stealing can still level uneven
    scenario costs — so the parallel path caps chunks at roughly eight
    per worker across the whole grid.
    """
    if batch_size == "auto":
        if n_workers == 1:
            return max(1, min(n_replications, _MAX_BATCH))
        return max(1, min(n_replications, _MAX_BATCH, math.ceil(n_units / (n_workers * 8))))
    if not isinstance(batch_size, int) or isinstance(batch_size, bool) or batch_size < 1:
        raise ModelValidationError(
            f"batch_size must be a positive integer or 'auto', got {batch_size!r}"
        )
    return min(batch_size, n_replications)


def _chunk_plan(
    n_scenarios: int, n_replications: int, batch: int
) -> list[tuple[int, int, int]]:
    """Split the unit grid into ``(scenario, rep0, count)`` chunks.

    Chunks never cross a scenario boundary (a batched kernel call runs
    one scenario), so the last chunk of each scenario may be short.
    """
    chunks: list[tuple[int, int, int]] = []
    for sid in range(n_scenarios):
        rep0 = 0
        while rep0 < n_replications:
            count = min(batch, n_replications - rep0)
            chunks.append((sid, rep0, count))
            rep0 += count
    return chunks


def _run_chunk(
    sc: FleetScenario,
    master_seed: int,
    n_replications: int,
    sid: int,
    rep0: int,
    count: int,
    backend: str,
) -> tuple[list[int], dict[str, np.ndarray], list[tuple[int, str]]]:
    """Run one chunk of replications of one scenario.

    Tries the batched compiled path first (one kernel call for the
    whole chunk); falls back to unit-at-a-time :func:`simulate` for the
    python backend, an unknown discipline or a missing toolchain.
    Either way the rows are bit-identical.

    Returns ``(ok_units, columns, failures)``: the absolute unit ids
    that succeeded, their rows as schema-dtyped column arrays (row i =
    ``ok_units[i]``), and ``(unit, "ExcType: message")`` failure pairs.
    """
    from repro.simulation import compiled
    from repro.simulation.simulator import simulate

    base_unit = sid * n_replications + rep0
    seeds = [_unit_seed(master_seed, sid, rep0 + j) for j in range(count)]
    batch = None
    if backend != "python":
        start = time.perf_counter()
        try:
            batch = compiled.maybe_simulate_fleet_batch(
                backend, sc.cluster, sc.workload, sc.horizon, sc.warmup_fraction, seeds
            )
        except Exception as exc:
            # Scenario-level rejection (validation, instability): every
            # unit of the chunk fails with the message the unit path
            # would have raised per unit.
            msg = f"{type(exc).__name__}: {exc}"
            return [], {}, [(base_unit + j, msg) for j in range(count)]
    if batch is not None:
        fields, failures = batch
        ok = fields["index"].tolist()
        walls = [(time.perf_counter() - start) / count] * len(ok)
    else:
        ok, walls, results, failures = [], [], [], []
        for j, seed in enumerate(seeds):
            start = time.perf_counter()
            try:
                res = simulate(
                    sc.cluster,
                    sc.workload,
                    horizon=sc.horizon,
                    warmup_fraction=sc.warmup_fraction,
                    seed=seed,
                )
            except Exception as exc:
                failures.append((j, f"{type(exc).__name__}: {exc}"))
                continue
            walls.append(time.perf_counter() - start)
            ok.append(j)
            results.append(res)
        fields = {
            "n_events": [r.meta["n_events"] for r in results],
            "n_completed": np.array([r.n_completed for r in results]),
            "delays": np.array([r.delays for r in results]),
            "average_power": [r.average_power for r in results],
            "energy_per_request": [r.energy_per_request for r in results],
        }
    n_classes = len(tuple(sc.workload.names))
    n_completed = fields["n_completed"].reshape(len(ok), n_classes)
    delays = fields["delays"].reshape(len(ok), n_classes)
    cols: dict[str, Any] = {
        "unit": [base_unit + j for j in ok],
        "scenario": [sid] * len(ok),
        "replication": [rep0 + j for j in ok],
        "n_events": fields["n_events"],
        "n_completed": n_completed.sum(axis=1),
        "mean_delay": [_mean_delay(c, d) for c, d in zip(n_completed, delays)],
        "average_power": fields["average_power"],
        "energy_per_request": fields["energy_per_request"],
        "wall_s": walls,
    }
    for k in range(n_classes):
        cols[f"delay_c{k}"] = delays[:, k]
    columns = {c: np.asarray(cols[c], dtype=_column_dtype(c)) for c in fleet_columns(n_classes)}
    return [base_unit + j for j in ok], columns, [(base_unit + j, m) for j, m in failures]


def run_fleet(
    scenarios: list[FleetScenario],
    n_replications: int,
    out: str | os.PathLike,
    *,
    seed: int = 0,
    n_jobs: int | None = None,
    backend: str | None = None,
    batch_size: int | str = "auto",
    rows_per_group: int = 4096,
    store_format: str | None = None,
    progress: Callable[[int, int, int], None] | None = None,
    progress_every: float = 0.5,
) -> FleetSummary:
    """Run a (scenario × replication) sweep into one columnar store.

    Parameters
    ----------
    scenarios:
        The sweep grid. All scenarios must share one class structure
        (same class names) — the store schema is rectangular.
    n_replications:
        Independent replications per scenario; unit ``u`` maps to
        ``(scenario, replication) = divmod(u, n_replications)``.
    out:
        Directory the :class:`FleetStore` is created in (must not
        already hold a store).
    seed:
        Master seed; unit seeds are ``SeedSequence(seed,
        spawn_key=(scenario, replication))`` regardless of scheduling.
    n_jobs:
        Worker processes (``None``/``1`` serial, ``-1`` all cores),
        same convention as the replication engine.
    backend:
        Simulation backend for the workers (``python`` / ``compiled``
        / ``auto``); default inherits ``REPRO_SIM_BACKEND``. Resolved
        once here and threaded explicitly.
    batch_size:
        Replications per kernel call / work-stealing chunk (chunks
        never cross a scenario boundary). ``"auto"`` (default) sizes
        from the grid shape and worker count; any positive int pins
        it. Rows are bit-identical for every value.
    progress:
        Optional ``progress(n_done, n_failed, n_units)`` callback,
        invoked at most every ``progress_every`` seconds plus once at
        the end.

    Returns a :class:`FleetSummary`; the rows live in the store at
    ``out``.
    """
    if not scenarios:
        raise ModelValidationError("run_fleet needs at least one scenario")
    if n_replications < 1:
        raise ModelValidationError(
            f"need at least one replication per scenario, got {n_replications}"
        )
    class_names = tuple(scenarios[0].workload.names)
    for sc in scenarios[1:]:
        if tuple(sc.workload.names) != class_names:
            raise ModelValidationError(
                "fleet scenarios must share one class structure "
                f"({sc.label!r} has {tuple(sc.workload.names)}, "
                f"expected {class_names})"
            )
    resolved_backend = resolve_backend(
        backend if backend is not None else os.environ.get("REPRO_SIM_BACKEND")
    )
    n_units = len(scenarios) * n_replications
    n_workers = resolve_n_jobs(n_jobs)
    batch = _resolve_batch_size(batch_size, n_replications, n_units, n_workers)
    chunks = _chunk_plan(len(scenarios), n_replications, batch)
    columns = fleet_columns(len(class_names))
    store = FleetStore.create(
        out,
        columns,
        meta={
            "seed": seed,
            "n_replications": n_replications,
            "class_names": list(class_names),
            "backend": resolved_backend,
            "batch_size": batch,
            "transport": "inline" if n_workers == 1 else "pickle",
            "scenarios": [
                {
                    "scenario": i,
                    "label": sc.label,
                    "horizon": sc.horizon,
                    "warmup_fraction": sc.warmup_fraction,
                    "params": dict(sc.params),
                }
                for i, sc in enumerate(scenarios)
            ],
        },
        rows_per_group=rows_per_group,
        fmt=store_format,
    )

    start = time.perf_counter()
    n_done = 0
    n_failed = 0
    failures: list[tuple[int, str]] = []
    last_report = 0.0

    def report(force: bool = False) -> None:
        nonlocal last_report
        now = time.perf_counter()
        if not force and now - last_report < progress_every:
            return
        last_report = now
        obs.event(
            "fleet.unit",
            n_done=n_done,
            n_failed=n_failed,
            n_total=n_units,
            units_per_sec=n_done / max(now - start, 1e-9),
        )
        if progress is not None:
            progress(n_done, n_failed, n_units)

    tasks = [
        (scenarios[sid], seed, n_replications, sid, rep0, count, resolved_backend)
        for sid, rep0, count in chunks
    ]
    with obs.span(
        "fleet.run", n_units=n_units, n_workers=n_workers, batch_size=batch
    ), WorkerPool(n_workers, backend=resolved_backend) as pool:
        try:
            for i, ok, value in pool.run(_run_chunk, tasks):
                if ok:
                    ok_units, cols, chunk_failures = value
                else:  # the chunk raised outside the unit loop, or its worker died
                    sid, rep0, count = chunks[i]
                    base = sid * n_replications + rep0
                    msg = f"{type(value).__name__}: {value}"
                    ok_units, chunk_failures = [], [(base + j, msg) for j in range(count)]
                if ok_units:
                    store.append_columns(cols)
                    n_done += len(ok_units)
                    if n_workers > 1:
                        # Workers' counters die with them; inline chunks
                        # already counted their events.
                        obs.counter("sim.events").add(int(cols["n_events"].sum()))
                n_failed += len(chunk_failures)
                failures.extend(chunk_failures)
                report()
        finally:
            wall = time.perf_counter() - start
            store.close(
                extra_meta={
                    "n_done": n_done,
                    "n_failed": n_failed,
                    "failures": failures[:32],
                    "n_workers": n_workers,
                    "wall_time_s": wall,
                }
            )
    report(force=True)
    obs.event(
        "fleet.done",
        n_done=n_done,
        n_failed=n_failed,
        n_total=n_units,
        wall_s=wall,
    )
    obs.counter("fleet.units").add(n_done)
    return FleetSummary(
        store_path=str(store.path),
        n_scenarios=len(scenarios),
        n_replications=n_replications,
        n_units=n_units,
        n_done=n_done,
        n_failed=n_failed,
        n_workers=n_workers,
        wall_time_s=wall,
        units_per_sec=n_done / max(wall, 1e-9),
    )

