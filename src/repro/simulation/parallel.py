"""Pluggable execution backends for independent replications.

The replication manager (:mod:`repro.simulation.replications`) needs to
run ``n`` statistically independent :func:`repro.simulation.simulator.simulate`
calls. Each call is a pure function of its
:class:`numpy.random.SeedSequence`, so the calls can execute anywhere —
in-process, across a process pool, eventually across machines — without
changing the numbers. This module owns that "anywhere": a tiny backend
protocol with two implementations,

* :class:`SerialBackend` — a plain in-process loop (zero overhead, the
  default), and
* :class:`ProcessPoolBackend` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out for multi-core machines.

Both return results **indexed by replication number**, so aggregation
downstream is bit-identical regardless of worker count or completion
order. Per-replication wall time and event throughput are measured
inside the worker and travel back with the result.

Both backends also expose :meth:`~SerialBackend.session` for
**incremental dispatch**: the adaptive engine
(:mod:`repro.simulation.adaptive`) submits one *round* of payloads,
collects it, decides whether the precision target is met, and submits
the next round — all against one live worker pool instead of paying
process start-up per round.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import ModelValidationError
from repro.simulation.simulator import SimulationResult, simulate

__all__ = [
    "ReplicationTiming",
    "SerialBackend",
    "ProcessPoolBackend",
    "SerialSession",
    "PoolSession",
    "resolve_n_jobs",
    "get_backend",
    "payload_is_picklable",
]


@dataclass
class ReplicationTiming:
    """Observability record for one replication.

    ``events_per_sec`` is the simulator's event-loop throughput
    (``meta["n_events"] / wall_time_s``); ``cached`` marks results that
    were loaded from the on-disk cache instead of being simulated.
    """

    index: int
    wall_time_s: float
    n_events: int
    cached: bool = False

    @property
    def events_per_sec(self) -> float:
        """Event-loop throughput of this replication (0 when cached)."""
        if self.wall_time_s <= 0.0 or self.cached:
            return 0.0
        return self.n_events / self.wall_time_s

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for ``ReplicatedResult.meta``."""
        return {
            "index": self.index,
            "wall_time_s": self.wall_time_s,
            "n_events": self.n_events,
            "events_per_sec": self.events_per_sec,
            "cached": self.cached,
        }


def _run_one(payload: tuple[int, dict[str, Any]]) -> tuple[int, SimulationResult, float]:
    """Worker entry point: run one replication, timed.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can
    pickle it; ``payload`` is ``(replication_index, simulate_kwargs)``.
    """
    index, kwargs = payload
    t0 = time.perf_counter()
    result = simulate(**kwargs)
    return index, result, time.perf_counter() - t0


def _warm_worker(backend: str | None = None, warned: tuple[str, ...] = ()) -> None:
    """Process-pool initializer: pay per-process warm-up once, up front.

    A fresh worker's first replication otherwise absorbs every one-time
    cost inside its timed window: importing the distribution and
    statistics modules, priming the Student-t quantile memo the CI
    math uses, and — when ``REPRO_SIM_BACKEND`` selects the compiled
    backend — building/loading the C kernel shared object. This is
    pure warm-up: it instantiates no generators and draws no random
    numbers, so replication results are bit-identical with and without
    it (``tests/test_compiled_backend.py`` holds it to that).

    ``backend`` pins ``REPRO_SIM_BACKEND`` in the worker explicitly so
    the selection survives spawn-based start methods that do not
    inherit the parent's mutated environment.

    ``warned`` seeds the worker's :class:`CompiledFallbackWarning`
    dedup memory with the fallback reasons the parent process already
    surfaced, so a pool does not re-emit one warning per worker for a
    condition the user has already been told about (once per *pool*,
    not once per worker).
    """
    if backend is not None:
        os.environ["REPRO_SIM_BACKEND"] = backend
    import repro.distributions  # noqa: F401  (sampler classes)
    import repro.simulation.stats  # noqa: F401  (Welford / CI math)

    if warned:
        from repro.simulation import compiled

        compiled._warned.update(warned)
    if os.environ.get("REPRO_SIM_BACKEND", "python") != "python":
        from repro.simulation.compiled import kernel_available

        kernel_available()


def _warned_snapshot() -> tuple[str, ...]:
    """The parent's already-surfaced fallback reasons, for worker
    inheritance — without forcing the compiled module to import."""
    compiled = sys.modules.get("repro.simulation.compiled")
    if compiled is None:
        return ()
    return tuple(sorted(compiled._warned))


def payload_is_picklable(payload: Any) -> bool:
    """Whether a replication payload can cross a process boundary.

    Custom arrival processes built on closures (e.g.
    :class:`repro.workload.arrivals.NonHomogeneousPoisson` with a
    lambda rate function) cannot be pickled; the replication manager
    falls back to the serial backend for those instead of crashing.
    """
    try:
        pickle.dumps(payload)
        return True
    except Exception:
        return False


class SerialSession:
    """Incremental-dispatch session over the in-process loop.

    Context manager; :meth:`run` may be called any number of times.
    """

    def __enter__(self) -> "SerialSession":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def run(
        self,
        payloads: list[tuple[int, dict[str, Any]]],
        on_done: Callable[[int, SimulationResult, float], None] | None = None,
    ) -> dict[int, tuple[SimulationResult, float]]:
        """Execute one round of payloads; returns ``{index: (result, wall_s)}``."""
        out: dict[int, tuple[SimulationResult, float]] = {}
        for payload in payloads:
            index, result, wall = _run_one(payload)
            out[index] = (result, wall)
            if on_done is not None:
                on_done(index, result, wall)
        return out


class PoolSession:
    """Incremental-dispatch session over one live process pool.

    The executor is created lazily on the first non-empty round and
    reused by every subsequent :meth:`run` call, so a multi-round
    adaptive run pays worker start-up once, not per round. With
    ``warm_start`` (the default) each worker runs :func:`_warm_worker`
    on start-up, so one-time import/kernel-build costs never land
    inside a replication's timed window; results are identical either
    way.
    """

    def __init__(self, n_workers: int, warm_start: bool = True):
        self.n_workers = n_workers
        self.warm_start = warm_start
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> "PoolSession":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def run(
        self,
        payloads: list[tuple[int, dict[str, Any]]],
        on_done: Callable[[int, SimulationResult, float], None] | None = None,
    ) -> dict[int, tuple[SimulationResult, float]]:
        """Execute one round of payloads; returns ``{index: (result, wall_s)}``.

        Blocks until the whole round finishes — the adaptive stopping
        decision needs the round's results before choosing whether to
        submit another.
        """
        out: dict[int, tuple[SimulationResult, float]] = {}
        if not payloads:
            return out
        if self._pool is None:
            if self.warm_start:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    initializer=_warm_worker,
                    initargs=(
                        os.environ.get("REPRO_SIM_BACKEND"),
                        _warned_snapshot(),
                    ),
                )
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        pending = {self._pool.submit(_run_one, p) for p in payloads}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                index, result, wall = fut.result()
                out[index] = (result, wall)
                if on_done is not None:
                    on_done(index, result, wall)
        return out


class SerialBackend:
    """Run replications one after another in the calling process."""

    name = "serial"

    def run(
        self,
        payloads: list[tuple[int, dict[str, Any]]],
        on_done: Callable[[int, SimulationResult, float], None] | None = None,
    ) -> dict[int, tuple[SimulationResult, float]]:
        """Execute every payload; returns ``{index: (result, wall_s)}``."""
        return SerialSession().run(payloads, on_done)

    def session(self) -> SerialSession:
        """A (trivial) incremental-dispatch session."""
        return SerialSession()


class ProcessPoolBackend:
    """Fan replications out over a :class:`ProcessPoolExecutor`.

    Results are keyed by replication index, so callers aggregate in a
    deterministic order no matter which worker finishes first.
    """

    name = "process"

    def __init__(self, n_workers: int, warm_start: bool = True):
        if n_workers < 1:
            raise ModelValidationError(f"need at least one worker, got {n_workers}")
        self.n_workers = n_workers
        self.warm_start = warm_start

    def run(
        self,
        payloads: list[tuple[int, dict[str, Any]]],
        on_done: Callable[[int, SimulationResult, float], None] | None = None,
    ) -> dict[int, tuple[SimulationResult, float]]:
        """Execute every payload; returns ``{index: (result, wall_s)}``."""
        # One-shot runs know the payload count up front, so the pool is
        # right-sized; a session cannot and always uses n_workers.
        with PoolSession(
            min(self.n_workers, max(len(payloads), 1)), warm_start=self.warm_start
        ) as session:
            return session.run(payloads, on_done)

    def session(self) -> PoolSession:
        """An incremental-dispatch session with a persistent pool."""
        return PoolSession(self.n_workers, warm_start=self.warm_start)


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request into a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` (or ``0``) means "all
    cores"; anything else is taken literally.
    """
    if n_jobs is None:
        return 1
    if int(n_jobs) != n_jobs:
        raise ModelValidationError(f"n_jobs must be an integer, got {n_jobs}")
    n_jobs = int(n_jobs)
    if n_jobs in (0, -1):
        return os.cpu_count() or 1
    if n_jobs < -1:
        raise ModelValidationError(f"n_jobs must be >= -1, got {n_jobs}")
    return n_jobs


def get_backend(n_jobs: int | None) -> SerialBackend | ProcessPoolBackend:
    """The backend matching a normalized ``n_jobs`` request."""
    n = resolve_n_jobs(n_jobs)
    if n <= 1:
        return SerialBackend()
    return ProcessPoolBackend(n)
