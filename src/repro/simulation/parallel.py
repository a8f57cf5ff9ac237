"""One worker pool for every fan-out.

Independent replications (:mod:`repro.simulation.replications`), fleet
chunks (:mod:`repro.simulation.fleet`) and analytic series
(:func:`repro.optimize.sweep.run_series`) are tasks whose results are
pure functions of their arguments, so they can run anywhere without
changing the numbers. :class:`WorkerPool` is the one place they run:
inline for a single worker, otherwise on long-lived worker processes.

Each worker runs :func:`_warm_worker` once, then loops on its own task
pipe: the parent sends one pickled ``(fn, args)`` task at a time and
the worker answers with a pickled ``(ok, value_or_exception)``. The
parent hands the next task to whichever worker answered, so fast
workers absorb slow tasks (work stealing). A worker that dies fails
only the task it held; a replacement is spawned for the tasks still
waiting, and the pool stays usable for the next :meth:`WorkerPool.run`
(the adaptive engine runs round after round on one pool).

Results arrive in completion order tagged with their task index;
callers key them by index, so aggregation is bit-identical for any
worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import numbers
import os
import pickle
import sys
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, Iterator

from repro.exceptions import ModelValidationError, WorkerLostError

__all__ = [
    "ReplicationTiming",
    "WorkerPool",
    "resolve_n_jobs",
    "payload_is_picklable",
]

_BACKEND_ENV = "REPRO_SIM_BACKEND"


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


def _warm_worker(backend: str | None = None, warned: tuple[str, ...] = ()) -> None:
    """Worker start-up: pay per-process warm-up once, up front.

    A fresh worker's first task otherwise absorbs every one-time cost
    inside its timed window: importing the distribution and statistics
    modules, priming the Student-t quantile memo the CI math uses, and
    — when ``REPRO_SIM_BACKEND`` selects the compiled backend —
    building/loading the C kernel shared object. This is pure warm-up:
    it instantiates no generators and draws no random numbers, so
    results are bit-identical to the inline loop
    (``tests/test_compiled_backend.py`` holds it to that).

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
        os.environ[_BACKEND_ENV] = backend
    import repro.distributions  # noqa: F401  (sampler classes)
    import repro.simulation.stats  # noqa: F401  (Welford / CI math)

    if warned:
        from repro.simulation import compiled

        compiled._warned.update(warned)
    if os.environ.get(_BACKEND_ENV, "python") != "python":
        from repro.simulation.compiled import kernel_available

        kernel_available()


def _warned_snapshot() -> tuple[str, ...]:
    """The parent's already-surfaced fallback reasons, for worker
    inheritance — without forcing the compiled module to import."""
    compiled = sys.modules.get("repro.simulation.compiled")
    if compiled is None:
        return ()
    return tuple(sorted(compiled._warned))


def _worker_main(conn: Any, backend: str | None, warned: tuple[str, ...]) -> None:
    """Worker process body: warm up once, then answer tasks until the
    parent sends ``None`` or goes away."""
    _warm_worker(backend, warned)
    while True:
        try:
            data = conn.recv_bytes()
        except EOFError:
            return
        try:
            task = pickle.loads(data)
            if task is None:
                return
            fn, args = task
            out = (True, fn(*args))
        except Exception as exc:
            out = (False, exc)
        try:
            reply = pickle.dumps(out)
        except Exception as exc:
            error = RuntimeError(f"{type(out[1]).__name__} answer cannot be pickled: {exc!r}")
            reply = pickle.dumps((False, error))
        conn.send_bytes(reply)


def payload_is_picklable(payload: Any) -> bool:
    """Whether a task payload can cross a process boundary.

    Custom arrival processes built on closures (e.g.
    :class:`repro.workload.arrivals.NonHomogeneousPoisson` with a
    lambda rate function) cannot be pickled; callers run those inline
    instead of crashing.
    """
    try:
        pickle.dumps(payload)
        return True
    except Exception:
        return False


class WorkerPool:
    """Run independent tasks inline or on ``n_workers`` worker processes.

    ``backend`` pins ``REPRO_SIM_BACKEND`` for the tasks: in each worker
    at start-up, and around the inline loop; ``None`` keeps the
    parent's setting. Workers start lazily, never more than the tasks
    in flight need, and live until :meth:`close` (use the pool as a
    context manager).
    """

    def __init__(self, n_workers: int, backend: str | None = None):
        if n_workers < 1:
            raise ModelValidationError(f"need at least one worker, got {n_workers}")
        self.n_workers = n_workers
        self.backend = backend
        self._procs: dict[Any, Any] = {}  # parent connection -> worker process
        self._held: dict[Any, int] = {}  # busy connection -> task index

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(
        self, fn: Callable[..., Any], args_list: Iterable[tuple[Any, ...]]
    ) -> Iterator[tuple[int, bool, Any]]:
        """Run ``fn(*args)`` for every ``args``.

        Yields ``(index, ok, value)`` in completion order: ``index`` is
        the position in ``args_list``, ``value`` the result, or the
        exception the task raised when ``ok`` is false. A worker that
        dies fails its task with :class:`WorkerLostError`. ``fn`` must
        be picklable (module-level) unless the pool has one worker.
        """
        tasks = list(enumerate(args_list))
        if self.n_workers == 1:
            return self._run_inline(fn, tasks)
        return self._run_pooled(fn, tasks)

    def _run_inline(self, fn, tasks) -> Iterator[tuple[int, bool, Any]]:
        prev = os.environ.get(_BACKEND_ENV)
        if self.backend is not None:
            os.environ[_BACKEND_ENV] = self.backend
        try:
            for i, args in tasks:
                try:
                    out = (i, True, fn(*args))
                except Exception as exc:
                    out = (i, False, exc)
                yield out
        finally:
            if self.backend is not None:
                if prev is None:
                    os.environ.pop(_BACKEND_ENV, None)
                else:
                    os.environ[_BACKEND_ENV] = prev

    def _run_pooled(self, fn, tasks) -> Iterator[tuple[int, bool, Any]]:
        tasks.reverse()  # pop() hands tasks out in order
        finished: list[tuple[int, bool, Any]] = []
        try:
            while True:
                # Hand out work before yielding, so no worker idles
                # while the caller folds the previous results.
                while tasks and (conn := self._idle()) is not None:
                    i, args = tasks.pop()
                    try:
                        conn.send((fn, args))
                    except Exception as exc:  # unpicklable task, or a dead worker
                        if isinstance(exc, OSError):
                            self._discard(conn)
                        finished.append((i, False, exc))
                    else:
                        self._held[conn] = i
                yield from finished
                if not self._held:  # every worker is idle, so no task is left
                    return
                finished = self._collect()
        finally:
            # An abandoned run must not leave stale answers in the pipes.
            for conn in list(self._held):
                self._discard(conn)

    def _idle(self) -> Any:
        """An idle worker's connection, spawning one if the pool has
        room; ``None`` when every worker is busy."""
        for conn in self._procs:
            if conn not in self._held:
                return conn
        if len(self._procs) == self.n_workers:
            return None
        ctx = mp.get_context()
        conn, child = ctx.Pipe()
        backend = self.backend if self.backend is not None else os.environ.get(_BACKEND_ENV)
        proc = ctx.Process(
            target=_worker_main, args=(child, backend, _warned_snapshot()), daemon=True
        )
        proc.start()
        child.close()
        self._procs[conn] = proc
        return conn

    def _collect(self) -> list[tuple[int, bool, Any]]:
        """Block until some busy worker answers or dies; return its
        task outcomes."""
        sentinels = {self._procs[conn].sentinel: conn for conn in self._held}
        ready = wait([*self._held, *sentinels])
        answered = {sentinels.get(r, r) for r in ready}
        finished = []
        for conn in answered:
            i = self._held.pop(conn)
            try:
                ok, value = pickle.loads(conn.recv_bytes())
            except (EOFError, OSError):
                proc = self._procs[conn]
                self._discard(conn)
                ok, value = False, WorkerLostError(
                    f"worker process {proc.pid} died (exit code {proc.exitcode}) "
                    f"while running task {i}"
                )
            except Exception as exc:  # an answer that pickles but does not unpickle
                ok, value = False, exc
            finished.append((i, ok, value))
        return finished

    def _discard(self, conn: Any) -> None:
        """Stop one worker (killing it if busy) and forget it."""
        proc = self._procs.pop(conn)
        self._held.pop(conn, None)
        proc.kill()
        proc.join()
        conn.close()

    def close(self) -> None:
        """Stop every worker: idle ones finish cleanly, busy ones are
        killed (their results are no longer wanted)."""
        for conn in list(self._held):
            self._discard(conn)
        for conn in self._procs:
            try:
                conn.send(None)
            except OSError:
                pass
        for conn, proc in self._procs.items():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
        self._procs.clear()


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request into a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` (or ``0``) means "all
    cores"; any other positive integer is taken literally. Booleans and
    non-integral values are rejected.
    """
    if n_jobs is None:
        return 1
    if not isinstance(n_jobs, numbers.Integral) or isinstance(n_jobs, bool):
        raise ModelValidationError(f"n_jobs must be an integer, got {n_jobs!r}")
    n_jobs = int(n_jobs)
    if n_jobs in (0, -1):
        return os.cpu_count() or 1
    if n_jobs < -1:
        raise ModelValidationError(f"n_jobs must be >= -1, got {n_jobs}")
    return n_jobs
