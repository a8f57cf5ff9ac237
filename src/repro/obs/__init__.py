"""repro.obs — unified telemetry: metrics, tracing, run manifests.

One process-wide :class:`Telemetry` instance (``repro.obs.TELEMETRY``)
bundles the three layers:

* :mod:`repro.obs.metrics` — counters / gauges / histograms / timers
  with a near-zero-cost disabled path;
* :mod:`repro.obs.trace` — nestable spans (wall + CPU time, tags) and
  point events with a stable JSONL schema;
* :mod:`repro.obs.manifest` — a run manifest (seed, canonical config
  fingerprint, version, host, span tree, metrics snapshot) written
  next to the event log.

Telemetry is **off by default**: every instrumented call site then
costs a null-object method call or a local clock read, nothing is
allocated per event, and nothing is written. The CLI's
``--telemetry PATH`` flag (or :func:`telemetry_session`) turns it on
for the duration of one run and finalizes the artifacts atomically:

    with telemetry_session("out/", command=argv):
        ...instrumented work...
    # out/events.jsonl + out/manifest.json now exist

``repro telemetry summarize out/`` renders the result.

Usage from library code::

    from repro import obs

    with obs.span("optimize.p1", n_starts=3) as sp:
        ...                       # sp.wall_s is valid afterwards
    obs.counter("sim.events").add(n_events)
    obs.event("replication", index=i, events_per_sec=rate)
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.obs.manifest import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    build_manifest,
    config_fingerprint,
    read_artifact,
    write_manifest,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.progress import (
    PROGRESS_FILENAME,
    ProgressSink,
    progress_snapshot,
    read_progress,
)
from repro.obs.sinks import InMemorySink, JsonlSink
from repro.obs.trace import EVENT_SCHEMA_VERSION, Span, Tracer

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENTS_FILENAME",
    "MANIFEST_FILENAME",
    "PROGRESS_FILENAME",
    "STORE_FILENAME",
    "TELEMETRY",
    "Telemetry",
    "telemetry_session",
    "span",
    "event",
    "counter",
    "gauge",
    "histogram",
    "timer",
    "is_enabled",
    "build_manifest",
    "config_fingerprint",
    "read_artifact",
    "write_manifest",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "ProgressSink",
    "progress_snapshot",
    "read_progress",
    "RunStore",
    "render_dashboard",
]

STORE_FILENAME = "runs.sqlite"


def __getattr__(name: str):
    # Lazy re-exports: the run store (sqlite3) and the dashboard
    # renderer are read-side tools; importing repro.obs for the
    # write-side instrumentation should not pay for them.
    if name == "RunStore":
        from repro.obs.store import RunStore

        return RunStore
    if name == "render_dashboard":
        from repro.obs.dashboard import render_dashboard

        return render_dashboard
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Telemetry:
    """The process-wide telemetry switchboard.

    Holds the metric registry, the tracer, the optional JSONL sink and
    the run context (seed / config / command) that ends up in the
    manifest. All state is reset by :meth:`disable`.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry(enabled=False)
        self.tracer = Tracer(enabled=False)
        self.out_dir: Path | None = None
        self.sample_queues = False
        self.queue_sample_interval = 1.0
        self.run_context: dict[str, Any] = {}
        self._jsonl: JsonlSink | None = None
        self._progress: ProgressSink | None = None

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def enable(
        self,
        out_dir: str | Path | None = None,
        *,
        sample_queues: bool = False,
        queue_sample_interval: float = 1.0,
    ) -> None:
        """Turn telemetry on, optionally streaming events to
        ``<out_dir>/events.jsonl`` (finalized atomically later).

        ``sample_queues`` additionally samples per-tier population and
        busy-server counts inside the simulator every
        ``queue_sample_interval`` simulated time units — useful detail,
        measurable cost, hence opt-in even within an enabled session.
        """
        self.disable()
        self.metrics.enabled = True
        self.tracer.enabled = True
        self.sample_queues = bool(sample_queues)
        self.queue_sample_interval = float(queue_sample_interval)
        if out_dir is not None:
            self.out_dir = Path(out_dir)
            self._jsonl = JsonlSink(self.out_dir / EVENTS_FILENAME)
            self.tracer.sinks.append(self._jsonl)
            # Live heartbeat stream for `repro status` — append-only,
            # flushed per line, readable while the run is in flight.
            self._progress = ProgressSink(self.out_dir / PROGRESS_FILENAME)
            self.tracer.sinks.append(self._progress)

    def annotate(self, **context: Any) -> None:
        """Stash run context (``seed=...``, ``config=...``, ...) for the
        manifest; a no-op while disabled."""
        if self.enabled:
            self.run_context.update(context)

    def finalize(self, command: list[str] | str | None = None) -> Path | None:
        """Write the manifest, atomically finalize the event log and
        return the manifest path (``None`` when no ``out_dir``)."""
        manifest = build_manifest(
            command=command if command is not None else self.run_context.get("command"),
            seed=self.run_context.get("seed"),
            config=self.run_context.get("config"),
            metrics_snapshot=self.metrics.snapshot(),
            spans=[s.as_dict() for s in self.tracer.roots],
            events_info={
                "emitted": self._jsonl.n_events,
                "dropped": self._jsonl.n_dropped,
            }
            if self._jsonl is not None
            else None,
            extra={
                k: v
                for k, v in self.run_context.items()
                if k not in ("seed", "config", "command")
            }
            or None,
        )
        path: Path | None = None
        if self._jsonl is not None:
            self._jsonl.finalize()
        if self._progress is not None:
            self._progress.close()
        if self.out_dir is not None:
            path = write_manifest(self.out_dir / MANIFEST_FILENAME, manifest)
        return path

    def disable(self) -> None:
        """Turn telemetry off and drop all collected state."""
        if self._jsonl is not None:
            self._jsonl.finalize()
            if self._jsonl in self.tracer.sinks:
                self.tracer.sinks.remove(self._jsonl)
            self._jsonl = None
        if self._progress is not None:
            self._progress.close()
            if self._progress in self.tracer.sinks:
                self.tracer.sinks.remove(self._progress)
            self._progress = None
        self.metrics.enabled = False
        self.metrics.reset()
        self.tracer.enabled = False
        self.tracer.sinks.clear()
        self.tracer.reset()
        self.out_dir = None
        self.sample_queues = False
        self.run_context = {}


TELEMETRY = Telemetry()


@contextmanager
def telemetry_session(
    out_dir: str | Path | None,
    *,
    command: list[str] | str | None = None,
    sample_queues: bool = False,
    queue_sample_interval: float = 1.0,
) -> Iterator[Telemetry]:
    """Enable global telemetry for one run and finalize on exit.

    Finalization happens even when the body raises, so a failed run
    still leaves a readable manifest + event log behind for diagnosis.
    """
    TELEMETRY.enable(
        out_dir,
        sample_queues=sample_queues,
        queue_sample_interval=queue_sample_interval,
    )
    if command is not None:
        TELEMETRY.run_context["command"] = command
    try:
        yield TELEMETRY
        TELEMETRY.finalize()
    except BaseException:
        TELEMETRY.finalize()
        raise
    finally:
        TELEMETRY.disable()


# -- module-level conveniences (the instrumented sites use these) -------
def span(name: str, **tags: Any) -> Span:
    """A span on the global tracer (measures even while disabled)."""
    return TELEMETRY.tracer.span(name, **tags)


def event(name: str, **fields: Any) -> None:
    """A point event on the global tracer (no-op while disabled)."""
    TELEMETRY.tracer.event(name, **fields)


def counter(name: str) -> Counter:
    """The global counter ``name`` (null object while disabled)."""
    return TELEMETRY.metrics.counter(name)


def gauge(name: str) -> Gauge:
    """The global gauge ``name`` (null object while disabled)."""
    return TELEMETRY.metrics.gauge(name)


def histogram(name: str) -> Histogram:
    """The global histogram ``name`` (null object while disabled)."""
    return TELEMETRY.metrics.histogram(name)


def timer(name: str) -> Histogram:
    """The global timer ``name`` — a histogram over wall seconds."""
    return TELEMETRY.metrics.timer(name)


def is_enabled() -> bool:
    """Whether global telemetry is currently on."""
    return TELEMETRY.enabled
