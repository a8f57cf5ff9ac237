"""Run manifests: the who/what/where record next to a JSONL event log.

A manifest makes a telemetry artifact self-describing: which package
version produced it, on what host, from which command, over which
configuration (identified by the same canonical SHA-256 fingerprint
the simulation cache uses, so "same fingerprint" means "same numbers"),
plus a final metrics snapshot and the tree of top-level spans.

Determinism contract: for a fixed seed and configuration the fields
``manifest_version``, ``package``, ``version``, ``command``, ``seed``
and ``config_fingerprint`` are identical run-to-run; timestamps, host
info, spans and metrics obviously are not.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import time
from pathlib import Path
from typing import Any

from repro._version import __version__
from repro.obs.trace import json_safe

__all__ = [
    "EVENTS_FILENAME",
    "MANIFEST_FILENAME",
    "MANIFEST_VERSION",
    "build_manifest",
    "config_fingerprint",
    "read_artifact",
    "write_manifest",
]

MANIFEST_VERSION = 1
EVENTS_FILENAME = "events.jsonl"
MANIFEST_FILENAME = "manifest.json"


def config_fingerprint(config: Any) -> str | None:
    """Canonical SHA-256 fingerprint of a configuration object.

    Reuses :func:`repro.simulation.cache._jsonable` — the cache's
    stable reduction of model objects to primitives — so a cluster +
    workload fingerprints identically here and in the replication
    cache. Returns ``None`` for objects that cannot be canonicalized
    (e.g. closure-based arrival-rate functions).
    """
    from repro.simulation.cache import CacheUnsupportedError, _jsonable

    if config is None:
        return None
    try:
        payload = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    except CacheUnsupportedError:
        return None
    return hashlib.sha256(payload.encode()).hexdigest()


def host_info() -> dict[str, Any]:
    """Where the run happened (reproducibility context, not identity)."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
    }


def build_manifest(
    *,
    command: list[str] | str | None = None,
    seed: int | None = None,
    config: Any = None,
    metrics_snapshot: dict[str, Any] | None = None,
    spans: list[dict[str, Any]] | None = None,
    events_info: dict[str, Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the manifest dict (pure data; writing is separate).

    Parameters
    ----------
    command:
        The CLI argv (or a label) that produced the run.
    seed:
        Master seed, when the run had one.
    config:
        The configuration object to fingerprint (any combination of
        model objects, e.g. ``{"cluster": c, "workload": w}``).
    metrics_snapshot:
        :meth:`repro.obs.metrics.MetricsRegistry.snapshot` output.
    spans:
        Top-level span tree (``Span.as_dict()`` per root).
    events_info:
        Event-log accounting from the JSONL sink: ``emitted`` (lines
        written) and ``dropped`` (events that failed serialization —
        nonzero means the log is incomplete and readers should warn).
    extra:
        Caller extras merged under ``"extra"``.
    """
    return {
        "manifest_version": MANIFEST_VERSION,
        "package": "repro",
        "version": __version__,
        "created_unix": time.time(),
        "command": json_safe(command),
        "seed": seed,
        "config_fingerprint": config_fingerprint(config),
        "host": host_info(),
        "metrics": metrics_snapshot or {},
        "spans": spans or [],
        "events": events_info or {},
        "extra": json_safe(extra) if extra else {},
    }


def write_manifest(path: str | Path, manifest: dict[str, Any]) -> Path:
    """Atomically write ``manifest`` as pretty JSON to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def read_artifact(path: str | Path) -> tuple[Path, dict[str, Any], list[dict[str, Any]]]:
    """Read one telemetry artifact: ``(run directory, manifest, events)``.

    ``path`` is the run directory or its ``manifest.json``. The event
    log is optional (a crashed run may only have the manifest).

    Raises
    ------
    FileNotFoundError
        If there is no manifest at ``path``.
    """
    root = Path(path)
    manifest_path = root if root.is_file() else root / MANIFEST_FILENAME
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"no {MANIFEST_FILENAME} under {root} — was the run started with --telemetry?"
        )
    manifest = json.loads(manifest_path.read_text())
    events: list[dict[str, Any]] = []
    events_path = manifest_path.parent / EVENTS_FILENAME
    if events_path.exists():
        with open(events_path) as fh:
            events = [json.loads(line) for line in fh if line.strip()]
    return manifest_path.parent, manifest, events
