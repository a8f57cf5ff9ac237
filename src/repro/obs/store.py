"""Cross-run telemetry store: SQLite over ``--telemetry`` artifacts.

Every telemetry run is a self-describing island — ``manifest.json`` +
``events.jsonl`` in one directory. :class:`RunStore` aggregates any
number of them into one queryable SQLite database with normalized
tables:

``runs``
    One row per ingested directory: creation time, package version,
    command, seed, ``config_fingerprint`` (the same canonical SHA-256
    the replication cache uses, so *same fingerprint + same seed*
    means *comparable numbers*), event counts (including dropped
    events), total root-span wall time, and the full manifest JSON.
``spans`` / ``events``
    The flattened event log: every closed span and point event.
``metrics``
    The manifest's counter/gauge/histogram snapshot, one row per
    instrument, with a scalar ``value`` column for cross-run series.
``solver_results`` / ``adaptive_rounds`` / ``epochs`` / ``sweep_points``
    Typed projections of the semantically rich events (``solver.result``,
    ``sim.adaptive.round``, ``sim.epoch``, ``sweep.point``) so the
    dashboard and ad-hoc SQL never re-parse JSON lines.

Ingest is **idempotent per directory**: re-ingesting a run directory
replaces its previous rows (keyed by the resolved path), so a cron'd
``repro telemetry ingest out/*`` converges instead of duplicating.

The query API (:meth:`~RunStore.runs`, :meth:`~RunStore.spans`,
:meth:`~RunStore.metric_series`, :meth:`~RunStore.compare`, ...) powers
``repro dashboard`` and ``repro telemetry ingest``; the database file
is plain SQLite, so anything else (pandas, datasette, sqlite3 CLI) can
read it too.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Any

from repro.obs.manifest import read_artifact

__all__ = ["RunStore", "STORE_SCHEMA_VERSION"]

STORE_SCHEMA_VERSION = 1

_SCHEMA = """
PRAGMA foreign_keys = ON;
CREATE TABLE IF NOT EXISTS store_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY,
    run_dir TEXT UNIQUE NOT NULL,
    ingested_unix REAL NOT NULL,
    created_unix REAL,
    version TEXT,
    command TEXT,
    seed INTEGER,
    config_fingerprint TEXT,
    hostname TEXT,
    n_events INTEGER NOT NULL DEFAULT 0,
    n_dropped INTEGER NOT NULL DEFAULT 0,
    wall_s REAL,
    sim_backend TEXT,
    sim_backend_fallback TEXT,
    manifest TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_fingerprint ON runs (config_fingerprint, seed);
CREATE TABLE IF NOT EXISTS spans (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    name TEXT NOT NULL,
    ts REAL,
    wall_s REAL,
    cpu_s REAL,
    depth INTEGER,
    tags TEXT
);
CREATE INDEX IF NOT EXISTS idx_spans_run ON spans (run_id, name);
CREATE TABLE IF NOT EXISTS events (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    name TEXT NOT NULL,
    ts REAL,
    fields TEXT
);
CREATE INDEX IF NOT EXISTS idx_events_run ON events (run_id, name);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    name TEXT NOT NULL,
    kind TEXT,
    value REAL,
    data TEXT
);
CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics (name);
CREATE TABLE IF NOT EXISTS solver_results (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    label TEXT,
    method TEXT,
    success INTEGER,
    nit INTEGER,
    nfev INTEGER,
    n_evaluations INTEGER,
    status INTEGER,
    wall_s REAL
);
CREATE TABLE IF NOT EXISTS adaptive_rounds (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    round INTEGER,
    n_available INTEGER,
    stop_at INTEGER,
    rel_ci TEXT
);
CREATE TABLE IF NOT EXISTS epochs (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    epoch INTEGER,
    t REAL,
    speeds TEXT,
    queues TEXT,
    dynamic_energy REAL
);
CREATE TABLE IF NOT EXISTS sweep_points (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    label TEXT,
    idx INTEGER,
    value REAL,
    fun REAL,
    warm INTEGER,
    failed INTEGER,
    n_evaluations INTEGER,
    wall_s REAL
);
CREATE TABLE IF NOT EXISTS fleet_sweeps (
    id INTEGER PRIMARY KEY,
    store_dir TEXT UNIQUE NOT NULL,
    ingested_unix REAL NOT NULL,
    seed INTEGER,
    fmt TEXT,
    backend TEXT,
    n_rows INTEGER,
    n_scenarios INTEGER,
    n_replications INTEGER,
    n_failed INTEGER,
    wall_s REAL,
    meta TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS fleet_scenarios (
    sweep_id INTEGER NOT NULL REFERENCES fleet_sweeps (id) ON DELETE CASCADE,
    scenario INTEGER,
    label TEXT,
    params TEXT,
    n INTEGER,
    mean_delay REAL,
    mean_delay_std REAL,
    average_power REAL,
    average_power_std REAL,
    energy_per_request REAL
);
CREATE INDEX IF NOT EXISTS idx_fleet_scenarios ON fleet_scenarios (sweep_id, scenario);
"""


def _rows(cursor: sqlite3.Cursor) -> list[dict[str, Any]]:
    cols = [d[0] for d in cursor.description]
    return [dict(zip(cols, row)) for row in cursor.fetchall()]


def _span_walls(events: list[dict[str, Any]], manifest: dict[str, Any]) -> float | None:
    """Total root-span wall seconds — the run's instrumented duration.

    Prefers depth-0 spans from the event log; a run whose log is
    missing falls back to the manifest's span tree.
    """
    roots = [
        e.get("wall_s", 0.0)
        for e in events
        if e.get("type") == "span" and e.get("depth", 0) == 0
    ]
    if roots:
        return float(sum(roots))
    tree = manifest.get("spans") or []
    if tree:
        return float(sum(s.get("wall_s", 0.0) for s in tree))
    return None


class RunStore:
    """SQLite-backed store over ingested telemetry runs.

    Usable as a context manager; :meth:`close` commits and closes the
    connection. All query methods return plain dicts/lists, JSON
    columns already parsed.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.executescript(_SCHEMA)
        self._migrate()
        self._conn.execute(
            "INSERT OR IGNORE INTO store_meta (key, value) VALUES ('schema_version', ?)",
            (str(STORE_SCHEMA_VERSION),),
        )
        self._conn.commit()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        self._conn.commit()
        self._conn.close()

    def _migrate(self) -> None:
        """Bring a store created by an older schema up to date.

        ``CREATE TABLE IF NOT EXISTS`` leaves pre-existing tables
        untouched, so columns added after a store was first created
        must be grafted on here; SQLite's ``ADD COLUMN`` defaults the
        backfill to NULL, which every reader treats as "unknown".
        """
        have = {row[1] for row in self._conn.execute("PRAGMA table_info(runs)")}
        for column in ("sim_backend", "sim_backend_fallback"):
            if column not in have:
                self._conn.execute(f"ALTER TABLE runs ADD COLUMN {column} TEXT")
        self._conn.commit()

    # -- ingest ----------------------------------------------------------
    def ingest(self, run_dir: str | Path) -> int:
        """Ingest one telemetry directory; returns its ``runs.id``.

        Requires ``manifest.json``; ``events.jsonl`` is optional (a
        crashed run may only have the manifest). Re-ingesting the same
        directory replaces the previous rows.
        """
        root, manifest, events = read_artifact(Path(run_dir).resolve())

        host = manifest.get("host") or {}
        events_info = manifest.get("events") or {}
        command = manifest.get("command")
        extra = manifest.get("extra") or {}
        cur = self._conn.cursor()
        cur.execute("BEGIN")
        try:
            # Idempotency: one run per resolved directory; children go
            # with the old row via ON DELETE CASCADE.
            cur.execute("DELETE FROM runs WHERE run_dir = ?", (str(root),))
            cur.execute(
                "INSERT INTO runs (run_dir, ingested_unix, created_unix, version, command,"
                " seed, config_fingerprint, hostname, n_events, n_dropped, wall_s,"
                " sim_backend, sim_backend_fallback, manifest)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    str(root),
                    time.time(),
                    manifest.get("created_unix"),
                    manifest.get("version"),
                    json.dumps(command) if command is not None else None,
                    manifest.get("seed"),
                    manifest.get("config_fingerprint"),
                    host.get("hostname"),
                    int(events_info.get("emitted", len(events))),
                    int(events_info.get("dropped", 0)),
                    _span_walls(events, manifest),
                    extra.get("sim_backend"),
                    extra.get("sim_backend_fallback"),
                    json.dumps(manifest, sort_keys=True),
                ),
            )
            run_id = int(cur.lastrowid)
            self._insert_children(cur, run_id, manifest, events)
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        return run_id

    def _insert_children(
        self,
        cur: sqlite3.Cursor,
        run_id: int,
        manifest: dict[str, Any],
        events: list[dict[str, Any]],
    ) -> None:
        spans = [e for e in events if e.get("type") == "span"]
        points = [e for e in events if e.get("type") == "event"]
        cur.executemany(
            "INSERT INTO spans (run_id, name, ts, wall_s, cpu_s, depth, tags)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    run_id,
                    e.get("name"),
                    e.get("ts"),
                    e.get("wall_s"),
                    e.get("cpu_s"),
                    e.get("depth"),
                    json.dumps(e.get("tags") or {}, sort_keys=True),
                )
                for e in spans
            ],
        )
        cur.executemany(
            "INSERT INTO events (run_id, name, ts, fields) VALUES (?, ?, ?, ?)",
            [
                (
                    run_id,
                    e.get("name"),
                    e.get("ts"),
                    json.dumps(e.get("fields") or {}, sort_keys=True),
                )
                for e in points
            ],
        )
        metric_rows = []
        for name, rec in (manifest.get("metrics") or {}).items():
            value = rec.get("value")
            if value is None and rec.get("kind") == "histogram":
                value = rec.get("mean")
            try:
                value = None if value is None else float(value)
            except (TypeError, ValueError):
                value = None
            metric_rows.append(
                (run_id, name, rec.get("kind"), value, json.dumps(rec, sort_keys=True))
            )
        cur.executemany(
            "INSERT INTO metrics (run_id, name, kind, value, data) VALUES (?, ?, ?, ?, ?)",
            metric_rows,
        )

        def fields_of(name: str) -> list[dict[str, Any]]:
            return [e.get("fields") or {} for e in points if e.get("name") == name]

        cur.executemany(
            "INSERT INTO solver_results (run_id, label, method, success, nit, nfev,"
            " n_evaluations, status, wall_s) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    run_id,
                    f.get("label"),
                    f.get("method"),
                    None if f.get("success") is None else int(bool(f.get("success"))),
                    f.get("nit"),
                    f.get("nfev"),
                    f.get("n_evaluations"),
                    f.get("status"),
                    f.get("wall_s"),
                )
                for f in fields_of("solver.result")
            ],
        )
        cur.executemany(
            "INSERT INTO adaptive_rounds (run_id, round, n_available, stop_at, rel_ci)"
            " VALUES (?, ?, ?, ?, ?)",
            [
                (
                    run_id,
                    f.get("round"),
                    f.get("n_available"),
                    f.get("stop_at"),
                    json.dumps(
                        {
                            k.removeprefix("rel_ci."): v
                            for k, v in f.items()
                            if k.startswith("rel_ci.")
                        },
                        sort_keys=True,
                    ),
                )
                for f in fields_of("sim.adaptive.round")
            ],
        )
        cur.executemany(
            "INSERT INTO epochs (run_id, epoch, t, speeds, queues, dynamic_energy)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            [
                (
                    run_id,
                    f.get("epoch"),
                    f.get("t"),
                    json.dumps(f.get("speeds")),
                    json.dumps(f.get("queues")),
                    f.get("dynamic_energy"),
                )
                for f in fields_of("sim.epoch")
            ],
        )
        cur.executemany(
            "INSERT INTO sweep_points (run_id, label, idx, value, fun, warm, failed,"
            " n_evaluations, wall_s) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    run_id,
                    f.get("label"),
                    f.get("index"),
                    f.get("value_num"),
                    f.get("fun"),
                    None if f.get("warm") is None else int(bool(f.get("warm"))),
                    None if f.get("failed") is None else int(bool(f.get("failed"))),
                    f.get("n_evaluations"),
                    f.get("wall_s"),
                )
                for f in fields_of("sweep.point")
            ],
        )

    def ingest_fleet(self, store_dir: str | Path) -> int:
        """Ingest a columnar fleet store; returns its ``fleet_sweeps.id``.

        Folds the store's per-unit rows into per-scenario aggregates
        (mean/std of the headline metrics) — the summary resolution
        the dashboard and cross-run SQL need, without copying every
        unit row into SQLite (the columnar store stays the source of
        truth for unit-level queries). Idempotent per resolved
        directory, like :meth:`ingest`.
        """
        from repro.simulation.results_store import FleetStore

        root = Path(store_dir).resolve()
        fstore = FleetStore.open(root)
        table = fstore.scenario_table(
            metrics=["mean_delay", "average_power", "energy_per_request"]
        )
        meta = fstore.meta
        cur = self._conn.cursor()
        cur.execute("BEGIN")
        try:
            cur.execute("DELETE FROM fleet_sweeps WHERE store_dir = ?", (str(root),))
            cur.execute(
                "INSERT INTO fleet_sweeps (store_dir, ingested_unix, seed, fmt, backend,"
                " n_rows, n_scenarios, n_replications, n_failed, wall_s, meta)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    str(root),
                    time.time(),
                    meta.get("seed"),
                    fstore.fmt,
                    meta.get("backend"),
                    fstore.n_rows,
                    len(meta.get("scenarios", [])) or len(table),
                    meta.get("n_replications"),
                    meta.get("n_failed"),
                    meta.get("wall_time_s"),
                    json.dumps(meta, sort_keys=True),
                ),
            )
            sweep_id = int(cur.lastrowid)
            cur.executemany(
                "INSERT INTO fleet_scenarios (sweep_id, scenario, label, params, n,"
                " mean_delay, mean_delay_std, average_power, average_power_std,"
                " energy_per_request) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        sweep_id,
                        rec["scenario"],
                        rec["label"],
                        json.dumps(rec["params"], sort_keys=True),
                        rec["n"],
                        rec["mean_delay"]["mean"],
                        rec["mean_delay"]["std"],
                        rec["average_power"]["mean"],
                        rec["average_power"]["std"],
                        rec["energy_per_request"]["mean"],
                    )
                    for rec in table
                ],
            )
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        return sweep_id

    # -- queries ---------------------------------------------------------
    def fleet_sweeps(self) -> list[dict[str, Any]]:
        """Every ingested fleet sweep, oldest first, with parsed meta."""
        out = _rows(
            self._conn.execute(
                "SELECT id, store_dir, ingested_unix, seed, fmt, backend, n_rows,"
                " n_scenarios, n_replications, n_failed, wall_s, meta FROM fleet_sweeps"
                " ORDER BY ingested_unix, id"
            )
        )
        for r in out:
            r["meta"] = json.loads(r["meta"]) if r["meta"] else {}
        return out

    def fleet_scenarios(self, sweep_id: int) -> list[dict[str, Any]]:
        """Per-scenario aggregates of one sweep, ordered by scenario id."""
        out = _rows(
            self._conn.execute(
                "SELECT scenario, label, params, n, mean_delay, mean_delay_std,"
                " average_power, average_power_std, energy_per_request"
                " FROM fleet_scenarios WHERE sweep_id = ? ORDER BY scenario",
                (sweep_id,),
            )
        )
        for r in out:
            r["params"] = json.loads(r["params"]) if r["params"] else {}
        return out

    def runs(self) -> list[dict[str, Any]]:
        """Every ingested run, oldest first, with parsed ``command``."""
        out = _rows(
            self._conn.execute(
                "SELECT id, run_dir, ingested_unix, created_unix, version, command, seed,"
                " config_fingerprint, hostname, n_events, n_dropped, wall_s,"
                " sim_backend, sim_backend_fallback FROM runs"
                " ORDER BY created_unix, id"
            )
        )
        for r in out:
            r["command"] = json.loads(r["command"]) if r["command"] else None
        return out

    def run(self, run_id: int) -> dict[str, Any]:
        """One run row including the full parsed manifest."""
        rows = _rows(self._conn.execute("SELECT * FROM runs WHERE id = ?", (run_id,)))
        if not rows:
            raise KeyError(f"no run with id {run_id}")
        r = rows[0]
        r["command"] = json.loads(r["command"]) if r["command"] else None
        r["manifest"] = json.loads(r["manifest"])
        return r

    def spans(self, run_id: int, name: str | None = None) -> list[dict[str, Any]]:
        """Closed spans of one run (optionally one span name)."""
        q = "SELECT name, ts, wall_s, cpu_s, depth, tags FROM spans WHERE run_id = ?"
        args: tuple[Any, ...] = (run_id,)
        if name is not None:
            q += " AND name = ?"
            args += (name,)
        out = _rows(self._conn.execute(q + " ORDER BY ts", args))
        for r in out:
            r["tags"] = json.loads(r["tags"]) if r["tags"] else {}
        return out

    def events(self, run_id: int, name: str | None = None) -> list[dict[str, Any]]:
        """Point events of one run (optionally one event name)."""
        q = "SELECT name, ts, fields FROM events WHERE run_id = ?"
        args: tuple[Any, ...] = (run_id,)
        if name is not None:
            q += " AND name = ?"
            args += (name,)
        out = _rows(self._conn.execute(q + " ORDER BY ts", args))
        for r in out:
            r["fields"] = json.loads(r["fields"]) if r["fields"] else {}
        return out

    def metrics(self, run_id: int) -> dict[str, dict[str, Any]]:
        """The metric snapshot of one run, name → parsed record."""
        out = {}
        for r in _rows(
            self._conn.execute(
                "SELECT name, kind, value, data FROM metrics WHERE run_id = ?", (run_id,)
            )
        ):
            rec = json.loads(r["data"]) if r["data"] else {}
            rec["value"] = r["value"] if "value" not in rec else rec["value"]
            out[r["name"]] = rec
        return out

    def metric_series(self, name: str) -> list[dict[str, Any]]:
        """One metric across every run that recorded it, oldest first —
        the trajectory view (``sim.events`` over time, cache hit
        counts per run, ...)."""
        return _rows(
            self._conn.execute(
                "SELECT m.run_id, r.created_unix, r.config_fingerprint, r.seed, m.value"
                " FROM metrics m JOIN runs r ON r.id = m.run_id"
                " WHERE m.name = ? ORDER BY r.created_unix, m.run_id",
                (name,),
            )
        )

    def adaptive_rounds(self, run_id: int) -> list[dict[str, Any]]:
        """The adaptive engine's stopping-round trace of one run."""
        out = _rows(
            self._conn.execute(
                "SELECT round, n_available, stop_at, rel_ci FROM adaptive_rounds"
                " WHERE run_id = ? ORDER BY round",
                (run_id,),
            )
        )
        for r in out:
            r["rel_ci"] = json.loads(r["rel_ci"]) if r["rel_ci"] else {}
        return out

    def epoch_trace(self, run_id: int) -> list[dict[str, Any]]:
        """The controller's per-epoch trace of one run (A7 and friends)."""
        out = _rows(
            self._conn.execute(
                "SELECT epoch, t, speeds, queues, dynamic_energy FROM epochs"
                " WHERE run_id = ? ORDER BY epoch",
                (run_id,),
            )
        )
        for r in out:
            r["speeds"] = json.loads(r["speeds"]) if r["speeds"] else None
            r["queues"] = json.loads(r["queues"]) if r["queues"] else None
        return out

    def solver_results(self, run_id: int) -> list[dict[str, Any]]:
        """Optimizer solves recorded in one run."""
        return _rows(
            self._conn.execute(
                "SELECT label, method, success, nit, nfev, n_evaluations, status, wall_s"
                " FROM solver_results WHERE run_id = ?",
                (run_id,),
            )
        )

    def sweep_points(self, run_id: int | None = None) -> list[dict[str, Any]]:
        """Continuation-sweep points, one run or all runs (frontier
        overlays group these by label across runs)."""
        q = (
            "SELECT run_id, label, idx, value, fun, warm, failed, n_evaluations, wall_s"
            " FROM sweep_points"
        )
        args: tuple[Any, ...] = ()
        if run_id is not None:
            q += " WHERE run_id = ?"
            args = (run_id,)
        return _rows(self._conn.execute(q + " ORDER BY run_id, label, idx", args))

    def compare(self, run_a: int, run_b: int) -> dict[str, Any]:
        """Side-by-side comparison of two runs.

        Most meaningful when both share a ``config_fingerprint`` (same
        configuration, possibly different seeds/versions/hosts); the
        result says whether they do, compares wall time and event
        counts, and diffs every numeric metric present in both.
        """
        a, b = self.run(run_a), self.run(run_b)
        ma, mb = self.metrics(run_a), self.metrics(run_b)
        metrics: dict[str, dict[str, Any]] = {}
        for name in sorted(set(ma) & set(mb)):
            va, vb = ma[name].get("value"), mb[name].get("value")
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                metrics[name] = {
                    "a": va,
                    "b": vb,
                    "ratio": (vb / va) if va else None,
                }
        return {
            "a": {k: a[k] for k in ("id", "run_dir", "seed", "wall_s", "n_events")},
            "b": {k: b[k] for k in ("id", "run_dir", "seed", "wall_s", "n_events")},
            "same_fingerprint": bool(
                a["config_fingerprint"]
                and a["config_fingerprint"] == b["config_fingerprint"]
            ),
            "same_seed": a["seed"] == b["seed"],
            "metrics": metrics,
        }
