"""Fleet sweep runner + columnar result store tests.

The fleet runner's contract is *scheduling-independent determinism*:
unit ``u``'s row depends only on ``(master_seed, scenario,
replication)``, never on which worker ran it or in what order units
were taken from the worker pool. These tests pin that, plus the
store's schema validation, aggregation math, reopen semantics, the
sqlite summary ingest, live progress, and the CLI surface.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro import obs
from repro.exceptions import ModelValidationError
from repro.experiments.common import small_cluster, small_workload
from repro.obs.progress import PROGRESS_FILENAME, progress_snapshot, read_progress
from repro.obs.store import RunStore
from repro.simulation import FleetScenario, FleetStore, fleet_columns, run_fleet
from repro.simulation import fleet as fleet_mod
from repro.simulation.results_store import parquet_available


def _scenarios(loads=(0.5, 0.8), horizon=8.0):
    return [
        FleetScenario(
            label=f"load={f}",
            cluster=small_cluster(),
            workload=small_workload(load_factor=f),
            horizon=horizon,
            params={"load_factor": f},
        )
        for f in loads
    ]


# ---------------------------------------------------------------------------
# FleetStore
# ---------------------------------------------------------------------------


def test_store_roundtrip_and_dtypes(tmp_path):
    cols = ("unit", "scenario", "metric")
    with FleetStore.create(tmp_path / "s", cols, meta={"seed": 3}, rows_per_group=2) as store:
        for u in range(5):
            store.append({"unit": u, "scenario": u % 2, "metric": 0.5 * u})
    again = FleetStore.open(tmp_path / "s")
    assert again.final
    assert again.n_rows == 5
    assert tuple(again.columns) == cols
    data = again.read()
    assert data["unit"].dtype == np.int64
    assert data["metric"].dtype == np.float64
    # rows land in append order; rows_per_group=2 means 3 row groups
    assert data["unit"].tolist() == [0, 1, 2, 3, 4]
    assert data["metric"].tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
    sub = again.read(columns=["metric"])
    assert list(sub) == ["metric"]


def test_store_validates_rows_and_refuses_overwrite(tmp_path):
    store = FleetStore.create(tmp_path / "s", ("unit", "x"), meta={})
    with pytest.raises(ModelValidationError):
        store.append({"unit": 0})  # missing column
    with pytest.raises(ModelValidationError):
        store.append({"unit": 0, "x": 1.0, "extra": 2.0})  # unknown column
    store.close()
    with pytest.raises(ModelValidationError):
        store.append({"unit": 1, "x": 1.0})  # closed store is immutable
    with pytest.raises(ModelValidationError):
        FleetStore.create(tmp_path / "s", ("unit", "x"), meta={})  # exists


def test_store_aggregate_matches_numpy(tmp_path):
    with FleetStore.create(tmp_path / "s", ("unit", "scenario", "y"), meta={}) as store:
        values = {0: [1.0, 3.0, 5.0], 1: [2.0, 4.0]}
        u = 0
        for sid, ys in values.items():
            for y in ys:
                store.append({"unit": u, "scenario": sid, "y": y})
                u += 1
    agg = FleetStore.open(tmp_path / "s").aggregate(metrics=["y"])
    for sid, ys in values.items():
        rec = agg[sid]
        assert rec["n"] == len(ys)
        assert rec["y"]["mean"] == pytest.approx(np.mean(ys))
        assert rec["y"]["std"] == pytest.approx(np.std(ys, ddof=1))
        assert rec["y"]["min"] == min(ys) and rec["y"]["max"] == max(ys)


def test_store_empty_read_has_schema(tmp_path):
    with FleetStore.create(tmp_path / "s", ("unit", "x"), meta={}) as store:
        pass
    data = FleetStore.open(tmp_path / "s").read()
    assert data["unit"].size == 0 and data["unit"].dtype == np.int64


@pytest.mark.skipif(not parquet_available(), reason="pyarrow not installed")
def test_store_parquet_format(tmp_path):
    with FleetStore.create(tmp_path / "s", ("unit", "x"), meta={}, fmt="parquet") as store:
        store.append({"unit": 0, "x": 1.5})
    again = FleetStore.open(tmp_path / "s")
    assert again.read()["x"].tolist() == [1.5]


# ---------------------------------------------------------------------------
# run_fleet determinism and failure accounting
# ---------------------------------------------------------------------------


def _canonical_rows(store_path):
    """Store rows re-keyed to canonical unit order, wall_s dropped."""
    data = FleetStore.open(store_path).read()
    order = np.argsort(data["unit"])
    return {
        c: data[c][order].tolist() for c in sorted(data) if c != "wall_s"
    }


def test_fleet_serial_vs_pool_bit_identical(tmp_path):
    scenarios = _scenarios()
    a = run_fleet(scenarios, 4, tmp_path / "serial", seed=11, n_jobs=1, store_format="npz")
    b = run_fleet(scenarios, 4, tmp_path / "pool", seed=11, n_jobs=3, store_format="npz")
    assert a.n_done == b.n_done == 8
    assert a.n_failed == b.n_failed == 0
    assert _canonical_rows(tmp_path / "serial") == _canonical_rows(tmp_path / "pool")


def _events_counted(out, n_jobs):
    """The parent's ``sim.events`` counter after one fleet run."""
    with obs.telemetry_session(None) as tel:
        run_fleet(_scenarios(), 4, out, seed=11, n_jobs=n_jobs, store_format="npz")
        return tel.metrics.snapshot().get("sim.events", {}).get("value")


def test_pooled_fleet_records_sim_events(tmp_path):
    # Pool workers' counters die with them, so the parent records the
    # events that traveled back with each chunk's rows.
    serial = _events_counted(tmp_path / "serial", 1)
    assert serial is not None and serial > 0
    assert _events_counted(tmp_path / "pool", 2) == serial


_REAL_RUN_CHUNK = fleet_mod._run_chunk


def _dying_chunk(sc, master_seed, n_replications, sid, rep0, count, backend):
    """Chunk task that kills its worker on chunk (0, 4) (module-level so
    the pool can pickle it)."""
    if (sid, rep0) == (0, 4):
        os._exit(3)
    return _REAL_RUN_CHUNK(sc, master_seed, n_replications, sid, rep0, count, backend)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying chunk reaches workers only through fork",
)
def test_fleet_killed_worker_costs_only_its_chunk(tmp_path, monkeypatch, hang_guard):
    scenarios = _scenarios()
    kw = dict(seed=11, batch_size=4, store_format="npz")
    run_fleet(scenarios, 8, tmp_path / "serial", n_jobs=1, **kw)
    monkeypatch.setattr(fleet_mod, "_run_chunk", _dying_chunk)
    summary = run_fleet(scenarios, 8, tmp_path / "pool", n_jobs=2, **kw)
    assert summary.n_done == 12 and summary.n_failed == 4
    failures = FleetStore.open(tmp_path / "pool").meta["failures"]
    assert sorted(u for u, _msg in failures) == [4, 5, 6, 7]
    assert all(msg.startswith("WorkerLostError") for _u, msg in failures)
    ref = _canonical_rows(tmp_path / "serial")
    keep = [i for i, u in enumerate(ref["unit"]) if not 4 <= u <= 7]
    assert _canonical_rows(tmp_path / "pool") == {c: [v[i] for i in keep] for c, v in ref.items()}


def test_fleet_failures_counted_not_fatal(tmp_path):
    # An unstable scenario makes every one of its units raise; the
    # sweep must finish, count them, and keep the stable scenario's rows.
    scenarios = _scenarios(loads=(0.5,)) + [
        FleetScenario(
            label="unstable",
            cluster=small_cluster(),
            workload=small_workload(load_factor=50.0),
            horizon=8.0,
        )
    ]
    summary = run_fleet(scenarios, 3, tmp_path / "s", seed=1, n_jobs=1, store_format="npz")
    assert summary.n_failed == 3
    assert summary.n_done == 3
    store = FleetStore.open(tmp_path / "s")
    assert store.n_rows == 3
    assert set(store.read()["scenario"].tolist()) == {0}
    failures = store.meta["failures"]
    assert len(failures) == 3 and all(u >= 3 for u, _msg in failures)


def test_fleet_validates_inputs(tmp_path):
    with pytest.raises(ModelValidationError):
        run_fleet([], 2, tmp_path / "a")
    with pytest.raises(ModelValidationError):
        run_fleet(_scenarios(), 0, tmp_path / "b")
    from repro.workload.generator import workload_from_rates

    mixed = _scenarios(loads=(0.5,)) + [
        FleetScenario(
            label="other-classes",
            cluster=small_cluster(),
            workload=workload_from_rates([1.0, 2.0], names=("vip", "basic")),
            horizon=8.0,
        )
    ]
    with pytest.raises(ModelValidationError):
        run_fleet(mixed, 2, tmp_path / "c")


def test_fleet_manifest_and_scenario_table(tmp_path):
    scenarios = _scenarios()
    run_fleet(scenarios, 2, tmp_path / "s", seed=5, n_jobs=1, store_format="npz")
    store = FleetStore.open(tmp_path / "s")
    assert store.meta["seed"] == 5
    assert [s["label"] for s in store.meta["scenarios"]] == ["load=0.5", "load=0.8"]
    table = store.scenario_table(metrics=["mean_delay"])
    assert [r["label"] for r in table] == ["load=0.5", "load=0.8"]
    assert all(r["n"] == 2 for r in table)
    assert all(r["params"]["load_factor"] in (0.5, 0.8) for r in table)


# ---------------------------------------------------------------------------
# telemetry / progress / sqlite ingest
# ---------------------------------------------------------------------------


def test_fleet_progress_stream_and_snapshot(tmp_path):
    tel_dir = tmp_path / "tel"
    with obs.telemetry_session(tel_dir, command=["test-fleet"]):
        run_fleet(_scenarios(), 2, tmp_path / "s", seed=2, n_jobs=1, store_format="npz")
    records = read_progress(tel_dir / PROGRESS_FILENAME)
    snap = progress_snapshot(records)
    assert snap["fleet"]["n_done"] == 4
    assert snap["fleet"]["n_failed"] == 0
    assert snap["fleet"]["n_total"] == 4
    assert snap["fleet"]["finished"] is True


def test_runstore_ingest_fleet_idempotent(tmp_path):
    run_fleet(_scenarios(), 2, tmp_path / "s", seed=2, n_jobs=1, store_format="npz")
    with RunStore(tmp_path / "runs.sqlite") as rs:
        sweep_id = rs.ingest_fleet(tmp_path / "s")
        again = rs.ingest_fleet(tmp_path / "s")  # re-ingest replaces, not duplicates
        sweeps = rs.fleet_sweeps()
        assert len(sweeps) == 1
        assert sweeps[0]["n_rows"] == 4
        assert sweeps[0]["n_scenarios"] == 2
        rows = rs.fleet_scenarios(again)
        assert [r["label"] for r in rows] == ["load=0.5", "load=0.8"]
        assert all(r["n"] == 2 for r in rows)
        assert all(np.isfinite(r["mean_delay"]) for r in rows)
        assert isinstance(sweep_id, int) and isinstance(again, int)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_fleet_status_ingest_roundtrip(tmp_path, capsys):
    from repro.cli import main

    store_dir = tmp_path / "fleet-store"
    tel_dir = tmp_path / "tel"
    rc = main(
        [
            "fleet",
            "--load-factors",
            "0.5,0.8",
            "--replications",
            "2",
            "--horizon",
            "8",
            "--jobs",
            "1",
            "--format",
            "npz",
            "--out",
            str(store_dir),
            "--telemetry",
            str(tel_dir),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "load=0.5" in out and "load=0.8" in out
    assert FleetStore.open(store_dir).n_rows == 4

    rc = main(["status", str(tel_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fleet" in out.lower()
    assert "4/4" in out or "4" in out

    db = tmp_path / "runs.sqlite"
    rc = main(["telemetry", "ingest", "--store", str(db), "--fleet", str(store_dir)])
    assert rc == 0
    capsys.readouterr()
    with RunStore(db) as rs:
        assert len(rs.fleet_sweeps()) == 1


def test_fleet_columns_schema():
    cols = fleet_columns(2)
    assert cols[:3] == ("unit", "scenario", "replication")
    assert "delay_c0" in cols and "delay_c1" in cols and "delay_c2" not in cols
    assert cols[-1] == "wall_s"


def test_store_manifest_is_valid_json(tmp_path):
    run_fleet(_scenarios(loads=(0.5,)), 1, tmp_path / "s", n_jobs=1, store_format="npz")
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["kind"] == "fleet_store"
    assert manifest["final"] is True
    assert manifest["n_rows"] == 1
