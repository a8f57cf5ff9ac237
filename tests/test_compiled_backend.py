"""Backend-parity suite for the compiled event-loop kernel.

The compiled C kernel behind ``REPRO_SIM_BACKEND=compiled`` must be a
pure performance transform: every number it produces is required to be
**bit-identical** to the pure-Python engine's, across execution
backends (serial loop vs process pool) and across the full support
envelope — epoch controllers (the kernel yields at each boundary for
the Python control decision), antithetic mirrored streams, PS tiers,
and queue-sampling telemetry all run compiled. This file holds it to
that with the same golden pins the Python engine answers to, plus
fallback-semantics tests: a kernel that cannot build/load, or a
configuration outside the kernel's envelope, degrades to pure Python
with exactly one visible :class:`CompiledFallbackWarning` per process
and reason (and silently under ``REPRO_SIM_BACKEND=auto``).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.exceptions import CompiledFallbackWarning, ModelValidationError
from repro.simulation import RngStreams, simulate
from repro.simulation import compiled as compiled_mod
from repro.simulation.parallel import WorkerPool
from repro.simulation.replications import _ReplicationRunner, _run_one

import test_golden_sim_metrics as golden_mod

pytestmark = pytest.mark.filterwarnings("ignore::repro.exceptions.WarmupDiscardWarning")

COMPILED_AVAILABLE = compiled_mod.kernel_available()

needs_kernel = pytest.mark.skipif(
    not COMPILED_AVAILABLE, reason="compiled kernel unavailable (no C toolchain?)"
)


@pytest.fixture(autouse=True)
def _fresh_warning_state(monkeypatch):
    """Each test starts with the once-per-reason warning memory empty."""
    monkeypatch.setattr(compiled_mod, "_warned", set())


# ---------------------------------------------------------------------------
# golden bit-identity on the compiled backend
# ---------------------------------------------------------------------------


@needs_kernel
@pytest.mark.parametrize("name", sorted(golden_mod._scenarios()))
def test_golden_metrics_bit_identical_compiled(name, monkeypatch):
    """Every golden scenario pins the same floats under the compiled
    backend — scenarios outside the kernel's envelope (PS tiers) fall
    back and must *still* match, by construction."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    golden = golden_mod.GOLDEN_PATH
    pinned = __import__("json").loads(golden.read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompiledFallbackWarning)
        fresh = golden_mod._snapshot(golden_mod._scenarios()[name]())
    golden_mod._assert_identical(pinned[name], fresh, path=name)


def _epoch_controller(t, queues, speeds):
    """Module-level (picklable) controller: nudge speeds with load."""
    total = float(np.sum(queues))
    return np.clip(0.6 + 0.05 * total, 0.6, 1.0) * np.ones_like(speeds)


def _replication_numbers(backend_env, n_jobs, with_controller, monkeypatch):
    """Snapshot of 3 replications run through the replication engine
    (inline vs 2-worker pool) under the requested simulation backend,
    with the epoch controller optionally engaged (which routes each run
    to the Python engine by design). The engine's runner is driven
    directly because ``simulate_replications`` does not forward the
    epoch options."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend_env)
    from repro.experiments.common import canonical_cluster, canonical_workload

    sim_kwargs = dict(cluster=canonical_cluster(), workload=canonical_workload(), horizon=80.0)
    if with_controller:
        sim_kwargs.update(epoch_times=[20.0, 40.0, 60.0], epoch_controller=_epoch_controller)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompiledFallbackWarning)
        seeds = RngStreams.replication_seeds(42, 3)
        with _ReplicationRunner(sim_kwargs, seeds, n_jobs=n_jobs) as runner:
            runner.ensure(range(3))
    assert runner.meta(0.0)["n_jobs"] == n_jobs
    return {i: golden_mod._snapshot(res) for i, res in enumerate(runner.runs(3))}


@needs_kernel
@pytest.mark.parametrize("backend_env", ["python", "compiled"])
@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("with_controller", [False, True])
def test_replication_matrix_bit_identical(backend_env, n_jobs, with_controller, monkeypatch):
    """{python, compiled} × {serial, process} × controller on/off all
    produce the same bits as the python-serial reference."""
    reference = _replication_numbers("python", 1, with_controller, monkeypatch)
    probe = _replication_numbers(backend_env, n_jobs, with_controller, monkeypatch)
    assert sorted(probe) == sorted(reference)
    for i in reference:
        golden_mod._assert_identical(reference[i], probe[i], path=f"rep[{i}]")


@needs_kernel
def test_single_run_bit_identical_delay_samples_and_log(monkeypatch):
    """Delay-sample streams and the structured job log match exactly."""
    cluster = golden_mod._two_tier("priority_np")
    workload = golden_mod._workload()

    def run():
        return simulate(
            cluster,
            workload,
            horizon=120.0,
            seed=31,
            collect_delay_samples=True,
            collect_job_log=True,
        )

    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = run()
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    got = run()
    for a, b in zip(ref.delay_samples, got.delay_samples):
        assert np.array_equal(a, b)
    assert np.array_equal(ref.job_log, got.job_log)
    golden_mod._assert_identical(
        golden_mod._snapshot(ref), golden_mod._snapshot(got), path="single_run"
    )


@pytest.mark.parametrize("backend_env", ["python", "compiled"])
def test_warmup_discard_warning_points_at_caller(backend_env, monkeypatch):
    """Both engines emit the warning once, from the shared finalize, at
    the frame that called simulate()."""
    from repro.exceptions import WarmupDiscardWarning
    from repro.experiments.common import small_cluster, small_workload

    if backend_env == "compiled" and not COMPILED_AVAILABLE:
        pytest.skip("compiled kernel unavailable (no C toolchain?)")
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend_env)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate(small_cluster(), small_workload(), horizon=5, warmup_fraction=0.9)
    (w,) = [w for w in caught if issubclass(w.category, WarmupDiscardWarning)]
    assert w.filename == __file__


# ---------------------------------------------------------------------------
# backend selection and fallback semantics
# ---------------------------------------------------------------------------


def test_invalid_backend_env_rejected(monkeypatch):
    from repro.experiments.common import canonical_cluster, canonical_workload

    monkeypatch.setenv("REPRO_SIM_BACKEND", "turbo")
    with pytest.raises(ModelValidationError, match="REPRO_SIM_BACKEND"):
        simulate(canonical_cluster(), canonical_workload(), horizon=5.0, seed=0)


def test_build_failure_degrades_with_single_warning(monkeypatch):
    """A kernel that cannot load falls back to pure Python with exactly
    one visible warning per process, and the numbers are the Python
    engine's."""
    from repro.experiments.common import canonical_cluster, canonical_workload

    def broken_load():
        raise compiled_mod.KernelBuildError("simulated toolchain failure")

    monkeypatch.setattr(compiled_mod, "load_kernel", broken_load)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = simulate(canonical_cluster(), canonical_workload(), horizon=40.0, seed=8)

    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with pytest.warns(CompiledFallbackWarning, match="toolchain failure"):
        first = simulate(canonical_cluster(), canonical_workload(), horizon=40.0, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)  # second warn would raise
        second = simulate(canonical_cluster(), canonical_workload(), horizon=40.0, seed=8)

    assert np.array_equal(ref.delays, first.delays)
    assert np.array_equal(ref.delays, second.delays)
    assert ref.average_power == first.average_power == second.average_power


def test_auto_backend_falls_back_silently(monkeypatch):
    from repro.experiments.common import canonical_cluster, canonical_workload

    def broken_load():
        raise compiled_mod.KernelBuildError("simulated toolchain failure")

    monkeypatch.setattr(compiled_mod, "load_kernel", broken_load)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "auto")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        simulate(canonical_cluster(), canonical_workload(), horizon=20.0, seed=8)


@needs_kernel
def test_ps_tiers_run_compiled_bit_identical(monkeypatch):
    """PS tiers are inside the kernel envelope: no warning, same bits,
    same event count (the heap orders match exactly)."""
    cluster = golden_mod._two_tier("ps", servers=(1, 2))
    workload = golden_mod._workload()
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = simulate(cluster, workload, horizon=60.0, seed=5)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        got = simulate(cluster, workload, horizon=60.0, seed=5)
    assert np.array_equal(ref.delays, got.delays)
    assert ref.average_power == got.average_power
    assert ref.meta["n_events"] == got.meta["n_events"]


@needs_kernel
def test_ps_with_finite_buffer_rejected_compiled(monkeypatch):
    """The engine's PS+capacity validation error surfaces identically
    through the compiled path (it is a model error, not a fallback)."""
    from repro.cluster.tier import Tier
    from repro.experiments.common import canonical_cluster, canonical_workload

    base = canonical_cluster(discipline="ps")
    tiers = list(base.tiers)
    spec = tiers[0].spec
    tiers[0] = Tier(
        tiers[0].name,
        tiers[0].demands,
        spec,
        servers=tiers[0].servers,
        speed=tiers[0].speed,
        discipline="ps",
        capacity=tiers[0].servers + 2,
    )
    cluster = type(base)(tuple(tiers))
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with pytest.raises(ModelValidationError, match="finite buffers"):
        simulate(cluster, canonical_workload(), horizon=10.0, seed=0)


@needs_kernel
def test_antithetic_seed_runs_compiled_bit_identical(monkeypatch):
    """Both members of an antithetic pair run compiled via mirrored
    pre-drawn uniform blocks — no warning, bits match the Python
    engine's coupled streams exactly."""
    from repro.experiments.common import canonical_cluster, canonical_workload

    for member in RngStreams.replication_seed_pairs(9, 1)[0]:
        monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
        ref = simulate(canonical_cluster(), canonical_workload(), horizon=40.0, seed=member)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error", CompiledFallbackWarning)
            got = simulate(
                canonical_cluster(), canonical_workload(), horizon=40.0, seed=member
            )
        assert np.array_equal(ref.delays, got.delays)
        assert ref.average_power == got.average_power
        assert ref.meta["n_events"] == got.meta["n_events"]


@needs_kernel
def test_epoch_controller_trace_bit_identical(monkeypatch):
    """The epoch-yield protocol reproduces the engine's full per-epoch
    record — boundary times, queue snapshots, applied speeds, segmented
    energy — not just the end-of-run aggregates."""
    from repro.experiments.common import canonical_cluster, canonical_workload

    kwargs = dict(
        horizon=80.0,
        seed=42,
        epoch_times=[20.0, 40.0, 60.0],
        epoch_controller=_epoch_controller,
    )
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = simulate(canonical_cluster(), canonical_workload(), **kwargs)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        got = simulate(canonical_cluster(), canonical_workload(), **kwargs)
    assert np.array_equal(ref.delays, got.delays)
    assert ref.meta["dynamic_energy"] == got.meta["dynamic_energy"]
    assert np.array_equal(ref.meta["final_speeds"], got.meta["final_speeds"])
    ta, tb = ref.meta["epoch_trace"], got.meta["epoch_trace"]
    assert len(ta) == len(tb)
    for ra, rb in zip(ta, tb):
        assert ra["t"] == rb["t"]
        assert np.array_equal(ra["queues"], rb["queues"])
        assert np.array_equal(ra["speeds"], rb["speeds"])
        assert ra["dynamic_energy"] == rb["dynamic_energy"]


@needs_kernel
def test_queue_sampling_telemetry_identical(monkeypatch, tmp_path):
    """Buffered C-side queue sampling batch-flushes the exact gauge
    values and ``sim.queue_sample`` event rows the Python loop emits."""
    import json

    from repro.experiments.common import canonical_cluster, canonical_workload
    from repro.obs import telemetry_session

    def rows(out_dir):
        found = []
        for path in sorted(out_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                if rec.get("name") == "sim.queue_sample":
                    rec.pop("ts", None)  # wall-clock stamp, not simulated time
                    found.append(rec)
        return found

    def run(backend, out_dir):
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        with telemetry_session(out_dir, sample_queues=True, queue_sample_interval=2.0):
            return simulate(
                canonical_cluster(), canonical_workload(), horizon=60.0, seed=11
            )

    ref = run("python", tmp_path / "py")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        got = run("compiled", tmp_path / "c")
    ref_rows, got_rows = rows(tmp_path / "py"), rows(tmp_path / "c")
    assert len(ref_rows) > 0
    assert ref_rows == got_rows
    assert np.array_equal(ref.delays, got.delays)


# ---------------------------------------------------------------------------
# the _unsupported_reason decision matrix
# ---------------------------------------------------------------------------


# Epoch controllers and antithetic seeds are no longer inputs of the
# decision; their compiled runs are covered by the parity tests above,
# which turn any fallback warning into an error.


def test_unsupported_reason_none_for_ps_tiers():
    from repro.experiments.common import canonical_cluster

    assert compiled_mod._unsupported_reason(canonical_cluster(discipline="ps")) is None


def test_unsupported_reason_none_for_queue_sampling(monkeypatch, tmp_path):
    """Queue sampling is a telemetry mode, not a config knob — the
    decision must stay None while it is active."""
    from repro.experiments.common import canonical_cluster
    from repro.obs import telemetry_session

    with telemetry_session(tmp_path, sample_queues=True):
        assert compiled_mod._unsupported_reason(canonical_cluster()) is None


def test_unsupported_reason_exact_string_for_unknown_discipline():
    """A discipline outside the kernel's dispatch table is the one
    remaining fallback class, with a stable reason string."""
    from types import SimpleNamespace

    tier = SimpleNamespace(discipline="edf")
    cluster = SimpleNamespace(tiers=[tier])
    assert (
        compiled_mod._unsupported_reason(cluster)
        == "tier discipline 'edf' is not modeled by the compiled kernel"
    )


def test_unsupported_reason_fallback_matches_and_auto_silent(monkeypatch):
    """A forced out-of-envelope config degrades to the Python engine
    bit-identically; ``compiled`` warns once, ``auto`` stays silent."""
    from repro.experiments.common import canonical_cluster, canonical_workload

    monkeypatch.setattr(
        compiled_mod,
        "_unsupported_reason",
        lambda cluster: "synthetic out-of-envelope reason",
    )
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = simulate(canonical_cluster(), canonical_workload(), horizon=30.0, seed=4)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with pytest.warns(CompiledFallbackWarning, match="synthetic out-of-envelope"):
        got = simulate(canonical_cluster(), canonical_workload(), horizon=30.0, seed=4)
    assert np.array_equal(ref.delays, got.delays)
    assert ref.average_power == got.average_power
    monkeypatch.setenv("REPRO_SIM_BACKEND", "auto")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        silent = simulate(canonical_cluster(), canonical_workload(), horizon=30.0, seed=4)
    assert np.array_equal(ref.delays, silent.delays)


# ---------------------------------------------------------------------------
# process-pool warm-start initializer (regression: identical results)
# ---------------------------------------------------------------------------


def _payloads(n=3, horizon=60.0, seed=77):
    from repro.experiments.common import canonical_cluster, canonical_workload

    cluster, workload = canonical_cluster(), canonical_workload()
    return [
        (
            {
                "cluster": cluster,
                "workload": workload,
                "horizon": horizon,
                "warmup_fraction": 0.1,
                "seed": child,
            },
        )
        for child in RngStreams.replication_seeds(seed, n)
    ]


def _result_bits(n_workers, payloads):
    """Per-replication bits of ``payloads`` run on a pool of ``n_workers``."""
    out = {}
    with WorkerPool(n_workers) as pool:
        for i, ok, value in pool.run(_run_one, payloads):
            assert ok, value
            res, _wall = value
            out[i] = (res.delays.tolist(), res.average_power, res.meta["n_events"])
    return out


def test_warm_start_initializer_identical_results():
    """The per-worker warm-up must not change a single bit of any
    replication, relative to the inline loop."""
    payloads = _payloads()
    assert _result_bits(2, payloads) == _result_bits(1, payloads)


@needs_kernel
def test_warm_start_compiled_backend_identical_results(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    payloads = _payloads(n=2, horizon=40.0)
    pooled = _result_bits(2, payloads)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    serial = _result_bits(1, payloads)
    assert pooled == serial


def test_warm_worker_runs_in_process(monkeypatch):
    """The initializer itself is cheap, import-only and idempotent."""
    from repro.simulation.parallel import _warm_worker

    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    _warm_worker()
    _warm_worker("python")
    assert __import__("os").environ["REPRO_SIM_BACKEND"] == "python"


def test_warm_worker_inherits_warned_reasons(monkeypatch):
    """Regression: the once-per-process CompiledFallbackWarning dedup
    must carry into warm-started pool workers — a reason the parent
    already surfaced is seeded into the worker's memory, so a pool
    warns once per pool, not once per worker."""
    from repro.simulation.parallel import _warm_worker, _warned_snapshot

    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    compiled_mod._warned.add("synthetic reason already shown")
    assert _warned_snapshot() == ("synthetic reason already shown",)

    # Simulate a fresh worker: empty dedup memory, then the initializer
    # runs with the parent's snapshot (in-process stand-in for the
    # spawned child; the seeding path is identical).
    monkeypatch.setattr(compiled_mod, "_warned", set())
    _warm_worker("python", ("synthetic reason already shown",))
    assert "synthetic reason already shown" in compiled_mod._warned

    # And the warning machinery honors the inherited entry: no re-emit.
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        compiled_mod._warn_fallback("synthetic reason already shown")


_SEEN_WARNED: tuple[str, ...] | None = None


def _recording_warm_worker(backend=None, warned=()):
    """Stand-in worker warm-up that records the snapshot it was handed."""
    global _SEEN_WARNED
    _SEEN_WARNED = warned


def _seen_warned():
    return _SEEN_WARNED


@pytest.mark.skipif(
    __import__("multiprocessing").get_start_method() != "fork",
    reason="the recording warm-up reaches workers only through fork",
)
def test_pool_initargs_carry_warned_snapshot(monkeypatch):
    """The live pool hands every worker the parent's snapshot at start-up."""
    from repro.simulation import parallel as parallel_mod

    compiled_mod._warned.add("pool-visible reason")
    monkeypatch.setattr(parallel_mod, "_warm_worker", _recording_warm_worker)
    with parallel_mod.WorkerPool(2) as pool:
        seen = [value for _i, _ok, value in pool.run(_seen_warned, [(), ()])]
    assert seen == [("pool-visible reason",)] * 2
