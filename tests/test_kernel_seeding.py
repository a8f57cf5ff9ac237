"""Stream seeding inside the C kernel, bit for bit against NumPy.

The compiled kernel seeds every natively drawn stream itself: NumPy's
``SeedSequence`` entropy pool (pool size 4) and ``PCG64`` seeding are
ported into ``_kernel.c``, and Python hands over only a replication's
key words (entropy, then spawn key) and each stream's ``fnv1a64(name)``.
These tests drive the kernel's ``k_seed_streams`` probe, which seeds a
stream exactly as ``run_kernel`` seeds a slot, on generated keys and
compare the 128-bit state and increment and the first raw, buffered
32-bit and double draws with ``PCG64(SeedSequence(entropy, spawn_key +
(hash,)))``. They also pin the seed checks at the boundaries that take
plain seeds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelValidationError
from repro.experiments.common import small_cluster, small_workload
from repro.simulation import FleetScenario, FleetStore, RngStreams, run_fleet, simulate
from repro.simulation import compiled
from repro.simulation.rng import fnv1a64

needs_kernel = pytest.mark.skipif(
    not compiled.kernel_available(), reason="no C toolchain for the compiled kernel"
)

_MASK64 = (1 << 64) - 1

_ints = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(0, 2**256),
)
_entropy = st.one_of(_ints, st.lists(st.integers(0, 2**64), min_size=1, max_size=4))
_spawn_key = st.lists(st.one_of(st.just(0), st.integers(0, 2**64 - 1)), max_size=3)
# Name hashes, including values below 2^32 (one key word instead of two).
_name_hash = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.text(max_size=12).map(fnv1a64),
)
_stream = st.tuples(_entropy, _spawn_key, _name_hash)


def _numpy_row(entropy, spawn_key, name_hash) -> list[int]:
    """The probe's row for one stream, computed by NumPy itself."""
    seq = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key) + (name_hash,))
    bg = np.random.PCG64(seq)
    state, inc = bg.state["state"]["state"], bg.state["state"]["inc"]
    row = [state >> 64, state & _MASK64, inc >> 64, inc & _MASK64]
    row += [int(v) for v in bg.random_raw(2)]
    c = bg.ctypes

    def u32() -> int:
        return int(c.next_uint32(c.state))

    def dbl() -> int:
        return int(np.float64(c.next_double(c.state)).view(np.uint64))

    row += [u32(), u32(), u32(), dbl(), u32(), dbl()]
    return row


@needs_kernel
@settings(max_examples=150, deadline=None)
@given(st.lists(_stream, min_size=1, max_size=6))
def test_c_seeding_matches_numpy(streams):
    keys = [(entropy, tuple(spawn_key)) for entropy, spawn_key, _ in streams]
    hashes = [h for *_, h in streams]
    got = compiled._seed_probe(keys, hashes)
    for row, stream in zip(got.tolist(), streams):
        assert row == _numpy_row(*stream)


def test_key_words_follow_seedsequence_encoding():
    # Run entropy pads to four words; a spawn-key 0 is one zero word and
    # 2^32 takes two; sequence entropy concatenates its elements' words.
    words, offsets = compiled._key_arrays([(0, ()), (2**32 + 5, (0, 2**32)), ([1, 2**32], (3,))])
    assert offsets.tolist() == [0, 4, 11, 16]
    assert words.tolist() == [0] * 4 + [5, 1, 0, 0, 0, 0, 1] + [1, 0, 1, 0, 3]
    with pytest.raises(ModelValidationError):
        compiled._key_arrays([(-1, ())])


@needs_kernel
def test_pool_size_ignored_on_both_engines(monkeypatch):
    # RngStreams builds its children from (entropy, spawn key) alone, so
    # a non-default pool size on the master sequence changes nothing --
    # the C seeder (always pool size 4) must agree.
    cluster, workload = small_cluster(), small_workload(0.8)
    seed = np.random.SeedSequence(5, pool_size=8)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = simulate(cluster, workload, horizon=40.0, seed=seed)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    got = simulate(cluster, workload, horizon=40.0, seed=seed)
    assert got.meta["n_events"] == ref.meta["n_events"]
    np.testing.assert_array_equal(got.delays, ref.delays)
    assert got.average_power == ref.average_power
    fields, failures = compiled.maybe_simulate_fleet_batch(
        "compiled", cluster, workload, 40.0, 0.1, [seed, (5, ())]
    )
    assert failures == []
    for b in range(2):
        np.testing.assert_array_equal(fields["delays"][b], ref.delays)


@pytest.mark.parametrize("bad", [-1, 1.5, True, np.int64(-3)])
def test_run_fleet_rejects_bad_seed_before_any_unit(tmp_path, bad):
    scenario = FleetScenario(
        label="s", cluster=small_cluster(), workload=small_workload(0.5), horizon=5.0
    )
    with pytest.raises(ModelValidationError, match="seed"):
        run_fleet([scenario], 2, tmp_path / "store", seed=bad, n_jobs=1)
    assert not (tmp_path / "store").exists()


def test_run_fleet_accepts_numpy_integer_seed(tmp_path):
    scenario = FleetScenario(
        label="s", cluster=small_cluster(), workload=small_workload(0.5), horizon=5.0
    )
    run_fleet([scenario], 2, tmp_path / "a", seed=np.int64(3), n_jobs=1, store_format="npz")
    run_fleet([scenario], 2, tmp_path / "b", seed=3, n_jobs=1, store_format="npz")
    a, b = FleetStore.open(tmp_path / "a"), FleetStore.open(tmp_path / "b")
    assert a.meta["seed"] == 3
    assert a.read()["mean_delay"].tolist() == b.read()["mean_delay"].tolist()


@pytest.mark.parametrize("bad", [True, False, -1, 1.5, "7", (1, (2,))])
def test_plain_seed_boundaries_reject_bad_seeds(bad):
    with pytest.raises(ModelValidationError):
        RngStreams(bad)
    if not isinstance(bad, tuple):  # a tuple is a fleet unit key there
        with pytest.raises(ModelValidationError):
            compiled._seed_key(bad)


@needs_kernel
def test_unit_path_rejects_unit_keys(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with pytest.raises(ModelValidationError):
        simulate(small_cluster(), small_workload(0.5), horizon=5.0, seed=(1, (2,)))
