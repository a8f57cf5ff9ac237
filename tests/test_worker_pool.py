"""The one worker pool behind replications, fleet chunks and series.

Pins the pool's contract: ``run`` yields every task's outcome tagged
with its index, a task's exception comes back with its own type, a
worker that dies fails only the task it held, and the pool replaces it
and stays usable for the next round.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.exceptions import ModelValidationError, UnstableSystemError, WorkerLostError
from repro.simulation.parallel import WorkerPool

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying task reaches workers only through fork",
)


def _square(x):
    return x * x


def _fail_on_odd(x):
    if x % 2:
        raise UnstableSystemError(f"odd {x}", utilization=1.5)
    return x


def _die_on(x, doomed):
    if x == doomed:
        os._exit(3)
    return os.getpid()


def _outcomes(pool, fn, args_list):
    return {i: (ok, value) for i, ok, value in pool.run(fn, args_list)}


@pytest.mark.parametrize("n_workers", [1, 2])
def test_results_keyed_by_index(n_workers):
    with WorkerPool(n_workers) as pool:
        out = _outcomes(pool, _square, [(x,) for x in range(7)])
    assert out == {x: (True, x * x) for x in range(7)}


@pytest.mark.parametrize("n_workers", [1, 2])
def test_task_error_keeps_its_type(n_workers):
    with WorkerPool(n_workers) as pool:
        out = _outcomes(pool, _fail_on_odd, [(x,) for x in range(4)])
    assert [out[i][0] for i in range(4)] == [True, False, True, False]
    err = out[1][1]
    assert isinstance(err, UnstableSystemError) and str(err) == "odd 1"


@needs_fork
def test_dead_worker_fails_only_its_task_and_pool_survives(hang_guard):
    with WorkerPool(2) as pool:
        out = _outcomes(pool, _die_on, [(x, 2) for x in range(6)])
        assert sorted(i for i, (ok, _v) in out.items() if not ok) == [2]
        assert isinstance(out[2][1], WorkerLostError)
        # The next round runs on the repaired pool, two workers again.
        again = _outcomes(pool, _die_on, [(x, -1) for x in range(6)])
    assert all(ok for ok, _pid in again.values())
    assert len({pid for _ok, pid in again.values()}) <= 2


def test_unpicklable_task_fails_alone():
    with WorkerPool(2) as pool:
        out = _outcomes(pool, _square, [(1,), (lambda: 0,), (3,)])
    assert out[0] == (True, 1) and out[2] == (True, 9)
    assert out[1][0] is False


def test_needs_a_worker():
    with pytest.raises(ModelValidationError):
        WorkerPool(0)
