"""Spans around the library's public entry points, recorded from outside.

The benchmark never edits the library. It replaces a module or class
attribute with a wrapper that records a span (name, start, end, parent)
and calls the original, and puts the original back afterwards. Spans
stay in memory until the run writes them out.

A span name is ``<layer>:<call>``; a layer's self time is the sum over
its spans of the span's duration minus its children's durations.

Wrappers record only in the process that installed them. Pool workers
forked from that process inherit the wrappers but run untraced.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

clock = time.perf_counter


class BenchPathError(RuntimeError):
    """A compiled call fell back to the pure-Python engine."""


class Tracer:
    """An in-memory span log plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        # One record per span: [name, start, end, parent, info].
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._seed_start: float | None = None

    # -- recording -------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        info: Callable[[tuple, Any], Any] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around each call; ``info(args, result)``
        is stored with the span."""
        spans, stack, pid = self.spans, self._stack, self.pid

        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if info is not None:
                spans[idx][4] = info(args, result)
            return result

        return traced

    def _closed(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, None])

    # -- patching --------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def trace_attr(self, owner: Any, attr: str, name: str, info=None) -> None:
        """Wrap ``owner.attr`` in a span named ``name``."""
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), info))

    def trace_function(self, fn: Callable[..., Any], name: str, info=None) -> None:
        """Wrap ``fn`` wherever a loaded ``repro`` module holds it by name,
        so calls through ``from x import fn`` bindings are traced too."""
        wrapper = self.wrap(name, fn, info)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the SeedSequence -> PCG64 stream construction --------------------

    def seeding_shims(self) -> tuple[type, type]:
        """Stand-ins for ``numpy.random.SeedSequence`` and ``PCG64``.

        One ``simulation.rng:stream_seed`` span runs from a
        ``SeedSequence`` construction to the ``PCG64`` built from it.
        ``isinstance`` checks against the stand-ins still see the real
        classes.
        """
        real_ss, real_pcg = np.random.SeedSequence, np.random.PCG64
        tracer = self

        class _Meta(type):
            def __instancecheck__(cls, obj: Any) -> bool:
                return isinstance(obj, cls._real)

        class SeedSequence(metaclass=_Meta):
            _real = real_ss

            def __new__(cls, *args: Any, **kwargs: Any) -> Any:
                tracer._seed_start = clock()
                return real_ss(*args, **kwargs)

        class PCG64(metaclass=_Meta):
            _real = real_pcg

            def __new__(cls, *args: Any, **kwargs: Any) -> Any:
                start = tracer._seed_start
                if start is None:
                    start = clock()
                bg = real_pcg(*args, **kwargs)
                tracer._seed_start = None
                tracer._closed("simulation.rng:stream_seed", start, clock())
                return bg

        return SeedSequence, PCG64

    # -- analysis --------------------------------------------------------

    def clear(self) -> None:
        self.spans.clear()

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer (the part of a span name before ``:``)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def root_seconds(self) -> float:
        """Total duration of top-level spans (= the sum of all self times)."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def named(self, name: str) -> list[list[Any]]:
        return [s for s in self.spans if s[0] == name]

    def dump(self) -> list[dict[str, Any]]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "info": i}
            for n, s, e, p, i in self.spans
        ]


def install_path_guard(tracer: Tracer, counts: dict[str, int]) -> None:
    """Make every compiled call that falls back to Python raise.

    ``maybe_simulate_fleet_batch`` and ``maybe_simulate_compiled`` return
    ``None`` when the C kernel is skipped. The guard turns that into a
    :class:`BenchPathError`, so the fleet records the chunk's units as
    failed and a replication raises: a fallback fails the run instead of
    passing as a slowdown. Forked pool workers inherit the guard.
    ``counts["batched_chunks"]`` counts batch calls made in this process.
    """
    from repro.simulation import compiled

    fleet_batch = compiled.maybe_simulate_fleet_batch
    unit = compiled.maybe_simulate_compiled

    def guarded_batch(*args: Any, **kwargs: Any) -> Any:
        result = fleet_batch(*args, **kwargs)
        if result is None:
            raise BenchPathError("fleet chunk left the batched compiled path")
        counts["batched_chunks"] += 1
        return result

    def guarded_unit(*args: Any, **kwargs: Any) -> Any:
        result = unit(*args, **kwargs)
        if result is None:
            raise BenchPathError("replication fell back to the Python engine")
        return result

    tracer.patch(compiled, "maybe_simulate_fleet_batch", guarded_batch)
    tracer.patch(compiled, "maybe_simulate_compiled", guarded_unit)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Record spans around each layer's entry points for the block."""
    install_spans(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


def install_spans(tracer: Tracer) -> None:
    """Patch each layer's entry points to record spans into ``tracer``."""
    import scipy.optimize

    from repro.cluster.model import ClusterModel
    from repro.core import delay, opt_cost, opt_delay, opt_energy
    from repro.core.batch_eval import BatchEvaluator
    from repro.optimize import constrained, sweep
    from repro.simulation import adaptive, compiled, fleet, replications
    from repro.simulation.results_store import FleetStore

    tracer.trace_function(fleet.run_fleet, "simulation.fleet:run_fleet")
    tracer.trace_function(
        replications.simulate_replications,
        "simulation.replications:simulate_replications",
    )
    tracer.trace_function(
        adaptive.simulate_replications_adaptive,
        "simulation.adaptive:simulate_replications_adaptive",
    )
    tracer.trace_attr(FleetStore, "append_columns", "simulation.results_store:append_columns")
    tracer.trace_attr(FleetStore, "flush", "simulation.results_store:flush")

    # The batch call swaps in the seeding stand-ins for its own extent;
    # the unit path and every other SeedSequence user stay untouched.
    batch = tracer.wrap(
        "simulation.compiled:maybe_simulate_fleet_batch",
        compiled.maybe_simulate_fleet_batch,
    )
    ss_shim, pcg_shim = tracer.seeding_shims()

    def seeded_batch(*args: Any, **kwargs: Any) -> Any:
        if os.getpid() != tracer.pid:
            return batch(*args, **kwargs)
        real = np.random.SeedSequence, np.random.PCG64
        np.random.SeedSequence, np.random.PCG64 = ss_shim, pcg_shim
        try:
            return batch(*args, **kwargs)
        finally:
            np.random.SeedSequence, np.random.PCG64 = real

    tracer.patch(compiled, "maybe_simulate_fleet_batch", seeded_batch)
    tracer.trace_attr(
        compiled, "maybe_simulate_compiled", "simulation.compiled:maybe_simulate_compiled"
    )
    # Both simulate paths fetch the library through load_kernel(); wrap
    # its entry points on the cached library object.
    lib = compiled.load_kernel()
    tracer.patch(lib, "run_kernel", tracer.wrap("simulation._kernel:run_kernel", lib.run_kernel))
    tracer.patch(
        lib,
        "run_kernel_batch",
        tracer.wrap(
            "simulation._kernel:run_kernel_batch",
            lib.run_kernel_batch,
            info=lambda args, rc: int(args[0]),
        ),
    )

    def n_rows(args: tuple, _result: Any) -> int:
        return int(np.shape(args[1])[0]) if np.ndim(args[1]) == 2 else 1

    for method in ("per_tier_sojourns", "end_to_end_delays", "mean_delay", "average_power"):
        tracer.trace_attr(
            BatchEvaluator, method, f"core.batch_eval:{method}", info=n_rows
        )
    # The scalar analytic model the SLSQP objectives and constraints call.
    tracer.trace_function(delay.end_to_end_delays, "core.delay:end_to_end_delays")
    tracer.trace_function(delay.mean_end_to_end_delay, "core.delay:mean_end_to_end_delay")
    tracer.trace_attr(ClusterModel, "with_speeds", "cluster.model:with_speeds")
    tracer.trace_attr(ClusterModel, "average_power", "cluster.model:average_power")
    tracer.trace_function(opt_delay.minimize_delay, "core.opt_delay:minimize_delay")
    tracer.trace_function(opt_energy.minimize_energy, "core.opt_energy:minimize_energy")
    tracer.trace_function(opt_cost.minimize_cost, "core.opt_cost:minimize_cost")
    tracer.trace_function(sweep.continuation_sweep, "optimize.sweep:continuation_sweep")
    tracer.patch(
        constrained,
        "minimize",
        tracer.wrap(
            "optimize.constrained:scipy_minimize",
            scipy.optimize.minimize,
            info=lambda args, res: int(getattr(res, "nfev", 0) or 0),
        ),
    )
