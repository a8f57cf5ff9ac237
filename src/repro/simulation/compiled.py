"""Compiled (C) backend for the discrete-event simulation engine.

The hot event loop of :func:`repro.simulation.simulator.simulate` —
heap dispatch, array-backed station transitions, per-event statistics
and the service/arrival/routing variate draws — is reimplemented in
``_kernel.c``, compiled on demand with the system C compiler, linked
against NumPy's own ``libnpyrandom`` distribution library, and driven
through :mod:`ctypes`.

Why C + ctypes rather than Numba: the container this project targets
ships only the base scientific stack (no Numba, no Cython) but always
has a C toolchain, and NumPy exports its C distribution functions
precisely for this kind of extension.  The kernel draws every variate
through the *same* NumPy C functions the ``Generator`` methods call,
on per-stream PCG64 generators it seeds itself, in C, to the identical
state :class:`~repro.simulation.rng.RngStreams` gives the same stream
(NumPy's ``SeedSequence`` and PCG64 seeding are ported into
``_kernel.c``; ``tests/test_kernel_seeding.py`` pins them against
NumPy) — so the bit-stream consumption, and therefore every simulated
metric, is bit-identical to the pure-Python engine (enforced by
``tests/test_golden_sim_metrics.py`` and
``tests/test_compiled_backend.py``).  Python hands the kernel each
replication's key as uint32 words (entropy, then spawn key) and each
stream slot's ``fnv1a64(name)``; no NumPy bit generator is built for a
natively drawn stream.

Every compiled simulation runs through one path: a single replication
is a batch of one.  One descriptor builder (:func:`_simulate_reps`)
turns a scenario plus a list of seeds into station descriptors, routes
and sampler templates (once per call) and per-seed key words, and drives
the one C entry point over all seeds on reused arenas; the accumulators
come back with a leading replication axis and go through the one
finalize the Python engine also uses
(:func:`repro.simulation.simulator._finalize`).

Backend selection (``REPRO_SIM_BACKEND`` environment variable):

``python`` (default)
    Pure-Python engine, exactly as before.
``compiled``
    Use the C kernel; if it cannot be built or loaded, fall back to
    pure Python with a single visible
    :class:`~repro.exceptions.CompiledFallbackWarning` per process and
    reason.
``auto``
    Use the C kernel when available, silently fall back otherwise.

The support envelope is closed: processor-sharing tiers run natively
(the kernel mirrors :mod:`repro.simulation.ps_station`'s share law),
dynamic speed control yields to the Python controller at every epoch
boundary (queue counts and segmented energy out, clipped speeds back
in, work-preserving rescale applied in C), antithetic seeds pre-draw
their mirrored inverse-transform variates through per-stream Python
refill buffers (``np.log`` is not bitwise libm ``log``, so the coupled
streams cannot be reproduced natively), trace-driven arrivals replay
their timestamp arrays in C, and telemetry queue sampling is buffered
kernel-side and batch-flushed to the sink at epoch/end-of-run
boundaries in the engine's exact event order.  Distribution families
without a native C mapping (e.g. Pareto, whose ``np.power`` SIMD path
is not bit-identical to libm ``pow``) are drawn through a per-event
Python callback instead — slower, still bit-identical — so *any*
accepted configuration produces exact results.  The kernel models
every tier discipline the model accepts; only a failed build falls
back to the interpreter engine.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from ctypes import CFUNCTYPE, POINTER, c_double, c_int, c_longlong, c_void_p
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.distributions.base import ScaledDistribution, ShiftedDistribution
from repro.distributions.deterministic import Deterministic
from repro.distributions.erlang import Erlang
from repro.distributions.exponential import Exponential
from repro.distributions.gamma_dist import Gamma
from repro.distributions.hyperexponential import HyperExponential
from repro.distributions.lognormal import LogNormal
from repro.distributions.uniform_dist import Uniform
from repro.distributions.weibull import Weibull
from repro.exceptions import CompiledFallbackWarning, ModelValidationError, SimulationError
from repro.simulation.rng import AntitheticSeed, RngStreams, fnv1a64, validate_seed
from repro.simulation.rng import _TINY as _RNG_TINY
from repro.workload.arrivals import PoissonProcess
from repro.workload.traces import TraceArrivalProcess

__all__ = [
    "KernelBuildError",
    "kernel_available",
    "kernel_status",
    "load_kernel",
    "maybe_simulate_compiled",
    "maybe_simulate_fleet_batch",
    "resolve_backend",
]

_BACKENDS = ("python", "compiled", "auto")

# ---------------------------------------------------------------------------
# build & load
# ---------------------------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")

# kind tags (must match _kernel.c)
_SK_PYCALL = 0
_SK_DET = 1
_SK_EXPO = 2
_SK_GAMMA = 3
_SK_UNIFORM = 4
_SK_LOGNORMAL = 5
_SK_WEIBULL = 6
_SK_HYPER = 7
_SK_PYBLOCK = 8
_SK_TRACE = 9
_POST_MUL = 0
_POST_ADD = 1

# Python-refilled variate buffers hand out values in chunks of exactly
# the BlockCursor block size, so one vectorized refill draw consumes a
# stream identically to the Python engine's pregenerated blocks.
_BLOCK_SIZE = 4096

_RC_OK = 0
_RC_NOMEM = 1
_RC_ABORT = 2
_RC_INVARIANT = 3


class KernelBuildError(RuntimeError):
    """The C simulation kernel could not be compiled or loaded."""


_lib: ctypes.CDLL | None = None
_load_error: str | None = None
_warned: set[str] = set()


def _warn_fallback(reason: str) -> None:
    """One visible warning per process and reason, then silence."""
    if reason in _warned:
        return
    _warned.add(reason)
    warnings.warn(
        CompiledFallbackWarning(
            f"REPRO_SIM_BACKEND=compiled requested but falling back to the "
            f"pure-Python engine: {reason} (results are bit-identical)"
        ),
        stacklevel=4,
    )


def resolve_backend(raw: str | None) -> str:
    """Validate and normalize a backend selector string."""
    if raw is None:
        return "python"
    value = raw.strip().lower()
    if value not in _BACKENDS:
        raise ModelValidationError(
            f"REPRO_SIM_BACKEND must be one of {_BACKENDS}, got {raw!r}"
        )
    return value


def _source_digest() -> str:
    payload = _KERNEL_SOURCE.read_bytes()
    tag = f"|numpy={np.__version__}|py={sys.version_info[:2]}|{platform.machine()}"
    return hashlib.sha256(payload + tag.encode()).hexdigest()[:16]


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def _find_compiler() -> str | None:
    for name in ("gcc", "cc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def build_kernel() -> Path:
    """Compile ``_kernel.c`` into the cache (no-op when already built).

    The shared object is keyed by a digest of the source, the NumPy and
    Python versions and the machine architecture, and installed with an
    atomic rename so concurrent processes (e.g. a fleet's workers) can
    race the build safely.
    """
    cache = _cache_dir()
    try:
        cache.mkdir(parents=True, exist_ok=True)
    except OSError:
        cache = Path(tempfile.gettempdir()) / "repro-kernels"
        cache.mkdir(parents=True, exist_ok=True)
    target = cache / f"repro_sim_kernel_{_source_digest()}.so"
    if target.exists():
        return target
    compiler = _find_compiler()
    if compiler is None:
        raise KernelBuildError(
            "no C compiler found (tried gcc, cc, clang); install one or use "
            "REPRO_SIM_BACKEND=python"
        )
    np_dir = Path(np.__file__).parent
    lib_dir = Path(np.random.__file__).parent / "lib"
    if not (lib_dir / "libnpyrandom.a").exists():
        raise KernelBuildError(
            f"NumPy's static distribution library libnpyrandom.a not found under "
            f"{lib_dir}; this NumPy build cannot back the compiled kernel"
        )
    tmp = target.with_suffix(f".tmp.{os.getpid()}.so")
    cmd = [
        compiler,
        "-O2",
        "-fPIC",
        "-shared",
        "-o",
        str(tmp),
        str(_KERNEL_SOURCE),
        "-I",
        sysconfig.get_paths()["include"],
        "-I",
        np.get_include(),
        "-L",
        str(lib_dir),
        "-lnpyrandom",
        "-lm",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise KernelBuildError(
            f"kernel compilation failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
        )
    os.replace(tmp, target)  # atomic: racing builders converge on one file
    return target


_SERVICE_CB = CFUNCTYPE(c_double, c_int)
# (callback slot, batch_out) -> gap
_ARRIVAL_CB = CFUNCTYPE(c_double, c_int, POINTER(c_longlong))
# (block_id, buf, cap) -> number of variates written (0 = error/abort)
_REFILL_CB = CFUNCTYPE(c_longlong, c_int, POINTER(c_double), c_longlong)
# (t_boundary) -> -1 error, 0 keep speeds, 1 apply the shared speeds array
_EPOCH_CB = CFUNCTYPE(c_int, c_double)
# (ts[n], vals[n*2M], n) -> 0 ok, -1 error
_SAMPLE_CB = CFUNCTYPE(c_int, POINTER(c_double), POINTER(c_longlong), c_longlong)


class _SamplerDesc(ctypes.Structure):
    _fields_ = [
        ("kind", c_int),
        ("n_branches", c_int),
        ("n_post", c_int),
        ("py_id", c_int),
        ("p1", c_double),
        ("p2", c_double),
        ("cdf", POINTER(c_double)),
        ("scales", POINTER(c_double)),
        ("post_op", POINTER(c_int)),
        ("post_val", POINTER(c_double)),
    ]


class _StationDesc(ctypes.Structure):
    _fields_ = [("servers", c_int), ("discipline", c_int), ("capacity", c_int)]


class _ArrivalDesc(ctypes.Structure):
    _fields_ = [
        ("kind", c_int),
        ("py_id", c_int),
        ("scale", c_double),
        ("ts", POINTER(c_double)),  # SK_TRACE: sorted timestamps
        ("n_ts", c_longlong),
        ("cursor", c_longlong),  # SK_TRACE replay state
        ("clock", c_double),
    ]


_DISCIPLINES = {"fcfs": 0, "priority_np": 1, "priority_pr": 2, "loss": 3, "ps": 4}

# Raw per-replication accumulators, in the kernel's argument order:
# name -> (shape given K classes and M stations, dtype).  Row-major
# [class][station] like the Python engine's tallies; ``scalars`` holds
# (jobs created, events, warmup-discarded jobs, hit-horizon flag) and
# ``wf_*`` the per-class Welford delay moments.
_ACC_FIELDS = {
    "wait": (lambda K, M: (K, M), np.float64),
    "sojourn": (lambda K, M: (K, M), np.float64),
    "visits": (lambda K, M: (K, M), np.int64),
    "blocked": (lambda K, M: (K, M), np.int64),
    "offered": (lambda K, M: (K, M), np.int64),
    "busy": (lambda K, M: (M,), np.float64),
    "class_busy": (lambda K, M: (M, K), np.float64),
    "scalars": (lambda K, M: (4,), np.int64),
    "wf_n": (lambda K, M: (K,), np.int64),
    "wf_mean": (lambda K, M: (K,), np.float64),
    "wf_m2": (lambda K, M: (K,), np.float64),
}


def load_kernel() -> ctypes.CDLL:
    """Build (if needed) and load the kernel; cached per process."""
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise KernelBuildError(_load_error)
    try:
        path = build_kernel()
        lib = ctypes.CDLL(str(path))
        # Pointer arguments travel as addresses (c_void_p), so a call can
        # start at any replication's block of a per-replication array.
        lib.run_kernel.restype = c_int
        lib.run_kernel.argtypes = [
            c_int,  # n_reps
            c_int,  # K
            c_int,  # M
            c_double,  # horizon
            c_double,  # warmup
            c_void_p,  # station descriptors (M)
            c_void_p,  # sampler descriptors (n_reps blocks of M*K)
            c_void_p,  # arrival descriptors (n_reps blocks of K)
            c_void_p,  # routes (K itineraries) or NULL
            c_void_p,  # route_len
            c_void_p,  # entry_cum (routing tables) or NULL
            c_void_p,  # trans_cum
            c_void_p,  # routing block ids (antithetic) or NULL
            c_void_p,  # key words (uint32) or NULL
            c_void_p,  # key offsets (n_reps + 1)
            c_void_p,  # slot hashes (uint64, (M + 2) * K)
            _REFILL_CB,
            c_int,  # n_blocks
            c_longlong,  # block_size
            c_longlong,  # n_epochs
            c_void_p,  # epoch_times
            c_void_p,  # speeds (shared decision channel)
            c_void_p,  # counts_out (M*K queue counts)
            _EPOCH_CB,  # NULL = static speeds
            c_double,  # sample_interval
            _SAMPLE_CB,  # NULL = no queue sampling
            _SERVICE_CB,
            _ARRIVAL_CB,
            c_void_p,  # abort_flag
            *[c_void_p] * len(_ACC_FIELDS),  # accumulators, in _ACC_FIELDS order
            c_void_p,  # delay_ptrs or NULL
            c_void_p,  # delay_counts
            c_void_p,  # log_ptrs or NULL
            c_void_p,  # log_count
            c_void_p,  # fail_index
        ]
        # Unit calls go through run_kernel, fleet chunks through
        # run_kernel_batch: two names for the one C function, so each
        # call site stays separately visible to profilers.
        lib.run_kernel_batch = lib.run_kernel
        lib.k_free.restype = None
        lib.k_free.argtypes = [c_void_p]
        lib.k_seed_streams.restype = None
        lib.k_seed_streams.argtypes = [c_longlong, c_void_p, c_void_p, c_void_p, c_void_p]
    except KernelBuildError as exc:
        _load_error = str(exc)
        raise
    except OSError as exc:  # dlopen failure
        _load_error = f"could not load compiled kernel: {exc}"
        raise KernelBuildError(_load_error) from exc
    _lib = lib
    return lib


def kernel_available() -> bool:
    """True when the C kernel is (or can be) built and loaded."""
    try:
        load_kernel()
        return True
    except KernelBuildError:
        return False


def kernel_status() -> dict[str, Any]:
    """Diagnostic snapshot for ``repro bench``/docs: availability,
    cache path and the build error (if any)."""
    available = kernel_available()
    return {
        "available": available,
        "backend_env": os.environ.get("REPRO_SIM_BACKEND", "python"),
        "source": str(_KERNEL_SOURCE),
        "cache_dir": str(_cache_dir()),
        "error": _load_error,
    }


def _annotate_backend(resolved: str, requested: str, fallback: str | None = None) -> None:
    """Record the resolved simulation backend (and any fallback reason)
    in the telemetry run context, so the manifest / run store / dashboard
    can attribute perf differences across runs.  No-op when telemetry is
    disabled."""
    tel = obs.TELEMETRY
    if not tel.enabled:
        return
    context: dict[str, str] = {
        "sim_backend": resolved,
        "sim_backend_requested": requested,
    }
    if fallback is not None:
        context["sim_backend_fallback"] = fallback
    tel.annotate(**context)


# ---------------------------------------------------------------------------
# descriptor building
# ---------------------------------------------------------------------------


def _sampler_template(dist, keep: list) -> _SamplerDesc:
    """Map one distribution to a kernel descriptor without its stream.

    ``Scaled``/``Shifted`` wrappers unwrap into a post-op chain
    (outermost first; the kernel applies them innermost first, matching
    the Python nesting).  Families with a native NumPy C counterpart
    draw inside the kernel on the slot's C-seeded stream; anything else
    is ``_SK_PYCALL``, a per-draw Python callback performing the
    engine's exact scalar draw of ``dist`` itself.
    """
    post_ops: list[int] = []
    post_vals: list[float] = []
    base = dist
    while isinstance(base, (ScaledDistribution, ShiftedDistribution)):
        if isinstance(base, ScaledDistribution):
            post_ops.append(_POST_MUL)
            post_vals.append(float(base.factor))
        else:
            post_ops.append(_POST_ADD)
            post_vals.append(float(base.offset))
        base = base.base

    desc = _SamplerDesc()
    bt = type(base)
    if bt is Deterministic:
        desc.kind = _SK_DET
        desc.p1 = float(base.value)
    elif bt is Exponential:
        desc.kind = _SK_EXPO
        desc.p1 = 1.0 / base.rate
    elif bt in (Erlang, Gamma):
        desc.kind = _SK_GAMMA
        desc.p1 = float(base.k)
        desc.p2 = 1.0 / base.rate
    elif bt is Uniform:
        desc.kind = _SK_UNIFORM
        desc.p1 = float(base.low)
        # Generator.uniform computes the range once as high - low.
        desc.p2 = float(base.high) - float(base.low)
    elif bt is LogNormal:
        desc.kind = _SK_LOGNORMAL
        desc.p1 = float(base.mu)
        desc.p2 = float(base.sigma)
    elif bt is Weibull:
        desc.kind = _SK_WEIBULL
        desc.p1 = float(base.lam)
        desc.p2 = float(base.k)
    elif bt is HyperExponential:
        desc.kind = _SK_HYPER
        cdf = np.ascontiguousarray(base._cdf, dtype=np.float64)
        scales = np.ascontiguousarray(base._scales, dtype=np.float64)
        keep.extend((cdf, scales))
        desc.n_branches = cdf.size
        desc.cdf = cdf.ctypes.data_as(POINTER(c_double))
        desc.scales = scales.ctypes.data_as(POINTER(c_double))
    else:
        desc.kind = _SK_PYCALL  # wrappers sample through dist directly
        return desc
    if post_ops:
        op_arr = np.asarray(post_ops, dtype=np.int32)
        val_arr = np.asarray(post_vals, dtype=np.float64)
        keep.extend((op_arr, val_arr))
        desc.n_post = len(post_ops)
        desc.post_op = op_arr.ctypes.data_as(POINTER(c_int))
        desc.post_val = val_arr.ctypes.data_as(POINTER(c_double))
    return desc


def _pump_fill(dist, rng):
    """fill(n) for one antithetic service stream.

    Block-safe families draw one vectorized block (n == the BlockCursor
    block size, so the draw equals the engine's pregenerated chunk
    exactly); everything else pumps the engine's own scalar sampler n
    times.  HyperExponential -- the canonical high-variability demand,
    so the hot unsafe family -- is vectorized with interleaved
    uniforms: the scalar sampler consumes (u_select, u_expo) per draw,
    so one ``random(2n)`` batch sliced even/odd reproduces the exact
    stream consumption and values (``searchsorted(side="right")``
    matches ``bisect_right``).
    """
    from repro.simulation.simulator import _make_sampler

    if dist.block_sampling_safe:
        return partial(dist.sample, rng)
    if isinstance(dist, HyperExponential):
        cdf = np.asarray(dist._cdf, dtype=np.float64)
        scales = np.asarray(dist._scales, dtype=np.float64)

        def fill(n):
            u = rng.random(2 * n)
            idx = np.searchsorted(cdf, u[0::2], side="right")
            return scales[idx] * -np.log(np.maximum(1.0 - u[1::2], _RNG_TINY))

        return fill
    scalar = _make_sampler(dist, rng)
    return lambda n: [scalar() for _ in range(n)]


def _seed_key(seed) -> tuple[Any, tuple]:
    """``(entropy, spawn_key)`` of a replication seed: a
    ``SeedSequence``, a plain seed (validated like
    :class:`~repro.simulation.rng.RngStreams`), or a fleet unit key
    that already is that pair."""
    if isinstance(seed, np.random.SeedSequence):
        return seed.entropy, tuple(seed.spawn_key)
    if isinstance(seed, tuple):
        return seed[0], tuple(seed[1])
    return validate_seed(seed), ()


def _python_streams(seed) -> RngStreams:
    """The streams of the slots drawn in Python (callbacks, blocks)."""
    if isinstance(seed, tuple):
        seed = np.random.SeedSequence(seed[0], spawn_key=seed[1])
    return RngStreams(seed)


def _words(x) -> list[int]:
    """SeedSequence's uint32 encoding of entropy: an integer becomes its
    minimal little-endian words (``0`` is one zero word), a sequence the
    concatenation of its elements' words."""
    if isinstance(x, (int, np.integer)):
        if x < 0:
            raise ModelValidationError(f"seed entropy must be non-negative, got {x}")
        x = int(x)
        out = [x & 0xFFFFFFFF]
        while x > 0xFFFFFFFF:
            x >>= 32
            out.append(x & 0xFFFFFFFF)
        return out
    if isinstance(x, (str, bytes, float, np.inexact)):
        raise ModelValidationError(f"seed entropy must be integers, got {x!r}")
    return [w for v in x for w in _words(v)]


def _key_arrays(keys) -> tuple[np.ndarray, np.ndarray]:
    """Kernel key words and offsets for ``(entropy, spawn_key)`` keys.

    A key is its entropy words zero-padded to four, then its spawn-key
    words: SeedSequence pads the run entropy to the pool size whenever
    the spawn key is non-empty, and a stream's spawn key always ends in
    its name hash (the kernel appends those words per slot).
    """
    rows = []
    last = head = None
    for entropy, spawn_key in keys:
        if entropy is not last:  # a chunk's keys share one entropy object
            last, head = entropy, _words(entropy)
            head += [0] * (4 - len(head))
        rows.append(head + _words(spawn_key))
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    flat = itertools.chain.from_iterable(rows)
    return np.fromiter(flat, dtype=np.uint32, count=int(offsets[-1])), offsets


def _seed_probe(keys, hashes) -> np.ndarray:
    """Seed one stream per ``(key, name hash)`` through the kernel's
    ``k_seed_streams`` probe; row ``i`` holds the stream's state and
    inc words and its first draws (layout in ``_kernel.c``)."""
    words, offsets = _key_arrays(keys)
    hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
    if hashes.shape != (len(keys),):
        raise ModelValidationError(
            f"need one name hash per key, got {hashes.shape} for {len(keys)} keys"
        )
    out = np.zeros((len(keys), 12), dtype=np.uint64)
    load_kernel().k_seed_streams(
        len(keys), words.ctypes.data, offsets.ctypes.data, hashes.ctypes.data, out.ctypes.data
    )
    return out


def _take(lib, ptr, n, ctype) -> np.ndarray:
    """Copy a kernel-owned buffer into NumPy and release it."""
    out = np.empty(0)
    if ptr:
        if n:
            src = ctypes.cast(int(ptr), POINTER(ctype))
            out = np.ctypeslib.as_array(src, shape=(int(n),)).copy()
        lib.k_free(int(ptr))
    return out


# ---------------------------------------------------------------------------
# the compiled run
# ---------------------------------------------------------------------------


def maybe_simulate_compiled(
    backend: str,
    cluster,
    workload,
    horizon: float,
    warmup_fraction: float,
    seed,
    arrival_processes,
    collect_delay_samples: bool,
    collect_job_log: bool,
    routing,
    epoch_times,
    epoch_controller,
):
    """Run the replication on the C kernel as a batch of one, or return
    ``None`` to make :func:`~repro.simulation.simulator.simulate` fall
    back to the Python engine.  ``backend`` is ``"compiled"`` or
    ``"auto"`` (validated by the caller); only ``"compiled"`` warns on
    fallback.
    """
    if isinstance(seed, tuple):  # unit keys are for fleet chunks only
        validate_seed(seed)
    try:
        lib = load_kernel()
    except KernelBuildError as exc:
        if backend == "compiled":
            _warn_fallback(str(exc))
        _annotate_backend("python", backend, fallback=str(exc))
        return None
    _annotate_backend("compiled", backend)
    from repro.simulation.simulator import _unit_result

    acc, _, ledger, samples, logs = _simulate_reps(
        lib,
        "run_kernel",
        cluster,
        workload,
        horizon,
        warmup_fraction,
        [seed],
        raise_failure=True,
        arrival_processes=arrival_processes,
        routing=routing,
        epoch_times=epoch_times,
        epoch_controller=epoch_controller,
        collect_delay_samples=collect_delay_samples,
        collect_job_log=collect_job_log,
    )
    with obs.span("sim.finalize"):
        return _unit_result(
            cluster,
            workload,
            horizon,
            warmup_fraction * horizon,
            acc,
            ledger=ledger,
            delay_samples=samples[0] if samples else None,
            job_log=logs[0] if logs else None,
            stacklevel=4,
        )


def maybe_simulate_fleet_batch(
    backend: str,
    cluster,
    workload,
    horizon: float,
    warmup_fraction: float,
    seeds: list,
):
    """Run a chunk of replications of one scenario in one kernel call,
    or return ``None`` (kernel unavailable) so the fleet runner falls
    back to unit-at-a-time dispatch, which picks the engine and emits
    the usual fallback warnings itself.

    ``seeds`` holds replication seeds or fleet unit keys ``(entropy,
    spawn_key)``; a key runs exactly like ``SeedSequence(entropy,
    spawn_key=spawn_key)`` without building that object.

    Returns ``(fields, failures)``: ``fields`` is the shared finalize's
    per-replication metrics for the replications that succeeded, with
    ``fields["index"]`` their positions in ``seeds``; ``failures`` lists
    ``(index, "ExcType: message")`` pairs formatted exactly like the
    fleet's per-unit failure records.  A scenario-level rejection
    (validation, instability) raises, with the message ``simulate()``
    would raise per unit.
    """
    try:
        lib = load_kernel()
    except KernelBuildError:
        return None
    _annotate_backend("compiled", backend)
    from repro.simulation.simulator import (
        _finalize,
        _validate_basic_inputs,
        _validate_stability,
    )

    _validate_basic_inputs(cluster, workload, horizon, warmup_fraction)
    _validate_stability(cluster, workload)
    acc, failures, *_ = _simulate_reps(
        lib,
        "run_kernel_batch",
        cluster,
        workload,
        horizon,
        warmup_fraction,
        seeds,
        raise_failure=False,
    )
    with obs.span("sim.finalize", reps=len(seeds)):
        failed = {b for b, _ in failures}
        ok = np.array([b for b in range(len(seeds)) if b not in failed], dtype=np.intp)
        if failed:
            acc = {name: values[ok] for name, values in acc.items()}
        fields = _finalize(cluster, horizon, warmup_fraction * horizon, acc, stacklevel=3)
    fields["index"] = ok
    return fields, failures


def _simulate_reps(
    lib,
    entry: str,
    cluster,
    workload,
    horizon: float,
    warmup_fraction: float,
    seeds: list,
    *,
    raise_failure: bool,
    arrival_processes=None,
    routing=None,
    epoch_times=None,
    epoch_controller=None,
    collect_delay_samples: bool = False,
    collect_job_log: bool = False,
):
    """The one descriptor builder and kernel-call loop.

    Builds routes (or routing tables), station descriptors and sampler
    templates once, turns each seed into its key words once (the kernel
    seeds every native stream from them), and runs the kernel through
    ``lib.<entry>`` (looked up per call) over every seed.  A
    failing replication costs only itself: the loop resumes on fresh
    kernel state after it, unless ``raise_failure`` re-raises it.

    Returns ``(acc, failures, ledger, delay_samples, job_logs)``: the
    :data:`_ACC_FIELDS` accumulators with a leading replication axis,
    ``(index, "ExcType: message")`` failure pairs, the epoch
    controller's speed ledger (or ``None``), and per-replication delay
    samples and job logs (``None`` unless collected).
    """
    # Import here: simulator imports this module, so a top-level import
    # would be circular.
    from repro.simulation.simulator import (
        _JOB_LOG_DTYPE,
        _build_routes,
        _build_routing_tables,
        _emit_queue_sample,
        _SpeedLedger,
    )

    K = workload.num_classes
    M = cluster.num_tiers
    R = len(seeds)
    warmup = warmup_fraction * horizon
    antithetic = any(isinstance(s, AntitheticSeed) for s in seeds)
    if (antithetic or epoch_controller is not None) and R != 1:
        raise ModelValidationError(
            "antithetic seeds and epoch controllers keep per-run Python state; "
            "pass one seed per call"
        )
    keep: list[Any] = []  # keep-alive for every object the kernel reads
    abort = (c_int * 1)(0)
    cb_error: list[BaseException] = []

    def guarded(fn, failed):
        """Callback wrapper: an exception aborts the kernel and is
        re-raised (or recorded) once the kernel returns."""

        def call(*args):
            try:
                return fn(*args)
            except BaseException as exc:
                cb_error.append(exc)
                abort[0] = 1
                return failed

        return call

    # Python-refilled variate buffers: streams the kernel cannot draw
    # natively (antithetic coupled generators go through np.log, which
    # is not bitwise libm) get a block id whose fill(n) pre-draws n
    # variates with the engine's own sampling code.  Streams are
    # consumer-private, so drawing ahead yields the exact sequence the
    # engine would see.
    block_fills: list[Any] = []
    py_samplers: list[Any] = []  # per-draw service callbacks (_SK_PYCALL)
    arrival_pulls: list[Any] = []  # per-draw arrival callbacks (_SK_PYCALL)

    def new_block(fill) -> int:
        block_fills.append(fill)
        return len(block_fills) - 1

    with obs.span("sim.setup", classes=K, stations=M, horizon=horizon, reps=R):
        entry_v = trans_v = routes_v = route_len = None
        if routing is None:
            arrays = [np.asarray(r, dtype=np.int32) for r in _build_routes(cluster)]
            routes_v = (c_void_p * K)(*[a.ctypes.data for a in arrays])
            route_len = (c_int * K)(*[a.size for a in arrays])
        else:
            tables = _build_routing_tables(cluster, routing)
            entry_cum = [np.ascontiguousarray(e, dtype=np.float64) for e, _ in tables]
            trans_cum = [np.ascontiguousarray(np.stack(t), dtype=np.float64) for _, t in tables]
            arrays = entry_cum + trans_cum
            entry_v = (c_void_p * K)(*[a.ctypes.data for a in entry_cum])
            trans_v = (c_void_p * K)(*[a.ctypes.data for a in trans_cum])
        keep.extend(arrays)

        if arrival_processes is None:
            procs = [PoissonProcess(c.arrival_rate) for c in workload.classes]
        elif len(arrival_processes) != K:
            raise ModelValidationError(
                f"expected {K} arrival processes, got {len(arrival_processes)}"
            )
        else:
            procs = [p.fresh() for p in arrival_processes]
        arrival_tpl = (_ArrivalDesc * K)()
        for k, proc in enumerate(procs):
            if type(proc) is PoissonProcess:
                arrival_tpl[k].kind = _SK_PYBLOCK if antithetic else _SK_EXPO
                arrival_tpl[k].scale = 1.0 / proc.rate
            elif type(proc) is TraceArrivalProcess:
                # RNG-free timestamp replay runs natively in C.
                ts = np.ascontiguousarray(proc.timestamps, dtype=np.float64)
                keep.append(ts)
                arrival_tpl[k].kind = _SK_TRACE
                arrival_tpl[k].ts = ts.ctypes.data_as(POINTER(c_double))
                arrival_tpl[k].n_ts = ts.size
            else:
                arrival_tpl[k].kind = _SK_PYCALL
        arrival_kinds = [d.kind for d in arrival_tpl]

        station_desc = (_StationDesc * M)()
        dists: list[list[Any]] = []
        for i, tier in enumerate(cluster.tiers):
            if tier.discipline == "ps" and tier.capacity is not None:
                # The Python engine rejects this during station setup,
                # so the compiled path raises the identical error.
                raise ModelValidationError(
                    f"tier {tier.name!r}: finite buffers are not supported for PS tiers"
                )
            station_desc[i].servers = tier.servers
            station_desc[i].discipline = _DISCIPLINES[tier.discipline]
            station_desc[i].capacity = -1 if tier.capacity is None else tier.capacity
            # Under dynamic speed control the sampler yields the demand
            # (work at speed 1) and the kernel divides by the current
            # speed at pull time, as _make_dynamic_sampler does.
            dists.append(
                [
                    d if epoch_controller is not None else d.scaled(1.0 / tier.speed)
                    for d in tier.demands
                ]
            )
            keep.extend(dists[-1])
        templates = [[_sampler_template(d, keep) for d in row] for row in dists]

        # Stream slots in the kernel's order: K arrivals, M*K services
        # (row-major by station), K routing streams.
        arrival_names = [f"arrivals/{k}" for k in range(K)]
        service_names = [[f"service/{i}/{k}" for k in range(K)] for i in range(M)]
        routing_names = [f"routing/{k}" for k in range(K)]
        slot_names = arrival_names + [n for row in service_names for n in row] + routing_names
        slot_hash = np.array([fnv1a64(n) for n in slot_names], dtype=np.uint64)
        key_words = key_off = None
        if not antithetic:
            key_words, key_off = _key_arrays([_seed_key(seed) for seed in seeds])
        # Every replication's descriptor block starts as a byte copy of
        # the templates; only slots drawn in Python get per-run ids.
        sampler_tpl = (_SamplerDesc * (M * K))(*[t for row in templates for t in row])
        sampler_desc = (_SamplerDesc * (R * M * K)).from_buffer_copy(bytes(sampler_tpl) * R)
        arrival_desc = (_ArrivalDesc * (R * K)).from_buffer_copy(bytes(arrival_tpl) * R)
        python_drawn = antithetic or _SK_PYCALL in arrival_kinds + [t.kind for t in sampler_tpl]
        routing_blocks: list[int] = []
        for b, seed in enumerate(seeds if python_drawn else ()):
            # Antithetic seeds give coupled generators; every natively
            # drawn slot then becomes a Python-refilled block.
            rng = _python_streams(seed).stream
            for k in range(K):
                j = b * K + k
                kind = arrival_kinds[k]
                if kind == _SK_PYBLOCK:
                    fill = partial(rng(arrival_names[k]).exponential, arrival_tpl[k].scale)
                    arrival_desc[j].py_id = new_block(fill)
                elif kind == _SK_PYCALL:
                    arrival_desc[j].py_id = len(arrival_pulls)
                    arrival_pulls.append(
                        partial(procs[k].fresh().next_arrival, rng(arrival_names[k]))
                    )
            for i in range(M):
                for k in range(K):
                    j = (b * M + i) * K + k
                    name = service_names[i][k]
                    if antithetic:
                        block = new_block(_pump_fill(dists[i][k], rng(name)))
                        sampler_desc[j] = _SamplerDesc(kind=_SK_PYBLOCK, py_id=block)
                    elif templates[i][k].kind == _SK_PYCALL:
                        sampler_desc[j].py_id = len(py_samplers)
                        py_samplers.append(partial(dists[i][k].sample, rng(name)))
            if routing is not None and antithetic:
                # Mirrored uniforms cannot come off a raw bit generator;
                # Generator.random is the engine's _draw_uniform block
                # draw.
                routing_blocks.extend(new_block(rng(name).random) for name in routing_names)
        routing_block = (c_int * K)(*routing_blocks) if routing_blocks else None

        acc = {
            name: np.zeros((R, *shape(K, M)), dtype=dtype)
            for name, (shape, dtype) in _ACC_FIELDS.items()
        }
        delay_ptrs = np.zeros((R, K), dtype=np.uintp) if collect_delay_samples else None
        delay_counts = np.zeros((R, K), dtype=np.int64)
        log_ptrs = np.zeros((R, 4), dtype=np.uintp) if collect_job_log else None
        log_count = np.zeros(R, dtype=np.int64)

        # Epoch-boundary yield protocol (dynamic speed control): the
        # kernel pauses at each scheduled boundary, publishes the queue
        # counts and the closed busy totals, and calls decide(); a
        # positive return applies the clipped speeds written into
        # speeds_arr with the work-preserving rescale, in C.
        ledger = None
        epoch_cb = _EPOCH_CB()  # NULL: static speeds
        epoch_sched = speeds_arr = counts = None
        if epoch_controller is not None:
            ledger = _SpeedLedger(cluster, epoch_controller, K)
            epoch_sched = np.ascontiguousarray(epoch_times, dtype=np.float64)
            speeds_arr = np.array(ledger.speeds)
            counts = np.zeros((M, K), dtype=np.int64)

            def decide(tb: float) -> int:
                ledger.accrue(acc["busy"][0].tolist(), acc["class_busy"][0].tolist())
                changed = ledger.decide(tb, counts.copy())
                speeds_arr[:] = ledger.speeds
                return 1 if changed else 0

            epoch_cb = _EPOCH_CB(guarded(decide, -1))

        # Buffered queue sampling: the kernel records (t, populations,
        # busy) rows and flushes them here at epoch boundaries and at
        # the end of each replication, in the engine's event order.
        tel = obs.TELEMETRY
        sample_interval = tel.queue_sample_interval if (tel.enabled and tel.sample_queues) else 0.0
        sample_cb = _SAMPLE_CB()  # NULL: sampling off
        if sample_interval > 0.0:

            def flush(ts, vals, n_rows: int) -> int:
                rows = np.ctypeslib.as_array(vals, shape=(n_rows, 2, M)).tolist()
                for r, (pops, busy) in enumerate(rows):
                    _emit_queue_sample(tel, ts[r], pops, busy)
                return 0

            sample_cb = _SAMPLE_CB(guarded(flush, -1))

        def refill(block_id: int, buf, cap: int) -> int:
            arr = np.ascontiguousarray(block_fills[block_id](int(cap)), dtype=np.float64)
            ctypes.memmove(buf, arr.ctypes.data, arr.size * 8)
            return arr.size

        def pull(slot: int, batch_out) -> float:
            gap, batch = arrival_pulls[slot]()
            batch_out[0] = int(batch)
            return float(gap)

        def draw(slot: int) -> float:
            return float(py_samplers[slot]())

        refill_cb = _REFILL_CB(guarded(refill, 0)) if block_fills else _REFILL_CB()
        service_cb = _SERVICE_CB(guarded(draw, 0.0)) if py_samplers else _SERVICE_CB()
        arrival_cb = _ARRIVAL_CB(guarded(pull, 0.0)) if arrival_pulls else _ARRIVAL_CB()

    def at(arr, b: int):
        """Address of replication ``b``'s block (``None`` stays NULL)."""
        if arr is None:
            return None
        if isinstance(arr, np.ndarray):
            return arr.ctypes.data + b * arr.strides[0]
        return ctypes.addressof(arr) + b * (ctypes.sizeof(arr) // R)

    fail_index = (c_longlong * 1)(-1)
    failures: list[tuple[int, str]] = []
    base = 0
    with obs.span("sim.event_loop", horizon=horizon, backend="compiled", reps=R):
        while base < R:
            abort[0] = 0
            rc = getattr(lib, entry)(
                R - base,
                K,
                M,
                float(horizon),
                float(warmup),
                station_desc,
                at(sampler_desc, base),
                at(arrival_desc, base),
                routes_v,
                route_len,
                entry_v,
                trans_v,
                routing_block,
                at(key_words, 0),
                at(key_off, base),
                at(slot_hash, 0),
                refill_cb,
                len(block_fills),
                _BLOCK_SIZE,
                0 if epoch_sched is None else epoch_sched.size,
                at(epoch_sched, 0),
                at(speeds_arr, 0),
                at(counts, 0),
                epoch_cb,
                float(sample_interval),
                sample_cb,
                service_cb,
                arrival_cb,
                abort,
                *[at(acc[name], base) for name in _ACC_FIELDS],
                at(delay_ptrs, base),
                at(delay_counts, base),
                at(log_ptrs, base),
                at(log_count, base),
                fail_index,
            )
            if rc == _RC_OK:
                break
            if rc == _RC_ABORT:
                exc: BaseException = (
                    cb_error[0]
                    if cb_error
                    else SimulationError("compiled kernel aborted without a recorded error")
                )
            elif rc == _RC_NOMEM:
                exc = MemoryError("compiled simulation kernel ran out of memory")
            else:
                exc = SimulationError("completion with no busy server (compiled kernel)")
            if raise_failure or not isinstance(exc, Exception):
                raise exc  # interrupts and exits are never a unit failure
            # Replications after the failing one resume on fresh kernel
            # state and freshly seeded streams, so results are unchanged.
            failures.append((base + fail_index[0], f"{type(exc).__name__}: {exc}"))
            cb_error.clear()
            base += fail_index[0] + 1

    if ledger is not None:
        # The horizon closes the last constant-speed segment.
        ledger.accrue(acc["busy"][0].tolist(), acc["class_busy"][0].tolist())
    samples = logs = None
    if collect_delay_samples:
        samples = [
            [_take(lib, delay_ptrs[b, k], delay_counts[b, k], c_double) for k in range(K)]
            for b in range(R)
        ]
    if collect_job_log:
        logs = []
        for b in range(R):
            log = np.empty(int(log_count[b]), dtype=_JOB_LOG_DTYPE)
            for field, ptr, ctype in zip(
                log.dtype.names, log_ptrs[b], (c_longlong, c_int, c_double, c_double)
            ):
                log[field] = _take(lib, ptr, log_count[b], ctype)
            logs.append(log)
    return acc, failures, ledger, samples, logs
