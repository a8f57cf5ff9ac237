"""Batched analytic evaluation of many cluster configurations at once.

The P1–P3 optimizers and the exhaustive certification baseline all
probe the *same* analytic model at many candidate configurations —
multistart seeds, speed grids, server-count grids. The scalar path
(:func:`repro.core.delay.end_to_end_delays` and friends) rebuilds a
:class:`~repro.cluster.model.ClusterModel` and a
:class:`~repro.queueing.networks.TandemNetwork` per candidate and
walks the per-station formulas in Python. This module evaluates an
``(n_candidates, n_tiers)`` speed matrix (optionally with per-candidate
server counts) in a handful of NumPy array operations per tier.

Two observations make this easy:

* Under the tandem decomposition each tier's delays depend only on its
  *own* speed and server count, so a batch factorizes into per-tier
  kernels vectorized over candidates.
* Every per-tier quantity separates into a **speed-independent** part
  (per-class arrival rates, demand moments, the aggregate SCV, the
  common exponential demand rate, the work arrival rate ``R_i``) that
  is precomputed once per :class:`BatchEvaluator`, and a trivial speed
  scaling: service means scale as ``1/s``, second moments as ``1/s²``.

The kernels mirror :func:`repro.queueing.networks.station_delays`
formula-for-formula (Pollaczek–Khinchine, Lee–Longton, Cobham,
Kella–Yechiali, Bondi–Buzen, exact M/G/1 preemptive-resume,
insensitive PS), including the dispatch rules, so batched values agree
with the scalar path to floating-point round-off. Candidates that are
unstable at any queueing tier (``ρ >= 1 - 1e-9``, the shared
``DEFAULT_RHO_MAX``) get ``inf`` delays instead of the scalar path's
:class:`UnstableSystemError` — a vector-friendly infeasibility signal
the optimizers translate to their penalty value.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.model import ClusterModel
from repro.distributions.exponential import Exponential
from repro.exceptions import ModelValidationError
from repro.queueing.stability import DEFAULT_RHO_MAX
from repro.workload.classes import Workload

__all__ = ["BatchEvaluator", "erlang_b_vec", "erlang_c_vec"]


def erlang_b_vec(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Vectorized Erlang-B ``B(c_j, a_j)`` via the stable recurrence.

    Runs the scalar recurrence ``b = a b / (k + a b)`` to each
    candidate's own server count (candidates with ``c_j < k`` keep
    their converged value), so each element matches
    :func:`repro.queueing.mmc.erlang_b` exactly.
    """
    c = np.asarray(c, dtype=int)
    a = np.asarray(a, dtype=float)
    b = np.ones_like(a)
    for k in range(1, int(c.max()) + 1):
        ab = a * b
        b = np.where(k <= c, ab / (k + ab), b)
    return np.where(a == 0.0, np.where(c > 0, 0.0, 1.0), b)


def erlang_c_vec(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Vectorized Erlang-C ``C(c_j, a_j)`` (``inf``-safe: saturated
    candidates, ``a >= c``, return ``nan`` and are masked by callers)."""
    c = np.asarray(c, dtype=int)
    a = np.asarray(a, dtype=float)
    b = erlang_b_vec(c, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = c * b / (c - a * (1.0 - b))
    return np.where(a == 0.0, 0.0, out)


class _TierKernel:
    """Speed-independent per-tier data for the batch kernels."""

    __slots__ = (
        "discipline",
        "lam",
        "total",
        "dmean",
        "dm2",
        "agg_mean_d",
        "agg_m2_d",
        "scv",
        "common_mu_d",
        "idle",
        "kappa",
        "alpha",
        "servers",
        "work_rate",
    )

    def __init__(self, tier, lam_station: np.ndarray):
        self.discipline = tier.discipline
        self.lam = lam_station
        self.total = float(lam_station.sum())
        if self.total <= 0.0:
            raise ModelValidationError(
                f"tier {tier.name!r}: total arrival rate must be positive"
            )
        self.dmean = np.array([d.mean for d in tier.demands])
        self.dm2 = np.array([d.second_moment for d in tier.demands])
        probs = lam_station / self.total
        # Aggregate *demand* moments; at speed s the aggregate service
        # mean is agg_mean_d / s and the SCV is speed-invariant.
        self.agg_mean_d = float(np.dot(probs, self.dmean))
        self.agg_m2_d = float(np.dot(probs, self.dm2))
        self.scv = max(self.agg_m2_d / self.agg_mean_d**2 - 1.0, 0.0)
        # Common exponential demand rate (the Kella–Yechiali gate):
        # scaling by 1/s multiplies every rate by s, preserving the
        # relative-equality test the scalar dispatch applies.
        self.common_mu_d = self._common_rate(tier.demands)
        self.idle = tier.spec.power.idle
        self.kappa = tier.spec.power.kappa
        self.alpha = tier.spec.power.alpha
        self.servers = tier.servers
        self.work_rate = float(np.dot(lam_station, self.dmean))

    @staticmethod
    def _common_rate(demands) -> float | None:
        if not all(isinstance(d, Exponential) for d in demands):
            return None
        rates = [d.rate for d in demands]
        first = rates[0]
        if all(abs(r - first) <= 1e-12 * first for r in rates):
            return first
        return None


def _cobham_waits(lam: np.ndarray, m: np.ndarray, m2: np.ndarray):
    """Vectorized Cobham NP waits. ``m``/``m2`` are ``(n, K)`` service
    moments; returns ``(waits (n, K), sigma (n, K+1))``."""
    rho = lam[None, :] * m
    sigma = np.concatenate([np.zeros((m.shape[0], 1)), np.cumsum(rho, axis=1)], axis=1)
    w0 = 0.5 * (lam[None, :] * m2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        waits = w0[:, None] / ((1.0 - sigma[:, :-1]) * (1.0 - sigma[:, 1:]))
    return waits, sigma


def _pr_sojourns(lam: np.ndarray, m: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Vectorized exact preemptive-resume M/G/1 sojourns, ``(n, K)``."""
    rho = lam[None, :] * m
    sigma = np.concatenate([np.zeros((m.shape[0], 1)), np.cumsum(rho, axis=1)], axis=1)
    residual_cum = np.cumsum(0.5 * lam[None, :] * m2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return m / (1.0 - sigma[:, :-1]) + residual_cum / (
            (1.0 - sigma[:, :-1]) * (1.0 - sigma[:, 1:])
        )


class BatchEvaluator:
    """Evaluates the analytic model at many configurations in one call.

    Parameters
    ----------
    cluster:
        The template configuration — tier order, demands, disciplines,
        power curves and visit ratios are taken from it; speeds (and
        optionally server counts) are the batched decision variables.
    workload:
        The offered multi-class workload.

    Notes
    -----
    All methods accept ``speeds`` of shape ``(n, M)`` (or ``(M,)`` for
    a single candidate) and an optional integer ``servers`` of the same
    shape; server counts default to the template's. Unstable candidates
    yield ``inf`` delays (finite power — power needs no stability).
    """

    def __init__(self, cluster: ClusterModel, workload: Workload):
        if cluster.num_classes != workload.num_classes:
            raise ModelValidationError(
                f"cluster is parameterized for {cluster.num_classes} classes "
                f"but workload has {workload.num_classes}"
            )
        self.num_tiers = cluster.num_tiers
        self.num_classes = cluster.num_classes
        self.visit_ratios = cluster.visit_ratios
        lam = workload.arrival_rates
        self.arrival_rates = lam
        # Per-tier effective arrival rates λ_{ik} = v_{ik} λ_k.
        station_rates = cluster.visit_ratios * lam[:, None]  # (K, M)
        self.kernels = [
            _TierKernel(tier, station_rates[:, i]) for i, tier in enumerate(cluster.tiers)
        ]
        self.default_servers = cluster.server_counts

    # ------------------------------------------------------------------
    def _canon_inputs(self, speeds, servers):
        s = np.asarray(speeds, dtype=float)
        if s.ndim == 1:
            s = s[None, :]
        if s.ndim != 2 or s.shape[1] != self.num_tiers:
            raise ModelValidationError(
                f"speeds must have shape (n, {self.num_tiers}), got {np.shape(speeds)}"
            )
        if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
            raise ModelValidationError("speeds must be positive and finite")
        if servers is None:
            c = np.broadcast_to(self.default_servers, s.shape)
        else:
            c = np.asarray(servers, dtype=int)
            if c.ndim == 1:
                c = c[None, :]
            c = np.broadcast_to(c, s.shape)
            if np.any(c < 1):
                raise ModelValidationError("server counts must be >= 1")
        return s, c

    # ------------------------------------------------------------------
    def _tier_sojourns(self, tk: _TierKernel, s: np.ndarray, c: np.ndarray):
        """Per-class sojourns ``(n, K)`` and instability mask ``(n,)``
        of one tier at candidate speeds ``s`` and counts ``c``."""
        n = s.shape[0]
        m = tk.dmean[None, :] / s[:, None]  # (n, K) service means
        if tk.discipline == "loss":
            return m.copy(), np.zeros(n, dtype=bool)

        rho_tier = tk.total * tk.agg_mean_d / (s * c)
        unstable = rho_tier >= DEFAULT_RHO_MAX
        agg_mean = tk.agg_mean_d / s
        a = tk.total * agg_mean  # offered load for Erlang formulas

        if tk.discipline == "fcfs":
            wq = np.empty(n)
            single = c == 1
            with np.errstate(divide="ignore", invalid="ignore"):
                # Pollaczek–Khinchine (exact two-moment fit).
                wq1 = 0.5 * tk.total * (tk.agg_m2_d / s**2) / (1.0 - rho_tier)
                # Lee–Longton (1 + scv)/2 × M/M/c wait.
                wqc = (
                    0.5
                    * (1.0 + tk.scv)
                    * erlang_c_vec(c, a)
                    / (c / agg_mean - tk.total)
                )
            wq = np.where(single, wq1, wqc)
            sojourns = wq[:, None] + m
            return sojourns, unstable

        if tk.discipline == "ps":
            with np.errstate(divide="ignore", invalid="ignore"):
                stretch1 = 1.0 / (1.0 - rho_tier)
                stretchc = 1.0 + erlang_c_vec(c, a) / (c * (1.0 - rho_tier))
            stretch = np.where(c == 1, stretch1, stretchc)
            return m * stretch[:, None], unstable

        m2 = tk.dm2[None, :] / s[:, None] ** 2

        if tk.discipline == "priority_np":
            single = c == 1
            sojourns = np.empty((n, self.num_classes))
            if np.any(single):
                waits, _ = _cobham_waits(tk.lam, m[single], m2[single])
                sojourns[single] = waits + m[single]
            multi = ~single
            if np.any(multi):
                sojourns[multi] = self._np_multi_sojourns(
                    tk, s[multi], c[multi], m[multi], m2[multi], agg_mean[multi], a[multi]
                )
            return sojourns, unstable

        # preemptive-resume
        single = c == 1
        sojourns = np.empty((n, self.num_classes))
        if np.any(single):
            sojourns[single] = _pr_sojourns(tk.lam, m[single], m2[single])
        multi = ~single
        if np.any(multi):
            mm, mm2 = m[multi], m2[multi]
            cc = c[multi].astype(float)[:, None]
            pr_fast = _pr_sojourns(tk.lam, mm / cc, mm2 / cc**2)
            pw_fast_waits = pr_fast - mm / cc
            np_fast_waits, _ = _cobham_waits(tk.lam, mm / cc, mm2 / cc**2)
            np_multi_waits = self._np_multi_sojourns(
                tk, s[multi], c[multi], mm, mm2, agg_mean[multi], a[multi]
            ) - mm
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    np_fast_waits > 0.0, np_multi_waits / np_fast_waits, 1.0
                )
            sojourns[multi] = pw_fast_waits * ratios + mm
        return sojourns, unstable

    def _np_multi_sojourns(self, tk, s, c, m, m2, agg_mean, a):
        """Multi-server non-preemptive priority sojourns ``(n', K)`` —
        Kella–Yechiali when the tier has a common exponential demand,
        Bondi–Buzen scaling otherwise (mirroring the scalar dispatch)."""
        if tk.common_mu_d is not None:
            mu = tk.common_mu_d * s  # common service rate at speed s
            rho = tk.lam[None, :] / (c * mu)[:, None]
            sigma = np.concatenate(
                [np.zeros((s.shape[0], 1)), np.cumsum(rho, axis=1)], axis=1
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                w0 = erlang_c_vec(c, tk.total / mu) / (c * mu)
                waits = w0[:, None] / ((1.0 - sigma[:, :-1]) * (1.0 - sigma[:, 1:]))
            return waits + (1.0 / mu)[:, None]
        # Bondi–Buzen: fast-server Cobham waits × FCFS multi/fast ratio.
        cc = c.astype(float)[:, None]
        fast_waits, _ = _cobham_waits(tk.lam, m / cc, m2 / cc**2)
        rho = tk.total * agg_mean / c
        with np.errstate(divide="ignore", invalid="ignore"):
            w_multi = (
                0.5 * (1.0 + tk.scv) * erlang_c_vec(c, a) / (c / agg_mean - tk.total)
            )
            w_fast = 0.5 * tk.total * (tk.agg_m2_d / s**2) / c**2 / (1.0 - rho)
            ratio = np.where(w_fast > 0.0, w_multi / w_fast, 1.0)
        return fast_waits * ratio[:, None] + m

    # ------------------------------------------------------------------
    def per_tier_sojourns(self, speeds, servers=None) -> np.ndarray:
        """Per-candidate, per-tier, per-class mean sojourns,
        shape ``(n, M, K)`` (``inf`` rows for unstable candidates)."""
        s, c = self._canon_inputs(speeds, servers)
        n = s.shape[0]
        out = np.empty((n, self.num_tiers, self.num_classes))
        bad = np.zeros(n, dtype=bool)
        for i, tk in enumerate(self.kernels):
            sojourns, unstable = self._tier_sojourns(tk, s[:, i], c[:, i])
            out[:, i, :] = sojourns
            bad |= unstable
        out[bad] = np.inf
        return out

    def end_to_end_delays(self, speeds, servers=None) -> np.ndarray:
        """Per-class end-to-end delays ``T_k = Σ_i v_{ik} T_{ik}``,
        shape ``(n, K)``; ``inf`` for unstable candidates."""
        sojourns = self.per_tier_sojourns(speeds, servers)  # (n, M, K)
        # visit_ratios is (K, M): weight tier sojourns per class.
        return np.einsum("km,nmk->nk", self.visit_ratios, sojourns)

    def mean_delay(self, speeds, servers=None) -> np.ndarray:
        """Arrival-weighted mean end-to-end delay per candidate,
        shape ``(n,)``."""
        t = self.end_to_end_delays(speeds, servers)
        lam = self.arrival_rates
        return t @ lam / lam.sum()

    def average_power(self, speeds, servers=None) -> np.ndarray:
        """Mean cluster power per candidate, shape ``(n,)``:
        ``Σ_i [c_i P_idle,i + R_i κ_i s_i^{α_i − 1}]`` — the work
        arrival rates ``R_i`` are configuration-independent, so power
        is a closed form in the decision variables."""
        s, c = self._canon_inputs(speeds, servers)
        idle = np.array([tk.idle for tk in self.kernels])
        kappa = np.array([tk.kappa for tk in self.kernels])
        alpha = np.array([tk.alpha for tk in self.kernels])
        work = np.array([tk.work_rate for tk in self.kernels])
        return (c * idle[None, :]).sum(axis=1) + (
            work[None, :] * kappa[None, :] * s ** (alpha[None, :] - 1.0)
        ).sum(axis=1)
