"""The cluster as a whole: an ordered collection of tiers.

:class:`ClusterModel` is a pure configuration object — immutable in
spirit, with ``with_speeds`` / ``with_servers`` returning modified
copies — so optimizers can explore candidate configurations without
ever mutating shared state.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cluster.tier import Tier
from repro.exceptions import ModelValidationError
from repro.queueing.networks import TandemNetwork

__all__ = ["ClusterModel"]


class ClusterModel:
    """An ordered tandem of :class:`Tier` objects.

    Parameters
    ----------
    tiers:
        The cluster's tiers, in the order requests traverse them. All
        tiers must be parameterized for the same number of classes.
    visit_ratios:
        Optional ``(num_classes, num_tiers)`` mean-visit-count matrix;
        defaults to all ones (each request visits each tier once).
    """

    def __init__(self, tiers: Sequence[Tier], visit_ratios: np.ndarray | None = None):
        if len(tiers) == 0:
            raise ModelValidationError("cluster needs at least one tier")
        k = tiers[0].num_classes
        if any(t.num_classes != k for t in tiers):
            raise ModelValidationError("all tiers must declare the same number of classes")
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ModelValidationError(f"tier names must be unique, got {names}")
        self.tiers = list(tiers)
        self.num_classes = k
        self.num_tiers = len(tiers)
        if visit_ratios is None:
            visit_ratios = np.ones((k, self.num_tiers))
        visit_ratios = np.asarray(visit_ratios, dtype=float)
        if visit_ratios.shape != (k, self.num_tiers):
            raise ModelValidationError(
                f"visit_ratios must have shape ({k}, {self.num_tiers}), got {visit_ratios.shape}"
            )
        if np.any(visit_ratios < 0.0):
            raise ModelValidationError("visit ratios must be non-negative")
        self.visit_ratios = visit_ratios

    # ------------------------------------------------------------------
    # configuration views
    # ------------------------------------------------------------------
    @property
    def speeds(self) -> np.ndarray:
        """Current per-tier speeds."""
        return np.array([t.speed for t in self.tiers])

    @property
    def server_counts(self) -> np.ndarray:
        """Current per-tier server counts."""
        return np.array([t.servers for t in self.tiers], dtype=int)

    def total_cost(self) -> float:
        """Provider cost of the whole configuration (P3 objective)."""
        return float(sum(t.cost() for t in self.tiers))

    # ------------------------------------------------------------------
    # configuration transforms
    # ------------------------------------------------------------------
    def with_speeds(self, speeds: Sequence[float]) -> "ClusterModel":
        """Copy with per-tier speeds replaced."""
        speeds_arr = np.asarray(speeds, dtype=float)
        if speeds_arr.shape != (self.num_tiers,):
            raise ModelValidationError(
                f"expected {self.num_tiers} speeds, got shape {speeds_arr.shape}"
            )
        tiers = [t.with_speed(s) for t, s in zip(self.tiers, speeds_arr)]
        return ClusterModel(tiers, self.visit_ratios)

    def with_servers(self, counts: Sequence[int]) -> "ClusterModel":
        """Copy with per-tier server counts replaced."""
        counts_arr = np.asarray(counts)
        if counts_arr.shape != (self.num_tiers,):
            raise ModelValidationError(
                f"expected {self.num_tiers} server counts, got shape {counts_arr.shape}"
            )
        tiers = [t.with_servers(int(c)) for t, c in zip(self.tiers, counts_arr)]
        return ClusterModel(tiers, self.visit_ratios)

    # ------------------------------------------------------------------
    # queueing / power views
    # ------------------------------------------------------------------
    def network(self) -> TandemNetwork:
        """The analytic queueing-network view of the cluster."""
        return TandemNetwork(
            [t.station_spec() for t in self.tiers], visit_ratios=self.visit_ratios
        )

    def work_rates(self, arrival_rates: Sequence[float]) -> np.ndarray:
        """Per-tier total work arrival rate ``R_i = Σ_k v_{ik} λ_k E[D_{ik}]``."""
        lam = np.asarray(arrival_rates, dtype=float)
        if lam.shape != (self.num_classes,):
            raise ModelValidationError(
                f"expected {self.num_classes} arrival rates, got shape {lam.shape}"
            )
        return np.array(
            [t.work_rate(lam, self.visit_ratios[:, i]) for i, t in enumerate(self.tiers)]
        )

    def utilizations(self, arrival_rates: Sequence[float]) -> np.ndarray:
        """Per-tier utilization ``ρ_i = R_i / (c_i s_i)``."""
        r = self.work_rates(arrival_rates)
        return r / (self.server_counts * self.speeds)

    def is_stable(self, arrival_rates: Sequence[float]) -> bool:
        """True iff every *queueing* tier's utilization is strictly
        below 1 (loss tiers reject their overflow instead of queueing
        it, so they cannot saturate)."""
        rho = self.utilizations(arrival_rates)
        queueing = np.array([t.discipline != "loss" for t in self.tiers])
        return bool(np.all(rho[queueing] < 1.0))

    def average_power(self, arrival_rates: Sequence[float]) -> float:
        """Mean cluster power draw (watts):
        ``Σ_i [c_i P_idle,i + R_i κ_i s_i^{α_i - 1}]``."""
        r = self.work_rates(arrival_rates)
        return float(
            sum(
                t.spec.power.average_power(t.speed, float(ri), t.servers)
                for t, ri in zip(self.tiers, r)
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tiers = ", ".join(
            f"{t.name}(c={t.servers}, s={t.speed:.3g}, {t.discipline})" for t in self.tiers
        )
        return f"ClusterModel([{tiers}])"
