"""Regenerate ``optimize_reference.json``, the optimizer objectives the
``optimize`` workload is checked against.

Every level is solved cold (no warm start), so the benchmark's warm
continuation sweeps are checked against independent solves. Run from
the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core.opt_cost import minimize_cost  # noqa: E402
from repro.core.opt_delay import minimize_delay  # noqa: E402
from repro.core.opt_energy import minimize_energy  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    canonical_cluster,
    canonical_sla,
    canonical_workload,
    stability_box_profile,
)

N_STARTS = 3  # the workload's multistart count
P1_CELLS, P1_LEVELS = 16, 4  # frontier: one budget per cell
P2B_CELLS, P2B_LEVELS = 2, 4  # per-class energy solves: one tightness per cell
P2B_TIGHTNESS = (1.0, 1.15)
P3_LEVELS, P3_TIGHTNESS = 5, (1.0, 1.1)
RTOL = 1e-6


def main() -> None:
    cluster, workload = canonical_cluster(), canonical_workload()
    profile = stability_box_profile(cluster, workload)
    budgets = np.linspace(profile.min_power * 1.02, profile.max_power, P1_CELLS * P1_LEVELS)
    p1 = []
    for cell in budgets.reshape(P1_CELLS, P1_LEVELS):
        row = []
        for b in cell:
            r = minimize_delay(cluster, workload, power_budget=float(b), n_starts=N_STARTS)
            if not r.success:
                raise RuntimeError(f"P1 did not converge at budget {b}")
            row.append({"budget": float(b), "delay": float(r.fun)})
        p1.append(row)

    levels = np.round(np.linspace(*P2B_TIGHTNESS, P2B_CELLS * P2B_LEVELS), 6)
    p2b = []
    for cell in levels.reshape(P2B_CELLS, P2B_LEVELS):
        row = []
        for t in cell:
            r = minimize_energy(cluster, workload, sla=canonical_sla(float(t)), n_starts=N_STARTS)
            if not r.success:
                raise RuntimeError(f"P2b did not converge at tightness {t}")
            row.append({"tightness": float(t), "power": float(r.fun)})
        p2b.append(row)

    p3 = []
    for t in np.round(np.linspace(*P3_TIGHTNESS, P3_LEVELS), 6):
        a = minimize_cost(cluster, workload, canonical_sla(float(t)))
        p3.append(
            {
                "tightness": float(t),
                "server_counts": a.server_counts.tolist(),
                "total_cost": float(a.total_cost),
                "power": float(a.average_power),
            }
        )

    doc = {
        "about": "Cold-solve optimizer objectives on canonical_cluster; "
        "regenerate with python3 perfbench/make_reference.py",
        "rtol": RTOL,
        "n_starts": N_STARTS,
        "p1": p1,
        "p2b": p2b,
        "p3": p3,
    }
    (HERE / "optimize_reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
