"""Tiny end-to-end warm-up shared by the set-up measurement and the run.

One realization of the workload's chain with the flow stopped at
``l = 0.5`` and two time points, so the Wick ``lru_cache`` expansions, the
tensordot plan cache and the shape-keyed einsum path cache are filled
before anything is timed.  A fresh interpreter running :func:`warm_up`
pays what every CLI invocation of that workload pays.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path("src")


def import_cutflow():
    """Import the package from ``./src`` only, never from an installed copy."""
    src = SRC.resolve()
    if not (src / "cutflow" / "__init__.py").is_file():
        raise SystemExit(f"cutflow sources not found under {SRC}/ (run from the repository root)")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cutflow

    if Path(cutflow.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported cutflow from {cutflow.__file__}, expected {src}")
    return cutflow


def warm_up(n_sites: int, order: int, delta0: float) -> None:
    import_cutflow()
    from cutflow.dynamics import sector_dimension
    from cutflow.flow import FlowParams
    from cutflow.harness import ExperimentConfig, run_realization

    config = ExperimentConfig(
        l_values=(n_sites,), d_values=(2.0,), delta0=delta0, order=order, n_times=1,
        sample_states=sector_dimension(n_sites), oracle=True, flow=FlowParams(l_max=0.5),
    )
    record = run_realization(config, 0, n_sites, 2.0, 0)
    if "error" in record:
        raise RuntimeError(f"warm-up realization failed: {record['error']}")
