"""Fast self-test of the benchmark: every workload's path and gate, tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

Each workload runs one realization on a short time grid (the free chain
on four sites instead of eight), untraced and traced.  The test checks
that every gate passes, that a corrupted trace file fails the trace
gate, that per-layer self times add up to the traced wall time within
``SELF_TIME_TOL`` seconds, that every span lies inside its parent, and
that the exact work counts repeat between two traced runs of one seed.
Exits 0 when everything holds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

SELF_TIME_TOL = 1e-6

EXACT_COUNTS = (
    "flow.steps",
    "opalg.commutator_calls",
    "opalg.contract_calls",
    "dynamics.time_points",
    "harness.bytes_written",
)

TINY = {
    "flow-sweep": {"n_times": 8},
    "dynamics-dense": {"n_times": 8},
    "free-chain": {"n_times": 8, "l_values": (4,), "sample_states": 6},
}


def _shrink() -> None:
    # own output directories, so a self-test never overwrites a benchmark run's
    run.OUT_ROOT = run.OUT_ROOT / "selftest"
    for name, changes in TINY.items():
        wl = run.WORKLOADS[name]
        overrides = {**wl.overrides, **changes}
        run.WORKLOADS[name] = dataclasses.replace(wl, overrides=overrides, nominal_s=1.0)


def _spans_nest(tracer) -> bool:
    for s in tracer.spans:
        if s.end < s.start:
            return False
        if s.parent is not None:
            p = tracer.spans[s.parent]
            if s.start < p.start or s.end > p.end:
                return False
    return True


def _corrupted_trace_fails(name: str) -> bool:
    sweep = run.run_sweep(name, 0, 1, "corrupt")
    path = next(iter(run._trace_files(sweep).values()))
    lines = path.read_text().splitlines()
    head, rows = lines[0], [row.split(",") for row in lines[1:]]
    col = head.split(",").index("C_rescaled")
    for row in rows:
        row[col] = repr(float(row[col]) + 0.1)
    path.write_text("\n".join([head] + [",".join(r) for r in rows]) + "\n")
    gates = run.check_outputs(name, sweep)["gates"]
    return not all(gates.values())


def main() -> int:
    _shrink()
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    run.import_cutflow()
    for name in run.WORKLOADS:
        result = run.run_workload(name, 0, 1, trace=False)
        check(result["correct"], f"{name}: untraced gates pass")
        check(set(result["metrics"]) == set(run.END_TO_END_UNITS),
              f"{name}: every end-to-end metric reported")
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              f"{name}: end-to-end metrics are positive")

        first = run.run_workload(name, 0, 1, trace=True)
        second = run.run_workload(name, 0, 1, trace=True)
        m1, m2 = first["metrics"], second["metrics"]
        check(first["correct"], f"{name}: traced gates pass")
        check(set(m1) == set(run.PER_LAYER_UNITS), f"{name}: every per-layer metric reported")
        tracer = run.run_sweep(name, 0, 1, "nest", tracer=run.Tracer()).tracer
        check(_spans_nest(tracer), f"{name}: every span lies inside its parent")
        wall = tracer.by_name("harness.run_experiment")[0].duration
        gap = abs(wall - sum(tracer.self_times().values()))
        check(gap <= SELF_TIME_TOL,
              f"{name}: layer self times sum to the traced wall (gap {gap:.1e} s)")
        for key in EXACT_COUNTS:
            check(m1[key]["value"] == m2[key]["value"],
                  f"{name}: {key} repeats exactly ({m1[key]['value']})")
        check(_corrupted_trace_fails(name), f"{name}: a corrupted trace fails its gate")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
