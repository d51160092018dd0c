"""Realization-throughput benchmark for the cutflow pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flow-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each workload sweeps realizations ``k = 0 .. n-1`` of master seed
``--seed`` through ``harness.run_experiment`` exactly as ``cutflow run``
builds and runs it (single process, ``workers=1``); ``n`` is
``--seconds`` divided by the workload's nominal seconds per realization,
so one seed and one ``--seconds`` always give the same inputs.  The
outputs the sweep writes are checked against exact references before
any metric is printed; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs half that batch untraced and then with spans around
every call ``harness`` makes into the other modules, and prints the
per-layer metrics.

Why the headline rate is taken at reference flow work and host speed:
the cost of one realization is dominated by its number of accepted flow
steps, which is heavy-tailed in the disorder draw (80 to over 2,000
steps at L=4, d=2 with the flow capped at l=200).  A run holds 3 to 12
realizations, so the plain rate ``realizations / wall`` differs between
seeds by 35% or more (quartile spread over ten seeds, bootstrapped from
measured realization times).  The shared host's speed moves too: the
calibration slice below took from 0.5 to 1.2 times its reference time
over one evening and drifts by 20% within seconds.  ``realizations_per_s``
therefore combines two per-unit costs, seconds per accepted flow step
and seconds per realization outside the flow, each scaled to reference
host speed by numpy-only calibration slices timed around and through it
and taken as a median over the run, at the workload's fixed reference
step count: ``1 / (ref_steps * s_per_step + s_rest + harness_s)``.  It
moves with every change to the kernels, the flow stepper's cost per
step, the dynamics and the harness.  A change to the *number* of steps
shows in no bounded metric: only in the exact ``flow.steps`` count and
in the plain ``harness.realizations_per_s`` of the traced run.
``setup_s`` is scaled to reference host speed by fresh interpreters that
only import numpy, started between the set-up starts (see
:func:`measure_setup`).
"""

from __future__ import annotations

import os

# Pinned before numpy loads OpenBLAS; ExperimentConfig.deterministic only
# sets these inside run_experiment, after the thread pool already exists.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, patched  # noqa: E402
from warmup import import_cutflow, warm_up  # noqa: E402

OUT_ROOT = Path(".bench_out")

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 9
#: seconds a fresh interpreter importing only numpy stands for in ``setup_s``
NUMPY_START_REF_S = 0.15


@dataclass(frozen=True)
class Workload:
    """One benchmark input family and the gates its outputs must pass."""

    overrides: dict
    #: seconds one realization takes on the reference machine; sizes the batch
    nominal_s: float
    #: mean accepted flow steps per realization of this ensemble
    ref_steps: float
    #: a realization still running after this many seconds counts as failed
    budget_s: float
    #: short-time horizon (units of 1/J) of the trace check
    horizon: float
    #: ``"free"`` compares with the free-fermion solution, ``"exact"`` with ED
    reference: str
    #: bound on the largest short-time trace error of a converged flow
    max_trace_err: float
    #: bound on the median over all realizations of that error
    max_trace_err_median: float
    max_oracle_median: float | None = None


_CHAIN = {"l_values": (4,), "d_values": (2.0,), "delta0": 0.1, "sample_states": 6,
          "flow.l_max": 200.0}

WORKLOADS: dict[str, Workload] = {
    # the paper's core run: the flow and the quartic Wick kernel take over 90% of the time
    "flow-sweep": Workload(
        overrides={**_CHAIN, "order": 4, "n_times": 50},
        nominal_s=3.6, ref_steps=600.0, budget_s=30.0, horizon=3.0, reference="exact",
        max_trace_err=0.1, max_trace_err_median=0.05, max_oracle_median=2e-3,
    ),
    # evolve, pair expectations and multi-operand contractions take most of the time
    "dynamics-dense": Workload(
        overrides={**_CHAIN, "order": 6, "n_times": 1000},
        nominal_s=9.0, ref_steps=600.0, budget_s=40.0, horizon=3.0, reference="exact",
        max_trace_err=0.1, max_trace_err_median=0.05,
    ),
    # no quartic blocks: a cheap RHS and thousands of steps, so per-step solver cost shows
    "free-chain": Workload(
        overrides={"l_values": (8,), "d_values": (2.0,), "delta0": 0.0,
                   "sample_states": 70, "order": 4, "n_times": 200},
        nominal_s=2.45, ref_steps=2050.0, budget_s=30.0, horizon=100.0, reference="free",
        max_trace_err=1e-3, max_trace_err_median=1e-4,
    ),
}

END_TO_END_UNITS = {
    "realizations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "succeeded_fraction": "ratio",
}


# ---------------------------------------------------------------------------
# running one sweep


#: host-speed reference: seconds ``calibrate()`` took when the bounds were set
CALIBRATION_REF_S = 0.048
#: least seconds of flow or trace between two calibration slices
CALIBRATION_PERIOD_S = 0.75


def calibrate() -> float:
    """Seconds for a fixed slice of small tensordots and interpreter work.

    The slice uses numpy and Python only, never cutflow, so no change to
    the package moves it; it tracks the speed of the shared host.
    """
    import numpy as np

    a = np.arange(256, dtype=float).reshape(4, 4, 4, 4) / 256.0
    t0 = time.perf_counter()
    for _ in range(2000):
        x = np.tensordot(a, a, axes=((1, 2), (0, 3))).transpose(0, 2, 1, 3)
        x += a
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - t0


class RealizationTimeout(Exception):
    """Raised inside a realization that outlives its workload's budget."""


class RunProbe:
    """Per-realization wall and flow timings plus the exact flow work.

    With ``calibrated`` set, :func:`calibrate` slices run before every
    realization (outside its timer), after its flow, and inside its flow
    and trace whenever ``CALIBRATION_PERIOD_S`` has passed since the last
    slice (inside the timer, and subtracted), so the flow and the rest can
    each be scaled to the host's speed while they ran.

    Every realization runs under a ``budget_s`` alarm.  Some flows stall:
    the adaptive step shrinks without bound as the truncated flow nears a
    finite-``l`` singularity, and the step controller only gives up at a step of
    ``1e-14``, hours later.  The alarm raises :class:`RealizationTimeout`
    inside the flow; ``run_realization`` records it as that realization's
    error, so the sweep goes on and the stall counts as a failure.
    """

    def __init__(self, budget_s: float, calibrated: bool = False):
        self.budget_s = budget_s
        self._armed = False
        self.calibrated = calibrated
        #: one dict per realization: realization_s, flow_s, steps, calibration_s
        #: (before it), flow_calibrations and rest_calibrations (after its flow)
        self.records: list[dict] = []
        #: the list :meth:`tick` appends to: the running flow's or rest's
        self._slices: list[float] = []
        self._last_slice = 0.0
        self.end_calibration_s = 0.0
        self.scramble_steps = 0
        self.l_final = 0.0

    @property
    def flow_seconds(self) -> float:
        return sum(r["flow_s"] for r in self.records)

    @property
    def steps(self) -> int:
        return sum(r["steps"] for r in self.records)

    @property
    def calibration_seconds(self) -> float:
        return sum(r["calibration_s"] + sum(r["flow_calibrations"])
                   + sum(r["rest_calibrations"]) for r in self.records)

    def _calibrate(self) -> float:
        seconds = calibrate()
        self._last_slice = time.perf_counter()
        return seconds

    def tick(self) -> None:
        """Time a calibration slice if the last one ended ``CALIBRATION_PERIOD_S`` ago."""
        if time.perf_counter() - self._last_slice >= CALIBRATION_PERIOD_S:
            self._slices.append(self._calibrate())

    def wrap_realization(self, fn):
        def probe(*args, **kwargs):
            record = {"flow_s": 0.0, "steps": 0, "calibration_s": 0.0,
                      "flow_calibrations": [], "rest_calibrations": []}
            if self.calibrated:
                record["calibration_s"] = self._calibrate()
            self._slices = record["flow_calibrations"]
            self.records.append(record)
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.budget_s)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._armed = False
                record["realization_s"] = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            record["error"] = out.get("error")
            return out

        return probe

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            raise RealizationTimeout(f"realization exceeded {self.budget_s:g} s")

    def wrap_flow(self, fn):
        def probe(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            record = self.records[-1]
            record["flow_s"] = time.perf_counter() - t0 - sum(record["flow_calibrations"])
            self._slices = record["rest_calibrations"]
            if self.calibrated:
                self._slices.append(self._calibrate())
            diag, _, ledger = out
            # the ledger logs the starting point plus one point per accepted step
            phases = ledger.phases[1:]
            record["steps"] = len(phases)
            self.scramble_steps += phases.count("s")
            self.l_final += float(diag.l_final)
            return out

        return probe

    def wrap_ticking(self, fn):
        def probe(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return probe


@dataclass
class Sweep:
    config: object
    out_dir: Path
    wall: float
    summary: object
    probe: RunProbe
    tracer: Tracer | None = None


def make_config(name: str, seed: int, n_realizations: int, out_dir: Path):
    from cutflow.cli import build_config

    overrides = dict(WORKLOADS[name].overrides)
    overrides.update(
        n_realizations=n_realizations, master_seed=seed, output_dir=str(out_dir),
        workers=1, deterministic=True, oracle=True, rescale=True,
    )
    return build_config({}, overrides)


def run_sweep(name: str, seed: int, n_realizations: int, tag: str,
              tracer: Tracer | None = None) -> Sweep:
    from cutflow import dynamics, flow, harness

    out_dir = OUT_ROOT / name / tag
    if out_dir.exists():
        shutil.rmtree(out_dir)
    config = make_config(name, seed, n_realizations, out_dir)
    probe = RunProbe(WORKLOADS[name].budget_s, calibrated=tracer is None)
    flow_fn = probe.wrap_flow(harness.integrate_flow)
    realization_fn = probe.wrap_realization(harness.run_realization)
    run = harness.run_experiment
    if tracer is None:
        replacements = [(harness, "integrate_flow", flow_fn),
                        (harness, "run_realization", realization_fn),
                        (flow, "commutator", probe.wrap_ticking(flow.commutator)),
                        (dynamics, "evolve", probe.wrap_ticking(dynamics.evolve))]
    else:
        replacements = _traced_replacements(tracer, flow_fn, realization_fn)
        run = tracer.spanned("harness.run_experiment", run)
    with patched(*replacements):
        t0 = time.perf_counter()
        summaries, _ = run(config)
        wall = time.perf_counter() - t0
    if probe.calibrated:
        wall -= probe.calibration_seconds
        probe.end_calibration_s = calibrate()
    return Sweep(config, out_dir, wall, summaries[0], probe, tracer)


def _traced_replacements(tracer: Tracer, flow_fn, realization_fn) -> list:
    from cutflow import flow, harness
    from cutflow.opalg import wick
    from cutflow.opflow import FlowedCreationOperator

    layers = {
        "sample_potential": "lattice",
        "build_hamiltonian": "lattice",
        "initial_state": "flow",
        "reconstruct_number_operator": "dynamics",
        "correlation_trace": "dynamics",
        "rescale_trace": "dynamics",
        "free_fermion_correlation": "oracle",
        "fock_image": "oracle",
        "complexity": "opflow",
    }
    out = [
        (harness, fn, tracer.spanned(f"{layer}.{fn}", getattr(harness, fn)))
        for fn, layer in layers.items()
    ]
    out += [
        (harness, "integrate_flow", tracer.spanned("flow.integrate_flow", flow_fn)),
        (harness, "run_realization", tracer.spanned(
            "harness.run_realization", realization_fn,
            realization_of=lambda args: args[4])),
        (FlowedCreationOperator, "from_polynomial", staticmethod(tracer.spanned(
            "opflow.from_polynomial", FlowedCreationOperator.from_polynomial))),
        (flow, "commutator", tracer.counted("opalg.commutator", flow.commutator)),
        (wick, "contract", tracer.counted("opalg.contract", wick.contract, with_bytes=True)),
    ]
    return out


# ---------------------------------------------------------------------------
# checks on what the sweep wrote


def _trace_files(sweep: Sweep) -> dict[int, Path]:
    lv, dv = sweep.config.l_values[0], sweep.config.d_values[0]
    files = {}
    for k in range(sweep.config.n_realizations):
        path = sweep.out_dir / f"trace_L{lv}_d{dv:g}_k{k:03d}.csv"
        if path.exists():
            files[k] = path
    return files


def _read_trace(path: Path):
    """Times, values and whether the program flagged the flow unconverged."""
    import numpy as np

    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t"]) for r in rows])
    c = np.array([float(r["C_rescaled"] or r["C_raw"]) for r in rows])
    return t, c, "unconverged" in rows[0]["flags"].split(";")


def check_outputs(name: str, sweep: Sweep) -> dict:
    """Compare every written trace with its exact reference.

    The median short-time error is gated over every realization; the
    largest only over realizations the program did not flag as
    unconverged, since it makes no accuracy claim for those (a free flow
    stopped at ``l_max`` with a 0.03 level gap misses by 1e-2 at t ~ 60).
    Returns per-realization short-time errors, the unconverged ones, the
    long-time deviation (reported, not gated) and the gate verdicts.
    """
    import numpy as np
    from cutflow.harness import realization_seeds
    from cutflow.lattice import build_hamiltonian, sample_potential
    from cutflow.oracle import exact_correlation, free_fermion_correlation

    wl = WORKLOADS[name]
    config = sweep.config
    lv, dv = config.l_values[0], config.d_values[0]
    spec = config.model_spec(lv, dv)
    site = spec.n_sites // 2
    short_err, long_dev, unconverged = [], [], {}
    for k, path in _trace_files(sweep).items():
        t, c, flagged = _read_trace(path)
        pot_seed, _ = realization_seeds(config.master_seed, 0, k)
        h = build_hamiltonian(spec, sample_potential(spec, seed=pot_seed))
        if wl.reference == "free":
            ref = free_fermion_correlation(h.block(2), site, t)
        else:
            ref = exact_correlation(h, site, t)
        dev = np.abs(c - ref)
        short_err.append(float(dev[t <= wl.horizon].max()))
        long_dev.append(float(dev.max()))
        if flagged:
            unconverged[k] = short_err[-1]

    counts = sweep.summary.counts
    converged_err = [e for k, e in zip(_trace_files(sweep), short_err) if k not in unconverged]
    gates = {
        "all realizations wrote a trace": len(short_err) == counts["attempted"] - counts["failed"],
        f"trace error of converged flows for t <= {wl.horizon:g} below {wl.max_trace_err:g}":
            max(converged_err, default=0.0) <= wl.max_trace_err,
    }
    gates[f"median trace error for t <= {wl.horizon:g} below {wl.max_trace_err_median:g}"] = (
        bool(short_err) and statistics.median(short_err) <= wl.max_trace_err_median
    )
    oracle = sweep.summary.oracle
    if wl.max_oracle_median is not None:
        gates[f"median eigenvalue error below {wl.max_oracle_median:g}"] = (
            oracle is not None and oracle["median"] <= wl.max_oracle_median
        )
    return {"short_err": short_err, "long_dev": long_dev, "unconverged": unconverged,
            "gates": gates}


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def same_traces(a: Sweep, b: Sweep) -> bool:
    fa, fb = _trace_files(a), _trace_files(b)
    return fa.keys() == fb.keys() and all(
        fa[k].read_bytes() == fb[k].read_bytes() for k in fa
    )


# ---------------------------------------------------------------------------
# metrics


def warm_up_args(name: str) -> tuple[int, int, float]:
    o = WORKLOADS[name].overrides
    return o["l_values"][0], o["order"], o["delta0"]


def _child_seconds(code: str) -> float:
    env = dict(os.environ, PYTHONPATH="")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup(name: str) -> float:
    """Median set-up time of a fresh interpreter, at reference host speed.

    Starts of the set-up (import cutflow and warm up) alternate with
    starts of a bare interpreter that only imports numpy.  Each set-up
    is divided by the mean of the numpy starts on either side of it and
    multiplied by ``NUMPY_START_REF_S``: process start, imports and page
    faults follow the host's speed together, which the in-process
    :func:`calibrate` slice does not track.
    """
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); "
        f"import warmup; warmup.warm_up{warm_up_args(name)!r}"
    )
    before = _child_seconds("import numpy")
    ratios = []
    for _ in range(SETUP_REPEATS):
        wall = _child_seconds(code)
        after = _child_seconds("import numpy")
        ratios.append(2.0 * wall / (before + after))
        before = after
    return statistics.median(ratios) * NUMPY_START_REF_S


def _host_slowness(slices: list[float]) -> float:
    return statistics.fmean(slices) / CALIBRATION_REF_S


def reference_rate(name: str, sweep: Sweep) -> float:
    """Realizations per second at the workload's reference flow work.

    A realization's flow seconds per step are scaled to reference host
    speed by the calibration slices before, during and after its flow,
    and its seconds outside the flow by the slices from the end of its
    flow to the start of the next realization; the rate uses the medians
    over the run.
    """
    records = sweep.probe.records
    starts = [r["calibration_s"] for r in records[1:]] + [sweep.probe.end_calibration_s]
    per_step, rest = [], []
    for r, next_start in zip(records, starts):
        in_flow, after = r["flow_calibrations"], r["rest_calibrations"]
        after_flow = r["realization_s"] - r["flow_s"] - sum(in_flow) - sum(after)
        if r["steps"]:
            host = _host_slowness([r["calibration_s"], *in_flow, after[0]])
            per_step.append(r["flow_s"] / r["steps"] / host)
        else:
            after = [r["calibration_s"], *in_flow, *after]
        rest.append(after_flow / _host_slowness([*after, next_start]))
    # sweep.wall excludes every calibration slice; realization_s holds those inside it
    in_realizations = sum(r["realization_s"] - sum(r["flow_calibrations"])
                          - sum(r["rest_calibrations"]) for r in records)
    s_harness = (sweep.wall - in_realizations) / len(records)
    return 1.0 / (WORKLOADS[name].ref_steps * statistics.median(per_step)
                  + statistics.median(rest) + s_harness)


def end_to_end_metrics(name: str, sweep: Sweep, setup_s: float) -> dict:
    counts = sweep.summary.counts
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "realizations_per_s": reference_rate(name, sweep),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "succeeded_fraction": counts["succeeded"] / counts["attempted"],
    }


PER_LAYER_UNITS = {
    "flow.integrate_s": "s",
    "flow.steps": "count",
    "flow.s_per_step": "s",
    "flow.l_final": "count",
    "flow.scramble_step_fraction": "ratio",
    "flow.converged_fraction": "ratio",
    "opalg.commutator_calls": "count",
    "opalg.commutator_s": "s",
    "opalg.contract_calls": "count",
    "opalg.contract_s": "s",
    "opalg.contract_bytes": "bytes",
    "dynamics.trace_s": "s",
    "dynamics.trace_s_per_point": "s",
    "dynamics.reconstruct_s": "s",
    "dynamics.time_points": "count",
    "dynamics.rescale_s": "s",
    "dynamics.trace_err": "abs",
    "lattice.build_s": "s",
    "opflow.fold_s": "s",
    "oracle.free_s": "s",
    "oracle.exact_s": "s",
    "oracle.rel_err": "ratio",
    "harness.realizations": "count",
    "harness.realization_s.p50": "s",
    "harness.realization_s.max": "s",
    "harness.overhead_s": "s",
    "harness.bytes_written": "bytes",
    "harness.realizations_per_s": "1/s",
    "bench.tracing_overhead_s": "s",
}
LAYERS = ("lattice", "flow", "opalg", "opflow", "dynamics", "oracle", "harness")
PER_LAYER_UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})


def per_layer_metrics(plain: Sweep, traced: Sweep, checks: dict) -> dict:
    tr = traced.tracer
    probe = traced.probe
    summary = traced.summary
    traced_wall = tr.by_name("harness.run_experiment")[0].duration
    realization_s = [s.duration for s in tr.by_name("harness.run_realization")]
    n_points = len(tr.by_name("dynamics.correlation_trace")) * len(traced.config.times())
    integrate_s = tr.total("flow.integrate_flow")
    trace_s = tr.total("dynamics.correlation_trace")
    comm_calls, comm_s, _ = tr.counter("opalg.commutator")
    con_calls, con_s, con_bytes = tr.counter("opalg.contract")
    self_s = tr.self_times()
    oracle = summary.oracle or {}
    out = {
        "flow.integrate_s": integrate_s,
        "flow.steps": probe.steps,
        "flow.s_per_step": integrate_s / max(probe.steps, 1),
        "flow.l_final": probe.l_final,
        "flow.scramble_step_fraction": probe.scramble_steps / max(probe.steps, 1),
        "flow.converged_fraction": summary.converged_fraction,
        "opalg.commutator_calls": comm_calls,
        "opalg.commutator_s": comm_s,
        "opalg.contract_calls": con_calls,
        "opalg.contract_s": con_s,
        "opalg.contract_bytes": con_bytes,
        "dynamics.trace_s": trace_s,
        "dynamics.trace_s_per_point": trace_s / max(n_points, 1),
        "dynamics.reconstruct_s": tr.total("dynamics.reconstruct_number_operator"),
        "dynamics.time_points": n_points,
        "dynamics.rescale_s": tr.total("dynamics.rescale_trace"),
        "dynamics.trace_err": statistics.median(checks["short_err"]),
        "lattice.build_s": tr.total("lattice.sample_potential", "lattice.build_hamiltonian"),
        "opflow.fold_s": tr.total("opflow.from_polynomial", "opflow.complexity"),
        "oracle.free_s": tr.total("oracle.free_fermion_correlation"),
        "oracle.exact_s": tr.total("oracle.fock_image"),
        "oracle.rel_err": oracle.get("median", float("nan")),
        "harness.realizations": len(realization_s),
        "harness.realization_s.p50": statistics.median(realization_s),
        "harness.realization_s.max": max(realization_s),
        "harness.overhead_s": traced_wall - sum(realization_s),
        "harness.bytes_written": output_bytes(traced.out_dir),
        "harness.realizations_per_s": summary.counts["succeeded"] / plain.wall,
        "bench.tracing_overhead_s": traced_wall - plain.wall,
    }
    out.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS})
    return out


# ---------------------------------------------------------------------------
# entry point


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "blas_core": blas.get("openblas configuration", ""),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def batch_size(name: str, seconds: int) -> int:
    return max(1, round(seconds / WORKLOADS[name].nominal_s))


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    # the traced run repeats the sweep, so it takes half the batch twice
    n = batch_size(name, seconds)
    if trace:
        n = max(1, n // 2)
    setup_s = None if trace else measure_setup(name)
    warm_up(*warm_up_args(name))
    plain = run_sweep(name, seed, n, "plain")
    checks = check_outputs(name, plain)
    gates = dict(checks["gates"])
    if trace:
        traced = run_sweep(name, seed, n, "traced", tracer=Tracer())
        traced.tracer.write(OUT_ROOT / name / "spans.jsonl")
        gates["traced run wrote the same traces"] = same_traces(plain, traced)
        gates["traced run did the same flow steps"] = traced.probe.steps == plain.probe.steps
        metrics = per_layer_metrics(plain, traced, checks)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(name, plain, setup_s)
        units = END_TO_END_UNITS
    counts = plain.summary.counts
    probe = plain.probe
    host = statistics.median(r["calibration_s"] for r in probe.records) / CALIBRATION_REF_S
    print(f"[{name}] seed {seed}: {n} realizations, wall {plain.wall:.2f} s, "
          f"flow {probe.flow_seconds:.2f} s over {probe.steps} steps, "
          f"plain rate {counts['succeeded'] / plain.wall:.4g}/s, host slowness {host:.3f}")
    for k, r in enumerate(probe.records):
        if r["error"]:
            print(f"[{name}] realization {k} failed: {r['error']}")
    for gate, ok in gates.items():
        print(f"[{name}] gate {'PASS' if ok else 'FAIL'}: {gate}")
    print(f"[{name}] trace error for t <= {WORKLOADS[name].horizon:g} per realization: "
          + " ".join(f"{e:.2e}" for e in checks["short_err"]))
    if checks["unconverged"]:
        print(f"[{name}] unconverged flows (realization: trace error): " + ", ".join(
            f"{k}: {e:.2e}" for k, e in checks["unconverged"].items()))
    if WORKLOADS[name].reference == "exact":
        print(f"[{name}] finding: largest |C - exact| over the whole grid "
              f"{max(checks['long_dev']):.3f} (long-time values are not gated)")
    for key, value in metrics.items():
        print(f"[{name}] {key} = {value:.6g} {units[key]}")
    return {
        "correct": all(gates.values()),
        "attempted": counts["attempted"],
        "failed": counts["failed"] + counts["dropped"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_in_child(name: str, args: argparse.Namespace) -> dict:
    """Run one workload in a fresh interpreter; echo its output, return its result."""
    cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout
    sys.stdout.write(out)
    lines = out.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"workload {name} printed no result") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    import_cutflow()
    if args.workload != "all":
        print("env " + json.dumps(environment(), sort_keys=True))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        # one process per workload, so peak_rss_mb is each workload's own
        results = {name: run_in_child(name, args) for name in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
