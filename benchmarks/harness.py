"""Measurement loop, metrics and the environment record.

Imported by ``run.py`` after it has pinned BLAS to one thread, because this
module imports numpy.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

import workloads
from tracer import Target, Tracer
from workloads import FAILED, SOLVED, UNSOLVED

#: End-to-end metrics, reported by untraced runs (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ratio",
    "solved_frac": "ratio",
    "err_rel": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, reported by traced runs (``--trace 1``), per pass.
PER_LAYER = {
    "gsvd.gsvd.calls": "count",
    "gsvd.gsvd.busy_s": "s",
    "gsvd.gsvd.fail": "count",
    "scaling.completeness_check.calls": "count",
    "scaling.completeness_check.busy_s": "s",
    "solver.dense_factorizations_per_step": "1/step",
    "solver.select_lambda_q.self_s": "s",
    "solver.omega_evals": "count",
    "solver.omega_evals_per_step": "1/step",
    "solver.lm_step_gsvd.self_s": "s",
    "solver.select_lambda_q.fail": "count",
    "solver.steps": "count",
    "solver.equality_frac": "ratio",
    "solver.solve.self_s": "s",
    "problems.evaluate_F.calls": "count",
    "problems.evaluate_F.busy_s": "s",
    "problems.evaluate_J.calls": "count",
    "problems.evaluate_J.busy_s": "s",
    "diagnostics.estimate_tcc_constant.busy_s": "s",
    "diagnostics.estimate_tcc_constant.pairs_used_frac": "ratio",
    "diagnostics.check_euclidean_bound.busy_s": "s",
    "diagnostics.check_gain.busy_s": "s",
    "diagnostics.regularization_sweep.busy_s": "s",
    "cli.solve.busy_s": "s",
    "cli.sweep.busy_s": "s",
    "cli.diagnose.busy_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

#: Child processes started to time set-up; ``setup_s`` is their median.
SETUP_PROBES = 7

#: Time of ``reference_computation(128)`` to which ``setup_s`` is scaled: about
#: its time on the 2-vCPU host where the first baseline was measured, when
#: that host was not slowed by other load.
NOMINAL_REFERENCE_S = 0.15


def _count_equality(counters, fn, args, kwargs, result):
    if isinstance(result, tuple) and len(result) > 1 and result[1] == "equality":
        counters["select_lambda_q.equality"] += 1


def _count_tcc_pairs(counters, fn, args, kwargs, result):
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    counters["tcc.pairs_requested"] += int(call.arguments.get("samples", 0))
    counters["tcc.pairs_used"] += int(getattr(result, "samples", 0))


TARGETS = (
    Target("solver.solve", "lmmss.solver", "solve"),
    Target("gsvd.gsvd", "lmmss.gsvd", "gsvd"),
    Target("scaling.completeness_check", "lmmss.scaling", "completeness_check"),
    Target("solver.select_lambda_q", "lmmss.solver", "select_lambda_q", _count_equality),
    Target("solver.qcond_residual", "lmmss.solver", "qcond_residual"),
    Target("solver.lm_step_gsvd", "lmmss.solver", "lm_step_gsvd"),
    Target("problems.evaluate_F", "lmmss.problems", "InverseProblem.evaluate_F"),
    Target("problems.evaluate_J", "lmmss.problems", "InverseProblem.evaluate_J"),
    Target("diagnostics.estimate_tcc_constant", "lmmss.diagnostics", "estimate_tcc_constant",
           _count_tcc_pairs),
    Target("diagnostics.run_tcc_ratios", "lmmss.diagnostics", "run_tcc_ratios"),
    Target("diagnostics.check_gain", "lmmss.diagnostics", "check_gain"),
    Target("diagnostics.check_kstar_bound", "lmmss.diagnostics", "check_kstar_bound"),
    Target("diagnostics.check_euclidean_bound", "lmmss.diagnostics", "check_euclidean_bound"),
    Target("diagnostics.regularization_sweep", "lmmss.diagnostics", "regularization_sweep"),
    Target("cli.solve", "lmmss.cli", "cmd_solve"),
    Target("cli.sweep", "lmmss.cli", "cmd_sweep"),
    Target("cli.diagnose", "lmmss.cli", "cmd_diagnose"),
)


def build(name: str, seed: int, workdir: Path, sizes: dict | None = None):
    sizes = sizes or {}
    if name == "small":
        return workloads.small(seed, workdir, **sizes)
    return {"steady": workloads.steady, "ladder": workloads.ladder}[name](seed, **sizes)


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    st, counters = tracer.stats, tracer.counters
    select = st["solver.select_lambda_q"]
    steps = select.calls - select.fail
    omega = st["solver.qcond_residual"].calls

    def per_step(value):
        return value / steps if steps else 0.0

    pairs = counters["tcc.pairs_requested"]
    return {
        "gsvd.gsvd.calls": st["gsvd.gsvd"].calls,
        "gsvd.gsvd.busy_s": st["gsvd.gsvd"].busy_s,
        "gsvd.gsvd.fail": st["gsvd.gsvd"].fail,
        "scaling.completeness_check.calls": st["scaling.completeness_check"].calls,
        "scaling.completeness_check.busy_s": st["scaling.completeness_check"].busy_s,
        "solver.dense_factorizations_per_step": per_step(st["solver.solve"].factorizations),
        "solver.select_lambda_q.self_s": select.self_s,
        "solver.omega_evals": omega,
        "solver.omega_evals_per_step": per_step(omega),
        "solver.lm_step_gsvd.self_s": st["solver.lm_step_gsvd"].self_s,
        "solver.select_lambda_q.fail": select.fail,
        "solver.steps": steps,
        "solver.equality_frac": per_step(counters["select_lambda_q.equality"]),
        "solver.solve.self_s": st["solver.solve"].self_s,
        "problems.evaluate_F.calls": st["problems.evaluate_F"].calls,
        "problems.evaluate_F.busy_s": st["problems.evaluate_F"].busy_s,
        "problems.evaluate_J.calls": st["problems.evaluate_J"].calls,
        "problems.evaluate_J.busy_s": st["problems.evaluate_J"].busy_s,
        "diagnostics.estimate_tcc_constant.busy_s": st["diagnostics.estimate_tcc_constant"].busy_s,
        "diagnostics.estimate_tcc_constant.pairs_used_frac":
            counters["tcc.pairs_used"] / pairs if pairs else 0.0,
        "diagnostics.check_euclidean_bound.busy_s": st["diagnostics.check_euclidean_bound"].busy_s,
        "diagnostics.check_gain.busy_s": st["diagnostics.check_gain"].busy_s,
        "diagnostics.regularization_sweep.busy_s": st["diagnostics.regularization_sweep"].busy_s,
        "cli.solve.busy_s": st["cli.solve"].busy_s,
        "cli.sweep.busy_s": st["cli.sweep"].busy_s,
        "cli.diagnose.busy_s": st["cli.diagnose"].busy_s,
        "cli.artifact_bytes": artifact_bytes,
    }


def reference_computation(n: int):
    """A fixed dense computation of the kind a pass does, at its matrix size.

    It is timed right after each untraced pass, and ``wall_ref`` divides the
    pass time by it.  On a shared host the speed of the machine drifts by
    tens of percent over minutes; the quotient of two adjacent timings
    cancels most of that drift (see NOTES.md).  It calls numpy only, never
    lmmss, so no change to the package can move it.
    """
    a = np.random.default_rng(0).standard_normal((n, n))
    reps = max(1, round(40 * (128 / n) ** 2))

    def run():
        for _ in range(reps):
            np.linalg.svd(a)
            np.linalg.qr(a)

    return run


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def measure(workload, seconds: float, traced: bool):
    """Repeat passes until ``seconds`` have elapsed (at least one pass).

    An untraced run times every pass and the reference computation after
    it.  A traced run alternates an untraced and a traced pass, so the
    overhead is measured under the same conditions.  Every pass is checked,
    outside its timed region.
    """
    walls, ref_ratios, traced_walls, layers, outcomes = [], [], [], [], []
    reference = reference_computation(workload.reference_n)
    deadline = time.perf_counter() + seconds
    absent: list[str] = []
    while True:
        wall, results = _timed(workload.run_pass)
        walls.append(wall)
        if not traced:  # before the check, so that the two timings are adjacent
            ref_ratios.append(wall / _timed(reference)[0])
        outcomes += workload.check(results)
        if traced:
            tracer = Tracer(TARGETS)
            with tracer.active():
                wall, results = _timed(workload.run_pass)
            traced_walls.append(wall)
            absent = tracer.absent
            outcomes += workload.check(results)
            layers.append(layer_metrics(tracer, workload.artifact_bytes))
        if time.perf_counter() >= deadline:
            break
    outcomes += workload.finish()
    return walls, ref_ratios, traced_walls, layers, outcomes, absent


def probe_setup(argv: list[str], cwd: Path) -> float:
    """Seconds from starting ``argv`` until it prints ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return elapsed


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(name: str, seed: int, seconds: float, traced: bool, workdir: Path,
        probe_argv: list[str], cwd: Path, sizes: dict | None = None):
    """Run one workload; return (summary lines, result object)."""
    workload = build(name, seed, workdir, sizes)
    setup_raw, setup_scaled = [], []
    if not traced:
        # Scale each set-up time by the reference timed right after it, as
        # for wall_ref, so that drift in host speed cancels; see NOTES.md.
        reference = reference_computation(128)
        for _ in range(SETUP_PROBES):
            raw = probe_setup(probe_argv, cwd)
            setup_raw.append(raw)
            setup_scaled.append(raw * NOMINAL_REFERENCE_S / _timed(reference)[0])
    walls, ref_ratios, traced_walls, layers, outcomes, absent = measure(workload, seconds, traced)

    counts = {status: sum(o.status == status for o in outcomes) for status in (SOLVED, UNSOLVED, FAILED)}
    attempted = len(outcomes)
    errors = [e for o in outcomes if o.status == SOLVED for e in o.errors]
    if not errors:
        raise RuntimeError("no run reached discrepancy, so err_rel is undefined")

    if traced:
        metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "wall_ref": statistics.median(ref_ratios),
            "solved_frac": counts[SOLVED] / attempted,
            "err_rel": statistics.median(errors),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    lines = [
        "env " + json.dumps(environment(seed), sort_keys=True),
        f"workload {name}: {len(walls)} untraced passes, {len(traced_walls)} traced passes, "
        f"{attempted} operations attempted",
        f"  wall_s = {statistics.median(walls)!r} s (median untraced pass, "
        f"{min(walls):.3f} to {max(walls):.3f} s; not bounded, see wall_ref)",
        *([f"  raw set-up = {statistics.median(setup_raw)!r} s (median of {len(setup_raw)} "
           f"probes; setup_s is this scaled to the nominal reference time)"] if setup_raw else []),
        f"  solved {counts[SOLVED]}, unsolved {counts[UNSOLVED]}, failed {counts[FAILED]}; "
        f"fail_frac = {(attempted - counts[SOLVED]) / attempted:.6g} ratio "
        f"({attempted - counts[SOLVED]}/{attempted})",
    ]
    seen = set()
    for o in outcomes:
        if o.status != SOLVED and (o.label, o.status) not in seen:
            seen.add((o.label, o.status))
            lines.append(f"  {o.status} {o.label}: {o.detail}")
    if absent:
        lines.append(f"  trace targets absent at this commit: {', '.join(absent)}")
    lines += [f"{key} = {metrics[key]!r} {unit}" for key, unit in units.items()]
    result = {
        "correct": counts[FAILED] == 0,
        "attempted": attempted,
        "failed": counts[FAILED],
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return lines, result
