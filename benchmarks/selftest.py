"""Self-test of the benchmark itself.

Run from the root of a checkout (it takes about 15 seconds)::

    python3 benchmarks/selftest.py

It checks that

1. a tiny pass of each workload, untraced and traced, emits exactly the
   metrics that ``BENCHMARK.json`` names, each with its unit, and that every
   operation in it passes its outside checks;
2. the outside checks flag a fabricated run whose linearized residual
   exceeds its residual, and one that claims discrepancy with a residual
   above tau * delta;
3. a trace target missing from the package is reported absent, not fatal.

It prints one line per check and exits with status 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run

if not run.pin_blas_and_path():
    sys.exit(f"error: no lmmss sources under {run.SRC}")

import harness  # noqa: E402  (needs the pinned BLAS and src/ on the path)
import lmmss  # noqa: E402
from checks import check_run  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import FAILED, SOLVED, steady  # noqa: E402

TINY = {
    "steady": {"n": 16, "noise_seeds": 2},
    "small": {"n": 16, "deltas": (1e-2, 1e-3), "sweep_seeds": 1},
    "ladder": {"sizes": (16,)},
}

failures = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def tiny_passes():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in run.WORKLOADS:
        for traced in (False, True):
            workdir = run.ROOT / ".bench_work" / f"selftest-{name}"
            probe = [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
                     "--seed", "0", "--setup-probe"]
            try:
                _, result = harness.run(name, 0, 0.0, traced, workdir, probe, run.ROOT, TINY[name])
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            got = {key: m["unit"] for key, m in result["metrics"].items()}
            label = f"{name} trace={int(traced)}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(got == wanted[traced], f"{label}: metric names and units match BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: every operation passes its checks")


def fabricated_runs():
    workload = steady(0, **TINY["steady"])
    case = workload.cases[0]
    good = workload.run_pass()[0]
    expect(good.stop_reason == "discrepancy" and not check_run(good, case.problem, case.data.y_delta,
                                                               workload.cfg),
           "a genuine run passes the checks")

    steps = list(good.trace)
    steps[0] = dataclasses.replace(steps[0], lin_res_norm=1.5 * steps[0].res_norm)
    grown = dataclasses.replace(good, trace=tuple(steps))
    findings = check_run(grown, case.problem, case.data.y_delta, workload.cfg)
    expect(any("lin_res > res" in f for f in findings), "flags a step with lin_res > res")

    early = dataclasses.replace(good, final_x=good.trace[0].x)
    findings = check_run(early, case.problem, case.data.y_delta, workload.cfg)
    expect(any("claims discrepancy" in f for f in findings),
           "flags a discrepancy claim with ||F(x) - y|| > tau * delta")

    # check() pairs results with cases in order, so each call checks case 0.
    verdicts = [workload.check([result])[0].status for result in (early, grown, good)]
    expect(verdicts == [FAILED, FAILED, SOLVED], "fabricated runs count as failed operations")


def missing_target():
    tracer = Tracer([Target("solver.no_such_layer", "lmmss.solver", "no_such_layer"),
                     Target("no_such_module.f", "lmmss.no_such_module", "f")])
    with tracer.active():
        pass
    expect(tracer.absent == ["solver.no_such_layer", "no_such_module.f"]
           and tracer.stats["solver.no_such_layer"].calls == 0,
           "missing trace targets are reported absent with zero calls")
    expect(lmmss.solver.solve.__name__ == "solve" and not hasattr(lmmss.solver.solve, "__wrapped__"),
           "uninstalling the tracer restores the package")


if __name__ == "__main__":
    tiny_passes()
    fabricated_runs()
    missing_target()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)
