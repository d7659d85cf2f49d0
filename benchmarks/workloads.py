"""The benchmark's workloads: what runs in a pass and how its outputs are checked.

All workloads use noisy data at delta = 1e-3 (the sweep adds other levels),
q = 0.6, tau = 3.5 and max_iter = 200.  Noise seeds are derived from the
benchmark's ``--seed``, so one seed always gives the same inputs.

- ``steady``: ``lmmss.solve`` on ``coefficient`` at n = 128 with identity and
  d2 scaling over 8 noise seeds.  Every solve stops by discrepancy and the
  time sits in the per-step factorizations (``gsvd``, ``completeness_check``),
  so it shows work removed from a step and barely moves with the damping
  search.
- ``small``: ``lmmss.cli.main`` in-process at n = 32 on all three problems
  with identity scaling: ``sweep``, ``solve``, ``diagnose --from-dir`` on the
  solve output and a fresh ``diagnose``.  Small matrices make the damping
  search, F/J evaluation, TCC sampling and artifact writing visible; it is
  the only workload with exact-mode stopping and run reloading.
- ``ladder``: the size ladder, 3 problems x n in {32, 48, 64, 128} x
  {identity, d2}, one noise seed.  It is the only workload where solves fail
  to finish, so robustness fixes and robustness regressions show here.

A workload object has ``run_pass()`` (the timed operations, returning their
raw results), ``check(results)`` (outside the timed region, returning one
``Outcome`` per operation) and ``finish()`` (checks that need more than one
pass, such as byte-identical reruns).
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lmmss
from lmmss import cli
from lmmss.problems import make_noisy_data, make_problem
from lmmss.scaling import from_spec

from checks import check_run, read_solve_dir, read_summary, read_table, relative_error

Q, TAU, MAX_ITER, DELTA = 0.6, 3.5, 200, 1e-3
PROBLEMS = ("linear", "autoconvolution", "coefficient")

SOLVED, UNSOLVED, FAILED = "solved", "unsolved", "failed"


@dataclass(frozen=True)
class Outcome:
    """Verdict on one operation.

    ``solved``: it reached its stopping rule (or exit status 0) and passed
    every outside check.  ``unsolved``: it reported that it could not finish,
    by an ``LmmssError``, a stop other than discrepancy, or a nonzero exit
    status.  ``failed``: it claimed success but an outside check broke, or it
    raised an exception outside the package's documented errors.
    ``errors`` holds ||x_k* - x_dagger|| / ||x_dagger|| of the runs inside
    the operation that reached discrepancy and count toward ``err_rel``.
    """

    label: str
    status: str
    detail: str = ""
    errors: tuple[float, ...] = ()


def derive_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def solver_config() -> lmmss.SolverConfig:
    return lmmss.SolverConfig(q=Q, tau=TAU, max_iter=MAX_ITER)


@dataclass(frozen=True)
class SolveCase:
    label: str
    problem: lmmss.InverseProblem
    L: lmmss.ScalingOperator
    data: lmmss.NoisyData
    counts_error: bool


class SolveWorkload:
    """A fixed list of ``lmmss.solve`` calls (``steady`` and ``ladder``).

    ``reference_n`` is the matrix size that dominates a pass; the harness
    times a fixed reference computation at that size after each pass.
    """

    artifact_bytes = 0

    def __init__(self, cases, reference_n: int):
        self.cases = tuple(cases)
        self.reference_n = reference_n
        self.cfg = solver_config()

    def run_pass(self):
        results = []
        for case in self.cases:
            try:
                results.append(
                    lmmss.solve(case.problem, case.data, case.L, case.problem.x0_default, self.cfg)
                )
            except Exception as exc:  # classified by check(), outside the timed region
                results.append(exc)
        return results

    def check(self, results):
        return [self._verdict(case, result) for case, result in zip(self.cases, results)]

    def _verdict(self, case, result):
        if isinstance(result, lmmss.LmmssError):
            return Outcome(case.label, UNSOLVED, type(result).__name__)
        if isinstance(result, Exception):
            return Outcome(case.label, FAILED, f"{type(result).__name__}: {result}")
        findings = check_run(result, case.problem, case.data.y_delta, self.cfg)
        if result.stop_reason != "discrepancy":
            return Outcome(case.label, UNSOLVED, "; ".join([result.stop_reason, *findings]))
        if findings:
            return Outcome(case.label, FAILED, "; ".join(findings))
        errors = (relative_error(result.final_x, case.problem.x_dagger),) if case.counts_error else ()
        return Outcome(case.label, SOLVED, errors=errors)

    def finish(self):
        return []


def steady(seed: int, n: int = 128, noise_seeds: int = 8) -> SolveWorkload:
    problem = make_problem("coefficient", n)
    cases = []
    for spec in ("identity", "d2"):
        L = from_spec(spec, n)
        for s in derive_seeds(seed, noise_seeds):
            data = make_noisy_data(problem.y_exact, DELTA, s)
            cases.append(SolveCase(f"coefficient/n{n}/{spec}/seed{s}", problem, L, data, True))
    return SolveWorkload(cases, reference_n=n)


def ladder(seed: int, sizes=(32, 48, 64, 128)) -> SolveWorkload:
    # err_rel is taken over the coefficient rows only: they all finish at the
    # commit that defined this benchmark, so a fix that lets more rows finish
    # does not move err_rel; robustness shows in solved_frac instead.
    (s,) = derive_seeds(seed, 1)
    cases = []
    for name in PROBLEMS:
        for n in sizes:
            problem = make_problem(name, n)
            data = make_noisy_data(problem.y_exact, DELTA, s)
            for spec in ("identity", "d2"):
                cases.append(
                    SolveCase(
                        f"{name}/n{n}/{spec}", problem, from_spec(spec, n), data, name == "coefficient"
                    )
                )
    return SolveWorkload(cases, reference_n=max(sizes))


@dataclass(frozen=True)
class Command:
    kind: str  # sweep | solve | diagnose
    problem: str
    argv: tuple[str, ...]
    out: Path


@dataclass
class CliWorkload:
    """``lmmss.cli.main`` commands run in-process (``small``).

    Each pass writes its artifacts under ``workdir/pass``; ``check`` reads
    them, records their size in ``artifact_bytes`` and removes them.
    ``reference_n`` is as for ``SolveWorkload``.
    """

    commands: tuple[Command, ...]
    problems: dict
    noisy: dict  # problem name -> NoisyData of the solve command
    sweep_rows: int
    workdir: Path
    reference_n: int
    cfg: lmmss.SolverConfig = field(default_factory=solver_config)
    artifact_bytes: int = 0
    first_trace: dict = field(default_factory=dict)

    def run_pass(self):
        return [_run_cli(cmd.argv) for cmd in self.commands]

    def check(self, results):
        outcomes = []
        for cmd, (code, output) in zip(self.commands, results):
            label = f"{cmd.kind}/{cmd.problem}" + ("/from-dir" if "--from-dir" in cmd.argv else "")
            if isinstance(code, Exception):
                outcomes.append(Outcome(label, FAILED, f"{type(code).__name__}: {code}"))
            elif code != 0:
                outcomes.append(Outcome(label, UNSOLVED, f"exit {code}: {output.strip()[-200:]}"))
            else:
                outcomes.append(self._check_artifacts(label, cmd))
        pass_dir = self.workdir / "pass"
        self.artifact_bytes = sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file())
        shutil.rmtree(pass_dir, ignore_errors=True)
        return outcomes

    def _check_artifacts(self, label, cmd):
        findings, errors = [], []
        problem = self.problems[cmd.problem]
        norm_dagger = float(np.linalg.norm(problem.x_dagger))
        try:
            if cmd.kind == "sweep":
                summary = read_summary(cmd.out / "sweep_summary.txt")
                for key in ("all_discrepancy", "trend_ok"):
                    if summary.get(key) != "True":
                        findings.append(f"{key} = {summary.get(key)}")
                rows = read_table(cmd.out / "sweep.csv")
                if len(rows) != self.sweep_rows:
                    findings.append(f"sweep.csv has {len(rows)} rows")
                for row in rows:
                    if not float(row["final_residual"]) <= TAU * float(row["delta"]):
                        findings.append(f"row delta={row['delta']} seed={row['seed']} above tau*delta")
                    errors.append(float(row["err_euclid"]) / norm_dagger)
            elif cmd.kind == "solve":
                data = self.noisy[cmd.problem]
                run = read_solve_dir(cmd.out, problem, data.y_delta)
                if run.stop_reason != "discrepancy":
                    findings.append(f"exit 0 with stop_reason {run.stop_reason}")
                findings += check_run(run, problem, data.y_delta, self.cfg)
                errors.append(relative_error(run.final_x, problem.x_dagger))
                self.first_trace.setdefault(cmd.problem, (cmd.out / "trace.csv").read_bytes())
            else:
                summary = read_summary(cmd.out / "diagnostics_summary.txt")
                if "c_hat" not in summary:
                    findings.append("diagnostics_summary.txt has no c_hat")
                wanted = ["gain_noisy.csv"] + ([] if "--from-dir" in cmd.argv else ["gain_exact.csv"])
                findings += [f"missing {name}" for name in wanted if not (cmd.out / name).is_file()]
        except (OSError, KeyError, ValueError) as exc:
            findings.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
        if findings:
            return Outcome(label, FAILED, "; ".join(findings))
        return Outcome(label, SOLVED, errors=tuple(errors))

    def finish(self):
        """Rerun each ``solve`` and require a byte-identical ``trace.csv``."""
        outcomes = []
        for cmd in self.commands:
            if cmd.kind != "solve":
                continue
            out = self.workdir / "repeat" / cmd.problem
            argv = list(cmd.argv)
            argv[argv.index("--out") + 1] = str(out)
            code, output = _run_cli(argv)
            label = f"repeat-solve/{cmd.problem}"
            if code != 0:
                outcomes.append(Outcome(label, UNSOLVED, f"exit {code}: {output.strip()[-200:]}"))
            elif (out / "trace.csv").read_bytes() != self.first_trace.get(cmd.problem):
                outcomes.append(Outcome(label, FAILED, "trace.csv differs from the first solve"))
            else:
                outcomes.append(Outcome(label, SOLVED))
        shutil.rmtree(self.workdir / "repeat", ignore_errors=True)
        return outcomes


def _run_cli(argv):
    """Run one CLI command in-process, capturing what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # classified by check(), outside the timed region
            code = exc
    return code, buf.getvalue()


def small(seed: int, workdir: Path, n: int = 32, deltas=(1e-2, 3e-3, 1e-3, 3e-4),
          sweep_seeds: int = 3) -> CliWorkload:
    seeds = derive_seeds(seed, sweep_seeds)
    common = ["--n", str(n), "--scaling", "identity", "--q", str(Q), "--tau", str(TAU),
              "--max-iter", str(MAX_ITER)]
    pass_dir = workdir / "pass"
    commands, problems, noisy = [], {}, {}
    for name in PROBLEMS:
        problems[name] = make_problem(name, n)
        noisy[name] = make_noisy_data(problems[name].y_exact, DELTA, seeds[0])
        base = ["--problem", name, *common]
        one = ["--delta", repr(DELTA), "--seed", str(seeds[0])]
        sweep = [*base, *(a for d in deltas for a in ("--delta", repr(d))),
                 *(a for s in seeds for a in ("--seed", str(s)))]
        solve_out = pass_dir / name / "solve"
        for kind, args, out in (
            ("sweep", sweep, pass_dir / name / "sweep"),
            ("solve", [*base, *one], solve_out),
            ("diagnose", ["--from-dir", str(solve_out)], pass_dir / name / "diagnose-from-dir"),
            ("diagnose", [*base, *one], pass_dir / name / "diagnose"),
        ):
            commands.append(Command(kind, name, (kind, *args, "--out", str(out)), out))
    return CliWorkload(tuple(commands), problems, noisy, len(deltas) * len(seeds), workdir, n)
