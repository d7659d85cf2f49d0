"""Correctness checks the benchmark applies from outside the solver.

Every check recomputes what it can from the problem and the data instead of
trusting the solver's own bookkeeping.  Each returns a list of findings; an
empty list means the run passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Largest accepted |lin_res/res - q| at a step tagged ``equality``.
QCOND_TOL = 1e-8


def check_run(run, problem, y, cfg) -> list[str]:
    """Check a solver run (a ``RunRecord`` or a look-alike read from artifacts).

    - A run that stops by ``discrepancy`` has ``||F(x_k*) - y|| <= tau delta``,
      with F evaluated here at the returned iterate.
    - Every step has ``lin_res_norm <= res_norm``.
    - Every ``equality`` step has ``|lin_res_norm / res_norm - q| <= 1e-8``.
    """
    findings = []
    if run.stop_reason == "discrepancy":
        res = float(np.linalg.norm(problem.evaluate_F(run.final_x) - y))
        if not res <= cfg.tau * run.delta:
            findings.append(
                f"claims discrepancy but ||F(x)-y|| = {res:.6g} > tau*delta = "
                f"{cfg.tau * run.delta:.6g}"
            )
    steps = [rec for rec in run.trace if rec.lam is not None]
    grew = [rec.k for rec in steps if not rec.lin_res_norm <= rec.res_norm]
    if grew:
        findings.append(f"lin_res > res on {len(grew)} steps (first k={grew[0]})")
    off = [
        rec.k
        for rec in steps
        if rec.qcond_kind == "equality"
        and not abs(rec.lin_res_norm / rec.res_norm - cfg.q) <= QCOND_TOL
    ]
    if off:
        findings.append(f"equality step misses q on {len(off)} steps (first k={off[0]})")
    return findings


def relative_error(x, x_dagger) -> float:
    return float(np.linalg.norm(np.asarray(x) - x_dagger) / np.linalg.norm(x_dagger))


# ---------------------------------------------------------------------------
# Reading CLI artifacts.  The formats are those ``lmmss solve`` and
# ``lmmss sweep`` write: ``key = value`` summaries and CSV tables headed by a
# ``# config_digest=...`` line.


@dataclass(frozen=True)
class ArtifactStep:
    """One trace row of a CLI solve, with the linearized residual recomputed."""

    k: int
    res_norm: float
    lam: float
    qcond_kind: str
    lin_res_norm: float


@dataclass(frozen=True)
class ArtifactRun:
    """The parts of a ``RunRecord`` that ``check_run`` reads."""

    trace: list[ArtifactStep]
    final_x: np.ndarray
    stop_reason: str
    delta: float


def read_summary(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def read_table(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# config_digest="):
        raise ValueError(f"{path.name}: missing config digest line")
    header = lines[1].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[2:]]


def read_solve_dir(run_dir: Path, problem, y) -> ArtifactRun:
    """Rebuild a solve from ``trace.csv``, ``iterates.txt`` and ``summary.txt``.

    ``lin_res_norm`` is not written by the CLI, so it is recomputed from the
    iterates as ``||F(x_k) - y + J(x_k) (x_{k+1} - x_k)||``; the iterates are
    written with 17 significant digits and read back exactly.
    """
    summary = read_summary(run_dir / "summary.txt")
    xs = np.loadtxt(run_dir / "iterates.txt", ndmin=2)
    steps = []
    for row in read_table(run_dir / "trace.csv"):
        k = int(row["k"])
        if not row["lambda"]:
            continue
        x = xs[k]
        lin = problem.evaluate_F(x) - y + problem.evaluate_J(x) @ (xs[k + 1] - x)
        steps.append(
            ArtifactStep(
                k=k,
                res_norm=float(row["res_norm"]),
                lam=float(row["lambda"]),
                qcond_kind=row["qcond_kind"],
                lin_res_norm=float(np.linalg.norm(lin)),
            )
        )
    return ArtifactRun(
        trace=steps,
        final_x=xs[-1],
        stop_reason=summary["stop_reason"],
        delta=float(summary["delta"]),
    )
