"""Command-line harness: single solves, noise sweeps, factor inspection, diagnostics.

Configuration lives in flat INI files (every key also has a flag); the
canonical serialization is hashed and the digest stamped on every emitted
table, so identical configs reproduce identical artifacts byte for byte.
Numbers are printed with 17 significant digits to round-trip exactly.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics, scaling
from .errors import LmmssError
from .gsvd import generalized_singular_values, gsvd, validate
from .problems import make_noisy_data, make_problem, problem_from_files
from .solver import IterateRecord, RunRecord, SolverConfig, solve


class ConfigError(Exception):
    """Configuration file or flag problem; maps to exit status 2."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a run (output location excluded)."""

    problem: str = "linear"
    n: int = 32
    matrix_file: str = ""
    rhs_file: str = ""
    solution_file: str = ""
    x0_file: str = ""
    scaling: str = "identity"
    q: float = 0.5
    tau: float = 2.5
    max_iter: int = 500
    lambda_root_tol: float = 1e-10
    grad_tol: float = 1e-12
    res_tol: float | None = None
    lambda_fallback_factor: float = 0.5
    deltas: tuple[float, ...] = ()
    seeds: tuple[int, ...] = (0,)
    tcc_rho: float = 0.5
    tcc_samples: int = 200

    def to_ini_text(self) -> str:
        lines = [
            "[problem]",
            f"name = {self.problem}",
            f"n = {self.n}",
            f"matrix_file = {self.matrix_file}",
            f"rhs_file = {self.rhs_file}",
            f"solution_file = {self.solution_file}",
            f"x0_file = {self.x0_file}",
            "",
            "[scaling]",
            f"kind = {self.scaling}",
            "",
            "[solver]",
            f"q = {_fmt(self.q)}",
            f"tau = {_fmt(self.tau)}",
            f"max_iter = {self.max_iter}",
            f"lambda_root_tol = {_fmt(self.lambda_root_tol)}",
            f"grad_tol = {_fmt(self.grad_tol)}",
            f"res_tol = {'auto' if self.res_tol is None else _fmt(self.res_tol)}",
            f"lambda_fallback_factor = {_fmt(self.lambda_fallback_factor)}",
            "",
            "[experiment]",
            f"deltas = {' '.join(_fmt(d) for d in self.deltas)}",
            f"seeds = {' '.join(str(s) for s in self.seeds)}",
            f"tcc_rho = {_fmt(self.tcc_rho)}",
            f"tcc_samples = {self.tcc_samples}",
            "",
        ]
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.to_ini_text().encode()).hexdigest()[:12]


_KEYS = {
    ("problem", "name"): ("problem", str),
    ("problem", "n"): ("n", int),
    ("problem", "matrix_file"): ("matrix_file", str),
    ("problem", "rhs_file"): ("rhs_file", str),
    ("problem", "solution_file"): ("solution_file", str),
    ("problem", "x0_file"): ("x0_file", str),
    ("scaling", "kind"): ("scaling", str),
    ("solver", "q"): ("q", float),
    ("solver", "tau"): ("tau", float),
    ("solver", "max_iter"): ("max_iter", int),
    ("solver", "lambda_root_tol"): ("lambda_root_tol", float),
    ("solver", "grad_tol"): ("grad_tol", float),
    ("solver", "res_tol"): ("res_tol", "res_tol"),
    ("solver", "lambda_fallback_factor"): ("lambda_fallback_factor", float),
    ("experiment", "deltas"): ("deltas", "floats"),
    ("experiment", "seeds"): ("seeds", "ints"),
    ("experiment", "tcc_rho"): ("tcc_rho", float),
    ("experiment", "tcc_samples"): ("tcc_samples", int),
}


def load_config(path) -> ExperimentConfig:
    """Parse an INI config file into an ExperimentConfig."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values = {}
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown config key [{section}] {key}")
            field, kind = _KEYS[(section, key)]
            raw = parser[section][key].strip()
            try:
                values[field] = _parse_value(raw, kind)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from None
    return replace(ExperimentConfig(), **values)


def _parse_value(raw: str, kind):
    if kind is str:
        return raw
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind == "res_tol":
        return None if raw in ("", "auto") else float(raw)
    if kind == "floats":
        return tuple(float(tok) for tok in raw.split())
    if kind == "ints":
        return tuple(int(tok) for tok in raw.split())
    raise AssertionError(kind)


def _apply_flags(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    for flag, field in [
        ("problem", "problem"),
        ("n", "n"),
        ("scaling", "scaling"),
        ("q", "q"),
        ("tau", "tau"),
        ("max_iter", "max_iter"),
        ("matrix", "matrix_file"),
        ("rhs", "rhs_file"),
        ("exact_solution", "solution_file"),
        ("x0", "x0_file"),
    ]:
        val = getattr(args, flag, None)
        if val is not None:
            updates[field] = val
    if getattr(args, "delta", None) is not None:
        updates["deltas"] = tuple(args.delta)
    if getattr(args, "seed", None) is not None:
        updates["seeds"] = tuple(args.seed)
    return replace(cfg, **updates)


def resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    return _apply_flags(cfg, args)


def _solver_config(cfg: ExperimentConfig) -> SolverConfig:
    try:
        return SolverConfig(
            q=cfg.q,
            tau=cfg.tau,
            max_iter=cfg.max_iter,
            lambda_root_tol=cfg.lambda_root_tol,
            grad_tol=cfg.grad_tol,
            res_tol=cfg.res_tol,
            lambda_fallback_factor=cfg.lambda_fallback_factor,
        )
    except ValueError as exc:
        raise ConfigError(f"solver config: {exc}") from None


def _build_problem(cfg: ExperimentConfig):
    if cfg.problem == "file":
        if not cfg.matrix_file or not cfg.rhs_file:
            raise ConfigError("problem 'file' needs matrix_file and rhs_file")
        return problem_from_files(
            cfg.matrix_file, cfg.rhs_file, cfg.solution_file or None
        )
    try:
        return make_problem(cfg.problem, cfg.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_scaling(cfg: ExperimentConfig, n: int):
    try:
        return scaling.from_spec(cfg.scaling, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _resolve_x0(cfg: ExperimentConfig, problem):
    if cfg.x0_file:
        x0 = np.loadtxt(cfg.x0_file).ravel()
        if x0.shape != (problem.n,):
            raise ConfigError(
                f"x0 file has length {x0.size}, problem has n={problem.n}"
            )
        return x0
    return problem.x0_default


def _write_text(path: Path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _table(digest: str, header: str, rows) -> str:
    lines = [f"# config_digest={digest}", header]
    lines.extend(rows)
    lines.append("")
    return "\n".join(lines)


def _write_trace(path: Path, run: RunRecord, digest: str):
    rows = []
    for rec in run.trace:
        rows.append(
            ",".join(
                [
                    str(rec.k),
                    _fmt(rec.res_norm),
                    _fmt(rec.lam),
                    _fmt(rec.zeta_p),
                    _fmt(rec.step_Lnorm),
                    rec.qcond_kind or "",
                ]
            )
        )
    _write_text(
        path, _table(digest, "k,res_norm,lambda,zeta_p,step_Lnorm,qcond_kind", rows)
    )


def _write_iterates(path: Path, run: RunRecord):
    rows = [" ".join(_fmt(v) for v in rec.x) for rec in run.trace]
    _write_text(path, "\n".join(rows) + "\n")


def _summary_lines(pairs) -> str:
    return "\n".join(f"{key} = {_fmt(val)}" for key, val in pairs) + "\n"


def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    problem = _build_problem(cfg)
    L = _build_scaling(cfg, problem.n)
    scfg = _solver_config(cfg)
    x0 = _resolve_x0(cfg, problem)
    delta = cfg.deltas[0] if cfg.deltas else 0.0
    seed = cfg.seeds[0]
    data = make_noisy_data(problem.y_exact, delta, seed) if delta > 0.0 else None
    run = solve(problem, data, L, x0, scfg)

    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    digest = cfg.digest()
    _write_text(out / "config.ini", cfg.to_ini_text())
    _write_trace(out / "trace.csv", run, digest)
    _write_iterates(out / "iterates.txt", run)
    pairs = [
        ("config_digest", digest),
        ("problem", problem.name),
        ("n", problem.n),
        ("scaling", L.kind),
        ("mode", run.mode),
        ("delta", run.delta),
        ("seed", seed),
        ("k_star", run.k_star),
        ("stop_reason", run.stop_reason),
        ("final_residual", run.trace[-1].res_norm),
    ]
    if problem.x_dagger is not None:
        err = float(np.linalg.norm(run.final_x - problem.x_dagger))
        pairs.append(("final_error_euclid", err))
        pairs.append(
            ("final_error_Lnorm", scaling.seminorm(L, run.final_x - problem.x_dagger))
        )
    _write_text(out / "summary.txt", _summary_lines(pairs))
    print(f"solve: k_star={run.k_star} stop_reason={run.stop_reason}")
    return 0 if run.stop_reason in ("discrepancy", "res_tol", "grad_tol") else 1


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if not cfg.deltas:
        raise ConfigError("sweep needs at least one --delta / deltas entry")
    problem = _build_problem(cfg)
    L = _build_scaling(cfg, problem.n)
    scfg = _solver_config(cfg)
    x0 = _resolve_x0(cfg, problem)
    try:
        report = diagnostics.regularization_sweep(problem, L, x0, scfg, cfg.deltas, cfg.seeds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    digest = cfg.digest()
    _write_text(out / "config.ini", cfg.to_ini_text())
    rows = [
        ",".join(
            [
                _fmt(r.delta),
                str(r.seed),
                str(r.k_star),
                _fmt(r.err_euclid),
                _fmt(r.err_Lnorm),
                _fmt(r.final_residual),
            ]
        )
        for r in report.rows
    ]
    _write_text(
        out / "sweep.csv",
        _table(digest, "delta,seed,k_star,err_euclid,err_Lnorm,final_residual", rows),
    )
    pairs = [
        ("config_digest", digest),
        ("runs", len(report.rows)),
        ("all_discrepancy", report.all_discrepancy),
        ("trend_ok", report.trend_ok),
        ("slack_factor", report.slack_factor),
    ]
    _write_text(out / "sweep_summary.txt", _summary_lines(pairs))
    if not report.trend_ok:
        for coarse, fine, seed in report.trend_violations:
            print(
                f"trend violation: seed={seed} error grew from delta={coarse:g} "
                f"to delta={fine:g}",
                file=sys.stderr,
            )
        return 1
    if not report.all_discrepancy:
        print("not every run stopped by the discrepancy rule", file=sys.stderr)
        return 1
    print(f"sweep: {len(report.rows)} runs, trend_ok=True")
    return 0


def cmd_gsvd(args) -> int:
    A = np.loadtxt(args.matrix_a, ndmin=2)
    Lmat = np.loadtxt(args.matrix_l, ndmin=2)
    factors = gsvd(A, Lmat)
    report = validate(factors, A, Lmat, tol=args.tol)
    zeta = generalized_singular_values(factors)
    print("sigma " + " ".join(_fmt(v) for v in factors.sigma))
    print("mu " + " ".join(_fmt(v) for v in factors.mu))
    print("zeta " + " ".join(_fmt(v) for v in zeta))
    print(f"recon_a {_fmt(report.recon_a)}")
    print(f"recon_l {_fmt(report.recon_l)}")
    print(f"orth_u {_fmt(report.orth_u)}")
    print(f"orth_v {_fmt(report.orth_v)}")
    print(f"normalization {_fmt(report.normalization)}")
    print(f"passed {report.passed}")
    return 0 if report.passed else 1


def _reload_run(problem, L, scfg, run_dir: Path) -> RunRecord:
    """Rebuild a RunRecord from solve artifacts (trace, iterates, summary)."""
    xs = np.loadtxt(run_dir / "iterates.txt", ndmin=2)
    summary = {}
    for line in (run_dir / "summary.txt").read_text().splitlines():
        key, _, val = line.partition(" = ")
        summary[key] = val
    mode = summary["mode"]
    delta = float(summary["delta"])
    y = (
        make_noisy_data(problem.y_exact, delta, int(summary["seed"])).y_delta
        if mode == "noisy"
        else problem.y_exact
    )
    records = []
    lines = (run_dir / "trace.csv").read_text().splitlines()
    for row in lines[2:]:
        k_s, res_s, lam_s, zeta_s, step_s, kind = row.split(",")
        k = int(k_s)
        x = xs[k]
        if lam_s:
            J = problem.evaluate_J(x)
            lin = float(np.linalg.norm(problem.evaluate_F(x) - y + J @ (xs[k + 1] - x)))
            records.append(
                IterateRecord(
                    k=k,
                    x=x,
                    res_norm=float(res_s),
                    lam=float(lam_s),
                    zeta_p=float(zeta_s),
                    step_Lnorm=float(step_s),
                    qcond_kind=kind,
                    lin_res_norm=lin,
                )
            )
        else:
            records.append(IterateRecord(k=k, x=x, res_norm=float(res_s)))
    zetas = [rec.zeta_p for rec in records if rec.zeta_p is not None]
    return RunRecord(
        trace=tuple(records),
        k_star=len(records) - 1,
        stop_reason=summary["stop_reason"],
        zeta_hat=max(zetas) if zetas else None,
        final_x=records[-1].x,
        mode=mode,
        q=scfg.q,
        tau=scfg.tau,
        delta=delta,
    )


def _write_gain_csv(path: Path, report, digest: str):
    rows = []
    for k in range(len(report.gains)):
        eq = report.kinds[k] == "equality"
        rows.append(
            ",".join(
                [
                    str(k),
                    _fmt(report.gains[k]),
                    _fmt(report.rhs_step[k]),
                    _fmt(report.rhs_residual[k]) if eq else "",
                    _fmt(report.rhs_spectral[k]) if eq else "",
                    report.kinds[k],
                    str(int((k, "step") not in report.violations)),
                    str(int((k, "residual") not in report.violations)) if eq else "",
                    str(int((k, "spectral") not in report.violations)) if eq else "",
                ]
            )
        )
    header = "k,gain,rhs_step,rhs_residual,rhs_spectral,qcond_kind,ok_step,ok_residual,ok_spectral"
    _write_text(path, _table(digest, header, rows))


def cmd_diagnose(args) -> int:
    from_dir = Path(args.from_dir) if args.from_dir else None
    if from_dir is not None:
        cfg = _apply_flags(load_config(from_dir / "config.ini"), args)
    else:
        cfg = resolve_config(args)
    problem = _build_problem(cfg)
    L = _build_scaling(cfg, problem.n)
    scfg = _solver_config(cfg)
    x0 = _resolve_x0(cfg, problem)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    digest = cfg.digest()
    _write_text(out / "config.ini", cfg.to_ini_text())

    if from_dir is not None:
        runs = [_reload_run(problem, L, scfg, from_dir)]
    else:
        runs = [solve(problem, None, L, x0, scfg)]
        if cfg.deltas and cfg.deltas[0] > 0.0:
            data = make_noisy_data(problem.y_exact, cfg.deltas[0], cfg.seeds[0])
            runs.append(solve(problem, data, L, x0, scfg))

    tcc = diagnostics.estimate_tcc_constant(
        problem, L, x0, rho=cfg.tcc_rho, samples=cfg.tcc_samples, seed=cfg.seeds[0]
    )
    if problem.x_dagger is None:
        _write_text(
            out / "diagnostics_summary.txt",
            _summary_lines(
                [
                    ("config_digest", digest),
                    ("c_hat", tcc.c_hat),
                    ("notice", "no exact solution: gain and bound checks skipped"),
                ]
            ),
        )
        print("diagnose: no exact solution, gain and bound checks skipped")
        return 0

    x_star = problem.x_dagger
    c_used = tcc.c_hat
    c_run = max(
        float(diagnostics.run_tcc_ratios(problem, L, run, x_star).max()) for run in runs
    )
    dist0 = scaling.seminorm(L, np.asarray(x0, float) - x_star)

    hard_violation = False
    summary_pairs = [
        ("config_digest", digest),
        ("c_hat", tcc.c_hat),
        ("c_run_pairs", c_run),
        ("tcc_rho", tcc.rho),
        ("tcc_samples", tcc.samples),
        ("dist0_Lnorm", dist0),
    ]
    for run in runs:
        if run.mode == "exact":
            theta = diagnostics.theta_exact(scfg.q, c_used, dist0)
            gain = diagnostics.check_gain(run, x_star, L, scfg.q, theta)
            _write_gain_csv(out / "gain_exact.csv", gain, digest)
            euclid = diagnostics.check_euclidean_bound(run, problem, x_star, L, c_used)
            _write_text(
                out / "euclidean.csv",
                _table(
                    digest,
                    "k,lhs,rhs,ok",
                    [
                        ",".join(
                            [
                                str(k),
                                _fmt(euclid.lhs[k]),
                                _fmt(euclid.rhs[k]),
                                str(int(k not in euclid.violations)),
                            ]
                        )
                        for k in range(len(euclid.lhs))
                    ],
                ),
            )
            summary_pairs += [
                ("theta_exact", theta),
                ("gain_exact_violations", len(gain.violations)),
                ("euclidean_violations", len(euclid.violations)),
            ]
        else:
            theta = diagnostics.theta_noisy(scfg.q, scfg.tau, c_used, dist0)
            gain = diagnostics.check_gain(run, x_star, L, scfg.q, theta)
            _write_gain_csv(out / "gain_noisy.csv", gain, digest)
            summary_pairs += [
                ("theta_noisy", theta),
                ("gain_noisy_violations", len(gain.violations)),
            ]
            if run.stop_reason == "discrepancy":
                ks = diagnostics.check_kstar_bound(
                    run, x_star, L, scfg.q, scfg.tau, run.delta, theta
                )
                _write_text(
                    out / "kstar_report.txt",
                    _summary_lines(
                        [
                            ("config_digest", digest),
                            ("k_star", ks.k_star),
                            ("lhs", ks.lhs),
                            ("rhs_linear", ks.rhs_linear),
                            ("rhs_squared", ks.rhs_squared),
                            ("holds_linear", ks.holds_linear),
                            ("holds_squared", ks.holds_squared),
                            ("theta", ks.theta),
                            ("zeta_hat", ks.zeta_hat),
                        ]
                    ),
                )
                summary_pairs.append(
                    ("kstar_bound_holds", ks.holds_linear or ks.holds_squared)
                )
        if any(which == "step" for _, which in gain.violations):
            hard_violation = True

    _write_text(out / "diagnostics_summary.txt", _summary_lines(summary_pairs))
    print(f"diagnose: c_hat={c_used:.6g} hard_violation={hard_violation}")
    return 1 if hard_violation else 0


def _add_common(sp):
    sp.add_argument("--config", type=Path, help="INI config file")
    sp.add_argument("--problem", help="problem name (or 'file' for a custom linear one)")
    sp.add_argument("--n", type=int, help="problem size")
    sp.add_argument("--scaling", help="identity | d1 | d2 | file:<path>")
    sp.add_argument("--q", type=float, help="residual contraction target in (0,1)")
    sp.add_argument("--tau", type=float, help="discrepancy multiplier (> 1/q)")
    sp.add_argument("--delta", action="append", type=float, help="noise level (repeatable)")
    sp.add_argument("--seed", action="append", type=int, help="noise seed (repeatable)")
    sp.add_argument("--max-iter", dest="max_iter", type=int)
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--matrix", help="matrix file for --problem file")
    sp.add_argument("--rhs", help="data vector file for --problem file")
    sp.add_argument("--exact-solution", dest="exact_solution", help="optional exact solution file")
    sp.add_argument("--x0", help="initial guess file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmmss",
        description="Regularizing Levenberg-Marquardt solver with singular scaling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run a single solve and write its trace")
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="run a noise sweep over delta levels and seeds")
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("diagnose", help="verify the convergence guarantees on runs")
    _add_common(sp)
    sp.add_argument("--from-dir", dest="from_dir", help="reuse solve artifacts from a directory")
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("gsvd", help="factor a matrix pair read from text files")
    sp.add_argument("matrix_a", help="whitespace-delimited matrix A")
    sp.add_argument("matrix_l", help="whitespace-delimited matrix L")
    sp.add_argument("--tol", type=float, default=1e-10, help="validation tolerance")
    sp.set_defaults(func=cmd_gsvd)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LmmssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
