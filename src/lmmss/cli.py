"""Command-line harness: single solves, noise sweeps, diagnostics.

Configuration lives in flat INI files.  Every key also has a flag except
``lambda_root_tol``, ``res_tol``, ``lambda_fallback_factor``, ``tcc_rho``
and ``tcc_samples``, which are set in the INI file only.  The
canonical serialization is hashed and the digest stamped on every emitted
table, so identical configs reproduce identical artifacts byte for byte.
Numbers are printed with 17 significant digits to round-trip exactly.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import diagnostics, scaling
from .errors import LmmssError
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
    """Everything needed to reproduce a run (output location excluded).

    ``solver`` is the ``[solver]`` section, so its defaults and checks are the library's.
    """

    problem: str = "linear"
    n: int = 32
    matrix_file: str = ""
    rhs_file: str = ""
    solution_file: str = ""
    x0_file: str = ""
    scaling: str = "identity"
    solver: SolverConfig = SolverConfig()
    deltas: tuple[float, ...] = ()
    seeds: tuple[int, ...] = (0,)
    tcc_rho: float = 0.5
    tcc_samples: int = 200

    def to_ini_text(self) -> str:
        """The canonical INI text: ``_KEYS`` in order, one section after another."""
        lines, section = [], None
        for (sec, key), (field, kind) in _KEYS.items():
            if sec != section:
                lines += [f"[{sec}]"] if section is None else ["", f"[{sec}]"]
                section = sec
            owner = self.solver if sec == "solver" else self
            lines.append(f"{key} = {_format_value(getattr(owner, field), kind)}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_ini_text().encode()).hexdigest()[:12]


#: The config schema: INI (section, key) -> (field, kind), the ``[solver]`` fields
#: those of ``SolverConfig`` in order, the others those of ExperimentConfig.
#: Each field's flag stores under the field's name (argparse ``dest``).
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
    ("solver", "res_tol"): ("res_tol", "res_tol"),
    ("solver", "lambda_fallback_factor"): ("lambda_fallback_factor", float),
    ("experiment", "deltas"): ("deltas", "floats"),
    ("experiment", "seeds"): ("seeds", "ints"),
    ("experiment", "tcc_rho"): ("tcc_rho", float),
    ("experiment", "tcc_samples"): ("tcc_samples", int),
}

#: The ``trace.csv`` schema: column -> (IterateRecord field, kind).  The last
#: row is the stopped iterate, whose step cells are empty (None).
_TRACE = {
    "k": ("k", int),
    "res_norm": ("res_norm", float),
    "lambda": ("lam", float),
    "zeta_p": ("zeta_p", float),
    "step_Lnorm": ("step_Lnorm", float),
    "qcond_kind": ("qcond_kind", str),
    "lin_res_norm": ("lin_res_norm", float),
    "omega_evals": ("omega_evals", int),
}

#: The ``gain_*.csv`` and ``euclidean.csv`` columns after ``k``: column -> report field.
_GAIN = {
    "gain": "gains", "rhs_step": "rhs_step", "rhs_residual": "rhs_residual",
    "rhs_spectral": "rhs_spectral", "qcond_kind": "kinds", "ok_step": "ok_step",
    "ok_residual": "ok_residual", "ok_spectral": "ok_spectral",
}
_EUCLIDEAN = {"lhs": "lhs", "rhs": "rhs", "ok": "ok"}


def _build_config(values: dict) -> ExperimentConfig:
    """``values`` (``_KEYS`` field -> value) over the defaults; a bad solver field is a ConfigError."""
    solver = {f.name: values.pop(f.name) for f in fields(SolverConfig) if f.name in values}
    try:
        return ExperimentConfig(solver=SolverConfig(**solver), **values)
    except ValueError as exc:
        raise ConfigError(f"solver config: {exc}") from None


def _read_ini(path) -> dict:
    """The ``_KEYS`` fields an INI config file sets, parsed: field -> value."""
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
    return values


def load_config(path) -> ExperimentConfig:
    """Parse an INI config file into an ExperimentConfig."""
    return _build_config(_read_ini(path))


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


def _format_value(value, kind) -> str:
    """The inverse of ``_parse_value``."""
    if kind == "res_tol" and value is None:
        return "auto"
    if kind in ("floats", "ints"):
        return " ".join(_fmt(v) for v in value)
    return _fmt(value)


def resolve_config(args) -> ExperimentConfig:
    """The ``--config`` file's values (if any), overridden by the flags given."""
    values = _read_ini(args.config) if args.config else {}
    for field, kind in _KEYS.values():
        val = getattr(args, field, None)
        if val is not None:
            values[field] = tuple(val) if kind in ("floats", "ints") else val
    return _build_config(values)


def _prepare(cfg: ExperimentConfig, args):
    """The prologue of ``solve``, ``sweep`` and ``diagnose``.

    Checks the noise levels, seeds, sampling settings and x0 file, then
    returns ``(problem, L, cfg.solver, x0, out, digest)``; the solver settings
    were checked when ``cfg`` was built.  Every command checks the sampling
    settings, so no config that ``diagnose`` would refuse gets written.
    Nothing is written; ``_write_config`` creates ``out``.
    """
    bad = [d for d in cfg.deltas if not 0.0 <= d < np.inf]
    if bad:
        raise ConfigError(f"deltas must be finite and nonnegative, got {_fmt(bad[0])}")
    if not cfg.seeds:
        raise ConfigError("seeds must not be empty")
    bad = [s for s in cfg.seeds if s < 0]
    if bad:
        raise ConfigError(f"seeds must be nonnegative integers, got {bad[0]}")
    diagnostics.check_tcc_settings(cfg.tcc_rho, cfg.tcc_samples)
    if cfg.problem == "file":
        if not cfg.matrix_file or not cfg.rhs_file:
            raise ConfigError("problem 'file' needs matrix_file and rhs_file")
        problem = problem_from_files(cfg.matrix_file, cfg.rhs_file, cfg.solution_file or None)
    else:
        problem = make_problem(cfg.problem, cfg.n)
    L = scaling.from_spec(cfg.scaling, problem.n)
    x0 = problem.x0_default
    if cfg.x0_file:
        x0 = np.loadtxt(cfg.x0_file).ravel()
        if x0.shape != (problem.n,):
            raise ConfigError(f"x0 file has length {x0.size}, problem has n={problem.n}")
        if not np.isfinite(x0).all():
            raise ConfigError("x0 file has a NaN or infinite entry")
    return problem, L, cfg.solver, x0, Path(args.out or "."), cfg.digest()


def _single_run(cfg: ExperimentConfig):
    """The ``(delta, seed)`` of ``solve`` and a fresh ``diagnose``, which make one run."""
    if len(cfg.deltas) > 1 or len(cfg.seeds) > 1:
        raise ConfigError(
            "solve and diagnose take at most one delta and one seed, got "
            f"{len(cfg.deltas)} and {len(cfg.seeds)} (sweep takes several)"
        )
    return (cfg.deltas[0] if cfg.deltas else 0.0), cfg.seeds[0]


def _write_text(path: Path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_config(out: Path, cfg: ExperimentConfig):
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "config.ini", cfg.to_ini_text())


def _write_table(path: Path, digest: str, header: str, rows):
    """Write a comma-delimited table under a digest line; None is an empty cell."""
    lines = [f"# config_digest={digest}", header]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_iterates(path: Path, run: RunRecord):
    rows = [" ".join(_fmt(v) for v in rec.x) for rec in run.trace]
    _write_text(path, "\n".join(rows) + "\n")


def _summary_lines(pairs) -> str:
    return "\n".join(f"{key} = {_fmt(val)}" for key, val in pairs) + "\n"


def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    problem, L, scfg, x0, out, digest = _prepare(cfg, args)
    delta, seed = _single_run(cfg)
    data = make_noisy_data(problem.y_exact, delta, seed) if delta > 0.0 else None
    run = solve(problem, data, L, x0, scfg)

    _write_config(out, cfg)
    _write_table(
        out / "trace.csv",
        digest,
        ",".join(_TRACE),
        [[getattr(rec, field) for field, _ in _TRACE.values()] for rec in run.trace],
    )
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
        err = scaling.euclidean_norm(run.final_x - problem.x_dagger)
        pairs.append(("final_error_euclid", err))
        pairs.append(
            ("final_error_Lnorm", scaling.seminorm(L, run.final_x - problem.x_dagger))
        )
    _write_text(out / "summary.txt", _summary_lines(pairs))
    print(f"solve: k_star={run.k_star} stop_reason={run.stop_reason}")
    return 0 if run.stop_reason in ("discrepancy", "res_tol", "stagnation") else 1


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if not cfg.deltas:
        raise ConfigError("sweep needs at least one --delta / deltas entry")
    problem, L, scfg, x0, out, digest = _prepare(cfg, args)
    report = diagnostics.regularization_sweep(problem, L, x0, scfg, cfg.deltas, cfg.seeds)

    _write_config(out, cfg)
    _write_table(
        out / "sweep.csv",
        digest,
        "delta,seed,k_star,err_euclid,err_Lnorm,final_residual",
        [
            (r.delta, r.seed, r.k_star, r.err_euclid, r.err_Lnorm, r.final_residual)
            for r in report.rows
        ],
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


def _reload_run(run_dir: Path, digest: str) -> RunRecord:
    """Rebuild a ``solve`` directory's RunRecord, bit for bit, from its artifacts alone.

    ``trace.csv`` must start with ``digest`` (that of the directory's config)
    and the ``_TRACE`` header and hold at least one row, ``iterates.txt`` must
    hold one row per trace row, and ``summary.txt`` must hold ``key = value``
    lines that include ``stop_reason``, a numeric ``delta`` and the ``mode``
    that delta implies.  A damaged artifact is a ConfigError naming the file
    (and, for ``trace.csv``, the line).
    """
    trace_path, iterates_path = run_dir / "trace.csv", run_dir / "iterates.txt"
    lines = trace_path.read_text().splitlines()
    head = [f"# config_digest={digest}", ",".join(_TRACE)]
    if lines[:2] != head:
        raise ConfigError(f"{trace_path} does not start with the lines {head}")
    if len(lines) == 2:
        raise ConfigError(f"{trace_path} has no iterate rows")
    try:
        xs = np.loadtxt(iterates_path, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{iterates_path}: {exc}") from None
    if len(xs) != len(lines) - 2:
        raise ConfigError(f"{iterates_path} has {len(xs)} rows, {trace_path} has {len(lines) - 2}")
    records = []
    for lineno, (row, x) in enumerate(zip(lines[2:], xs), start=3):
        try:
            values = {
                field: None if cell == "" else _parse_value(cell, kind)
                for (field, kind), cell in zip(_TRACE.values(), row.split(","), strict=True)
            }
        except ValueError as exc:
            raise ConfigError(f"{trace_path}, line {lineno}: {exc}") from None
        records.append(IterateRecord(x=x, **values))
    path = run_dir / "summary.txt"
    summary = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ConfigError(f"{path}: line {line!r} is not 'key = value'")
        summary[key] = value
    for key in ("stop_reason", "mode", "delta"):
        if key not in summary:
            raise ConfigError(f"{path} has no {key} line")
    try:
        delta = float(summary["delta"])
    except ValueError:
        raise ConfigError(f"{path}: delta {summary['delta']!r} is not a number") from None
    run = RunRecord(
        trace=tuple(records), stop_reason=summary["stop_reason"], final_x=records[-1].x, delta=delta
    )
    if summary["mode"] != run.mode:
        raise ConfigError(f"{path}: mode {summary['mode']!r} contradicts delta {_fmt(delta)}")
    return run


def _write_report(path: Path, digest: str, report, columns: dict[str, str]):
    """Write one row per step of a report: ``k``, then ``columns``."""
    rows = zip(*(getattr(report, name) for name in columns.values()))
    _write_table(path, digest, ",".join(["k", *columns]), [(k, *row) for k, row in enumerate(rows)])


def cmd_diagnose(args) -> int:
    if args.from_dir:
        names = ["config", *(field for field, _ in _KEYS.values())]
        given = [name for name in names if getattr(args, name, None) is not None]
        if given:
            raise ConfigError(f"--from-dir uses the run's own config.ini; drop {', '.join(given)}")
        cfg = load_config(Path(args.from_dir) / "config.ini")
    else:
        cfg = resolve_config(args)
    problem, L, scfg, x0, out, digest = _prepare(cfg, args)
    if args.from_dir:
        runs = [_reload_run(Path(args.from_dir), digest)]
        if runs[0].final_x.shape != (problem.n,):
            raise ConfigError(
                f"{Path(args.from_dir) / 'iterates.txt'} rows have length "
                f"{runs[0].final_x.size}, the problem has n={problem.n}"
            )
    else:
        delta, seed = _single_run(cfg)
        runs = [solve(problem, None, L, x0, scfg)]
        if delta > 0.0:
            data = make_noisy_data(problem.y_exact, delta, seed)
            runs.append(solve(problem, data, L, x0, scfg))

    # Every report is computed before the first file is written: a failed diagnose writes nothing.
    tcc = diagnostics.estimate_tcc_constant(
        problem, L, x0, rho=cfg.tcc_rho, samples=cfg.tcc_samples, seed=cfg.seeds[0]
    )
    summary_pairs = [("config_digest", digest), ("c_hat", tcc.c_hat)]
    if problem.x_dagger is None:
        summary_pairs.append(("notice", "no exact solution: gain and bound checks skipped"))
        _write_config(out, cfg)
        _write_text(out / "diagnostics_summary.txt", _summary_lines(summary_pairs))
        print("diagnose: no exact solution, gain and bound checks skipped")
        return 0

    x_star = problem.x_dagger
    c_used = tcc.c_hat
    dist0 = scaling.seminorm(L, np.asarray(x0, float) - x_star)

    summary_pairs += [
        ("tcc_rho", tcc.rho),
        ("tcc_samples", tcc.samples),
        ("dist0_Lnorm", dist0),
    ]
    reports = []
    for run in runs:
        euclid = kstar = None
        c_run = float(diagnostics.run_tcc_ratios(problem, L, run, x_star).max())
        if run.mode == "exact":
            theta = diagnostics.theta_exact(scfg.q, c_used, dist0)
            euclid = diagnostics.check_euclidean_bound(run, problem, x_star, L, c_used)
        else:
            theta = diagnostics.theta_noisy(scfg.q, scfg.tau, c_used, dist0)
        gain = diagnostics.check_gain(run, x_star, L, scfg.q, theta)
        if run.stop_reason == "discrepancy":
            kstar = diagnostics.check_kstar_bound(run, x_star, L, scfg.q, scfg.tau, theta)
        reports.append((run.mode, c_run, theta, gain, euclid, kstar))

    _write_config(out, cfg)
    for mode, c_run, theta, gain, euclid, kstar in reports:
        _write_report(out / f"gain_{mode}.csv", digest, gain, _GAIN)
        summary_pairs.append((f"c_run_pairs_{mode}", c_run))
        summary_pairs.append((f"theta_{mode}", theta))
        summary_pairs.append((f"gain_{mode}_violations", len(gain.violations)))
        if euclid is not None:
            _write_report(out / "euclidean.csv", digest, euclid, _EUCLIDEAN)
            summary_pairs.append(("euclidean_violations", len(euclid.violations)))
        if kstar is not None:
            pairs = [("config_digest", digest)]
            pairs += [(f.name, getattr(kstar, f.name)) for f in fields(kstar)]
            _write_text(out / "kstar_report.txt", _summary_lines(pairs))
            summary_pairs.append(("kstar_bound_holds", kstar.holds_squared))
    _write_text(out / "diagnostics_summary.txt", _summary_lines(summary_pairs))
    hard_violation = any(0 in gain.ok_step for _, _, _, gain, _, _ in reports)
    print(f"diagnose: c_hat={c_used:.6g} hard_violation={hard_violation}")
    return 1 if hard_violation else 0


def _add_common(sp):
    sp.add_argument("--config", type=Path, help="INI config file")
    sp.add_argument("--problem", help="problem name (or 'file' for a custom linear one)")
    sp.add_argument("--n", type=int, help="problem size")
    sp.add_argument("--scaling", help="identity | d1 | d2 | file:<path>")
    sp.add_argument("--q", type=float, help="residual contraction target in (0,1)")
    sp.add_argument("--tau", type=float, help="discrepancy multiplier (> 1/q)")
    sp.add_argument("--delta", dest="deltas", action="append", type=float, help="noise level (repeatable)")
    sp.add_argument("--seed", dest="seeds", action="append", type=int, help="noise seed (repeatable)")
    sp.add_argument("--max-iter", dest="max_iter", type=int)
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--matrix", dest="matrix_file", help="matrix file for --problem file")
    sp.add_argument("--rhs", dest="rhs_file", help="data vector file for --problem file")
    sp.add_argument("--exact-solution", dest="solution_file", help="optional exact solution file")
    sp.add_argument("--x0", dest="x0_file", help="initial guess file")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args fills a fresh namespace on every call,
    # and main looks the command function up by name, so the cached parser
    # holds no reference to it.
    parser = argparse.ArgumentParser(
        prog="lmmss",
        description="Regularizing Levenberg-Marquardt solver with singular scaling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run a single solve and write its trace")
    _add_common(sp)

    sp = sub.add_parser("sweep", help="run a noise sweep over delta levels and seeds")
    _add_common(sp)

    sp = sub.add_parser("diagnose", help="verify the convergence guarantees on runs")
    _add_common(sp)
    sp.add_argument("--from-dir", dest="from_dir", help="reuse solve artifacts from a directory")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LmmssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
