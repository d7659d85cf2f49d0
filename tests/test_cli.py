import argparse
import dataclasses
import filecmp

import numpy as np
import pytest

import lmmss
from lmmss import make_noisy_data, make_problem
from lmmss.cli import _KEYS, ExperimentConfig, _build_parser, _reload_run, load_config, main
from lmmss.diagnostics import SweepReport, SweepRow
from helpers import assert_runs_bitwise_equal, unit_residual_start


def read(path):
    return path.read_text()


class TestConfig:
    def test_ini_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            problem="coefficient", n=12, scaling="d1", q=0.6, tau=3.5,
            deltas=(1e-2, 1e-3), seeds=(1, 2), res_tol=1e-9,
        )
        path = tmp_path / "c.ini"
        path.write_text(cfg.to_ini_text())
        assert load_config(path) == cfg

    def test_digest_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig(q=0.6)
        assert a.digest() == ExperimentConfig().digest()
        assert a.digest() != b.digest()

    # The canonical text and its digest are the artifact format: every table
    # carries the digest, so a change here breaks reproduction of old runs.
    DEFAULT_INI = (
        "[problem]\nname = linear\nn = 32\nmatrix_file = \nrhs_file = \n"
        "solution_file = \nx0_file = \n\n[scaling]\nkind = identity\n\n"
        "[solver]\nq = 0.5\ntau = 2.5\nmax_iter = 500\nlambda_root_tol = 1e-10\n"
        "grad_tol = 9.9999999999999998e-13\nres_tol = auto\n"
        "lambda_fallback_factor = 0.5\n\n[experiment]\ndeltas = \nseeds = 0\n"
        "tcc_rho = 0.5\ntcc_samples = 200\n"
    )
    EVERY_KIND_INI = (
        "[problem]\nname = file\nn = 7\nmatrix_file = A.txt\nrhs_file = y.txt\n"
        "solution_file = \nx0_file = \n\n[scaling]\nkind = d2\n\n"
        "[solver]\nq = 0.59999999999999998\ntau = 3.5\nmax_iter = 40\n"
        "lambda_root_tol = 1e-10\ngrad_tol = 9.9999999999999998e-13\n"
        "res_tol = 1.0000000000000001e-09\nlambda_fallback_factor = 0.25\n\n"
        "[experiment]\ndeltas = 0.01 0.001 0.00029999999999999997\nseeds = 1 22\n"
        "tcc_rho = 0.10000000000000001\ntcc_samples = 150\n"
    )

    @pytest.mark.parametrize(
        "cfg, text, digest",
        [
            (ExperimentConfig(), DEFAULT_INI, "1345ad16ceca"),
            (
                ExperimentConfig(
                    problem="file", n=7, matrix_file="A.txt", rhs_file="y.txt",
                    scaling="d2", q=0.6, tau=3.5, max_iter=40, res_tol=1e-9,
                    lambda_fallback_factor=0.25, deltas=(0.01, 1e-3, 3e-4),
                    seeds=(1, 22), tcc_rho=0.1, tcc_samples=150,
                ),
                EVERY_KIND_INI,
                "01b1592d5073",
            ),
        ],
        ids=["default", "every-kind"],
    )
    def test_canonical_text_and_digest_pinned(self, tmp_path, cfg, text, digest):
        assert cfg.to_ini_text() == text
        assert cfg.digest() == digest
        path = tmp_path / "c.ini"
        path.write_text(text)
        assert load_config(path) == cfg

    @pytest.mark.parametrize("command", ["solve", "sweep", "diagnose"])
    def test_flags_cover_every_key_but_the_ini_only_ones(self, command):
        ini_only = {
            "lambda_root_tol", "grad_tol", "res_tol", "lambda_fallback_factor",
            "tcc_rho", "tcc_samples",
        }
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {action.dest for action in sub.choices[command]._actions}
        keys = {field for field, _ in _KEYS.values()}
        assert dests & keys == keys - ini_only

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[solver]\nbogus = 1\n")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2


class TestParserReuse:
    """The parser is built once per process; every ``main`` call starts afresh."""

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_command_looked_up_at_call_time(self, monkeypatch):
        # a command function rebound after the parser was built is the one run
        _build_parser()
        monkeypatch.setattr(lmmss.cli, "cmd_gsvd", lambda args: 7)
        assert main(["gsvd", "A.txt", "L.txt"]) == 7

    def test_consecutive_runs_share_no_state(self, tmp_path):
        common = ["--problem", "linear", "--n", "12", "--q", "0.5", "--tau", "2.5"]
        run = tmp_path / "run"
        assert main([
            "sweep", *common, "--delta", "1e-1", "--delta", "1e-2", "--seed", "1", "--seed", "2",
            "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert main(["solve", *common, "--delta", "1e-3", "--seed", "3", "--out", str(run)]) == 0
        cfg = load_config(run / "config.ini")
        assert cfg.deltas == (1e-3,) and cfg.seeds == (3,)
        assert main(["diagnose", "--from-dir", str(run), "--out", str(tmp_path / "reloaded")]) == 0
        # a leaked --from-dir would turn the flags below into an input error (exit 2)
        fresh = tmp_path / "fresh"
        argv = ["diagnose", *common, "--delta", "1e-2", "--seed", "4", "--out", str(fresh)]
        assert main(argv) == 0
        cfg = load_config(fresh / "config.ini")
        assert cfg.deltas == (1e-2,) and cfg.seeds == (4,)


class TestSolveCommand:
    def test_linear_contraction_trace_rows(self, tmp_path, capsys):
        n = 16
        prob = make_problem("linear", n)
        data = make_noisy_data(prob.y_exact, 0.04, seed=3)
        rng = np.random.default_rng(7)
        x0 = unit_residual_start(prob, data.y_delta, rng.standard_normal(n))
        x0_file = tmp_path / "x0.txt"
        np.savetxt(x0_file, x0, fmt="%.17g")
        out = tmp_path / "run"
        rc = main([
            "solve", "--problem", "linear", "--n", str(n), "--q", "0.5",
            "--tau", "2.5", "--delta", "0.04", "--seed", "3",
            "--x0", str(x0_file), "--out", str(out),
        ])
        assert rc == 0
        lines = read(out / "trace.csv").strip().splitlines()
        assert lines[0].startswith("# config_digest=")
        assert lines[1] == "k,res_norm,lambda,zeta_p,step_Lnorm,qcond_kind,lin_res_norm,omega_evals"
        assert len(lines) == 2 + 5  # k = 0..4
        assert "stop_reason = discrepancy" in read(out / "summary.txt")

    def test_unknown_problem_lists_available(self, tmp_path, capsys):
        rc = main(["solve", "--problem", "nosuch", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        for name in ("autoconvolution", "coefficient", "linear"):
            assert name in err

    def test_zero_delta_runs_exact_mode(self, tmp_path):
        out = tmp_path / "exact"
        rc = main([
            "solve", "--problem", "coefficient", "--n", "12", "--q", "0.6",
            "--tau", "3.5", "--delta", "0", "--out", str(out),
        ])
        assert rc == 0
        summary = read(out / "summary.txt")
        assert "mode = exact" in summary
        assert ("stop_reason = res_tol" in summary) or ("stop_reason = grad_tol" in summary)


class TestSweepCommand:
    def test_row_count_and_rerun_identical(self, tmp_path):
        args = [
            "sweep", "--problem", "coefficient", "--n", "12", "--q", "0.6",
            "--tau", "3.5", "--delta", "1e-1", "--delta", "1e-2",
            "--delta", "1e-3", "--delta", "1e-4", "--seed", "1", "--seed", "2",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        lines = read(a / "sweep.csv").strip().splitlines()
        assert lines[1] == "delta,seed,k_star,err_euclid,err_Lnorm,final_residual"
        assert len(lines[2:]) == 8
        assert main(["sweep", "--config", str(a / "config.ini"), "--out", str(b)]) == 0
        for name in ("sweep.csv", "sweep_summary.txt", "config.ini"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_trend_failure_exits_nonzero_naming_pair(self, tmp_path, capsys, monkeypatch):
        rigged = SweepReport(
            rows=(SweepRow(1e-2, 1, 3, 1.0, 1.0, 0.01, "discrepancy"),
                  SweepRow(1e-3, 1, 5, 2.0, 2.0, 0.001, "discrepancy")),
        )
        monkeypatch.setattr(
            lmmss.cli.diagnostics, "regularization_sweep",
            lambda *args, **kwargs: rigged,
        )
        rc = main([
            "sweep", "--problem", "linear", "--n", "12", "--delta", "1e-2",
            "--delta", "1e-3", "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "0.01" in err and "0.001" in err

    def test_stop_other_than_discrepancy_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        rigged = SweepReport(
            rows=(SweepRow(1e-2, 1, 500, 1.0, 1.0, 0.1, "max_iter"),
                  SweepRow(1e-3, 1, 5, 0.5, 0.5, 0.001, "discrepancy")),
        )
        assert rigged.trend_ok and not rigged.all_discrepancy
        monkeypatch.setattr(
            lmmss.cli.diagnostics, "regularization_sweep",
            lambda *args, **kwargs: rigged,
        )
        rc = main([
            "sweep", "--problem", "linear", "--n", "12", "--delta", "1e-2",
            "--delta", "1e-3", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "not every run stopped by the discrepancy rule" in capsys.readouterr().err
        assert "all_discrepancy = False" in read(tmp_path / "sweep_summary.txt")


class TestGsvdCommand:
    def test_prints_factors_and_residuals(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((8, 5))
        L = rng.standard_normal((3, 5))
        np.savetxt(tmp_path / "A.txt", A, fmt="%.17g")
        np.savetxt(tmp_path / "L.txt", L, fmt="%.17g")
        rc = main(["gsvd", str(tmp_path / "A.txt"), str(tmp_path / "L.txt")])
        assert rc == 0
        outlines = capsys.readouterr().out.strip().splitlines()
        tags = [ln.split()[0] for ln in outlines]
        assert tags[:3] == ["sigma", "mu", "zeta"]
        sigma = np.array([float(v) for v in outlines[0].split()[1:]])
        mu = np.array([float(v) for v in outlines[1].split()[1:]])
        zeta = np.array([float(v) for v in outlines[2].split()[1:]])
        np.testing.assert_allclose(zeta, sigma / mu, rtol=1e-12)
        assert outlines[-1] == "passed True"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("operand", ["A", "L"])
    def test_non_finite_input_is_bad_input(self, tmp_path, capsys, operand, bad):
        files = {"A": "1 0\n0 1\n", "L": "1 0\n0 1\n"}
        files[operand] = f"{bad} 0\n0 1\n"
        for name, text in files.items():
            (tmp_path / f"{name}.txt").write_text(text)
        rc = main(["gsvd", str(tmp_path / "A.txt"), str(tmp_path / "L.txt")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{operand} has a NaN or infinite entry" in captured.err


class TestDiagnoseCommand:
    def test_full_report_autoconvolution(self, tmp_path):
        out = tmp_path / "diag"
        rc = main([
            "diagnose", "--problem", "autoconvolution", "--n", "12", "--q", "0.5",
            "--tau", "3.0", "--delta", "1e-3", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        gain_header = (
            "k,gain,rhs_step,rhs_residual,rhs_spectral,qcond_kind,ok_step,ok_residual,ok_spectral"
        )
        for name, header in [
            ("gain_exact.csv", gain_header),
            ("gain_noisy.csv", gain_header),
            ("euclidean.csv", "k,lhs,rhs,ok"),
        ]:
            assert read(out / name).splitlines()[1] == header, name
        assert (out / "kstar_report.txt").exists()
        summary = read(out / "diagnostics_summary.txt")
        assert "c_hat" in summary and "gain_exact_violations = 0" in summary

    def test_verdicts_written_as_the_reports_hold_them(self, tmp_path, monkeypatch):
        # a report whose first step fails: the table shows its 0, the summary
        # counts it, and a failed step bound is a hard violation
        check_gain = lmmss.diagnostics.check_gain

        def failing_first_step(*args):
            rep = check_gain(*args)
            return dataclasses.replace(rep, ok_step=(0, *rep.ok_step[1:]))

        monkeypatch.setattr(lmmss.diagnostics, "check_gain", failing_first_step)
        out = tmp_path / "diag"
        rc = main([
            "diagnose", "--problem", "coefficient", "--n", "12", "--q", "0.6",
            "--tau", "3.5", "--out", str(out),
        ])
        assert rc == 1
        rows = read(out / "gain_exact.csv").splitlines()
        header = rows[1].split(",")
        first = dict(zip(header, rows[2].split(",")))
        assert (first["k"], first["ok_step"]) == ("0", "0")
        assert all(row.split(",")[header.index("ok_step")] == "1" for row in rows[3:])
        assert "gain_exact_violations = 1" in read(out / "diagnostics_summary.txt")

    def test_failure_after_solving_writes_nothing(self, tmp_path, capsys):
        # a ball so small that no sampled pair has a usable denominator: the
        # runs are solved, the sampling fails, and no file is written
        path = tmp_path / "c.ini"
        path.write_text("[problem]\nn = 16\n[experiment]\ndeltas = 1e-3\ntcc_rho = 1e-9\n")
        out = tmp_path / "out"
        rc = main(["diagnose", "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert "no admissible sample pairs" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_solution_skips_with_notice(self, tmp_path):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 4))
        np.savetxt(tmp_path / "A.txt", A, fmt="%.17g")
        np.savetxt(tmp_path / "y.txt", A @ rng.standard_normal(4), fmt="%.17g")
        out = tmp_path / "diag"
        rc = main([
            "diagnose", "--problem", "file", "--matrix", str(tmp_path / "A.txt"),
            "--rhs", str(tmp_path / "y.txt"), "--out", str(out),
        ])
        assert rc == 0
        summary = read(out / "diagnostics_summary.txt")
        assert "skipped" in summary
        assert not (out / "gain_exact.csv").exists()

    def test_from_dir_reuses_solve_artifacts(self, tmp_path):
        run_dir = tmp_path / "run"
        rc = main([
            "solve", "--problem", "coefficient", "--n", "12", "--q", "0.6",
            "--tau", "3.5", "--out", str(run_dir),
        ])
        assert rc == 0
        diag_dir = tmp_path / "diag"
        rc = main([
            "diagnose", "--from-dir", str(run_dir), "--out", str(diag_dir),
        ])
        assert rc == 0
        assert (diag_dir / "gain_exact.csv").exists()


class TestFromDir:
    """``diagnose --from-dir`` diagnoses exactly the run a ``solve`` directory records."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("from-dir") / "run"
        assert main([
            "solve", "--problem", "coefficient", "--n", "12", "--q", "0.6",
            "--tau", "3.5", "--delta", "1e-2", "--seed", "1", "--out", str(out),
        ]) == 0
        return out

    @pytest.mark.parametrize("delta", ["1e-3", "0"])
    @pytest.mark.parametrize("spec", ["identity", "d2"])
    @pytest.mark.parametrize("name", ["linear", "autoconvolution", "coefficient"])
    def test_reloaded_run_equals_solved_run(self, tmp_path, monkeypatch, name, spec, delta):
        solved = []

        def recording_solve(*args):
            solved.append(lmmss.solve(*args))
            return solved[-1]

        monkeypatch.setattr(lmmss.cli, "solve", recording_solve)
        out = tmp_path / "run"
        assert main([
            "solve", "--problem", name, "--n", "32", "--scaling", spec, "--q", "0.6",
            "--tau", "3.5", "--delta", delta, "--seed", "5", "--out", str(out),
        ]) == 0
        cfg = load_config(out / "config.ini")
        (run,) = solved
        reloaded = _reload_run(out, cfg.digest())
        assert run.mode == ("exact" if delta == "0" else "noisy")
        assert_runs_bitwise_equal(reloaded, run)

    @pytest.mark.parametrize("name", ["linear", "autoconvolution", "coefficient"])
    def test_gain_noisy_matches_fresh_diagnose(self, tmp_path, name):
        flags = [
            "--problem", name, "--n", "32", "--scaling", "identity", "--q", "0.6",
            "--tau", "3.5", "--delta", "1e-3", "--seed", "5",
        ]
        run, fresh, again = tmp_path / "run", tmp_path / "fresh", tmp_path / "again"
        assert main(["solve", *flags, "--out", str(run)]) == 0
        assert main(["diagnose", *flags, "--out", str(fresh)]) == 0
        assert main(["diagnose", "--from-dir", str(run), "--out", str(again)]) == 0
        assert filecmp.cmp(fresh / "gain_noisy.csv", again / "gain_noisy.csv", shallow=False)

    def test_iterate_moved_away_is_a_hard_violation(self, tmp_path, capsys, run_dir):
        copy = tmp_path / "run"
        copy.mkdir()
        for f in run_dir.iterdir():
            (copy / f.name).write_bytes(f.read_bytes())
        xs = np.loadtxt(copy / "iterates.txt", ndmin=2)
        xs[-1] += 1.0  # the stopped iterate, now farther from x_dagger than its predecessor
        np.savetxt(copy / "iterates.txt", xs, fmt="%.17g")
        out = tmp_path / "diag"
        assert main(["diagnose", "--from-dir", str(copy), "--out", str(out)]) == 1
        assert "hard_violation=True" in capsys.readouterr().out
        rows = read(out / "gain_noisy.csv").splitlines()[2:]
        ok_step = [row.split(",")[6] for row in rows]
        assert ok_step[-1] == "0" and set(ok_step[:-1]) == {"1"}

    @pytest.mark.parametrize(
        "extra",
        [["--delta", "1e-3"], ["--n", "16"], ["--scaling", "identity"],
         ["--config", "{run}/config.ini"]],
        ids=["delta", "n", "scaling", "config"],
    )
    def test_run_flags_rejected(self, tmp_path, capsys, run_dir, extra):
        extra = [arg.format(run=run_dir) for arg in extra]
        out = tmp_path / "diag"
        rc = main(["diagnose", "--from-dir", str(run_dir), *extra, "--out", str(out)])
        assert rc == 2
        assert "--from-dir" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        ["six-column-trace", "edited-config", "no-stop_reason", "no-mode", "no-delta",
         "line-without-separator", "short-iterates", "long-iterates", "bad-trace-cell",
         "bad-iterates-cell", "non-numeric-delta", "header-only-trace", "narrow-iterates",
         "mode-contradicts-delta"],
    )
    def test_foreign_artifacts_rejected(self, tmp_path, capsys, run_dir, edit):
        copy = tmp_path / "run"
        copy.mkdir()
        for f in run_dir.iterdir():
            (copy / f.name).write_bytes(f.read_bytes())
        named = "trace.csv"
        if edit == "six-column-trace":  # a trace of an earlier version lacks the last column
            lines = (copy / "trace.csv").read_text().splitlines()
            lines[1:] = [line.rsplit(",", 1)[0] for line in lines[1:]]
            (copy / "trace.csv").write_text("\n".join(lines) + "\n")
        elif edit == "edited-config":
            ini = (copy / "config.ini").read_text()
            (copy / "config.ini").write_text(ini.replace("tau = 3.5", "tau = 4.5"))
        elif edit.endswith("-iterates"):
            lines = (copy / "iterates.txt").read_text().splitlines()
            rows = lines[:-1] if edit == "short-iterates" else lines + lines[:1]
            (copy / "iterates.txt").write_text("\n".join(rows) + "\n")
            named = f"iterates.txt has {len(rows)} rows, {copy / 'trace.csv'} has {len(lines)}"
        elif edit == "bad-trace-cell":
            lines = (copy / "trace.csv").read_text().splitlines()
            lines[3] = "x" + lines[3][1:]
            (copy / "trace.csv").write_text("\n".join(lines) + "\n")
            named = "trace.csv, line 4: invalid literal for int()"
        elif edit == "bad-iterates-cell":
            lines = (copy / "iterates.txt").read_text().splitlines()
            lines[1] = "x" + lines[1][1:]
            (copy / "iterates.txt").write_text("\n".join(lines) + "\n")
            named = "iterates.txt: could not convert"
        elif edit == "non-numeric-delta":
            text = (copy / "summary.txt").read_text()
            lines = [("delta = abc" if line.startswith("delta = ") else line)
                     for line in text.splitlines()]
            (copy / "summary.txt").write_text("\n".join(lines) + "\n")
            named = "summary.txt: delta 'abc' is not a number"
        elif edit == "mode-contradicts-delta":
            text = (copy / "summary.txt").read_text()
            (copy / "summary.txt").write_text(text.replace("mode = noisy", "mode = exact"))
            named = "summary.txt: mode 'exact' contradicts delta 0.01"
        elif edit == "header-only-trace":
            lines = (copy / "trace.csv").read_text().splitlines()
            (copy / "trace.csv").write_text("\n".join(lines[:2]) + "\n")
            (copy / "iterates.txt").write_text("")
            named = "trace.csv has no iterate rows"
        elif edit == "narrow-iterates":  # one column dropped
            lines = (copy / "iterates.txt").read_text().splitlines()
            rows = [line.rsplit(" ", 1)[0] for line in lines]
            (copy / "iterates.txt").write_text("\n".join(rows) + "\n")
            named = "iterates.txt rows have length 11, the problem has n=12"
        else:
            lines = (copy / "summary.txt").read_text().splitlines()
            if edit.startswith("no-"):
                lines = [line for line in lines if not line.startswith(f"{edit[3:]} = ")]
                named = f"summary.txt has no {edit[3:]} line"
            else:
                lines.append("mode noisy")
                named = "summary.txt: line 'mode noisy' is not"
            (copy / "summary.txt").write_text("\n".join(lines) + "\n")
        out = tmp_path / "diag"
        assert main(["diagnose", "--from-dir", str(copy), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestScalingFlag:
    def test_custom_scaling_from_file(self, tmp_path):
        np.savetxt(tmp_path / "L.txt", np.eye(12), fmt="%.17g")
        out = tmp_path / "run"
        rc = main([
            "solve", "--problem", "coefficient", "--n", "12",
            "--scaling", f"file:{tmp_path / 'L.txt'}", "--q", "0.6",
            "--tau", "3.5", "--delta", "1e-2", "--out", str(out),
        ])
        assert rc == 0
        assert "scaling = custom" in read(out / "summary.txt")


class TestInputErrors:
    """Bad noise levels, seeds and exact solutions exit 2 and write nothing."""

    @pytest.mark.parametrize("command", ["solve", "sweep", "diagnose"])
    def test_negative_delta_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        rc = main([command, "--problem", "linear", "--n", "16", "--delta=-1e-3",
                   "--out", str(out)])
        assert rc == 2
        assert "-0.001" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "diagnose"])
    def test_empty_seeds_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "c.ini"
        path.write_text("[problem]\nn = 16\n[experiment]\ndeltas = 1e-3\nseeds =\n")
        out = tmp_path / "out"
        rc = main([command, "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "seeds must not be empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "diagnose"])
    @pytest.mark.parametrize(
        "extra", [["--delta", "1e-3", "--delta", "1e-2"], ["--seed", "1", "--seed", "2"]],
        ids=["deltas", "seeds"],
    )
    def test_one_delta_and_one_seed_per_run(self, tmp_path, capsys, command, extra):
        out = tmp_path / "out"
        rc = main([command, "--problem", "linear", "--n", "16", *extra, "--out", str(out)])
        assert rc == 2
        assert "at most one delta and one seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "diagnose"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_x0_rejected(self, tmp_path, capsys, command, bad):
        x0 = np.ones(16)
        x0[3] = bad
        np.savetxt(tmp_path / "x0.txt", x0)
        out = tmp_path / "out"
        rc = main([command, "--problem", "linear", "--n", "16", "--delta", "1e-3",
                   "--x0", str(tmp_path / "x0.txt"), "--out", str(out)])
        assert rc == 2
        assert "x0 file has a NaN or infinite entry" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["inf", "nan"])
    def test_non_finite_tau_rejected(self, tmp_path, capsys, tau):
        out = tmp_path / "out"
        rc = main(["solve", "--problem", "linear", "--n", "16", "--delta", "1e-3",
                   "--tau", tau, "--out", str(out)])
        assert rc == 2
        assert "need finite tau" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "which, bad, message",
        [("matrix", np.nan, "{path} has a NaN or infinite entry"),
         ("rhs", np.inf, "{path} has a NaN or infinite entry"),
         ("solution", -np.inf, "{path} has a NaN or infinite entry")],
        ids=["matrix", "rhs", "solution"],
    )
    def test_non_finite_problem_file_rejected(self, tmp_path, capsys, which, bad, message):
        A = np.eye(4) + 0.1
        x = np.ones(4)
        files = {"matrix": A, "rhs": A @ x, "solution": x}
        files[which] = files[which].copy()
        files[which].flat[1] = bad
        for name, values in files.items():
            np.savetxt(tmp_path / f"{name}.txt", values)
        out = tmp_path / "out"
        rc = main(["solve", "--problem", "file", "--matrix", str(tmp_path / "matrix.txt"),
                   "--rhs", str(tmp_path / "rhs.txt"),
                   "--exact-solution", str(tmp_path / "solution.txt"), "--out", str(out)])
        assert rc == 2
        assert message.format(path=tmp_path / f"{which}.txt") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [("tcc_rho = -1", "rho must be finite and positive"),
         ("tcc_samples = 0", "need at least 100 sample pairs")],
        ids=["tcc_rho", "tcc_samples"],
    )
    def test_bad_tcc_settings_rejected(self, tmp_path, capsys, setting, message):
        path = tmp_path / "c.ini"
        path.write_text(f"[problem]\nn = 16\n[experiment]\ndeltas = 1e-3\n{setting}\n")
        out = tmp_path / "out"
        rc = main(["diagnose", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("solve --problem linear --n 2", "linear problem needs n >= 4"),
            ("sweep --problem linear --n 2 --delta 1e-3", "linear problem needs n >= 4"),
            ("solve --problem autoconvolution --n 6", "autoconvolution problem needs n >= 8"),
            ("solve --problem linear --n 8 --scaling file:{tmp}/L3.txt",
             "scaling matrix has 3 columns, problem has n=8"),
            ("solve --problem linear --n 8 --scaling file:{tmp}/Lrank.txt",
             "scaling matrix has numerical rank below 2"),
            ("solve --problem file --matrix {tmp}/A23.txt --rhs {tmp}/y2.txt",
             "need m >= n, got m=2, n=3"),
            ("gsvd {tmp}/A23.txt {tmp}/L3.txt", "need m >= n, got m=2, n=3"),
            ("gsvd {tmp}/A8.txt {tmp}/Lrank.txt", "scaling matrix has numerical rank below 2"),
        ],
        ids=["linear-n", "sweep-linear-n", "autoconvolution-n", "scaling-columns",
             "scaling-rank", "file-m-below-n", "gsvd-m-below-n", "gsvd-rank"],
    )
    def test_bad_sizes_and_matrices_rejected(self, tmp_path, capsys, argv, message):
        np.savetxt(tmp_path / "L3.txt", np.eye(3))
        np.savetxt(tmp_path / "Lrank.txt", np.ones((2, 8)))
        np.savetxt(tmp_path / "A23.txt", np.ones((2, 3)))
        np.savetxt(tmp_path / "y2.txt", np.ones(2))
        np.savetxt(tmp_path / "A8.txt", np.eye(8))
        out = tmp_path / "out"
        argv = argv.format(tmp=tmp_path).split()
        if argv[0] != "gsvd":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_completeness_violation_exits_1(self, tmp_path, capsys):
        # a pair that fails the completeness rule is not an input-format error
        np.savetxt(tmp_path / "A.txt", [[1.0, 0.0], [0.0, 0.0]])
        np.savetxt(tmp_path / "L.txt", [[1.0, 0.0]])
        assert main(["gsvd", str(tmp_path / "A.txt"), str(tmp_path / "L.txt")]) == 1
        assert "N(A) and N(L) intersect" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_gsvd_tol_rejected(self, tmp_path, capsys, tol):
        # a tolerance no factorization can meet, or that every one meets, is
        # bad input, not a verdict on the factors
        np.savetxt(tmp_path / "A.txt", np.eye(4))
        np.savetxt(tmp_path / "L.txt", np.eye(4)[:3])
        rc = main(["gsvd", str(tmp_path / "A.txt"), str(tmp_path / "L.txt"), f"--tol={tol}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be finite and positive" in captured.err

    def test_non_finite_exact_solution_rejected(self, tmp_path, capsys):
        np.savetxt(tmp_path / "A.txt", np.eye(3))
        np.savetxt(tmp_path / "y.txt", np.ones(3))
        np.savetxt(tmp_path / "x.txt", [np.nan, 1.0, 1.0])
        rc = main([
            "solve", "--problem", "file", "--matrix", str(tmp_path / "A.txt"),
            "--rhs", str(tmp_path / "y.txt"), "--exact-solution", str(tmp_path / "x.txt"),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "x.txt") in err and "NaN or infinite" in err
        assert not (tmp_path / "out").exists()
