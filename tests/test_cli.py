import filecmp

import numpy as np
import pytest

import lmmss
from lmmss import make_noisy_data, make_problem
from lmmss.cli import ExperimentConfig, load_config, main
from lmmss.diagnostics import SweepReport, SweepRow
from helpers import unit_residual_start


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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[solver]\nbogus = 1\n")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2


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
        assert lines[1] == "k,res_norm,lambda,zeta_p,step_Lnorm,qcond_kind"
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
        rows = read(a / "sweep.csv").strip().splitlines()[2:]
        assert len(rows) == 8
        assert main(["sweep", "--config", str(a / "config.ini"), "--out", str(b)]) == 0
        for name in ("sweep.csv", "sweep_summary.txt", "config.ini"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_trend_failure_exits_nonzero_naming_pair(self, tmp_path, capsys, monkeypatch):
        rigged = SweepReport(
            rows=(SweepRow(1e-2, 1, 3, 1.0, 1.0, 0.01, "discrepancy"),
                  SweepRow(1e-3, 1, 5, 2.0, 2.0, 0.001, "discrepancy")),
            all_discrepancy=True,
            trend_ok=False,
            trend_violations=((1e-2, 1e-3, 1),),
            slack_factor=1.1,
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
        assert (out / "gain_exact.csv").exists()
        assert (out / "gain_noisy.csv").exists()
        assert (out / "euclidean.csv").exists()
        assert (out / "kstar_report.txt").exists()
        summary = read(out / "diagnostics_summary.txt")
        assert "c_hat" in summary and "gain_exact_violations = 0" in summary

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
