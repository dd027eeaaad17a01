import csv
import json

import pytest

from hermevp.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSolve:
    def test_writes_eigenvalues_and_mode_files(self, tmp_path, capsys):
        rc, out, err = run(capsys, "solve", "--epsilon", "1e-2",
                           "--n", "16", "--modes", "2",
                           "--out", str(tmp_path))
        assert rc == 0 and err == ""
        assert "lambda_1" in out and "lambda_2" in out

        eig = read_rows(tmp_path / "eigenvalues.csv")
        assert [r["mode"] for r in eig] == ["1", "2"]
        lams = [float(r["lambda"]) for r in eig]
        assert lams[0] < lams[1]
        assert all(float(r["residual"]) < 1e-10 for r in eig)

        mode1 = read_rows(tmp_path / "mode_1.csv")
        assert len(mode1) >= 2001
        assert (tmp_path / "mode_2.csv").exists()
        first, last = mode1[0], mode1[-1]
        assert float(first["x"]) == 0.0 and float(last["x"]) == 1.0
        for row in (first, last):
            assert abs(float(row["u"])) < 1e-13
            assert abs(float(row["du"])) < 1e-12

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc, _, _ = run(capsys, "solve", "--epsilon", "1e-3",
                           "--n", "16", "--out", str(out))
            assert rc == 0
        assert (a / "eigenvalues.csv").read_bytes() == \
            (b / "eigenvalues.csv").read_bytes()
        assert (a / "mode_1.csv").read_bytes() == \
            (b / "mode_1.csv").read_bytes()

    def test_uniform_mesh_and_const_preset(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "solve", "--epsilon", "0.5",
                         "--mesh", "uniform", "--preset", "const",
                         "--n", "12", "--out", str(tmp_path))
        assert rc == 0
        assert "mesh uniform" in out


class TestExitCodes:
    def test_too_many_modes(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--epsilon", "1e-2", "--n", "8",
                         "--modes", "99", "--out", str(tmp_path))
        assert rc == 6
        assert err.startswith("error: KTooLarge")

    def test_invalid_degree(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--p", "2",
                         "--out", str(tmp_path))
        assert rc == 2
        assert "InvalidSpec" in err

    def test_layer_regime_violation(self, tmp_path, capsys):
        rc, _, err = run(capsys, "interp-study", "--epsilon", "0.1",
                         "--n", "16,32", "--out", str(tmp_path))
        assert rc == 5
        assert "AssumptionViolated" in err

    def test_region_overlap(self, tmp_path, capsys):
        rc, _, err = run(capsys, "mesh-dump", "--epsilon", "0.9",
                         "--n", "16", "--out", str(tmp_path))
        assert rc == 3
        assert "RegionOverlap" in err

    def test_nonpositive_coefficient(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--preset", "custom",
                         "--a-expr", "x - 0.5", "--b-expr", "0",
                         "--out", str(tmp_path))
        assert rc == 8
        assert "CoefficientViolation" in err

    def test_non_finite_coefficient(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--preset", "custom",
                         "--a-expr", "1+0*x", "--b-expr", "sqrt(x-1)",
                         "--out", str(tmp_path))
        assert rc == 8
        assert err.startswith("error: CoefficientViolation")
        assert len(err.splitlines()) == 1

    def test_nan_coefficient_probe(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--preset", "custom",
                         "--a-expr", "1+0*log(x)", "--b-expr", "0",
                         "--out", str(tmp_path))
        assert rc == 8
        assert err.startswith("error: CoefficientViolation")
        assert len(err.splitlines()) == 1

    def test_modes_beyond_rounding(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--p", "5", "--n", "8",
                         "--epsilon", "1e-8", "--modes", "30",
                         "--out", str(tmp_path))
        assert rc == 6
        assert err.startswith("error: KTooLarge: only 29 of the 30 modes")


class TestCoefficientExpressions:
    def test_forbidden_names_rejected(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--preset", "custom",
                         "--a-expr", "__import__('os').getcwd()",
                         "--b-expr", "0", "--out", str(tmp_path))
        assert rc == 2
        assert "not allowed" in err

    def test_unknown_function_rejected(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--preset", "custom",
                         "--a-expr", "min(x, 1)", "--b-expr", "0",
                         "--out", str(tmp_path))
        assert rc == 2

    def test_custom_needs_both_expressions(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--preset", "custom",
                         "--a-expr", "1 + x", "--out", str(tmp_path))
        assert rc == 2

    def test_expressions_refused_outside_custom(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--preset", "expx",
                         "--a-expr", "1", "--out", str(tmp_path))
        assert rc == 2

    def test_custom_expressions_work(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "solve", "--preset", "custom",
                         "--a-expr", "1 + sin(x)**2",
                         "--b-expr", "exp(-x)",
                         "--epsilon", "1e-2", "--n", "16",
                         "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "eigenvalues.csv").exists()


class TestConvergence:
    def test_needs_three_sizes(self, tmp_path, capsys):
        rc, _, err = run(capsys, "convergence", "--n", "16,32",
                         "--out", str(tmp_path))
        assert rc == 2

    def test_sizes_must_ascend(self, tmp_path, capsys):
        rc, _, err = run(capsys, "convergence", "--n", "32,16,64",
                         "--out", str(tmp_path))
        assert rc == 2

    def test_study_outputs(self, tmp_path, capsys):
        rc, out, err = run(capsys, "convergence", "--epsilon", "1e-2",
                           "--n", "8,12,16", "--ref-n", "48",
                           "--out", str(tmp_path))
        assert rc == 0 and err == ""
        assert "lambda error order" in out

        rows = read_rows(tmp_path / "study_eps0.01.csv")
        assert len(rows) == 3
        assert [r["N"] for r in rows] == ["8", "12", "16"]
        errs = [float(r["lambda_err_pct"]) for r in rows]
        assert errs[0] > errs[-1]

        payload = json.loads((tmp_path / "study_eps0.01.json").read_text())
        assert "slopes" in payload
        assert "lambda_err_pct" in payload["slopes"]

    def test_epsilon_sweep_writes_one_file_each(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "convergence", "--epsilon", "1e-2,1e-3",
                       "--n", "8,12,16", "--ref-n", "48",
                       "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "study_eps0.01.csv").exists()
        assert (tmp_path / "study_eps0.001.csv").exists()


class TestInterpStudy:
    def test_outputs(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "interp-study", "--epsilon", "1e-3",
                         "--n", "16,32,64", "--out", str(tmp_path))
        assert rc == 0
        assert "fitted order" in out
        rows = read_rows(tmp_path / "interp.csv")
        assert len(rows) == 3
        assert float(rows[0]["max_err"]) > float(rows[-1]["max_err"])


class TestMeshDump:
    def test_graded_mesh_diagnostics(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "mesh-dump", "--epsilon", "1e-3",
                         "--n", "16", "--out", str(tmp_path))
        assert rc == 0
        assert "transition abscissa" in out
        assert "width bounds satisfied: True" in out
        with open(tmp_path / "mesh.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 18
        assert rows[0] == ["index", "x", "region_right"]

    def test_uniform_mesh_has_no_transition(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "mesh-dump", "--mesh", "uniform",
                         "--epsilon", "0.5", "--n", "10",
                         "--out", str(tmp_path))
        assert rc == 0
        assert "transition" not in out


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# base settings\n"
            "epsilon = 1e-2\n"
            "n = 16\n"
            "modes = 2\n"
            f"out = {tmp_path}\n"
        )
        rc, _, _ = run(capsys, "solve", "--config", str(cfg),
                       "--modes", "1")
        assert rc == 0
        assert len(read_rows(tmp_path / "eigenvalues.csv")) == 1
        assert not (tmp_path / "mode_2.csv").exists()

    def test_dashed_keys_normalized(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ref-n = 48\nepsilon = 1e-2\nn = 8,12,16\n"
                       f"out = {tmp_path}\n")
        rc, _, _ = run(capsys, "convergence", "--config", str(cfg))
        assert rc == 0

    def test_missing_file(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve",
                         "--config", str(tmp_path / "nope.cfg"))
        assert rc == 2

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilon 1e-2\n")
        rc, _, err = run(capsys, "solve", "--config", str(cfg))
        assert rc == 2


class TestTable1:
    def test_table_and_csv(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "table1", "--out", str(tmp_path))
        assert rc == 0
        assert "benchmark" in out
        assert "deviation" in out
        assert "* no benchmark value" in out

        rows = read_rows(tmp_path / "table1.csv")
        assert len(rows) == 35
        first = rows[0]
        assert first["mode"] == "1" and first["N"] == "8"
        assert first["benchmark_lambda"] != ""
        # modes 3..5 have no benchmark value at the coarsest resolution
        blank = [r for r in rows if r["benchmark_lambda"] == ""]
        assert {(r["mode"], r["N"]) for r in blank} == \
            {("3", "8"), ("4", "8"), ("5", "8")}
        assert all(r["rel_dev_pct"] == "" for r in blank)
