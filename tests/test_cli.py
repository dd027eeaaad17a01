import csv
import dataclasses
import json

import numpy as np
import pytest

import hermevp
import hermevp.analysis
from hermevp import cli
from hermevp.cli import COMMANDS, COMMON_FLAGS, OPTIONS, main
from hermevp.mesh import MeshSpec, build_mesh


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

    def test_mode_files_end_at_clamped_zero(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "solve", "--p", "3", "--n", "16",
                       "--epsilon", "1e-2", "--modes", "3",
                       "--out", str(tmp_path))
        assert rc == 0
        for m in (1, 2, 3):
            lines = (tmp_path / f"mode_{m}.csv").read_bytes().splitlines()
            assert lines[1] == b"0,0,0" and lines[-1] == b"1,0,0"

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

    def test_overflowing_stiffness_refused(self, tmp_path, capsys):
        # a = 1e308 is finite at every sample, but K overflows to inf;
        # pytest's configuration turns any RuntimeWarning into an error
        rc, _, err = run(capsys, "solve", "--p", "3", "--n", "16",
                         "--modes", "2", "--preset", "custom",
                         "--a-expr", "1e308", "--b-expr", "0",
                         "--out", str(tmp_path))
        assert rc == 8
        assert err.startswith("error: CoefficientViolation: the stiffness "
                              "matrix K overflows")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "eigenvalues.csv").exists()

    def test_nan_residual_refused(self, tmp_path, capsys):
        # b = 1e308 gives lambda near 1e308, whose residual overflows to
        # nan; nan must not pass the 100x tol gate
        rc, _, err = run(capsys, "solve", "--p", "3", "--n", "16",
                         "--modes", "2", "--preset", "custom",
                         "--a-expr", "1", "--b-expr", "1e308",
                         "--out", str(tmp_path))
        assert rc == 4
        assert err.startswith("error: NoConvergence: residual nan exceeds")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "eigenvalues.csv").exists()

    def test_modes_beyond_rounding(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--p", "5", "--n", "8",
                         "--epsilon", "1e-8", "--modes", "30",
                         "--out", str(tmp_path))
        assert rc == 6
        assert err.startswith("error: KTooLarge: asked for 30 modes of 30 "
                              "dofs, but ARPACK returns at most n - 1 = 29")

    def test_grading_constant_rounding_to_zero(self, tmp_path, capsys):
        rc, _, err = run(capsys, "mesh-dump", "--beta", "1e-17",
                         "--epsilon", "1", "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: grading constant")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,quantity", [
        (("solve", "--m", "3"), "ambiguous option: --m"),
        (("solve", "--bogus", "3"), "unrecognized arguments: --bogus"),
        ((), "required: command"),
    ], ids=lambda v: " ".join(v) or "bare" if isinstance(v, tuple) else v)
    def test_parse_error_is_one_line(self, capsys, argv, quantity):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: InvalidSpec: ")
        assert len(err.splitlines()) == 1 and quantity in err

    def test_flag_before_command(self, capsys):
        rc, out, err = run(capsys, "--epsilon", "1e-2", "solve")
        assert rc == 2 and out == ""
        assert err.startswith("error: InvalidSpec: --epsilon comes before "
                              "the command; flags go after it")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,code,beta", [
        (("--beta", "1e300", "--epsilon", "1", "--n", "8"), 2, "1e+300"),
        (("--beta", "1e-17",), 3, "1e-17"),
    ], ids=["collapse", "overlap"])
    def test_mesh_refusal_names_beta(self, tmp_path, capsys, argv, code,
                                     beta):
        rc, _, err = run(capsys, "mesh-dump", *argv, "--out", str(tmp_path))
        assert rc == code and "epsilon/beta" in err and f"beta = {beta}" in err

    def test_epsilon_too_small_for_mesh(self, tmp_path, capsys):
        rc, _, err = run(capsys, "mesh-dump", "--p", "3", "--n", "64",
                         "--epsilon", "1e-16", "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: ")
        assert "epsilon = 1e-16" in err and "N = 64" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("solve", "--p", "abc"),
        ("solve", "--epsilon", "x"),
        ("solve", "--modes", "two"),
        ("interp-study", "--beta", "q"),
        ("mesh-dump", "--n", "1.5"),
        ("mesh-dump", "--mesh", "foo"),
    ], ids=" ".join)
    def test_malformed_flag_value(self, tmp_path, capsys, argv):
        rc, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("line", ["p = x", "mesh = foo"])
    def test_malformed_config_value(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc, _, err = run(capsys, "solve", "--config", str(cfg),
                         "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith(f"error: InvalidSpec: {cfg}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("convergence", "--epsilon", ","),
        ("interp-study", "--n", ","),
    ], ids=" ".join)
    def test_empty_list_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc, _, err = run(capsys, *argv, "--out", str(out))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: ")
        assert "empty" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("convergence", "--n", "32,16"),
        ("convergence", "--n", "16,16,32"),
        ("interp-study", "--n", "32,16"),
        ("interp-study", "--n", "16,16,32"),
    ], ids=" ".join)
    def test_ladder_must_ascend(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc, stdout, err = run(capsys, *argv, "--epsilon", "1e-2",
                              "--out", str(out))
        assert rc == 2 and stdout == ""
        assert err.startswith("error: InvalidSpec: argument --n: mesh sizes "
                              "must be strictly ascending")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_infinite_beta(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--n", "8", "--beta", "inf",
                         "--out", str(tmp_path))
        assert rc == 2
        assert err == ("error: InvalidSpec: beta must be positive and "
                       "finite, got inf\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance(self, tmp_path, capsys, tol):
        rc, _, err = run(capsys, "solve", "--p", "3", "--n", "8",
                         "--epsilon", "1e-2", "--tol", tol,
                         "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,quantity", [
        (("solve", "--n", "8", "--tol", "-inf"), "tolerance"),
        (("solve", "--n", "8", "--tol", "-nan"), "tolerance"),
        (("solve", "--n", "8", "--epsilon", "-1e-3"), "epsilon"),
        (("solve", "--n", "8", "--beta", "-1e-2"), "beta"),
        (("mesh-dump", "--n", "8", "--epsilon", "-1e-3"), "epsilon"),
        (("interp-study", "--n", "8,16", "--beta", "-1e-3"), "beta"),
        (("convergence", "--n", "8,12,16", "--epsilon", "-1e-3,1e-2"),
         "epsilon"),
        (("convergence", "--n", "-8,12,16"), "n_elements"),
        (("solve", "--n", "8", "--to", "-inf"), "tolerance"),
        (("mesh-dump", "--n", "8", "--eps", "-1e-3"), "epsilon"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_negative_value_after_flag(self, tmp_path, capsys, argv,
                                       quantity):
        # a value that starts with one dash reaches its flag's check, after
        # an abbreviated flag too
        rc, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: ")
        assert len(err.splitlines()) == 1
        assert quantity in err and "expected one argument" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (("solve", "--tol", "-inf"),
         "tolerance must be positive and finite, got -inf"),
        (("solve", "--epsilon", "-1e-3"),
         "epsilon must lie in (0, 1], got -0.001"),
        (("convergence", "--n", "-8,12,16"),
         "n_elements must be a positive integer, got -8"),
        (("solve", "--tol", "-1e-3x"),
         "argument --tol: invalid float value: '-1e-3x'"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    def test_negative_value_message(self, tmp_path, capsys, argv, message):
        rc, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert rc == 2 and out == ""
        assert err == f"error: InvalidSpec: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["convergence", "interp-study"])
    def test_malformed_ladder(self, tmp_path, capsys, command):
        rc, out, err = run(capsys, command, "--n", "16,x",
                           "--out", str(tmp_path))
        assert rc == 2 and out == ""
        assert err == ("error: InvalidSpec: argument --n: bad integer list "
                       "'16,x'\n")

    def test_no_free_dofs(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--mesh", "uniform", "--n", "1",
                         "--p", "3", "--out", str(tmp_path))
        assert rc == 2
        assert err == ("error: InvalidSpec: no free dofs: mesh too small for "
                       "clamped ends\n")

    def test_unknown_preset_one_message(self, tmp_path, capsys):
        # a flag and a config file value meet the same check
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = bogus\n")
        expect = ("error: InvalidSpec: unknown preset 'bogus'; choose from "
                  "const, expx, custom\n")
        for argv in (("--preset", "bogus"), ("--config", str(cfg))):
            rc, _, err = run(capsys, "solve", *argv, "--out", str(tmp_path))
            assert (rc, err) == (2, expect)

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
    def test_out_not_a_directory(self, tmp_path, capsys, sub):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc, _, err = run(capsys, "solve", "--n", "8",
                         "--out", str(blocker / sub))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: ")
        assert len(err.splitlines()) == 1


class TestHelp:
    def help_text(self, capsys, *argv):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--help"])
        assert exit_.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("argv", [("--help",), ("-h",), ("--he",),
                                      ("solve", "--help")], ids=" ".join)
    def test_help_exits_zero_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hermevp")

    def test_top_level_lists_every_command(self, capsys):
        text = self.help_text(capsys)
        for command, (_, help_, _, _) in COMMANDS.items():
            assert f"{command} {help_}" in text

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_lists_every_flag_with_default(self, capsys, command):
        text = self.help_text(capsys, command)
        _, _, flags, overrides = COMMANDS[command]
        for dest in flags + COMMON_FLAGS:
            _, default, help_ = overrides.get(dest, OPTIONS[dest])
            assert f"--{dest.replace('_', '-')} " in text
            assert f"{help_} (default: {default})" in text


class TestCoefficientExpressions:
    def test_forbidden_names_rejected(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--preset", "custom",
                         "--a-expr", "__import__('os').getcwd()",
                         "--b-expr", "0", "--out", str(tmp_path))
        assert rc == 2
        assert "not allowed" in err

    def test_unparsable_expression(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve", "--preset", "custom",
                         "--a-expr", "1+", "--b-expr", "x",
                         "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: cannot parse coefficient "
                              "expression '1+': ")
        assert len(err.splitlines()) == 1

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

    # evaluation fails on the probe: an exception of numpy or Python
    @pytest.mark.parametrize("a_expr,b_expr", [
        ("1", "1/0"), ("exp", "0"), ("1", "exp"), ("x if x else 1", "0"),
    ], ids=["zero-division", "bare-ufunc-a", "bare-ufunc-b", "truth-value"])
    def test_unevaluable_expression(self, tmp_path, capsys, a_expr, b_expr):
        rc, _, err = run(capsys, "solve", "--preset", "custom",
                         "--a-expr", a_expr, "--b-expr", b_expr,
                         "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith(f"error: InvalidSpec: cannot evaluate a(x) = "
                              f"{a_expr!r} and b(x) = {b_expr!r} on [0, 1]: ")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

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

    def test_repeated_sizes_rejected(self, tmp_path, capsys):
        rc, _, err = run(capsys, "convergence", "--n", "8,8,16",
                         "--epsilon", "1e-2", "--ref-n", "48",
                         "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: ")

    @pytest.mark.parametrize("argv,quantity", [
        (("--n", "0,12,16"), "n_elements"),
        (("--n", "6,12,16"), "divisible by 4"),
        (("--ref-n", "-5"), "n_elements"),
        (("--modes", "0"), "mode"),
        (("--tol", "-1e-3"), "tolerance"),
        (("--beta", "-1e-3"), "beta"),
        (("--p", "2"), "degree"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_refused_spec_leaves_no_file(self, tmp_path, capsys, argv,
                                         quantity):
        rc, _, err = run(capsys, "convergence", "--n", "8,12,16",
                         "--epsilon", "1e-2", *argv, "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: ")
        assert len(err.splitlines()) == 1 and quantity in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ref_n", ["12", "16"])
    def test_reference_not_finer_than_ladder(self, tmp_path, capsys, ref_n):
        rc, out, err = run(capsys, "convergence", "--n", "8,12,16",
                           "--epsilon", "1e-2", "--ref-n", ref_n,
                           "--out", str(tmp_path))
        assert rc == 2 and out == ""
        assert err.startswith("error: InvalidSpec: ")
        assert err == (f"error: InvalidSpec: the reference mesh size {ref_n} "
                       f"must exceed the largest mesh size 16\n")
        assert list(tmp_path.iterdir()) == []

    def test_refused_later_epsilon_leaves_no_file(self, tmp_path, capsys):
        rc, _, err = run(capsys, "convergence", "--n", "8,12,16",
                         "--epsilon", "1e-2,2", "--ref-n", "48",
                         "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith("error: InvalidSpec: ") and "epsilon" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,error", [
        (("--n", "16,32,64", "--epsilon", "1e-15", "--mesh", "exp"),
         "InvalidSpec: mesh nodes are not strictly increasing"),
        (("--n", "16,32,64", "--epsilon", "1e-15", "--mesh", "exp",
          "--ref-n", "512"),
         "InvalidSpec: mesh nodes are not strictly increasing"),
        (("--n", "8,12,16", "--modes", "20", "--mesh", "uniform",
          "--epsilon", "1e-2"),
         "KTooLarge: asked for 20 modes, but the mesh with N=8 has 14 dofs"),
        (("--n", "16,32,64", "--epsilon", "1e-3", "--preset", "custom",
          "--a-expr", "1", "--b-expr", "x-0.5"),
         "CoefficientViolation: b(x) = 'x-0.5' reaches -0.5 < 0"),
        (("--n", "16,32,64", "--epsilon", "1e-3", "--preset", "custom",
          "--a-expr", "1", "--b-expr", "1/(x-0.5)"),
         "CoefficientViolation: b(x) = '1/(x-0.5)' is inf at x = 0.5, "
         "not finite"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    def test_refused_study_runs_no_solve_and_leaves_no_file(
            self, tmp_path, capsys, monkeypatch, argv, error):
        # a collapsing mesh, too many modes or a coefficient the probe
        # refuses is refused before the reference solve, and before any
        # study file is opened
        def no_solve(*args):
            raise AssertionError("solved before the refusal")

        monkeypatch.setattr(hermevp.analysis, "solve_smallest", no_solve)
        rc, out, err = run(capsys, "convergence", "--p", "3", *argv,
                           "--out", str(tmp_path))
        exit_code = getattr(hermevp, error.split(":")[0]).exit_code
        assert (rc, out) == (exit_code, "")
        assert err.startswith("error: " + error) and len(err.splitlines()) == 1
        assert list(tmp_path.glob("study_eps*")) == []

    @pytest.mark.parametrize("values", [(1e-6, 1.0000001e-6), (1e-2, 1e-2)])
    def test_colliding_file_names_refused(self, tmp_path, capsys, values):
        # both values would write study_eps1e-06 (or study_eps0.01), the
        # second study overwriting the first
        first, second = values
        rc, out, err = run(capsys, "convergence", "--n", "8,12,16",
                           "--epsilon", f"{first!r},{second!r}",
                           "--ref-n", "48", "--out", str(tmp_path))
        assert (rc, out) == (2, "")
        assert err == (f"error: InvalidSpec: --epsilon values {first!r} and "
                       f"{second!r} would both write "
                       f"study_eps{first:g}.csv\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_reference_claims_no_records(self, tmp_path, capsys):
        # a passes the probe (it is 1 at every k/4096) but dips below zero
        # at a quadrature point of the reference's assembly, so the study
        # fails before its first record
        rc, out, err = run(capsys, "convergence", "--p", "3",
                           "--n", "16,32,64", "--epsilon", "1e-3",
                           "--preset", "custom",
                           "--a-expr", "1 + 2*sin(4096*pi*x)",
                           "--b-expr", "0", "--out", str(tmp_path))
        csv_path = tmp_path / "study_eps0.001.csv"
        assert (rc, out) == (8, "")
        first, second = err.splitlines()
        assert first.startswith(f"epsilon=0.001: failed after 0 of 3 "
                                f"records ({csv_path}): a(x) = ")
        assert second.startswith("error: CoefficientViolation: a(x) = ")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(cli.CSV_COLUMNS)
        assert len(lines) == 2 and lines[1].startswith("# FAILED: a(x) = ")

    def test_study_builds_each_mesh_once(self, tmp_path, capsys):
        # the benchmark's study op: the reference and four rungs are built
        # once each, then shared by the checks and the solves
        build_mesh.cache_clear()
        rc, _, _ = run(capsys, "convergence", "--p", "3",
                       "--n", "16,32,64,128", "--modes", "2",
                       "--ref-n", "1024", "--out", str(tmp_path))
        assert rc == 0 and build_mesh.cache_info().misses == 5

    def test_zero_reference_size_rejected(self, tmp_path, capsys):
        rc, _, err = run(capsys, "convergence", "--n", "8,12,16",
                         "--epsilon", "1e-2", "--ref-n", "0",
                         "--out", str(tmp_path))
        assert rc == 2
        assert "error: InvalidSpec: " in err

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

    def test_columns_are_the_record_fields(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "interp-study", "--epsilon", "1e-3",
                       "--n", "16,32", "--out", str(tmp_path))
        header = (tmp_path / "interp.csv").read_text().splitlines()[0]
        fields = dataclasses.fields(hermevp.InterpRecord)
        assert rc == 0 and header == ",".join(f.name for f in fields)


    def test_one_size_refused_before_writing(self, tmp_path, capsys):
        rc, _, err = run(capsys, "interp-study", "--epsilon", "1e-3",
                         "--n", "16", "--out", str(tmp_path))
        assert rc == 2
        assert err == "error: InvalidSpec: need at least 2 mesh sizes, " \
                      "got [16]\n"
        assert list(tmp_path.iterdir()) == []


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

    def test_keys_outside_the_command_ignored(self, tmp_path, capsys):
        outputs = []
        for extra in ("", "ref_n = 48\nrun = x\ncommand = x\n"):
            out = tmp_path / f"out{len(outputs)}"
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"epsilon = 1e-2\nn = 8\n{extra}out = {out}\n")
            rc, stdout, err = run(capsys, "solve", "--config", str(cfg))
            assert rc == 0 and err == ""
            outputs.append((stdout.replace(str(out), "OUT"),
                            {f.name: f.read_bytes() for f in out.iterdir()}))
        assert outputs[0] == outputs[1]

    def test_missing_file(self, tmp_path, capsys):
        rc, _, err = run(capsys, "solve",
                         "--config", str(tmp_path / "nope.cfg"))
        assert rc == 2

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilon 1e-2\n")
        rc, _, err = run(capsys, "solve", "--config", str(cfg))
        assert rc == 2


class TestRepeatedCalls:
    """main() keeps each command's parser and the mode files' grid fields
    for the life of the process; later calls must not see earlier ones."""

    @pytest.mark.parametrize("command", ["mesh-dump", "solve"])
    def test_config_values_do_not_outlive_their_call(self, tmp_path, capsys,
                                                     command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 1e-2\nn = 8\n")
        rc, out, _ = run(capsys, command, "--config", str(cfg),
                         "--out", str(tmp_path / "file"))
        assert rc == 0 and "N=8, " in out and "epsilon=0.01" in out
        rc, out, _ = run(capsys, command, "--out", str(tmp_path / "plain"))
        assert rc == 0 and "N=64, " in out and "epsilon=1e-06" in out

    @pytest.mark.parametrize("argv", [
        ("solve", "--p", "5", "--n", "16", "--modes", "3",
         "--epsilon", "1e-4"),
        ("mesh-dump", "--n", "16", "--epsilon", "1e-4"),
        ("interp-study", "--n", "16,32", "--epsilon", "1e-4"),
    ], ids=["solve", "mesh-dump", "interp-study"])
    def test_identical_calls_write_identical_files(self, tmp_path, capsys,
                                                   argv):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc, stdout, _ = run(capsys, *argv, "--out", str(out))
            assert rc == 0
            outputs.append((stdout.replace(str(out), "OUT"),
                            {f.name: f.read_bytes() for f in out.iterdir()}))
        assert outputs[0] == outputs[1]

    # on the uniform meshes every node (N = 16) or every third node
    # (N = 24) is also a grid point
    @pytest.mark.parametrize("mesh,n", [("uniform", 16), ("uniform", 24),
                                        ("exp", 16)])
    def test_x_column_is_grid_and_nodes(self, tmp_path, capsys, mesh, n):
        rc, _, _ = run(capsys, "solve", "--p", "4", "--n", str(n),
                       "--epsilon", "1e-3", "--mesh", mesh, "--modes", "2",
                       "--out", str(tmp_path))
        assert rc == 0
        nodes = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=4,
                                    n_elements=n, kind=mesh)).nodes
        xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001), nodes]))
        expect = ["%.17g" % x for x in xs.tolist()]
        for m in (1, 2):
            lines = (tmp_path / f"mode_{m}.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in lines[1:]] == expect

    def test_every_command_shares_one_parser(self, capsys):
        cli._cached_parser.cache_clear()
        for argv in (["bogus"], [], ["--epsilon", "1e-2", "solve"], ["-x"]):
            rc, _, err = run(capsys, *argv)
            assert rc == 2 and err.startswith("error: InvalidSpec")
        parser = cli._cached_parser()
        for name in COMMANDS:
            assert cli._parse_options([name]).command == name
        assert cli._cached_parser() is parser
        assert cli._cached_parser.cache_info().currsize == 1


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
