import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwgfem
from gwgfem.cli import (
    ConfigError,
    EXIT_ASSUMPTIONS,
    EXIT_CONFIG,
    EXIT_OK,
    RunConfig,
    _parse_levels,
    check_assumptions,
    main,
    run_convergence,
)


@pytest.fixture
def no_spaces(monkeypatch):
    """Fail the test if a level's spaces are built."""
    def fail(*args, **kwargs):
        raise AssertionError("a level was built before the config was rejected")

    monkeypatch.setattr(gwgfem.cli, "build_spaces", fail)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.rho, cfg.gamma, cfg.mu, cfg.seed) == (1.0, -1.0, 0.5, 0)

    @pytest.mark.parametrize("kwargs", [
        dict(mesh="hex"),
        dict(levels=()),
        dict(levels=(0,)),
        dict(interior="p3"),
        dict(boundary="p9"),
        dict(rb="projection"),
        dict(example=7),
        dict(mu=-1.0),
        dict(quad_degree=99),
        dict(fmt="yaml"),
        dict(seed=-1),
        dict(lam=float("nan")),
        dict(mu=float("inf")),
        dict(rho=float("nan")),
        dict(gamma=float("-inf")),
        dict(interior="lrelu:nan"),
        dict(interior="lrelu:inf"),
        dict(out="/"),
        dict(out="/nonexistent-dir/x.csv"),
        dict(interior="lrelufoo:0.1"),
        dict(quad_degree=1),
        dict(out="a\0b.csv"),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs).validate()

    def test_lrelu_string_accepted(self):
        RunConfig(interior="lrelu:0.1").validate()

    def test_level_list_tokens(self):
        # spaces around a token are dropped; a space inside one is an error,
        # not one level at n = 816
        assert _parse_levels(" 8, 16 ,32,") == (8, 16, 32)
        with pytest.raises(argparse.ArgumentTypeError, match="invalid level list '8 16'"):
            _parse_levels("8 16")

    @pytest.mark.parametrize("levels", ["1_6", "\uff12", "8,+16", "8,-16"])
    def test_level_list_takes_ascii_digits_only(self, levels, capsys):
        # int() reads "1_6" as 16 and the fullwidth two as 2
        with pytest.raises(argparse.ArgumentTypeError, match="invalid level list"):
            _parse_levels(levels)
        assert main(["run", "--levels", levels]) == EXIT_CONFIG
        assert "invalid level list" in capsys.readouterr().err


class TestRun:
    def test_single_level_blank_rates(self, capsys):
        code = main(["run", "--mesh", "rect", "--levels", "8",
                     "--interior", "p1", "--boundary", "p0", "--rb", "qb"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        rows = out.strip().split("\n")
        assert len(rows) == 2
        assert rows[1].startswith("8,0.125,")
        assert rows[1].endswith(",")  # blank trailing rate

    def test_multi_level_has_first_rate(self, capsys):
        code = main(["run", "--mesh", "rect", "--levels", "4,8",
                     "--interior", "p1", "--boundary", "p0", "--rb", "qb"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        first = out.strip().split("\n")[1].split(",")
        assert first[3] != ""  # seeded by the unreported coarser level

    def test_bad_flag_exits_config(self, monkeypatch, capsys):
        from gwgfem import cli as climod

        def no_solve(*args):
            raise AssertionError("a level was solved before the config was rejected")

        monkeypatch.setattr(climod, "_solve_level", no_solve)
        for flags in (["--levels", "abc"],
                      ["--levels", "4", "--interior", "sin", "--seed", "-1"],
                      ["--levels", "4", "--lambda", "nan"],
                      ["--levels", "2,4", "--interior", "lrelu:nan"],
                      ["--levels", "2,4", "--interior", "lrelu:inf"],
                      ["--levels", "2,4", "--out", "/"],
                      ["--levels", "2,4", "--out", "/nonexistent-dir/x.csv"],
                      ["--levels", "2,4", "--interior", "lrelufoo:1.0"]):
            code = main(["run", "--mesh", "rect"] + flags)
            assert code == EXIT_CONFIG
            assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["run", "--bogus"], [], ["run", "--seed", "x"],
                                      ["run", "--lambda", "x"], ["run", "--mesh", "hex"]])
    def test_argument_error_exits_config(self, argv, capsys):
        # argparse's errors return the exit code too, not SystemExit
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")

    def test_rb_identity_flag(self, capsys):
        assert main(["run", "--mesh", "rect", "--levels", "2", "--rb", "identity"]) == EXIT_OK

    def test_failed_write_exits_config(self, monkeypatch, tmp_path, capsys):
        # an output path that passed validation and still cannot be written
        from gwgfem import cli as climod

        monkeypatch.setattr(climod.RunConfig, "validate", lambda self: self)
        for cmd in ("run", "check"):
            code = main([cmd, "--mesh", "rect", "--levels", "2", "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("configuration error: cannot write ")
            assert err.count("\n") == 1

    def test_table_format(self, capsys):
        code = main(["run", "--mesh", "rect", "--levels", "4",
                     "--format", "table"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.split("\n")[1].strip().startswith("1/4")

    def test_deterministic_output(self, tmp_path):
        args = ["run", "--mesh", "rect", "--levels", "2,4", "--interior", "sin",
                "--boundary", "p0", "--rb", "qb", "--seed", "11"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == EXIT_OK
        assert main(args + ["--out", str(f2)]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("flags,expected", [
        (["--mesh", "tri", "--interior", "p1", "--boundary", "p1", "--levels", "8,16,32"],
         "level,h,err_u0_l2,rate_u0_l2,err_ub_l2,rate_ub_l2,err_u0_inf,"
         "rate_u0_inf,err_ub_inf,rate_ub_inf\n"
         "8,0.125,4.86e-03,1.98,3.44e-03,1.91,5.47e-03,1.94,2.85e-03,1.40\n"
         "16,0.0625,1.22e-03,1.99,8.94e-04,1.94,1.40e-03,1.97,9.07e-04,1.65\n"
         "32,0.03125,3.06e-04,2.00,2.27e-04,1.98,3.61e-04,1.95,2.63e-04,1.78\n"),
        (["--mesh", "tri", "--interior", "p1", "--boundary", "p0", "--rb", "id", "--gamma", "0",
          "--lambda", "1e6", "--example", "2", "--levels", "8,16", "--strict"],
         "level,h,err_u0_l2,rate_u0_l2,err_ub_l2,rate_ub_l2,err_u0_inf,"
         "rate_u0_inf,err_ub_inf,rate_ub_inf\n"
         "8,0.125,1.89e-02,0.88,4.57e-02,1.01,1.96e-02,0.74,1.32e-02,0.49\n"
         "16,0.0625,1.00e-02,0.91,2.31e-02,0.98,1.11e-02,0.82,8.38e-03,0.66\n"),
        (["--mesh", "tri", "--interior", "sin", "--boundary", "rm", "--levels", "8,16",
          "--seed", "3"],
         "level,h,err_u0_l2,rate_u0_l2,err_ub_l2,rate_ub_l2,err_u0_inf,"
         "rate_u0_inf,err_ub_inf,rate_ub_inf\n"
         "8,0.125,4.89e-03,1.98,2.24e-02,1.09,5.48e-03,1.95,2.92e-03,1.42\n"
         "16,0.0625,1.23e-03,1.99,1.09e-02,1.04,1.42e-03,1.94,9.11e-04,1.68\n"),
        (["--mesh", "rect", "--interior", "p1", "--boundary", "rm", "--levels", "8,16,32"],
         "level,h,err_u0_l2,rate_u0_l2,err_ub_l2,rate_ub_l2,err_u0_inf,"
         "rate_u0_inf,err_ub_inf,rate_ub_inf\n"
         "8,0.125,8.36e-03,1.94,1.80e-02,1.16,1.00e-02,1.86,7.46e-03,1.43\n"
         "16,0.0625,2.12e-03,1.98,8.46e-03,1.09,2.82e-03,1.83,2.22e-03,1.75\n"
         "32,0.03125,5.33e-04,1.99,4.11e-03,1.04,7.60e-04,1.89,6.10e-04,1.86\n"),
    ], ids=["tri-p1p1", "tri-locking", "tri-sin", "rect-p1rm"])
    def test_golden_csv(self, capsys, flags, expected):
        # reference CSV text: neither the element kernel's arithmetic nor
        # the order the edge system is numbered and factored in may move a
        # printed digit
        assert main(["run"] + flags) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_different_seeds_change_random_runs(self, tmp_path):
        base = ["run", "--mesh", "tri", "--levels", "2,4", "--interior", "sigmoid",
                "--boundary", "p0", "--rb", "id", "--gamma", "0"]
        f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(base + ["--seed", "1", "--out", str(f1)]) == EXIT_OK
        assert main(base + ["--seed", "2", "--out", str(f2)]) == EXIT_OK
        assert f1.read_text() != f2.read_text()

    def test_condense_matches_default(self, tmp_path):
        base = ["run", "--mesh", "rect", "--levels", "2,4"]
        f1, f2 = tmp_path / "plain.csv", tmp_path / "cond.csv"
        assert main(base + ["--out", str(f1)]) == EXIT_OK
        assert main(base + ["--condense", "--out", str(f2)]) == EXIT_OK
        assert f1.read_text() == f2.read_text()

    def test_negative_exponent_value_is_not_a_flag(self, tmp_path, capsys):
        # argparse's own pattern reads "-1e-3" as an option string
        base = ["run", "--mesh", "rect", "--levels", "2,4"]
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text("gamma=-1e-3\n")
        outs = [tmp_path / f"{i}.csv" for i in range(3)]
        for argv, out in zip((["--gamma", "-1e-3"], ["--gamma=-1e-3"],
                              ["--config", str(cfgfile)]), outs):
            assert main(base + argv + ["--out", str(out)]) == EXIT_OK
        assert outs[0].read_text() == outs[1].read_text() == outs[2].read_text()
        default = tmp_path / "default.csv"
        assert main(base + ["--out", str(default)]) == EXIT_OK
        assert default.read_text() != outs[0].read_text()
        capsys.readouterr()
        assert main(base + ["--gamma", "-x"]) == EXIT_CONFIG
        assert "argument --gamma: expected one argument" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text(
            "mesh=rect\nlevels=2,4\ninterior=p1\nboundary=p0\nrb=qb\n"
            "lambda=2.5\n# a comment\nformat=csv\n")
        out1 = tmp_path / "o1.csv"
        assert main(["run", "--config", str(cfgfile), "--out", str(out1)]) == EXIT_OK
        # flag overrides the file value
        out2 = tmp_path / "o2.csv"
        assert main(["run", "--config", str(cfgfile), "--lambda", "1.0",
                     "--out", str(out2)]) == EXIT_OK
        assert out1.read_text() != out2.read_text()

    def test_config_file_unknown_key(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        # an unknown key, non-numeric values of numeric keys, then
        # misspelled switches
        for text in ("meshes=rect\n", "seed=abc\n", "lambda=big\n",
                     "strict=ture\n", "condense=maybe\n"):
            cfgfile.write_text(text)
            assert main(["run", "--config", str(cfgfile)]) == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [("levels", "2,x"), ("levels", "8 16"),
                                            ("seed", "abc")])
    def test_config_value_fails_as_its_flag(self, key, value, tmp_path, capsys):
        # a file's line is read as the flag it names, by the same parser
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{key}={value}\n")
        assert main(["run", "--config", str(cfgfile)]) == EXIT_CONFIG
        from_file = capsys.readouterr().err
        assert main(["run", f"--{key}", value]) == EXIT_CONFIG
        assert from_file == capsys.readouterr().err
        assert from_file.startswith(f"configuration error: argument --{key}: invalid ")

    @pytest.mark.parametrize("text", ["mesh\n", "config=other.cfg\n", "conf=other.cfg\n"],
                             ids=["no-equals", "config-key", "config-prefix"])
    def test_config_line_without_value_or_naming_a_config(self, text, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert main(["run", "--config", str(cfgfile)]) == EXIT_CONFIG
        assert "malformed config line" in capsys.readouterr().err

    def test_config_keys_are_flag_names(self, tmp_path, capsys):
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text("levels=4\nformat=table\n")
        assert main(["run", "--config", str(cfgfile)]) == EXIT_OK
        assert capsys.readouterr().out.split("\n")[1].strip().startswith("1/4")
        # a RunConfig field name that is not a flag is an unknown key
        cfgfile.write_text("levels=4\nfmt=table\n")
        assert main(["run", "--config", str(cfgfile)]) == EXIT_CONFIG
        assert "unrecognized arguments: --fmt=table" in capsys.readouterr().err

    def test_config_switch_off_and_strict_flag(self, tmp_path, capsys):
        # p0/qb is inadmissible on tri: the file's off switch runs it, the
        # command line's --strict overrides the file and stops it
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text("mesh=tri\nlevels=2\nboundary=p0\nrb=qb\nstrict=off\n")
        assert main(["run", "--config", str(cfgfile)]) == EXIT_OK
        assert main(["run", "--config", str(cfgfile), "--strict"]) == EXIT_ASSUMPTIONS
        assert "assumption failure" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config-line", "config-path"])
    def test_nul_in_path_exits_config_before_any_level(self, source, tmp_path, no_spaces,
                                                       capsys):
        # a shell cannot pass a NUL in argv, so these go through main()
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text("out=a\0b.csv\n")
        argv = {"flag": ["--out", "a\0b.csv"], "config-line": ["--config", str(cfgfile)],
                "config-path": ["--config", str(cfgfile) + "\0"]}[source]
        assert main(["run", "--levels", "2", *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")

    def test_undecodable_config_file_exits_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(b"mesh=\xff\n")
        assert main(["run", "--config", str(cfgfile)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_run_convergence_rates_shape(self):
        rep = run_convergence(RunConfig(mesh="rect", levels=(2, 4)))
        assert rep.levels == [2, 4]
        for key in rep.rate_columns:
            assert len(rep.rate_columns[key]) == 2
            assert rep.rate_columns[key][0] is not None

    def test_solver_failure_exit_code(self, monkeypatch, capsys):
        from gwgfem import cli as climod
        from gwgfem import solver, spaces
        from gwgfem.solver import SolverError

        def boom(config):
            raise SolverError("injected failure at level 8")

        with monkeypatch.context() as patch:
            patch.setattr(climod, "run_convergence", boom)
            code = climod.main(["run", "--mesh", "rect", "--levels", "8"])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err

        # the factorization cannot meet a zero residual tolerance
        with monkeypatch.context() as patch:
            patch.setattr(solver, "RESIDUAL_TOL", 0.0)
            code = climod.main(["run", "--mesh", "rect", "--levels", "2"])
        assert code == 3
        assert "solver failure: factorization residual" in capsys.readouterr().err

        # no activation basis can meet the Gram condition limit
        monkeypatch.setattr(spaces, "GRAM_CONDITION_LIMIT", 1.0)
        code = climod.main(["run", "--mesh", "rect", "--levels", "2",
                            "--interior", "sin"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("space conditioning failure: element 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["run"], ["run", "--strict"]], ids=["run", "strict"])
    def test_overflowing_space_exits_solver(self, command, capsys):
        # lrelu:1e300 overflows the Gram matrices to inf: every draw is
        # rejected, with no traceback; --strict checks the pair first,
        # which samples no space, then the run samples and fails
        code = main(command + ["--boundary", "p1", "--levels", "2,4",
                               "--interior", "lrelu:1e300"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("space conditioning failure: element 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["1e-310", "1e-300"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_nonfinite_data_exits_solver(self, lam, capsys):
        # x / lambda overflows in the Dirichlet data of example 2 (numpy
        # warns of it): the residual is not finite, which is a solver
        # failure, not a result
        code = main(["run", "--example", "2", "--lambda", lam, "--levels", "2,4"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("solver failure") == 1
        assert "solver failure: factorization residual nan" in captured.err

    @pytest.mark.parametrize("lam", ["1e-310", "1e-300"])
    @pytest.mark.filterwarnings("error")
    def test_nonfinite_data_exits_solver_under_warnings_as_errors(self, lam, capsys):
        # as ``python -W error``: numpy's overflow warning is raised where the
        # data is evaluated, and is still a solver failure on one line
        code = main(["run", "--example", "2", "--lambda", lam, "--levels", "2,4"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("solver failure: overflow encountered")
        assert captured.err.count("\n") == 1


def test_no_scipy_at_run_time(tmp_path):
    # the run-time path is numpy only: a study and a check in a fresh
    # interpreter load no scipy module, at import or later
    out = str(tmp_path / "study.csv")
    code = (
        "import sys\n"
        "from gwgfem import cli\n"
        f"assert cli.main(['run', '--levels', '2,4', '--out', {out!r}]) == 0\n"
        "assert cli.main(['check', '--levels', '2']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    path = [str(Path(gwgfem.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestCheck:
    def test_admissible_pair(self, capsys):
        code = main(["check", "--mesh", "tri", "--levels", "4",
                     "--boundary", "rm", "--rb", "qb"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "ADMISSIBLE" in out
        assert "FAIL" not in out

    def test_p0_projection_fails_rigid_motion(self, capsys):
        code = main(["check", "--mesh", "tri", "--levels", "4",
                     "--boundary", "p0", "--rb", "qb"])
        out = capsys.readouterr().out
        assert code == EXIT_OK  # reporting is not an error without --strict
        assert "rigid-motion invariance: FAIL" in out
        assert "INADMISSIBLE" in out

    def test_identity_always_admissible(self, capsys):
        code = main(["check", "--mesh", "rect", "--levels", "4",
                     "--boundary", "p0", "--rb", "id"])
        assert code == EXIT_OK
        assert "result: ADMISSIBLE" in capsys.readouterr().out

    def test_strict_failure_exit_code(self, capsys):
        code = main(["check", "--mesh", "tri", "--levels", "4",
                     "--boundary", "p0", "--rb", "qb", "--strict"])
        assert code == EXIT_ASSUMPTIONS

    def test_strict_blocks_inadmissible_run(self, capsys):
        code = main(["run", "--mesh", "tri", "--levels", "2",
                     "--boundary", "p0", "--rb", "qb", "--strict"])
        assert code == EXIT_ASSUMPTIONS

    def test_check_assumptions_api(self):
        (rm_chk,) = check_assumptions(RunConfig(mesh="tri", levels=(4,),
                                                boundary="p1", rb="qb"))
        assert rm_chk.passed

    def test_check_samples_no_interior_space(self):
        # no predicate reads the interior spaces: a cos space that stays
        # ill-conditioned at n=32 (element 22) does not fail the check
        checks = check_assumptions(RunConfig(mesh="tri", interior="cos", boundary="p1",
                                             levels=(32,)))
        assert len(checks) == 1 and checks[0].passed

    @pytest.mark.parametrize("interior, levels", [("cos", "32"), ("lrelu:1e300", "2,4")],
                             ids=["cos", "lrelu"])
    def test_check_ignores_interior_conditioning(self, interior, levels, capsys):
        # neither space can be sampled at these levels: the run exits 3
        code = main(["check", "--mesh", "tri", "--interior", interior, "--levels", levels,
                     "--boundary", "p1"])
        assert code == EXIT_OK
        assert "result: ADMISSIBLE" in capsys.readouterr().out

    @pytest.mark.parametrize("mesh", ["tri", "rect"])
    def test_p0_residual_reads_no_interior_space_or_degree(self, mesh, capsys):
        # the check builds its own two-point rule: constants miss the
        # rotation s (-t_y, t_x) there by 1/(2 sqrt 3)
        lines = set()
        for extra in (["--interior", "p1"], ["--interior", "sin"], ["--interior", "relu"],
                      ["--quad-degree", "2"], ["--quad-degree", "10"]):
            assert main(["check", "--mesh", mesh, "--levels", "8", "--boundary", "p0",
                         "--rb", "qb", *extra]) == EXIT_OK
            lines.add(capsys.readouterr().out.splitlines()[1])
        assert len(lines) == 1
        assert "residual 2.887e-01" in lines.pop()

    @pytest.mark.parametrize("boundary", ["p0", "p1", "rm"])
    def test_check_degree_one_is_config_error(self, boundary, capsys):
        # one point cannot carry an element space; the check's own rule
        # would not read the degree
        code = main(["check", "--quad-degree", "1", "--boundary", boundary, "--levels", "2"])
        assert code == EXIT_CONFIG
        assert "quadrature degree must be in 2..40" in capsys.readouterr().err

    @pytest.mark.parametrize("boundary", ["p0", "p1", "rm"])
    def test_run_degree_one_is_config_error_before_any_level(self, boundary, no_spaces,
                                                             capsys):
        code = main(["run", "--quad-degree", "1", "--boundary", boundary, "--levels", "2,4"])
        assert code == EXIT_CONFIG
        assert "quadrature degree must be in 2..40" in capsys.readouterr().err
