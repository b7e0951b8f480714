import pytest

from gwgfem.cli import (
    ConfigError,
    EXIT_ASSUMPTIONS,
    EXIT_CONFIG,
    EXIT_OK,
    RunConfig,
    check_assumptions,
    main,
    run_convergence,
)


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
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs).validate()

    def test_lrelu_string_accepted(self):
        RunConfig(interior="lrelu:0.1").validate()


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
                      ["--levels", "2,4", "--out", "/nonexistent-dir/x.csv"]):
            code = main(["run", "--mesh", "rect"] + flags)
            assert code == EXIT_CONFIG
            assert "configuration error" in capsys.readouterr().err

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
        (["--interior", "p1", "--boundary", "p1", "--levels", "8,16,32"],
         "level,h,err_u0_l2,rate_u0_l2,err_ub_l2,rate_ub_l2,err_u0_inf,"
         "rate_u0_inf,err_ub_inf,rate_ub_inf\n"
         "8,0.125,4.86e-03,1.98,3.44e-03,1.91,5.47e-03,1.94,2.85e-03,1.40\n"
         "16,0.0625,1.22e-03,1.99,8.94e-04,1.94,1.40e-03,1.97,9.07e-04,1.65\n"
         "32,0.03125,3.06e-04,2.00,2.27e-04,1.98,3.61e-04,1.95,2.63e-04,1.78\n"),
        (["--interior", "p1", "--boundary", "p0", "--rb", "id", "--gamma", "0",
          "--lambda", "1e6", "--example", "2", "--levels", "8,16", "--strict"],
         "level,h,err_u0_l2,rate_u0_l2,err_ub_l2,rate_ub_l2,err_u0_inf,"
         "rate_u0_inf,err_ub_inf,rate_ub_inf\n"
         "8,0.125,1.89e-02,0.88,4.57e-02,1.01,1.96e-02,0.74,1.32e-02,0.49\n"
         "16,0.0625,1.00e-02,0.91,2.31e-02,0.98,1.11e-02,0.82,8.38e-03,0.66\n"),
        (["--interior", "sin", "--boundary", "rm", "--levels", "8,16", "--seed", "3"],
         "level,h,err_u0_l2,rate_u0_l2,err_ub_l2,rate_ub_l2,err_u0_inf,"
         "rate_u0_inf,err_ub_inf,rate_ub_inf\n"
         "8,0.125,4.89e-03,1.98,2.24e-02,1.09,5.48e-03,1.95,2.92e-03,1.42\n"
         "16,0.0625,1.23e-03,1.99,1.09e-02,1.04,1.42e-03,1.94,9.11e-04,1.68\n"),
    ], ids=["tri-p1p1", "tri-locking", "tri-sin"])
    def test_golden_csv(self, capsys, flags, expected):
        # reference CSV text: neither the element kernel's arithmetic nor
        # the order the edge system is numbered and factored in may move a
        # printed digit
        assert main(["run", "--mesh", "tri"] + flags) == EXIT_OK
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

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_overflowing_space_exits_solver(self, command, capsys):
        # lrelu:1e300 overflows the Gram matrices to inf: every draw is
        # rejected, with no traceback
        code = main([command, "--levels", "2,4", "--interior", "lrelu:1e300"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("space conditioning failure: element 0")
        assert err.count("\n") == 1


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
        rm_chk, inj_chk = check_assumptions(RunConfig(mesh="tri", levels=(4,),
                                                      boundary="p1", rb="qb"))
        assert rm_chk.passed and inj_chk.passed
