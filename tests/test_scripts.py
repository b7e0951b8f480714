"""scripts/paper_tables.py: the CSVs of `gwgfem run`, one FAILED line per
failing run of each kind that exits 3, the --only and --lambdas selections,
and --levels checked before any run."""

import importlib.util
import pathlib

import pytest

from gwgfem import cli, postproc
from gwgfem.solver import SolverError
from gwgfem.spaces import SpaceConditioningError

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "paper_tables.py"


@pytest.fixture
def tables():
    spec = importlib.util.spec_from_file_location("paper_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub_report(config):
    return postproc.ConvergenceReport.from_errors(
        list(config.levels), {k: [1.0] * len(config.levels) for k in postproc.NORM_KEYS})


def test_csvs_equal_gwgfem_run(tables, tmp_path):
    code = tables.main(["--levels", "2,4", "--lambdas", "1e6", "--only", "rect_p1_p0",
                        "--outdir", str(tmp_path / "tables")])
    assert code == 0
    written = sorted(p.name for p in (tmp_path / "tables").iterdir())
    assert written == ["rect_p1_p0.csv", "rect_p1_p0_qb_lam1e+06.csv"]
    for name, flags in (("rect_p1_p0.csv", []),
                        ("rect_p1_p0_qb_lam1e+06.csv",
                         ["--example", "2", "--lambda", "1e6", "--gamma", "-1"])):
        out = tmp_path / name
        assert cli.main(["run", "--levels", "2,4", "--out", str(out)] + flags) == 0
        assert (tmp_path / "tables" / name).read_bytes() == out.read_bytes()


@pytest.mark.parametrize("failure", [
    SolverError("injected failure at level 2"),
    SpaceConditioningError(0, 1e13, 8),
    RuntimeWarning("overflow encountered in divide"),
], ids=lambda exc: type(exc).__name__)
def test_failing_run_prints_failed_and_the_rest_go_on(tables, tmp_path, monkeypatch, capsys,
                                                      failure):
    # each of cli.RUN_FAILURES, the failures `gwgfem run` maps to exit 3
    assert isinstance(failure, cli.RUN_FAILURES)
    real = tables.run_convergence

    def fail_example1(config):
        if config.example == 1:
            raise failure
        return real(config)

    monkeypatch.setattr(tables, "run_convergence", fail_example1)
    code = tables.main(["--levels", "2", "--lambdas", "1e6", "--only", "rect_p1_p0",
                        "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 3
    assert [line for line in out.splitlines() if "FAILED" in line] == \
        [f"== rect_p1_p0  FAILED: {failure}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rect_p1_p0_qb_lam1e+06.csv"]


def test_only_and_lambdas_select_by_csv_name(tables, tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "run_convergence", _stub_report)
    example1 = {b[0] for b in tables.BLOCKS if b[1] == 1}
    example2 = {f"{b[0]}_lam{lam}" for b in tables.BLOCKS if b[1] == 2
                for lam in ("1", "1e+06")}
    assert (len(example1), len(example2)) == (17, 24)
    for i, (flags, names) in enumerate(((["--only", "_lam"], example2),
                                        (["--lambdas", ""], example1),
                                        (["--only", "rect_p1_p0.csv"], {"rect_p1_p0"}))):
        outdir = tmp_path / str(i)
        assert tables.main(flags + ["--levels", "2", "--outdir", str(outdir)]) == 0
        assert {p.name for p in outdir.iterdir()} == {f"{n}.csv" for n in names}


def test_bad_levels_exit_2_before_any_run(tables, tmp_path, monkeypatch):
    def no_run(config):
        raise AssertionError("a run started before --levels was rejected")

    monkeypatch.setattr(tables, "run_convergence", no_run)
    for levels in ("4,x", "0", "4,-8", ""):
        with pytest.raises(SystemExit) as exc:
            tables.main(["--levels", levels, "--outdir", str(tmp_path)])
        assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_levels_read_as_gwgfem_run_reads_them(tables, tmp_path, monkeypatch):
    # one level parser: a trailing comma is dropped, as `gwgfem run` drops it
    seen = []

    def record(config):
        seen.append(config.levels)
        return _stub_report(config)

    monkeypatch.setattr(tables, "run_convergence", record)
    assert tables.main(["--levels", "2,4,", "--only", "rect_p1_p0.csv",
                        "--outdir", str(tmp_path)]) == 0
    assert seen == [cli._parse_levels("2,4,")] == [(2, 4)]
