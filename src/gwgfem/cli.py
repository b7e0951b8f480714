"""Command-line driver for single solves and convergence studies.

Two subcommands:

* ``run``   -- convergence study over a list of mesh levels; emits a CSV
               or aligned table of errors and rates.
* ``check`` -- evaluate the admissibility predicate (rigid-motion
               invariance of R_b) for the configured (boundary space,
               R_b) pair on the coarsest level's mesh.

Exit codes: 0 success, 2 configuration error (a bad argument, or an output
path that cannot be written), 3 solver failure (or an element space that stays
ill-conditioned after resampling, or a numerical warning such as an
overflow in the data when warnings are errors, ``python -W error``),
4 assumption-check failure under --strict.

Element interiors are always condensed out of the global system;
``--condense`` (the ``condense`` config key, ``RunConfig.condense``) is
accepted for compatibility and has no effect.

Reproducibility: spaces at level n are sampled from one PCG64 stream
seeded by the seed sequence (seed, n), so identical configs and seeds give
bitwise-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, fields

from . import assembly, postproc, solver
from .mesh import MAX_QUAD_DEGREE, build_rectangular, build_triangular
from .spaces import SpaceConditioningError, build_spaces, parse_boundary, parse_interior
from .weakops import check_rigid_motion_invariance, parse_rb

__all__ = ["RunConfig", "ConfigError", "RUN_FAILURES", "run_convergence", "check_assumptions",
           "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ASSUMPTIONS = 4


class ConfigError(ValueError):
    pass


# what a run maps to exit 3; a RuntimeWarning only when warnings are errors
RUN_FAILURES = (solver.SolverError, SpaceConditioningError, RuntimeWarning)


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration (defaults: rho=1, gamma=-1, mu=0.5)."""

    mesh: str = "rect"
    levels: tuple = (8, 16, 32, 64)
    interior: str = "p1"
    boundary: str = "p0"
    rb: str = "qb"
    gamma: float = -1.0
    rho: float = 1.0
    mu: float = 0.5
    lam: float = 1.0
    example: int = 1
    seed: int = 0
    quad_degree: int | None = None
    condense: bool = False  # no effect: condensation is always on
    strict: bool = False
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> "RunConfig":
        if self.mesh not in ("rect", "tri"):
            raise ConfigError(f"unknown mesh kind {self.mesh!r}")
        if not self.levels or any(n < 1 for n in self.levels):
            raise ConfigError("levels must be positive integers")
        try:
            parse_interior(self.interior)
            parse_boundary(self.boundary)
            parse_rb(self.rb)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.example not in (1, 2):
            raise ConfigError(f"unknown example {self.example}")
        if not all(math.isfinite(v) for v in (self.mu, self.lam, self.rho, self.gamma)):
            raise ConfigError("mu, lambda, rho, gamma must be finite")
        if self.mu <= 0 or self.lam <= 0 or self.rho <= 0:
            raise ConfigError("mu, lambda, rho must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.quad_degree is not None and not 2 <= self.quad_degree <= MAX_QUAD_DEGREE:
            raise ConfigError(f"quadrature degree must be in 2..{MAX_QUAD_DEGREE}")
        if self.fmt not in ("csv", "table"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        if self.out and "\0" in self.out:
            raise ConfigError(f"cannot write {self.out!r}: the path holds a NUL byte")
        if self.out and os.path.isdir(self.out):
            raise ConfigError(f"cannot write {self.out}: it is a directory")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ConfigError(f"cannot write {self.out}: no such directory")
        return self


def _mesh(config: RunConfig, n: int):
    return (build_rectangular if config.mesh == "rect" else build_triangular)(n)


def _solve_level(config: RunConfig, case, n: int):
    """The errors of level ``n``, its spaces drawn from the stream seeded by
    ``(config.seed, n)``."""
    mesh = _mesh(config, n)
    spaces = build_spaces(mesh, parse_interior(config.interior, seed=config.seed),
                          parse_boundary(config.boundary), config.quad_degree,
                          seed_entropy=(config.seed, n))
    system = assembly.assemble(mesh, spaces, parse_rb(config.rb), config.mu, config.lam,
                               config.rho, config.gamma, case.f, case.g)
    report = solver.solve_system(system)
    wf = assembly.extract_solution(system, report.x)
    return postproc.error_norms(mesh, spaces, wf, case.u)


def run_convergence(config: RunConfig) -> postproc.ConvergenceReport:
    """Run the study: per level build mesh, sample spaces, assemble, solve,
    and compute the four norms; aggregate rates.

    For multi-level runs one additional, unreported level at half the
    coarsest resolution seeds the first reported rate; a single-level run
    reports blank rates.
    """
    config = config.validate()
    case = postproc.manufactured(f"example{config.example}", config.mu, config.lam)

    levels = list(config.levels)
    seed_errors = None
    if len(levels) >= 2 and levels[0] % 2 == 0 and levels[0] >= 2:
        seed_errors = _solve_level(config, case, levels[0] // 2).as_dict()

    errors = {k: [] for k in postproc.NORM_KEYS}
    for n in levels:
        norms = _solve_level(config, case, n)
        for k, v in norms.as_dict().items():
            errors[k].append(v)
    return postproc.ConvergenceReport.from_errors(levels, errors, seed_errors)


def check_assumptions(config: RunConfig):
    """Evaluate the admissibility predicate, rigid-motion invariance of R_b,
    for the configured (edge space, R_b) pair on the coarsest configured
    mesh; reads no interior space or quadrature degree.  Returns a 1-tuple."""
    config = config.validate()
    return (check_rigid_motion_invariance(_mesh(config, min(config.levels)),
                                          parse_boundary(config.boundary), parse_rb(config.rb)),)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    # -1e-3 is a negative value, not a flag: argparse's own pattern misses exponents
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--mesh", help="rect or tri")
    p.add_argument("--levels", type=_parse_levels,
                   help="comma-separated subdivision counts, e.g. 8,16,32,64")
    p.add_argument("--interior",
                   help="interior space: p1, sin, cos, sigmoid, relu, lrelu:<eps>")
    p.add_argument("--boundary", help="edge space: p0, p1, rm")
    p.add_argument("--rb", help="edge operator R_b: qb, or id (identity)")
    p.add_argument("--gamma", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--example", type=int, help="manufactured solution: 1 or 2")
    p.add_argument("--seed", type=int)
    p.add_argument("--quad-degree", dest="quad_degree", type=int)
    p.add_argument("--condense", action="store_const", const=True,
                   help="no effect (condensation is always on); accepted for compatibility")
    p.add_argument("--strict", action="store_const", const=True)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", dest="fmt", help="csv or table")


def _parse_levels(text: str) -> tuple:
    """Comma-separated subdivision counts of ASCII digits only: int() would
    also read "1_6" as 16 and a fullwidth digit as its value."""
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not all(tok.isascii() and tok.isdigit() for tok in toks):
        raise argparse.ArgumentTypeError(f"invalid level list {text!r}")
    return tuple(int(tok) for tok in toks)


_SWITCHES = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _config_flags(path: str) -> list:
    """A flat key=value file as the flags it stands for: ``key=value`` is
    ``--key=value`` (``_`` in a key reads as ``-``); a switch's true word is
    the bare flag, its false word no flag."""
    try:
        with open(path) as fh:
            lines = [raw.split("#", 1)[0].strip() for raw in fh]
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or undecodable text
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    flags = []
    for line in filter(None, lines):
        key, eq, val = line.partition("=")
        key, val = key.strip().replace("_", "-"), val.strip()
        if not eq or "config".startswith(key):  # no file names another
            raise ConfigError(f"malformed config line {line!r}")
        if key in ("strict", "condense"):
            if val.lower() not in _SWITCHES:
                raise ConfigError(f"invalid value {val!r} for {key!r}")
            flags += [f"--{key}"] * _SWITCHES[val.lower()]
        else:
            flags.append(f"--{key}={val}")
    return flags


def _emit_output(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # an exit code, not SystemExit, for in-process callers
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="gwgfem",
        description="Generalized weak Galerkin solver for planar linear "
                    "elasticity: convergence studies and admissibility checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a convergence study")
    _add_common_flags(run_p)
    check_p = sub.add_parser("check", help="check admissibility assumptions")
    _add_common_flags(check_p)

    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:  # the file's flags first, so the command line's override them
            args = parser.parse_args([args.command, *_config_flags(args.config), *argv[1:]])
        values = vars(args)
        config = RunConfig(**{f.name: values[f.name] for f in fields(RunConfig)
                              if values[f.name] is not None}).validate()
        if args.command == "check" or config.strict:
            (chk,) = check_assumptions(config)
        if args.command == "check":
            lines = [
                f"mesh={config.mesh} n={min(config.levels)} "
                f"boundary={config.boundary} rb={config.rb}",
                f"{chk.name}: {'PASS' if chk.passed else 'FAIL'} ({chk.detail})",
                f"result: {'ADMISSIBLE' if chk.passed else 'INADMISSIBLE'}",
            ]
            _emit_output("\n".join(lines) + "\n", config.out)
            return EXIT_ASSUMPTIONS if config.strict and not chk.passed else EXIT_OK
        if config.strict and not chk.passed:
            print(f"assumption failure: {chk.name}: {chk.detail}", file=sys.stderr)
            return EXIT_ASSUMPTIONS
        _emit_output(postproc.emit(run_convergence(config), config.fmt), config.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RUN_FAILURES as exc:
        kind = "space conditioning" if isinstance(exc, SpaceConditioningError) else "solver"
        print(f"{kind} failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
