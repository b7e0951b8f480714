"""Command-line driver for single solves and convergence studies.

Two subcommands:

* ``run``   -- convergence study over a list of mesh levels; emits a CSV
               or aligned table of errors and rates.
* ``check`` -- evaluate the admissibility predicates (rigid-motion
               invariance of R_b and edge-space injectivity) for the
               configured (boundary space, R_b) pair.

Exit codes: 0 success, 2 configuration error (an output path that cannot
be written included), 3 solver failure (or an element space that stays
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
import sys
from dataclasses import dataclass, fields

from . import assembly, postproc, solver
from .mesh import MAX_QUAD_DEGREE, Mesh2D, build_rectangular, build_triangular
from .spaces import (
    SpaceConditioningError,
    build_spaces,
    parse_boundary,
    parse_interior,
)
from .weakops import check_rb_injectivity, check_rigid_motion_invariance, edge_rule, parse_rb

__all__ = ["RunConfig", "ConfigError", "run_convergence", "check_assumptions", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ASSUMPTIONS = 4


class ConfigError(ValueError):
    pass


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
        if self.quad_degree is not None and not 1 <= self.quad_degree <= MAX_QUAD_DEGREE:
            raise ConfigError(
                f"quadrature degree must be in 1..{MAX_QUAD_DEGREE}")
        if self.fmt not in ("csv", "table"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        if self.out and os.path.isdir(self.out):
            raise ConfigError(f"cannot write {self.out}: it is a directory")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ConfigError(f"cannot write {self.out}: no such directory")
        return self


def _build_mesh(kind: str, n: int) -> Mesh2D:
    return build_rectangular(n) if kind == "rect" else build_triangular(n)


def _solve_level(config: RunConfig, case, n: int):
    mesh = _build_mesh(config.mesh, n)
    interior = parse_interior(config.interior, seed=config.seed)
    boundary = parse_boundary(config.boundary)
    rb = parse_rb(config.rb)
    spaces = build_spaces(mesh, interior, boundary, config.quad_degree,
                          seed_entropy=(config.seed, n))
    system = assembly.assemble(mesh, spaces, rb, config.mu, config.lam,
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
    """Evaluate both admissibility predicates on the coarsest configured
    level, on one edge rule of the degree of that level's spaces."""
    config = config.validate()
    n = min(config.levels)
    mesh = _build_mesh(config.mesh, n)
    spaces = build_spaces(mesh, parse_interior(config.interior, seed=config.seed),
                          parse_boundary(config.boundary), config.quad_degree,
                          seed_entropy=(config.seed, n))
    rule = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
    return (check_rigid_motion_invariance(mesh, rule, parse_rb(config.rb)),
            check_rb_injectivity(rule))


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--mesh", choices=["rect", "tri"])
    p.add_argument("--levels", help="comma-separated subdivision counts, e.g. 8,16,32,64")
    p.add_argument("--interior",
                   help="interior space: p1, sin, cos, sigmoid, relu, lrelu:<eps>")
    p.add_argument("--boundary", choices=["p0", "p1", "rm"])
    p.add_argument("--rb", choices=["qb", "id"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--example", type=int, choices=[1, 2])
    p.add_argument("--seed", type=int)
    p.add_argument("--quad-degree", dest="quad_degree", type=int)
    p.add_argument("--condense", action="store_const", const=True,
                   help="no effect (condensation is always on); accepted for compatibility")
    p.add_argument("--strict", action="store_const", const=True)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", dest="fmt", choices=["csv", "table"])


def _parse_levels(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError as exc:
        raise ConfigError(f"invalid level list {text!r}") from exc


def _read_config_file(path: str) -> dict:
    """Flat key=value document mirroring the flag names (lambda -> lam)."""
    values: dict = {}
    aliases = {"lambda": "lam", "format": "fmt", "quad-degree": "quad_degree"}
    convert = dict.fromkeys(("mesh", "interior", "boundary", "rb", "out", "fmt"), str)
    convert.update(dict.fromkeys(("example", "seed", "quad_degree"), int))
    convert.update(dict.fromkeys(("gamma", "rho", "mu", "lam"), float))
    switches = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}
    convert.update(dict.fromkeys(("condense", "strict"), lambda v: switches[v.lower()]))
    convert["levels"] = _parse_levels
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"malformed config line {raw.strip()!r}")
                key, _, val = line.partition("=")
                key = aliases.get(key.strip(), key.strip().replace("-", "_"))
                if key not in convert:
                    raise ConfigError(f"unknown config key {key!r}")
                try:
                    values[key] = convert[key](val.strip())
                except (KeyError, ValueError) as exc:
                    raise ConfigError(f"invalid value {val.strip()!r} for {key!r}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(_read_config_file(args.config))
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = _parse_levels(flag) if f.name == "levels" else flag
    return RunConfig(**values).validate()


def _emit_output(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gwgfem",
        description="Generalized weak Galerkin solver for planar linear "
                    "elasticity: convergence studies and admissibility checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a convergence study")
    _add_common_flags(run_p)
    check_p = sub.add_parser("check", help="check admissibility assumptions")
    _add_common_flags(check_p)

    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
    except (ConfigError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "check" or config.strict:
            checks = check_assumptions(config)
            admissible = all(chk.passed for chk in checks)
        if args.command == "check":
            lines = [
                f"mesh={config.mesh} n={min(config.levels)} "
                f"boundary={config.boundary} rb={config.rb}",
            ]
            for chk in checks:
                status = "PASS" if chk.passed else "FAIL"
                lines.append(f"{chk.name}: {status} ({chk.detail})")
            lines.append(f"result: {'ADMISSIBLE' if admissible else 'INADMISSIBLE'}")
            _emit_output("\n".join(lines) + "\n", config.out)
            return EXIT_ASSUMPTIONS if config.strict and not admissible else EXIT_OK
        if config.strict and not admissible:
            for chk in checks:
                if not chk.passed:
                    print(f"assumption failure: {chk.name}: {chk.detail}",
                          file=sys.stderr)
            return EXIT_ASSUMPTIONS
        _emit_output(postproc.emit(run_convergence(config), config.fmt), config.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except solver.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SpaceConditioningError as exc:
        print(f"space conditioning failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except RuntimeWarning as exc:  # raised only when warnings are errors
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
