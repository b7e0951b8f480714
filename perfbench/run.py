"""Convergence-study benchmark for gwgfem.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --seed <n>      # every workload, untraced then traced

``--trace 0`` measures the end-to-end metrics: it calls
``gwgfem.cli.main`` with the arguments a user gives ``gwgfem run`` until
``--seconds`` have passed (at least once), as a closed loop in this one
process, and times fresh interpreters up to a validated config before and
after (``setup_s``).  ``--trace 1`` runs
one untraced pass, then one pass that calls the functions
``cli._solve_level`` calls, in its order, with a span around each call, and
reports per-module metrics.  The traced CSV must equal the untraced one
byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names, units
and workload names come from ``BENCHMARK.json``.  Output files go to
``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

# Interpreters timed before the studies, and again after them (setup_s).
SETUP_PROBES = 6
RESIDUAL_LIMIT = 1e-12

# Fresh interpreter: import the CLI as `gwgfem run` does and validate the
# workload's config, then print the monotonic clock (shared by processes).
SETUP_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from gwgfem import cli
kw = json.loads(sys.argv[2])
cli.RunConfig(**dict(kw, levels=tuple(kw["levels"]))).validate()
print(repr(time.monotonic()))
"""


# --------------------------------------------------------------- workloads

def _rows(csv_text: str) -> list:
    """Parse a `gwgfem run` CSV into dicts of floats (blank rate -> None)."""
    rows = []
    for rec in csv.DictReader(io.StringIO(csv_text)):
        rows.append({k: (int(v) if k == "level" else float(v) if v else None)
                     for k, v in rec.items()})
    return rows


def _rate_in(row: dict, key: str, lo: float, hi: float = float("inf")) -> bool:
    r = row[key]
    return r is not None and lo <= r <= hi


def gate_tri_p1p1(studies: list) -> list:
    """Criterion 2: L2 displacement rates >= 1.9 on every level, and the
    u0 L2 error at 1/64 within 20% of 7.66e-5."""
    bad = []
    for seed, rows in studies:
        for row in rows:
            if not (_rate_in(row, "rate_u0_l2", 1.9) and _rate_in(row, "rate_ub_l2", 1.9)):
                bad.append(f"seed {seed} level {row['level']}: rates "
                           f"{row['rate_u0_l2']}, {row['rate_ub_l2']} below 1.9")
            elif row["level"] == 64 and abs(row["err_u0_l2"] - 7.66e-5) > 0.2 * 7.66e-5:
                bad.append(f"seed {seed} level 64: u0_l2 {row['err_u0_l2']} "
                           f"not within 20% of 7.66e-5")
    return bad


def gate_rect_sin(studies: list) -> list:
    """Criterion 5: the median u0 L2 rate at the finest level over the
    seeds lies in [1.85, 2.1]; a miss fails the finest level of every seed."""
    finest = [rows[-1]["rate_u0_l2"] for _, rows in studies]
    if None not in finest and 1.85 <= statistics.median(finest) <= 2.1:
        return []
    return [f"seed {seed} level {rows[-1]['level']}: median finest u0_l2 rate "
            f"over seeds {finest} outside [1.85, 2.1]" for seed, rows in studies]


def gate_locking(studies: list) -> list:
    """Criterion 4 under --condense: u0 L2 rate at the finest level in
    [0.85, 1.1].  The admissibility check is --strict (exit code 4)."""
    return [f"seed {seed} level {rows[-1]['level']}: u0_l2 rate "
            f"{rows[-1]['rate_u0_l2']} outside [0.85, 1.1]"
            for seed, rows in studies if not _rate_in(rows[-1], "rate_u0_l2", 0.85, 1.1)]


@dataclasses.dataclass(frozen=True)
class Workload:
    """A `gwgfem run` configuration (RunConfig fields), the program seeds
    drawn from the benchmark seed, and the correctness gate on its CSVs."""

    config: dict
    num_seeds: int
    gate: object

    def seeds(self, seed: int) -> list:
        return [seed * self.num_seeds + k for k in range(self.num_seeds)]


_COMMON = dict(mu=0.5, rho=1.0, lam=1.0, gamma=-1.0, example=1)
WORKLOADS = {
    "tri-p1p1-n128": Workload(
        dict(_COMMON, mesh="tri", interior="p1", boundary="p1", rb="qb",
             levels=(16, 32, 64, 128)), 1, gate_tri_p1p1),
    "rect-sin-5seeds": Workload(
        dict(_COMMON, mesh="rect", interior="sin", boundary="p0", rb="qb",
             levels=(32, 64)), 5, gate_rect_sin),
    "tri-locking-condense": Workload(
        dict(_COMMON, mesh="tri", interior="p1", boundary="p0", rb="id",
             gamma=0.0, lam=1e6, example=2, levels=(32, 64, 128),
             condense=True, strict=True), 1, gate_locking),
}

_FLAG = {"lam": "--lambda", "quad_degree": "--quad-degree", "fmt": "--format"}


def run_argv(config: dict, seed: int, out: Path) -> list:
    """The `gwgfem run` arguments a user would type for ``config``."""
    argv = ["run"]
    for key, val in config.items():
        flag = _FLAG.get(key, "--" + key)
        if val is True:
            argv.append(flag)
        elif key == "levels":
            argv += [flag, ",".join(map(str, val))]
        else:
            argv += [flag, repr(val) if isinstance(val, float) else str(val)]
    return argv + ["--seed", str(seed), "--out", str(out)]


def levels_attempted(levels) -> int:
    """Reported levels plus the hidden one at half the coarsest, as the CLI runs."""
    hidden = len(levels) >= 2 and levels[0] % 2 == 0 and levels[0] >= 2
    return len(levels) + hidden


# ------------------------------------------------------------- untraced run

def untraced_pass(name: str, wl: Workload, seed: int) -> dict:
    """One closed-loop pass: `cli.main` once per program seed, in turn.

    Returns wall and CPU seconds inside `cli.main`, levels attempted and
    failed (raised, nonzero exit, or missed the gate), and the CSV texts.
    """
    from gwgfem import cli

    wall = cpu = 0.0
    attempted = 0
    failures = []
    csvs = {}
    for s in wl.seeds(seed):
        out = OUT_DIR / f"{name}-seed{s}.csv"
        out.unlink(missing_ok=True)
        argv = run_argv(wl.config, s, out)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except Exception:  # a level raised: count the study's levels failed
            traceback.print_exc()
            code = None
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        n = levels_attempted(wl.config["levels"])
        attempted += n
        if code != 0:
            failures += [f"seed {s}: `gwgfem {' '.join(argv)}` exited {code}"] * n
        else:
            csvs[s] = out.read_bytes()
    if not failures:
        failures = wl.gate([(s, _rows(raw.decode())) for s, raw in csvs.items()])
    return dict(wall=wall, cpu=cpu, attempted=attempted, failures=failures,
                csvs=csvs)


def setup_seconds(config: dict) -> list:
    """Times from spawning a fresh interpreter until `gwgfem.cli` is
    imported and the config validated, one per probe, in turn."""
    cfg = json.dumps(config)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), cfg],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def end_to_end(name: str, wl: Workload, seed: int, seconds: float) -> tuple:
    probes = setup_seconds(wl.config)
    start = time.perf_counter()
    passes = [untraced_pass(name, wl, seed)]
    # Later passes reuse memory the first one freed, and may grow it a little
    # further; take the peak of the first, so it does not depend on the count.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - start < seconds:
        passes.append(untraced_pass(name, wl, seed))
    probes += setup_seconds(wl.config)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    metrics = {
        "study_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": peak_rss,
        # Host contention only ever adds time; the minimum over probes spread
        # across the run is the steadiest estimate of the start-up cost.
        "setup_s": min(probes),
        "levels_ok_frac": 1.0 - len(failures) / attempted,
    }
    print(f"passes: {len(passes)}, study_s each: {[round(p['wall'], 3) for p in passes]}, "
          f"setup probes: {[round(t, 3) for t in probes]}")
    return metrics, attempted, failures


# --------------------------------------------------------------- traced run

class Tracer:
    """In-memory spans: name, start, end, parent id and run id."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, run: str):
        rec = {"id": len(self.spans), "name": name, "run": run,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def traced_level(tr: Tracer, config, case, n: int, run: str):
    """`cli._solve_level` with a span around each call into a module."""
    from gwgfem import assembly, mesh, postproc, solver, spaces, weakops

    with tr.span("cli.level", run) as level:
        level["n"] = n
        with tr.span("mesh.build", run) as counts:
            build = mesh.build_rectangular if config.mesh == "rect" else mesh.build_triangular
            m = build(n)
            counts["elements"] = m.num_elements
        with tr.span("spaces.build", run) as counts:
            interior = spaces.parse_interior(config.interior, seed=config.seed)
            boundary = spaces.parse_boundary(config.boundary)
            quad = config.quad_degree or spaces.default_quad_degree(interior)
            sp = spaces.build_spaces(m, interior, boundary, quad,
                                     seed_entropy=(config.seed, n))
            counts["max_gram_cond"] = float(sp.gram_condition.max())
        rb = weakops.parse_rb(config.rb)  # a name lookup, left in cli.self
        with tr.span("assembly.assemble", run) as counts:
            system = assembly.assemble(m, sp, rb, config.mu, config.lam, config.rho,
                                       config.gamma, case.f, case.g,
                                       quad_degree=quad, condense=config.condense)
            A = system.matrix
            counts.update(unknowns=A.shape[0], nnz=A.nnz,
                          matrix_bytes=A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)
        with tr.span("solver.solve", run) as counts:
            report = solver.solve_system(system)
            counts.update(method=report.method, residual=report.relative_residual,
                          condition=report.condition_estimate)
        with tr.span("assembly.extract", run):
            wf = assembly.extract_solution(system, report.x)
        with tr.span("postproc.norms", run):
            return postproc.error_norms(m, sp, wf, case.u, quad_degree=quad)


def traced_check(tr: Tracer, cfg, run: str) -> bool:
    """`cli.check_assumptions` in a span; True if the config is admissible."""
    from gwgfem import cli

    with tr.span("weakops.check", run) as counts:
        counts["admissible"] = all(c.passed for c in cli.check_assumptions(cfg))
    return counts["admissible"]


def traced_study(tr: Tracer, config: dict, seed: int):
    """`gwgfem run` for one program seed: the --strict check, the hidden
    level, the reported levels, rates and CSV.  None if the check fails.

    Without --strict the study skips the check.  It is then timed after the
    study, outside the study's span, so that weakops.check_s is the cost of
    the check on every workload and trace.overhead_s does not include it.
    """
    from gwgfem import cli, postproc

    run = f"s{seed}"
    with tr.span("cli.study", run):
        cfg = cli.RunConfig(**config, seed=seed).validate()
        if cfg.strict and not traced_check(tr, cfg, run):
            return None
        case = postproc.manufactured(f"example{cfg.example}", cfg.mu, cfg.lam)
        levels = list(cfg.levels)
        seed_errors = None
        if levels_attempted(levels) > len(levels):
            n = levels[0] // 2
            seed_errors = traced_level(tr, cfg, case, n, f"{run}/n{n}").as_dict()
        errors = {k: [] for k in postproc.NORM_KEYS}
        for n in levels:
            for k, v in traced_level(tr, cfg, case, n, f"{run}/n{n}").as_dict().items():
                errors[k].append(v)
        report = postproc.ConvergenceReport.from_errors(levels, errors, seed_errors)
        text = postproc.emit(report, cfg.fmt)
    if not cfg.strict:
        traced_check(tr, cfg, f"{run}/check")
    return text


# Span name -> per-layer time metric (without the `_s` suffix).
SPAN_METRIC = {
    "mesh.build": "mesh.build", "spaces.build": "spaces.build",
    "weakops.check": "weakops.check",
    "assembly.assemble": "assembly.assemble", "assembly.extract": "assembly.extract",
    "solver.solve": "solver.solve", "postproc.norms": "postproc.norms",
    "cli.study": "cli.self", "cli.level": "cli.self",
}


def child_seconds(spans: list) -> dict:
    """Span id -> summed duration of its direct children."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return covered


def check_nesting(spans: list) -> list:
    """Problems where a child span leaves its parent, or children last
    longer than their parent."""
    bad = []
    for s in spans:
        p = spans[s["parent"]] if s["parent"] is not None else None
        if p and (s["start"] < p["start"] or s["end"] > p["end"]):
            bad.append(f"span {s['name']} {s['run']} outside parent {p['name']}")
    for pid, c in child_seconds(spans).items():
        p = spans[pid]
        if c > p["end"] - p["start"]:
            bad.append(f"children of {p['name']} {p['run']} last {c} s, longer than it")
    return bad


def layer_metrics(spans: list, finest: int, untraced_s: float) -> dict:
    child = child_seconds(spans)
    total = defaultdict(float)
    at_finest = defaultdict(lambda: defaultdict(float))  # metric -> seed -> s
    for s in spans:
        metric = SPAN_METRIC[s["name"]]
        dt = s["end"] - s["start"]
        if metric == "cli.self":
            dt -= child[s["id"]]
        total[metric] += dt
        seed, _, level = s["run"].partition("/")
        if level == f"n{finest}":
            at_finest[metric][seed] += dt

    def counts(name):
        return [s["counts"] for s in spans if s["name"] == name]

    def finest_counts(name):
        return [s["counts"] for s in spans
                if s["name"] == name and s["run"].endswith(f"/n{finest}")]

    solves = counts("solver.solve")
    conds = [c["condition"] for c in solves if c["condition"] is not None]
    assembled = finest_counts("assembly.assemble")[-1]
    out = {f"{m}_s": total[m] for m in sorted(set(SPAN_METRIC.values()))}
    out.update({f"{m}_s.finest": statistics.median(v.values())
                for m, v in at_finest.items()})
    out.update({
        "mesh.elements": finest_counts("mesh.build")[-1]["elements"],
        "spaces.max_gram_cond": max(c["max_gram_cond"] for c in counts("spaces.build")),
        "assembly.unknowns": assembled["unknowns"],
        "assembly.nnz": assembled["nnz"],
        "assembly.matrix_mb": assembled["matrix_bytes"] / 2**20,
        "solver.cg_levels": sum(c["method"] == "cg" for c in solves),
        "solver.max_rel_residual": max(c["residual"] for c in solves),
        "solver.max_condition_estimate": max(conds) if conds else 0.0,
        "trace.overhead_s": sum(s["end"] - s["start"] for s in spans
                                if s["name"] == "cli.study") - untraced_s,
    })
    return out


def per_layer(name: str, wl: Workload, seed: int) -> tuple:
    """One untraced pass, as in ``--trace 0``, then one traced pass."""
    base = untraced_pass(name, wl, seed)
    failures = list(base["failures"])
    tr = Tracer()
    try:
        texts = {s: traced_study(tr, wl.config, s) for s in wl.seeds(seed)}
    except Exception:
        traceback.print_exc()
        return None, base["attempted"], failures + ["traced run raised"]
    finally:
        tr.write(OUT_DIR / f"{name}-seed{seed}-trace.jsonl")

    for s, text in texts.items():
        if s in base["csvs"] and (text or "").encode() != base["csvs"][s]:
            failures.append(f"seed {s}: traced CSV differs from the untraced one")
    for c in (s["counts"] for s in tr.spans if s["name"] == "solver.solve"):
        if not c["residual"] <= RESIDUAL_LIMIT:
            failures.append(f"relative residual {c['residual']:.3e} > {RESIDUAL_LIMIT:.0e}")
    failures += check_nesting(tr.spans)
    finest = max(wl.config["levels"])
    return layer_metrics(tr.spans, finest, base["wall"]), base["attempted"], failures


# -------------------------------------------------------------- environment

def blas_threads() -> dict:
    """OpenBLAS thread counts of the libraries loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[Path(path).name] = fn()
                break
    return found


def git_revision() -> str:
    """The checkout's commit, with "-dirty" when src/ differs from it, or
    "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=60).stdout.strip()
    try:
        sha = git("rev-parse", "--verify", "HEAD")
        dirty = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (sha or "unknown") + ("-dirty" if dirty else "")


def environment() -> dict:
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's BLAS)

    return {"git": git_revision(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_threads": blas_threads()}


# ---------------------------------------------------------------------- main

def _spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; return the object printed as the last line."""
    wl = WORKLOADS[name]
    spec = _spec()
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        values, attempted, failures = per_layer(name, wl, seed)
    else:
        values, attempted, failures = end_to_end(name, wl, seed, seconds)
    for f in failures:
        print(f"FAILED {name}: {f}")
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    if values is not None:
        if set(values) != {m["name"] for m in listed}:
            raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in listed}
    return {"correct": not failures, "attempted": attempted,
            "failed": min(len(failures), attempted), "metrics": metrics}


def print_result(name: str, result: dict) -> None:
    for key, m in result["metrics"].items():
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    code = 0
    for name in (w["name"] for w in _spec()["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            done = subprocess.run(argv, timeout=900)
            code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gwgfem" / "__init__.py").is_file():
        print(f"no gwgfem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds)

    print("environment: " + json.dumps(environment()))
    result = run_one(args.workload, args.seed, seconds, bool(args.trace))
    print_result(args.workload, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
