#!/usr/bin/env python3
"""The paper's convergence (example 1) and locking (example 2) tables.

Example-1 rows run at lambda = 1 and write <label>.csv in --outdir; example-2
rows, whose error constants grow with lambda only under volumetric locking,
run at each --lambdas value and write <label>_lam<lambda>.csv.  --only keeps
the runs whose CSV name contains it (--only _lam: the locking study alone).
A run that `gwgfem run` would end with exit 3 prints a FAILED line in place of
its table and writes no CSV; the other runs go on, and the script exits 3.
"""

import argparse
import pathlib
import sys
import time

from gwgfem.cli import RUN_FAILURES, RunConfig, _parse_levels, run_convergence
from gwgfem.postproc import emit

# (label, example, mesh, interior, boundary, rb, gamma)
BLOCKS = [
    ("tri_p1_p1", 1, "tri", "p1", "p1", "qb", -1.0),
    ("tri_p1_rm", 1, "tri", "p1", "rm", "qb", -1.0),
    ("tri_p1_p0_divergent", 1, "tri", "p1", "p0", "qb", -1.0),
    ("tri_sin_rm", 1, "tri", "sin", "rm", "qb", -1.0),
    ("tri_sin_p0_divergent", 1, "tri", "sin", "p0", "qb", -1.0),
    ("tri_sigmoid_rm", 1, "tri", "sigmoid", "rm", "qb", -1.0),
    ("tri_sigmoid_p0_divergent", 1, "tri", "sigmoid", "p0", "qb", -1.0),
    ("rect_p1_rm", 1, "rect", "p1", "rm", "qb", -1.0),
    ("rect_p1_p0", 1, "rect", "p1", "p0", "qb", -1.0),
    ("rect_sin_p0", 1, "rect", "sin", "p0", "qb", -1.0),
    ("rect_cos_p0_gamma0", 1, "rect", "cos", "p0", "qb", 0.0),
    ("rect_sigmoid_p0", 1, "rect", "sigmoid", "p0", "qb", -1.0),
    ("rect_lrelu1_p0", 1, "rect", "lrelu:1.0", "p0", "qb", -1.0),
    ("rect_lrelu01_p0_gamma0", 1, "rect", "lrelu:0.1", "p0", "qb", 0.0),
    ("rect_relu_p0", 1, "rect", "relu", "p0", "qb", -1.0),
    ("rect_relu_p0_gamma0", 1, "rect", "relu", "p0", "qb", 0.0),
    ("rect_relu_p0_gamma-2", 1, "rect", "relu", "p0", "qb", -2.0),
    ("rect_p1_p0_qb", 2, "rect", "p1", "p0", "qb", -1.0),
    ("rect_sin_p0_qb", 2, "rect", "sin", "p0", "qb", -1.0),
    ("rect_cos_p0_qb_gamma0", 2, "rect", "cos", "p0", "qb", 0.0),
    ("rect_sigmoid_p0_qb", 2, "rect", "sigmoid", "p0", "qb", -1.0),
    ("rect_lrelu1_p0_qb", 2, "rect", "lrelu:1.0", "p0", "qb", -1.0),
    ("rect_lrelu01_p0_qb_gamma0", 2, "rect", "lrelu:0.1", "p0", "qb", 0.0),
    ("rect_relu_p0_qb", 2, "rect", "relu", "p0", "qb", -1.0),
    ("rect_relu_p0_qb_gamma0", 2, "rect", "relu", "p0", "qb", 0.0),
    ("tri_p1_p0_qb_gamma0", 2, "tri", "p1", "p0", "qb", 0.0),
    ("tri_p1_p0_id_gamma0", 2, "tri", "p1", "p0", "id", 0.0),
    ("tri_sin_p0_id_gamma0", 2, "tri", "sin", "p0", "id", 0.0),
    ("tri_sigmoid_p0_id_gamma0", 2, "tri", "sigmoid", "p0", "id", 0.0),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="CSV output directory")
    parser.add_argument("--levels", type=_parse_levels, default="8,16,32,64")
    parser.add_argument("--lambdas", default="1,1e6", help="example 2 only; '' for none")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", default="", help="substring filter on CSV names")
    args = parser.parse_args(argv)
    try:  # every run's config, checked before the first run starts
        lambdas = [float(tok) for tok in args.lambdas.split(",")] if args.lambdas else []
        runs = [(label if example == 1 else f"{label}_lam{lam:g}",
                 RunConfig(mesh=mesh, levels=args.levels, interior=interior, boundary=boundary,
                           rb=rb, gamma=gamma, lam=lam, example=example,
                           seed=args.seed).validate())
                for label, example, mesh, interior, boundary, rb, gamma in BLOCKS
                for lam in ([1.0] if example == 1 else lambdas)]
    except ValueError as exc:  # ConfigError is one
        parser.error(str(exc))
    runs = [(name, cfg) for name, cfg in runs if args.only in f"{name}.csv"]

    pathlib.Path(args.outdir).mkdir(parents=True, exist_ok=True)
    code = 0
    for name, cfg in runs:
        t0 = time.time()
        try:
            report = run_convergence(cfg)
        except RUN_FAILURES as exc:
            print(f"== {name}  FAILED: {exc}")
            code = 3
            continue
        print(f"== {name}  (mesh={cfg.mesh}, V0={cfg.interior}, Vb={cfg.boundary}, Rb={cfg.rb}, "
              f"gamma={cfg.gamma:g}, lambda={cfg.lam:g})  [{time.time() - t0:.1f}s]")
        print(emit(report, "table"))
        pathlib.Path(args.outdir, f"{name}.csv").write_text(emit(report, "csv"))
    return code


if __name__ == "__main__":
    sys.exit(main())
