"""Smoke test of the benchmark at tiny levels.

    python3 perfbench/smoke.py

Runs every workload at levels 8,16, untraced and then traced, and checks
that every metric in BENCHMARK.json is printed by name with its unit, that
the correctness gate runs and rejects wrong rates, and that each level's
child spans stay inside their parent.  Exits 1 on the first failed check.
"""

import contextlib
import dataclasses
import io
import json
import sys

import run

TINY = (8, 16)


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"smoke FAILED: {message}")


def printed(name: str, result: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_result(name, result)
    return buf.getvalue()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = run._spec()
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(run.WORKLOADS),
          f"BENCHMARK.json workloads {names} != {sorted(run.WORKLOADS)}")

    for name in names:
        wl = run.WORKLOADS[name] = dataclasses.replace(
            run.WORKLOADS[name], config=dict(run.WORKLOADS[name].config, levels=TINY))
        expected = run.levels_attempted(TINY) * wl.num_seeds
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run.run_one(name, 1, 0.1, trace)
            text = printed(name, result)
            last = json.loads(text.strip().splitlines()[-1])
            check(set(last) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(last)}")
            check(last["attempted"] == expected,
                  f"{name}: attempted {last['attempted']} levels, expected {expected}")
            for m in listed:
                check(f"{name}  {m['name']} = " in text
                      and last["metrics"][m["name"]]["unit"] == m["unit"],
                      f"{name} trace={trace}: metric {m['name']} [{m['unit']}] not printed")

        # The gate reads the untraced CSVs: it passes or fails by rates, and
        # must fail once every rate is replaced by a first-order one.
        studies = [(s, run._rows((run.OUT_DIR / f"{name}-seed{s}.csv").read_text()))
                   for s in wl.seeds(1)]
        check(isinstance(wl.gate(studies), list), f"{name}: gate did not run")
        wrong = [(s, [{k: (0.5 if k.startswith("rate_") else v) for k, v in row.items()}
                      for row in rows]) for s, rows in studies]
        check(len(wl.gate(wrong)) > 0, f"{name}: gate accepted rates of 0.5")

        with open(run.OUT_DIR / f"{name}-seed1-trace.jsonl") as fh:
            spans = [json.loads(line) for line in fh]
        check(not run.check_nesting(spans), f"{name}: {run.check_nesting(spans)}")
        levels = [s for s in spans if s["name"] == "cli.level"]
        check(len(levels) == expected, f"{name}: {len(levels)} level spans")
        for lvl in levels:
            kids = [s for s in spans if s["parent"] == lvl["id"]]
            check(len(kids) == 6 and all(s["run"] == lvl["run"] for s in kids),
                  f"{name}: level {lvl['run']} has children {[s['name'] for s in kids]}")
        print(f"smoke ok: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
