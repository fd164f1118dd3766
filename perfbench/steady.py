"""Steadiness self-check: two sets of runs of the same commit.

Usage, from the repository root::

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seed 0]

Each set runs ``run.py`` once per seed (``--runs`` consecutive seeds
from ``--seed``) on every chosen workload, with the ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric it prints, per set,
the median and the quartiles (``statistics.quantiles(n=4)``) with the
spread ``(q3 - q1) / median``, and then whether the benchmark holds its
own bounds:

* ``spread``: each set's spread is within the metric's bound (not
  required of ``setup_s``), and ``target`` marks spreads below a third
  of it;
* ``drift``: the two sets' medians differ by at most the bound, as a
  share of the first set's median.

Exit status 0 when every run was correct and every check passed.  Raw
results are kept in ``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def one_run(workload: str, seed: int, seconds: int) -> dict | None:
    command = [sys.executable, str(run.HERE / "run.py"), "--workload", workload]
    proc = subprocess.run(
        [*command, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    declared = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workloads = args.workload or names
    seeds = range(args.seed, args.seed + args.runs)
    seconds = declared["run_seconds"]
    raw: dict = {}
    ok = True
    for workload in workloads:
        sets = []
        for index in range(2):
            results = []
            for seed in seeds:
                result = one_run(workload, seed, seconds)
                if result is None or not result["correct"]:
                    ok = False
                    print(f"{workload} set {index + 1} seed {seed}: FAILED")
                if result is not None:
                    results.append(result)
            sets.append(results)
        raw[workload] = sets
        print(
            f"\n{workload}  ({args.runs} runs per set, seeds "
            f"{seeds.start}..{seeds.stop - 1}, {seconds} s each)"
        )
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                rows.append(summarize(values) if len(values) > 1 else None)
            if None in rows:
                ok = False
                print(f"  {name}: too few runs")
                continue
            verdicts = []
            for median, _q1, _q3, spread in rows:
                if name != "setup_s" and spread > bound:
                    ok = False
                    verdicts.append("spread>bound")
                elif spread < bound / 3:
                    verdicts.append("target")
                else:
                    verdicts.append("spread ok")
            drift = (rows[1][0] - rows[0][0]) / rows[0][0]
            if abs(drift) > bound:
                ok = False
            verdicts.append(
                f"drift {drift:+.1%} {'ok' if abs(drift) <= bound else 'FAIL'}"
            )
            cells = "  ".join(
                f"set{i + 1} {m:.4g} [{q1:.4g}, {q3:.4g}] {s:.1%}"
                for i, (m, q1, q3, s) in enumerate(rows)
            )
            print(
                f"  {name:<12} {metric['unit']:>4}  bound {bound:.0%}  "
                f"{cells}  {', '.join(verdicts)}"
            )
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "steady.json").write_text(json.dumps(raw), encoding="utf-8")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
