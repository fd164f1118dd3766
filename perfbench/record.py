"""Record the result digests every benchmark run is checked against.

Usage, from the repository root::

    python3 perfbench/record.py [--workload NAME ...]

Runs one untraced repetition per (workload, input set), one after the
other, through the same child the benchmark times, and writes the
SHA-256 of its results into ``perfbench/digests.json`` as each one
finishes.  Re-record only when a
change is meant to alter results; a change that claims to keep them
must match the recorded digests unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run


def record_one(workload: str, index: int) -> str | None:
    """Digest of one (workload, input set), or None when the run failed."""
    import specs

    spec = specs.inputs(workload, index)
    path = run.OUT / f"record-{workload}-{index}.spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        deadline = time.perf_counter() + 600.0
        _, result = run.launch(path, "run", run.OUT / "unused", deadline)
    finally:
        path.unlink()
    if result is None or result["failed"] or result["disconnected"]:
        return None
    if workload == specs.SWEEP and result["native_share"] != 1.0:
        return None
    return result["digest"]


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(run.SRC))
    import specs

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=list(specs.WORKLOADS)
    )
    args = parser.parse_args(argv)
    workloads = args.workload or list(specs.WORKLOADS)
    run.OUT.mkdir(exist_ok=True)
    run.ensure_kernel()
    failures: list[str] = []
    for workload in workloads:
        for index in range(specs.INPUT_SETS):
            digest = record_one(workload, index)
            if digest is None:
                failures.append(f"{workload} set {index}")
                print(f"{workload} set {index}: FAILED, not recorded")
                continue
            recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
            sets = recorded["digests"].setdefault(workload, {})
            sets[str(index)] = digest
            recorded["digests"][workload] = dict(
                sorted(sets.items(), key=lambda item: int(item[0]))
            )
            run.DIGESTS.write_text(
                json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"{workload} set {index}: {digest}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
