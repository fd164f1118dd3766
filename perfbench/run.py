"""End-to-end, layer-by-layer benchmark of the SINR absMAC simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``specs.py``.  Every repetition runs in a fresh interpreter
(``child.py``), so imports, caches and peak RSS are those of a real
first run.  The orchestrator:

1. builds the native slot-loop kernel from source when it is missing or
   stale, and refuses to run without it;
2. pins the child environment and generates each repetition's inputs
   from a seed (connectivity guard included);
3. ``--trace 0``: starts untraced repetitions until ``--seconds`` have
   passed (at least one), repetition ``k`` on the inputs of seed
   ``--seed + k``, and prints the end-to-end metrics (medians over the
   repetitions);
   ``--trace 1``: two untraced and one traced repetition on the inputs
   of ``--seed``, and prints the per-layer metrics (the traced wall
   minus the median untraced wall is the tracing overhead);
4. checks every repetition's results against the digest recorded for
   its input set in ``digests.json``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and the environment
record go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Untraced repetitions of a traced run: the service burst's 2 x 500
#: job latencies leave ten beyond the reported 99th percentile.
PLAIN_REPS = 2

#: Hard cap on one run from the orchestrator's start, below the 180 s
#: a run may take.
RUN_BUDGET_S = 170.0
STARTED = time.perf_counter()

#: Environment pinned in every child, recorded with each run.
PINNED_ENV = {
    "REPRO_NATIVE": "1",
    "REPRO_NATIVE_THREADS": "1",
    "REPRO_BATCH_TENSOR_BUDGET": str(1 << 30),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Variables that would change what the children run; never inherited.
DROPPED_ENV = ("REPRO_SERVICE_FAULT",)


class BenchError(RuntimeError):
    """A run that cannot produce a measurement at all."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def ensure_kernel() -> dict:
    """Build the native kernel when missing or stale; return its stamp."""
    # ``repro.native`` re-exports a ``build`` function under the
    # submodule's name, so fetch the module itself.
    build = importlib.import_module("repro.native.build")
    if build.build(quiet=True) is None:
        raise BenchError("no C compiler: the native kernel cannot be built")
    return json.loads(build.STAMP.read_text(encoding="utf-8"))


def environment_record(stamp: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_stamp": stamp,
        "pinned_env": PINNED_ENV,
    }


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a child and whatever it forked (service workers included)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def launch(spec_path: Path, mode: str, trace_out: Path, deadline: float):
    """Run one child; return (set-up seconds, its JSON result or None).

    Set-up runs from just before the child starts to the ``ready_at``
    it reports (both ``time.monotonic()``).  The child leads its own
    process group, so a child that overruns the deadline is killed
    together with any worker it forked.
    """
    command = [sys.executable, str(HERE / "child.py"), str(spec_path)]
    started = time.monotonic()
    proc = subprocess.Popen(
        [*command, mode, str(trace_out)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"child {mode} overran the run budget", file=sys.stderr)
        return None, None
    finally:
        if proc.returncode != 0:
            _kill_group(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child {mode} exited with {proc.returncode}", file=sys.stderr)
        return None, None
    result = json.loads(lines[-1])
    return result["ready_at"] - started, result


def quantile_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the value with ``q`` of samples at or
    below it), the convention the service benchmark uses."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


class Check:
    """Correctness bookkeeping of one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.expected = recorded["digests"].get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def rep(self, result: dict | None, spec: dict) -> bool:
        """Account one repetition of ``spec``; True when it is usable."""
        import specs

        expected_ops = sum(len(job) for job in specs.build_jobs(spec))
        if result is None:
            self.attempted += expected_ops
            self.failed += expected_ops
            self.problems.append("repetition crashed")
            return False
        self.attempted += result["attempted"]
        problems = []
        expected = self.expected.get(str(spec["input_set"]))
        if expected is None:
            problems.append(f"no digest recorded for input set {spec['input_set']}")
        elif result["digest"] != expected:
            problems.append(f"digest {result['digest'][:12]} != recorded")
        if result["disconnected"]:
            problems.append("a deployment graph was disconnected")
        if self.workload == specs.SWEEP and result["native_share"] != 1.0:
            problems.append(f"native_share {result['native_share']} != 1.0")
        if problems:
            self.failed += result["attempted"]
            self.problems += problems
        else:
            self.failed += result["failed"]
        return True

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def write_spec(workload: str, seed: int) -> tuple[Path, dict]:
    """Generate one seed's inputs into the file a child reads them from."""
    import specs

    spec = specs.inputs(workload, seed)
    path = OUT / f"{workload}-seed{seed}.spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path, spec


def measure(workload: str, seed: int, seconds: float, check: Check):
    """Untraced run: repetitions for ``seconds``, each with its set-up.

    Repetition ``k`` runs the inputs of seed ``seed + k``.  The work
    differs between input sets (the combined stack runs until its
    slowest deployment is done: 3760 to 4720 slots over the 20 sets of
    ``object-combined-n100``), so a median over consecutive input sets
    moves less from one seed to the next than one input set does.
    """
    deadline = STARTED + RUN_BUDGET_S
    start = time.perf_counter()
    setups: list[float] = []
    reps: list[dict] = []
    longest = 0.0
    for k in itertools.count():
        rep_start = time.perf_counter()
        spec_path, spec = write_spec(workload, seed + k)
        setup, result = launch(spec_path, "run", OUT / "unused", deadline)
        longest = max(longest, time.perf_counter() - rep_start)
        if check.rep(result, spec):
            setups.append(setup)
            reps.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + longest > seconds or result is None:
            break
        if time.perf_counter() + longest > deadline:
            break
    if not reps or not setups:
        raise BenchError("no repetition completed")
    jobs = [ms for rep in reps for ms in rep["job_ms"]]
    walls = [rep["wall_s"] for rep in reps]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "setup_s": statistics.median(setups),
        "job_p50_ms": statistics.median(jobs),
        "jobs_per_s": statistics.median(
            len(rep["job_ms"]) / rep["wall_s"] for rep in reps
        ),
    }


def trace(workload: str, seed: int, check: Check, trace_out: Path):
    """Traced run: ``PLAIN_REPS`` untraced and one traced repetition,
    all of the inputs of ``seed``."""
    deadline = STARTED + RUN_BUDGET_S
    spec_path, spec = write_spec(workload, seed)
    plain = []
    for _ in range(PLAIN_REPS):
        _, result = launch(spec_path, "run", OUT / "unused", deadline)
        if check.rep(result, spec):
            plain.append(result)
    _, traced = launch(spec_path, "trace", trace_out, deadline)
    if not check.rep(traced, spec) or len(plain) < PLAIN_REPS:
        raise BenchError("a repetition of the traced run crashed")
    layers = dict(traced["layers"])
    # The job latency tail swings far more than the largest allowed
    # end-to-end bound on a busy 2-core host, so it is reported here,
    # from the untraced repetitions, without a bound.
    layers["job_p99_ms"] = quantile_rank(
        [ms for result in plain for ms in result["job_ms"]], 0.99
    )
    plain_wall = statistics.median(result["wall_s"] for result in plain)
    layers["trace.overhead_s"] = traced["wall_s"] - plain_wall
    layers["failed_frac"] = check.failed / max(1, check.attempted)
    return layers


def declared(kind: str) -> list[dict]:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))[kind]


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr
        )
        return 2
    sys.path.insert(0, str(SRC))
    import specs

    if args.workload not in specs.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        stamp = ensure_kernel()
        tag = f"{args.workload}-seed{args.seed}"
        env = environment_record(stamp)
        (OUT / f"{tag}.env.json").write_text(
            json.dumps(env, indent=2), encoding="utf-8"
        )
        print(f"perfbench: env {json.dumps(env, sort_keys=True)}")
        check = Check(args.workload)
        if args.trace:
            spans = OUT / f"{tag}.spans.json"
            measured = trace(args.workload, args.seed, check, spans)
            wanted = declared("per_layer")
        else:
            measured = measure(args.workload, args.seed, args.seconds, check)
            wanted = declared("end_to_end")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in dict.fromkeys(check.problems):
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    metrics = {}
    for metric in wanted:
        value = float(measured[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(
        json.dumps(
            {
                "correct": check.correct,
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
