"""One measured repetition of a workload, in a fresh interpreter.

Usage (started by ``run.py``; not meant to be run by hand)::

    python3 perfbench/child.py SPEC_JSON MODE TRACE_OUT

``MODE`` is ``run`` (get ready, run the workload once untraced) or
``trace`` (the same, with the layer wrappers of :mod:`spans` installed
after set-up; spans go to ``TRACE_OUT``).  The child prints one JSON
object as its last line.  Its ``ready_at`` is ``time.monotonic()``
taken as soon as set-up is done; that clock is system-wide on Linux, so
the parent subtracts the ``time.monotonic()`` it took just before
starting the child.

Set-up is exactly what a user pays before the first call:
``import repro.api`` plus ``repro.native.load()``, and for the service
workload also ``start_service(workers=2)`` returning.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time

#: Per-layer service counter -> key of the scheduler's ``stats()``.
SERVICE_COUNTERS = {
    "service.shards_dispatched": "shards_dispatched",
    "service.shards_requeued": "shards_requeued",
    "service.workers_respawned": "workers_respawned",
    "service.result_cache_hits": "cache_hits",
}


def _peak_rss_mb() -> float:
    """Peak RSS of the largest process: this one or a reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _run_library(jobs, tracer):
    """One ``run_trials`` call under the default policy, cold cache."""
    import specs
    from repro.api import run_trials
    from repro.experiments.cache import ArtifactCache

    (plans,) = jobs
    cache = ArtifactCache()
    share = None
    patches = None
    if tracer is None:
        # The native-share gate needs the trial-slot counter even
        # untraced; it wraps one method that is called a few times.
        from spans import count_native_share

        share, patches = count_native_share()
    else:
        tracer.install()
    cpu0 = _cpu_seconds(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        results = run_trials(plans, cache=cache)
    finally:
        wall = time.perf_counter() - start
        cpu = _cpu_seconds(resource.RUSAGE_SELF) - cpu0
        if tracer is None:
            patches.restore()
        else:
            tracer.uninstall()
    stats = cache.stats()
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "job_ms": [wall * 1000.0],
        "attempted": len(plans),
        "failed": len(plans) - sum(r is not None for r in results),
        "digest": specs.digest(results),
        "disconnected": sum(
            r.diameter is None or r.diameter_tilde is None for r in results
        ),
        "native_share": (share or tracer.native).share,
        "layers": {
            "cache.hits": float(stats["hits"]),
            "cache.misses": float(stats["misses"]),
            **dict.fromkeys(SERVICE_COUNTERS, 0.0),
        },
    }
    return out


def _run_service(jobs, handle, tracer):
    """The burst: closed-loop clients, one job in flight per client."""
    import specs
    from repro.api import ServiceClient

    client = ServiceClient(port=handle.port, timeout=120.0)
    results: list = [None] * len(jobs)
    latencies: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()
    cursor = iter(range(len(jobs)))

    def drive() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            submitted = time.perf_counter()
            try:
                (result,) = client.run(jobs[index])
            except Exception as exc:  # counted, reported, run continues
                with lock:
                    failures.append(f"job {index}: {exc!r}")
                continue
            elapsed = (time.perf_counter() - submitted) * 1000.0
            with lock:
                results[index] = result
                latencies.append(elapsed)

    clients = [
        threading.Thread(target=drive, name=f"burst-client-{i}")
        for i in range(specs.BURST_CLIENTS)
    ]
    if tracer is not None:
        tracer.install()
    cpu0 = _cpu_seconds(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
    finally:
        wall = time.perf_counter() - start
        cpu = _cpu_seconds(resource.RUSAGE_SELF) - cpu0
        if tracer is not None:
            tracer.uninstall()
    stats = handle.service.stats()
    # Workers are reaped on close; their CPU lands in RUSAGE_CHILDREN.
    # They forked idle during set-up, so nearly all of it is the burst.
    handle.close()
    cpu += _cpu_seconds(resource.RUSAGE_CHILDREN)
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "job_ms": latencies,
        "attempted": len(jobs),
        "failed": len(failures),
        "digest": specs.digest(results),
        "disconnected": sum(
            r is not None and (r.diameter is None or r.diameter_tilde is None)
            for r in results
        ),
        "native_share": None,
        "layers": {
            # The artifact caches live in the workers, not here.
            "cache.hits": 0.0,
            "cache.misses": 0.0,
            **{
                name: float(stats[key])
                for name, key in SERVICE_COUNTERS.items()
            },
        },
    }


def main(argv: list[str]) -> int:
    spec_path, mode, trace_out = argv
    with open(spec_path, encoding="utf-8") as handle_in:
        spec = json.load(handle_in)
    service = spec["workload"] == "service-burst"
    # Set-up: everything a user pays before the first call.
    import repro.api as api
    from repro import native

    kernel = native.load()
    handle = api.start_service(workers=2) if service else None
    ready_at = time.monotonic()

    import specs
    from spans import Tracer

    if kernel is None:
        print("native kernel is not loadable", file=sys.stderr)
        return 3
    jobs = specs.build_jobs(spec)
    tracer = Tracer() if mode == "trace" else None
    if service:
        out = _run_service(jobs, handle, tracer)
    else:
        out = _run_library(jobs, tracer)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["kernel"] = True
    out["ready_at"] = ready_at
    if tracer is not None:
        out["layers"].update(tracer.layer_metrics(out["wall_s"]))
        out["spans"] = len(tracer.spans)
        tracer.dump(trace_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
