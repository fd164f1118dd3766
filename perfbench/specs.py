"""Workload definitions: seeded inputs, plan construction and digests.

Each workload is generated from one integer seed.  The seed selects one
of ``INPUT_SETS`` recorded input sets (``seed % INPUT_SETS``), so every
run can be checked against a digest recorded for exactly its inputs
(``digests.json``).  Inside an input set, deployment and trial seeds
derive from the input-set index through
:func:`repro.simulation.rng.spawn_trial_seeds`, and a connectivity
guard rejects every deployment whose G_{1-eps} or G_{1-2eps} is
disconnected: a disconnected graph skips a diameter computation, which
would make the cold-run time swing with the seed.

:func:`inputs` runs in the orchestrating process (it needs the
geometry); :func:`build_jobs` runs in the measured child and only turns
the recorded integers into :class:`~repro.experiments.plans.TrialPlan`
objects, which is cheap.
"""

from __future__ import annotations

import hashlib
import math

SWEEP = "sweep-dense-n500"
COLD = "cold-sparse-n1000"
OBJECT = "object-combined-n100"
SERVICE = "service-burst"

#: Workload name -> one line on why it exists (mirrored in BENCHMARK.json).
WORKLOADS = {
    SWEEP: "many-seed dense sweep on one deployment: the columnar/native "
    "slot loop leads, artifacts are built once",
    COLD: "first run on a sparse-exact deployment: artifact construction "
    "(exact Delta, D, D~, Lambda) leads, the slot loop is nearly idle",
    OBJECT: "combined stack on 2 deployments: not columnar-eligible, so "
    "the object lockstep executor and a (2,n,n) physics tensor lead",
    SERVICE: "500 tiny jobs through a 2-worker TCP service from 2 "
    "closed-loop clients: wire, queue, dispatch and streaming lead",
}

#: How many distinct input sets each workload has (and digests.json
#: records).  ``--seed`` selects one of them modulo this count.
INPUT_SETS = 20

#: Deployment candidates tried per input set before giving up.  At the
#: sweep geometry about one disk in five has both graphs connected.
MAX_CANDIDATES = 512

# Every workload is sized so that one repetition takes a few seconds: a
# run then holds several repetitions, and their median follows the
# host's speed over the whole run rather than over one repetition.

# sweep-dense-n500: the density of the native-kernel benchmark geometry
# (n=1000 on a disk of radius 175) at half the nodes, so the slot loop,
# not the two diameters, leads.
SWEEP_N = 500
SWEEP_RADIUS = 175.0 * math.sqrt(SWEEP_N / 1000)
SWEEP_TRIALS = 8
SWEEP_SLOTS = 2000
DECAY_CONTENTION = 2**30
ACK_CONTENTION = 4096.0

# cold-sparse-n1000: constant-density disk at expected degree 24, with
# the sparse resolver forced on at this size (its default crossover is
# n=2000).
COLD_N = 1000
COLD_DEGREE = 24
COLD_TRIALS = 2
COLD_SLOTS = 400

# object-combined-n100: distinct small deployments, combined stack.
OBJECT_N = 100
OBJECT_DEGREE = 20
OBJECT_DEPLOYMENTS = 2

# service-burst: tiny single-plan jobs, ~10% exact resubmissions.
BURST_N = 10
BURST_RADIUS = 6.0
BURST_SLOTS = 30
BURST_JOBS = 500
BURST_CLIENTS = 2
# Every 10th job from index 39 on resubmits a job 20..99 positions
# earlier (clipped to the first job): late enough that the original has
# finished (so the service's result cache serves it) and recent enough
# to still be cached.
DUPLICATE_EVERY = 10
DUPLICATE_FIRST = 39
DUPLICATE_LAG = (20, 100)


def input_set(seed: int) -> int:
    """The recorded input set a workload seed selects."""
    return seed % INPUT_SETS


def _sparse_params():
    from repro.sinr.params import SINRParameters, SparseResolution

    return SINRParameters(sparse=SparseResolution(mode="exact", min_n=COLD_N))


def _disk_radius(n: int, degree: float) -> float:
    from repro.sinr.params import SINRParameters

    return SINRParameters().transmission_range * math.sqrt(n / degree)


def _deployment_geometry(workload: str) -> tuple[int, float, object]:
    """(n, disk radius, params) of one workload's deployments."""
    from repro.sinr.params import SINRParameters

    if workload == SWEEP:
        return SWEEP_N, SWEEP_RADIUS, SINRParameters()
    if workload == COLD:
        return COLD_N, _disk_radius(COLD_N, COLD_DEGREE), _sparse_params()
    if workload == OBJECT:
        radius = _disk_radius(OBJECT_N, OBJECT_DEGREE)
        return OBJECT_N, radius, SINRParameters()
    if workload == SERVICE:
        return BURST_N, BURST_RADIUS, SINRParameters()
    raise ValueError(f"unknown workload {workload!r}")


def both_graphs_connected(points, params) -> bool:
    """True when G_{1-eps} and G_{1-2eps} are both connected."""
    import networkx as nx

    from repro.sinr.graphs import (
        approx_connectivity_graph,
        strong_connectivity_graph,
    )

    return all(
        nx.is_connected(build(points, params))
        for build in (strong_connectivity_graph, approx_connectivity_graph)
    )


def _guarded_deployment_seeds(
    workload: str, master: int, count: int
) -> tuple[list[int], int]:
    """The first ``count`` candidate deployment seeds that pass the
    connectivity guard, and how many candidates were rejected."""
    from repro.geometry.deployment import uniform_disk
    from repro.simulation.rng import spawn_trial_seeds

    n, radius, params = _deployment_geometry(workload)
    accepted: list[int] = []
    rejected = 0
    for candidate in spawn_trial_seeds(MAX_CANDIDATES, seed=master):
        points = uniform_disk(n=n, radius=radius, seed=candidate)
        if both_graphs_connected(points, params):
            accepted.append(candidate)
            if len(accepted) == count:
                return accepted, rejected
        else:
            rejected += 1
    raise RuntimeError(
        f"{workload}: fewer than {count} connected deployments among "
        f"{MAX_CANDIDATES} candidates of master seed {master}"
    )


def _burst_job_seeds(seeds: list[int], lags: list[int]) -> list[int]:
    """Job order of the burst: distinct seeds with resubmissions mixed in."""
    order: list[int] = []
    fresh = iter(seeds)
    for position in range(BURST_JOBS):
        if (
            position >= DUPLICATE_FIRST
            and (position - DUPLICATE_FIRST) % DUPLICATE_EVERY == 0
        ):
            lag = lags[(position - DUPLICATE_FIRST) // DUPLICATE_EVERY]
            order.append(order[max(0, position - lag)])
        else:
            order.append(next(fresh))
    return order


def burst_duplicates() -> int:
    """How many of the burst's jobs are exact resubmissions."""
    return len(range(DUPLICATE_FIRST, BURST_JOBS, DUPLICATE_EVERY))


def inputs(workload: str, seed: int) -> dict:
    """The generated, JSON-serializable inputs of one workload seed."""
    from repro.simulation.rng import spawn_trial_seeds

    index = input_set(seed)
    deploy_master, trial_master = spawn_trial_seeds(2, seed=index)
    count = OBJECT_DEPLOYMENTS if workload == OBJECT else 1
    deployment_seeds, rejected = _guarded_deployment_seeds(
        workload, deploy_master, count
    )
    spec = {
        "workload": workload,
        "seed": seed,
        "input_set": index,
        "deployment_seeds": deployment_seeds,
        "rejected_deployments": rejected,
    }
    if workload == SWEEP:
        spec["trial_seeds"] = spawn_trial_seeds(SWEEP_TRIALS, seed=trial_master)
    elif workload == COLD:
        spec["trial_seeds"] = spawn_trial_seeds(COLD_TRIALS, seed=trial_master)
    elif workload == OBJECT:
        spec["trial_seeds"] = spawn_trial_seeds(
            OBJECT_DEPLOYMENTS, seed=trial_master
        )
    else:
        import numpy as np

        duplicates = burst_duplicates()
        seeds = spawn_trial_seeds(BURST_JOBS - duplicates, seed=trial_master)
        rng = np.random.default_rng(np.random.SeedSequence([index, 1]))
        lags = rng.integers(*DUPLICATE_LAG, size=duplicates).tolist()
        spec["job_seeds"] = _burst_job_seeds(seeds, lags)
    return spec


def build_jobs(spec: dict) -> list[list]:
    """The plans of one workload input, grouped into jobs.

    A library workload is one job (a single ``run_trials`` call over all
    its plans); the service burst is one single-plan job per submission.
    """
    from repro.analysis.harness import default_ack_config
    from repro.core.ack_protocol import AckConfig
    from repro.core.approx_progress import ApproxProgressConfig
    from repro.core.decay import DecayConfig
    from repro.experiments.plans import DeploymentSpec, TrialPlan, seeded_plans

    workload = spec["workload"]
    n, radius, params = _deployment_geometry(workload)
    disks = [
        DeploymentSpec.of("uniform_disk", n=n, radius=radius, seed=seed)
        for seed in spec["deployment_seeds"]
    ]
    counters_only = dict(workload="fixed_slots", record_physical=False)
    if workload == SWEEP:
        decay = DecayConfig(contention_bound=DECAY_CONTENTION)
        ack = AckConfig(contention_bound=ACK_CONTENTION)
        plans = []
        for stack, config in (
            ("decay", dict(decay_config=decay)),
            ("ack", dict(ack_config=ack)),
        ):
            base = TrialPlan(
                deployment=disks[0],
                stack=stack,
                options=TrialPlan.pack_options(slots=SWEEP_SLOTS),
                **counters_only,
                **config,
            )
            plans += seeded_plans(base, spec["trial_seeds"])
        return [plans]
    if workload == COLD:
        base = TrialPlan(
            deployment=disks[0],
            stack="decay",
            options=TrialPlan.pack_options(slots=COLD_SLOTS),
            params=params,
            decay_config=DecayConfig(contention_bound=DECAY_CONTENTION),
            **counters_only,
        )
        return [seeded_plans(base, spec["trial_seeds"])]
    if workload == OBJECT:
        # The protocols get the known bound on Lambda every deployment
        # satisfies (edges of G_{1-eps} are at most strong_range long and
        # at least the unit minimum separation apart), not the measured
        # Lambda, so their timing does not change with the seed.
        lam = params.strong_range
        ack = default_ack_config(lam, eps_ack=0.1)
        approg = ApproxProgressConfig(
            lambda_bound=lam, eps_approg=0.1, alpha=params.alpha
        )
        return [
            [
                TrialPlan(
                    deployment=disk,
                    stack="combined",
                    workload="local_broadcast",
                    seed=seed,
                    ack_config=ack,
                    approg_config=approg,
                    label=f"combined-{index}",
                )
                for index, (disk, seed) in enumerate(
                    zip(disks, spec["trial_seeds"])
                )
            ]
        ]
    config = DecayConfig(contention_bound=16.0)
    return [
        [
            TrialPlan(
                deployment=disks[0],
                stack="decay",
                options=TrialPlan.pack_options(slots=BURST_SLOTS),
                decay_config=config,
                seed=seed,
                label=f"burst-{seed}",
                **counters_only,
            )
        ]
        for seed in spec["job_seeds"]
    ]


def digest(results) -> str:
    """SHA-256 over the exact ``repr`` of every result, in order.

    ``TrialResult`` is a frozen dataclass of ints, floats and tuples;
    its ``repr`` prints floats round-trip exact, so equal digests mean
    dataclass-equal results.  A missing result (``None``) changes the
    digest.
    """
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(repr(result).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()
