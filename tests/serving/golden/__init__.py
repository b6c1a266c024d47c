"""Golden report corpus: pinned fingerprints of whole serving reports.

Each scenario drains a fixed queue and hashes the canonical JSON of
``dataclasses.asdict(report)`` -- every report field, every node
breakdown and every per-request outcome -- so any change to what a drain
reports, down to the last bit of a float, changes the fingerprint.  Two
pin files cover the two fleet paths:

* ``folded_drains.json`` pins the folded
  (``fleet_symmetry="representative"``) drains over policies x arrival
  processes x fleet sizes;
* ``full_drains.json`` pins drains that simulate every node: 1-node
  drains through :class:`~repro.serving.ClusterScheduler` and
  :class:`~repro.serving.OfflineServingScheduler` (policies x arrivals x
  chunking), 3-node round-robin / JSQ / best-fit fleets (plus one JSQ
  fleet under sparse arrivals, whose routes land mid-decode), tiered KV
  nodes, faults, overload control and autoscaling.

``test_golden.py`` re-derives both.  After a deliberate change to
simulated behaviour, regenerate the pins from the repository root and
justify the diff in the change log; the command lists every cell whose
fingerprint moved before it rewrites the files::

    PYTHONPATH=src python -m tests.serving.golden

Removing a field from a report dataclass (``ServingReport``,
``NodeBreakdown``, ``ServingRequest``, ...) moves every pin, even when no
simulated value changes: the hashed JSON carries the field names too.
Justify such a re-pin against the parent commit: drain every cell with
the parent's code, delete the removed keys from every affected dict of
``dataclasses.asdict(report)`` before :func:`canonical`, hash the result
as :func:`fingerprint` does, and show that each of those parent
fingerprints equals the new pin of its cell.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from typing import Callable

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.models.registry import tiny_model
from repro.serving import (
    AnalyticStepTime,
    AttentionAwareDemotion,
    BatchedArrivals,
    BestFitKV,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    FCFSFixedBatch,
    KVTier,
    LeastOutstandingTokens,
    LengthBucketedBatch,
    LRUByRequest,
    Node,
    OfflineServingScheduler,
    PoissonArrivals,
    RoundRobin,
    TierStack,
)
from repro.serving.autoscale import parse_autoscale_spec
from repro.serving.faults import parse_fault_spec
from repro.serving.overload import parse_overload_spec
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG

FOLDED_PINS = Path(__file__).resolve().parent / "folded_drains.json"
FULL_PINS = Path(__file__).resolve().parent / "full_drains.json"

SEED = 5
RUN = 8

POLICIES = {
    "fcfs": lambda: FCFSFixedBatch(4),
    "bucketed": lambda: LengthBucketedBatch(4),
    "continuous": lambda: ContinuousBatching(4),
    "optimistic": lambda: ContinuousBatching(4, admission="optimistic"),
}

ARRIVALS = {
    "offline": lambda: None,
    "poisson": lambda: PoissonArrivals(rate_per_second=2.0, seed=SEED),
    "burst": lambda: BatchedArrivals(0.02, 16, seed=SEED),
}

#: Arrivals of the single JSQ decode-progress cell, kept out of
#: :data:`ARRIVALS` so the policy x arrival matrices do not grow.  At 0.05
#: requests/s the 64 arrivals spread over ~1300 s, so routes land while
#: nodes are deep in decode and JSQ's ranking depends on how it counts a
#: running request's remaining work.
SPARSE_ARRIVALS = {
    "sparse": lambda: PoissonArrivals(rate_per_second=0.05, seed=SEED),
}

NODE_COUNTS = (4, 8)

CHUNKS = {"whole": None, "chunk128": 128}

ROUTERS = {
    "rr": RoundRobin,
    "jsq": LeastOutstandingTokens,
    "bestfit": BestFitKV,
}

TIER_POLICIES = {
    "lru": LRUByRequest,
    "attention": lambda: AttentionAwareDemotion(hot_fraction=0.25),
}

FAULTS = {
    "crash": "crash:1500:1",
    "spot": "spot:2000:300:3",
    "slow+crash": "slow:500:1000:2.0:0,crash:2000:2",
}

OVERLOADS = {"shed": "shed:8", "retry": "retry:8", "park": "park:8"}


def folded_scenarios() -> list[tuple[str, str, int]]:
    """Every (policy, arrivals, nodes) cell of the folded corpus."""
    return [
        (policy, arrivals, nodes)
        for policy in POLICIES
        for arrivals in ARRIVALS
        for nodes in NODE_COUNTS
    ]


def corpus_queue() -> list:
    """64 requests: eight sampled classes, each repeated in a run of eight."""
    return [cls for cls in sample_request_classes(8, seed=SEED) for _ in range(RUN)]


def scenario_id(policy: str, arrivals: str, nodes: int) -> str:
    return f"{policy}-{arrivals}-{nodes}n"


def corpus_fleet(nodes: int, chunk: int | None = None, tiers: str | None = None):
    """``nodes`` nodes sharing one tiny HILOS system and one step-time model.

    The flat budget holds 1.1 Long final contexts, so reserve-mode
    admission leaves work waiting and optimistic admission preempts.
    ``tiers`` names a :data:`TIER_POLICIES` entry and swaps the flat
    budget for a two-tier stack: half a Long context of HBM over two Long
    contexts of SSD at 1 GB/s.
    """
    model = tiny_model(n_layers=2, hidden=32, intermediate=64, n_heads=4)
    system = HilosSystem(model, HilosConfig(n_devices=2))
    step_time = AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
    )
    long_bytes = model.kv_cache_bytes(1, LONG.total_tokens)
    kv: dict = {}
    if tiers is None:
        kv["budget"] = CapacityBudget(long_bytes * 1.1, "1.1 Long contexts")
    else:
        kv["kv_tiers"] = TierStack(
            (
                KVTier("hbm", capacity_bytes=long_bytes * 0.5),
                KVTier(
                    "ssd", capacity_bytes=long_bytes * 2, bandwidth_bytes_per_s=1e9
                ),
            )
        )
        kv["kv_policy"] = TIER_POLICIES[tiers]()
    return [
        Node(
            system,
            step_time=step_time,
            prefill_chunk_tokens=chunk,
            name=f"node{i}",
            **kv,
        )
        for i in range(nodes)
    ]


def folded_report(policy: str, arrivals: str, nodes: int):
    """Drain the corpus queue through a folded ``nodes``-node fleet.

    The queue repeats each sampled class in runs of eight, so round-robin
    deals identical slices to the nodes of an offline or bursty drain (one
    mirrored group) and distinct slices under Poisson arrivals (one group
    per node).
    """
    scheduler = ClusterScheduler(
        corpus_fleet(nodes),
        POLICIES[policy](),
        router=RoundRobin(),
        fleet_symmetry="representative",
    )
    return scheduler.drain(corpus_queue(), arrivals=ARRIVALS[arrivals]())


def full_report(
    nodes: int,
    policy: str,
    arrivals: str,
    chunk: str = "whole",
    router: str = "rr",
    tiers: str | None = None,
    **controls,
):
    """Drain the corpus queue simulating every node of the fleet.

    ``controls`` passes faults / overload / autoscale through to the
    :class:`~repro.serving.ClusterScheduler`.
    """
    scheduler = ClusterScheduler(
        corpus_fleet(nodes, CHUNKS[chunk], tiers),
        POLICIES[policy](),
        router=ROUTERS[router](),
        fleet_symmetry="full",
        **controls,
    )
    arrival_process = {**ARRIVALS, **SPARSE_ARRIVALS}[arrivals]()
    return scheduler.drain(corpus_queue(), arrivals=arrival_process)


def shim_report(policy: str, arrivals: str, chunk: str):
    """Drain the corpus queue through the single-system scheduler API."""
    (node,) = corpus_fleet(1)
    scheduler = OfflineServingScheduler(
        node.system,
        POLICIES[policy](),
        step_time=node.step_time,
        budget=node.budget,
        prefill_chunk_tokens=CHUNKS[chunk],
    )
    return scheduler.drain(corpus_queue(), arrivals=ARRIVALS[arrivals]())


def full_scenarios() -> dict[str, Callable]:
    """Every cell of the full-path corpus: id -> a drain returning its report."""
    cells: dict[str, Callable] = {}
    for policy in POLICIES:
        for arrivals in ARRIVALS:
            for chunk in CHUNKS:
                cell = f"{policy}-{arrivals}-{chunk}-1n"
                cells[f"cluster-{cell}"] = functools.partial(
                    full_report, 1, policy, arrivals, chunk
                )
                cells[f"shim-{cell}"] = functools.partial(
                    shim_report, policy, arrivals, chunk
                )
    for router in ROUTERS:
        for policy in POLICIES:
            for arrivals in ARRIVALS:
                cells[f"{router}-{policy}-{arrivals}-3n"] = functools.partial(
                    full_report, 3, policy, arrivals, router=router
                )
    cells["jsq-optimistic-sparse-3n"] = functools.partial(
        full_report, 3, "optimistic", "sparse", router="jsq"
    )
    for tiers in TIER_POLICIES:
        for nodes in (1, 2):
            for arrivals in ("offline", "poisson"):
                cells[f"tiered-{tiers}-{arrivals}-{nodes}n"] = functools.partial(
                    full_report, nodes, "continuous", arrivals, tiers=tiers
                )
    for name, spec in FAULTS.items():
        cells[f"faults-{name}-3n"] = functools.partial(
            full_report, 3, "continuous", "poisson", faults=parse_fault_spec(spec)
        )
    for name, spec in OVERLOADS.items():
        for nodes in (1, 2):
            cells[f"overload-{name}-{nodes}n"] = functools.partial(
                full_report,
                nodes,
                "continuous",
                "poisson",
                overload=parse_overload_spec(spec),
            )
    cells["autoscale-3n"] = functools.partial(
        full_report,
        3,
        "continuous",
        "poisson",
        autoscale=parse_autoscale_spec("auto:1:3:4:30"),
    )
    return cells


#: Significant digits a float keeps in the canonical JSON.  Python 3.12's
#: ``sum()`` compensates float rounding and 3.10/3.11's does not, so report
#: means differ in the last bits across supported interpreters; twelve
#: digits keeps the pins portable while any real behaviour change still
#: moves them.
FLOAT_DIGITS = 12


def canonical(value):
    """``value`` with every float written at :data:`FLOAT_DIGITS` digits."""
    if isinstance(value, float):
        return format(value, f".{FLOAT_DIGITS}g")
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def fingerprint(report) -> str:
    """sha256 of the report's canonical sorted-key JSON, requests included."""
    payload = json.dumps(
        canonical(dataclasses.asdict(report)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def derive_folded() -> dict[str, str]:
    return {
        scenario_id(*cell): fingerprint(folded_report(*cell))
        for cell in folded_scenarios()
    }


def derive_full() -> dict[str, str]:
    return {cell: fingerprint(drain()) for cell, drain in full_scenarios().items()}


def load_folded() -> dict[str, str]:
    return json.loads(FOLDED_PINS.read_text())


def load_full() -> dict[str, str]:
    return json.loads(FULL_PINS.read_text())
