"""Golden report corpus: pinned fingerprints of whole serving reports.

Each scenario drains a fixed queue through a symmetric fleet and hashes
the canonical JSON of ``dataclasses.asdict(report)`` -- every report
field, every node breakdown and every per-request outcome -- so any
change to what a drain reports, down to the last bit of a float, changes
the fingerprint.  ``folded_drains.json`` pins the folded
(``fleet_symmetry="representative"``) drains over policies x arrival
processes x fleet sizes; ``test_golden.py`` re-derives them.

After a deliberate change to simulated behaviour, regenerate the pins
from the repository root and justify the diff in the change log::

    PYTHONPATH=src python -m tests.serving.golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.models.registry import tiny_model
from repro.serving import (
    AnalyticStepTime,
    BatchedArrivals,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    FCFSFixedBatch,
    LengthBucketedBatch,
    Node,
    PoissonArrivals,
    RoundRobin,
)
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG

FOLDED_PINS = Path(__file__).resolve().parent / "folded_drains.json"

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

NODE_COUNTS = (4, 8)


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


def folded_report(policy: str, arrivals: str, nodes: int):
    """Drain the corpus queue through a folded ``nodes``-node fleet.

    The queue repeats each sampled class in runs of eight, so round-robin
    deals identical slices to the nodes of an offline or bursty drain (one
    mirrored group) and distinct slices under Poisson arrivals (one group
    per node).  The budget holds 1.1 Long final contexts, so reserve-mode
    admission leaves work waiting and optimistic admission preempts.
    """
    model = tiny_model(n_layers=2, hidden=32, intermediate=64, n_heads=4)
    system = HilosSystem(model, HilosConfig(n_devices=2))
    step_time = AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
    )
    budget = CapacityBudget(
        model.kv_cache_bytes(1, LONG.total_tokens) * 1.1, "1.1 Long contexts"
    )
    fleet = [
        Node(system, step_time=step_time, budget=budget, name=f"node{i}")
        for i in range(nodes)
    ]
    scheduler = ClusterScheduler(
        fleet,
        POLICIES[policy](),
        router=RoundRobin(),
        fleet_symmetry="representative",
    )
    return scheduler.drain(
        corpus_queue(), arrivals=ARRIVALS[arrivals]()
    )


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


def load_folded() -> dict[str, str]:
    return json.loads(FOLDED_PINS.read_text())
