"""The benchmark's four workloads.

Each workload is a closed loop with one client: ``setup()`` builds
everything a user pays for once (systems, fleets, cold calibration,
generated requests), and ``body()`` is the timed unit of work, run back
to back in one process.  A body is a short sequence of ``steps()`` (one
drain, or one call per figure) whose results ``assemble()`` combines, so
the runner can gauge host speed between steps.  ``checks(result)``
returns the output checks of one body's result as
``(name, reason-or-None)`` pairs, and ``digest(result)`` hashes its
simulated outputs.

Serving workloads draw their requests and arrival times from ``seed``;
the program under test receives only the generated request list and
arrival process.  Arrival processes run in simulated time, so host load
is set by workload size, not by a rate.  ``paper-figures`` has no random
input: every seed measures the same figure points.
"""

from __future__ import annotations

import functools
import random
from pathlib import Path

from repro.calibration import CalibrationStore, prewarm
from repro.calibration.store import clear_memory_layer
from repro.experiments import (
    fig10_throughput,
    fig11_batch_sensitivity,
    fig13_spill_alpha,
    fig14_output_length,
    fig15_ablation,
)
from repro.models import get_model
from repro.serving import (
    BatchedArrivals,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    KVTier,
    LeastOutstandingTokens,
    LRUByRequest,
    PoissonArrivals,
    RoundRobin,
    TierStack,
)
from repro.serving.cluster import build_fleet
from repro.serving.engine import Node
from repro.workloads.requests import AZURE_OFFLINE_MIX, LONG, REQUEST_CLASSES, SHORT

from perfbench import checks

MODEL = "OPT-66B"
BATCH_SLOTS = 16
PREFILL_CHUNK = 512
FIGURE_MODULES = (
    fig10_throughput,
    fig11_batch_sensitivity,
    fig13_spill_alpha,
    fig14_output_length,
    fig15_ablation,
)


def azure_mix(n_requests: int, seed: int) -> list:
    """``n_requests`` classes in the Azure mix's exact proportions, seeded order.

    Drawing each class independently would let a seed move the amount of
    work by several percent; fixing the class counts keeps every seed's
    work comparable while the order and the arrival times still change.
    """
    fractions = AZURE_OFFLINE_MIX.fractions()
    counts = {name: int(f * n_requests) for name, f in fractions.items()}
    by_remainder = sorted(fractions, key=lambda name: counts[name] - fractions[name] * n_requests)
    for name in by_remainder[: n_requests - sum(counts.values())]:
        counts[name] += 1
    classes = [REQUEST_CLASSES[name] for name, count in counts.items() for _ in range(count)]
    random.Random(seed).shuffle(classes)
    return classes


class Workload:
    def body(self):
        return self.assemble([step() for step in self.steps()])


class PaperFigures(Workload):
    """Figures 10, 11, 13, 14 and 15 in full mode with persistence off.

    Every point runs ``InferenceSystem.measure()``: the hardware DES
    (``repro.sim``) takes ~99% of the time, driven by ``repro.experiments``.
    """

    name = "paper-figures"
    items = "figure points"
    figure_modules = FIGURE_MODULES

    def __init__(self, seed: int, store_dir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.reference = checks.load_reference()

    def steps(self) -> list:
        # ``run`` is looked up at call time, where the tracer patches it.
        return [
            lambda module=module: module.run(fast=False, use_store=False)
            for module in self.figure_modules
        ]

    def assemble(self, parts) -> dict[str, list]:
        return {
            module.__name__.rsplit(".", 1)[-1]: tables
            for module, tables in zip(self.figure_modules, parts)
        }

    def count(self, result) -> int:
        return sum(len(t["rows"]) for tables in self._plain(result).values() for t in tables)

    def checks(self, result, fold_ratio=None):
        plain = self._plain(result)
        return [
            (name, checks.check_figure(name, tables, self.reference.get(name, [])))
            for name, tables in plain.items()
        ]

    def digest(self, result):
        return checks.figure_digest(self._plain(result))

    @staticmethod
    def _plain(result) -> dict[str, list[dict]]:
        return {name: checks.figure_tables(tables) for name, tables in result.items()}


class _ServingWorkload(Workload):
    """A seeded request stream drained by a fleet built and calibrated in setup."""

    items = "requests drained"
    figure_modules = ()
    labels: tuple[str, ...] = ()
    guards: tuple = ()

    def __init__(self, seed: int, store_dir: Path, n_requests: int | None = None) -> None:
        self.seed = seed
        self.store_dir = store_dir
        if n_requests is not None:
            self.n_requests = n_requests

    def setup(self) -> None:
        # Cold calibration into an empty store: users pay it once per machine.
        clear_memory_layer()
        store = CalibrationStore(self.store_dir)
        prewarm.prewarm_step_grids(list(self.labels), model_name=MODEL, store=store, jobs=1)
        self.model = get_model(MODEL)
        self.scheduler = self.build(store)
        for step_time in {id(n.step_time): n.step_time for n in self.scheduler.nodes}.values():
            step_time.prewarm()
        self.requests, self.arrivals = self.inputs()

    def steps(self) -> list:
        return [functools.partial(self.scheduler.drain, self.requests, arrivals=self.arrivals)]

    def assemble(self, parts):
        return parts[0]

    def count(self, report) -> int:
        return report.n_requests

    def checks(self, report, fold_ratio=None):
        results = [
            ("accounted", checks.check_accounted(report, len(self.requests))),
            ("node-sums", checks.check_node_sums(report)),
            ("kv-capacity", checks.check_kv_capacity(report)),
        ]
        results += [(guard.__name__, guard(report)) for guard in self.guards]
        return results

    def digest(self, report):
        return checks.serving_digest(report)

    def long_contexts(self, count: float) -> float:
        return self.model.kv_cache_bytes(1, LONG.total_tokens) * count


class FleetJSQ(_ServingWorkload):
    """Heterogeneous 4-node fleet, join-shortest-queue routing, preemption.

    The fleet cannot fold, so the drain runs the serving DES engine loop,
    load-aware routing and optimistic-admission preemption on the full
    dispatch path; calibrating four distinct systems loads set-up.
    """

    name = "fleet-jsq"
    labels = ("HILOS (16 SmartSSDs)", "HILOS (8 SmartSSDs)", "HILOS (4 SmartSSDs)", "FLEX(SSD)")
    n_requests = 1024
    rate_per_second = 0.1
    guards = (checks.guard_preemptions,)

    def build(self, store) -> ClusterScheduler:
        budget = CapacityBudget(self.long_contexts(4), "four Long final contexts")
        fleet = [
            Node(
                node.system,
                step_time=node.step_time,
                budget=budget,
                prefill_chunk_tokens=PREFILL_CHUNK,
                name=node.name,
            )
            for node in build_fleet(self.model, self.labels, store=store)
        ]
        return ClusterScheduler(
            fleet,
            ContinuousBatching(BATCH_SLOTS, admission="optimistic"),
            router=LeastOutstandingTokens(),
        )

    def inputs(self):
        return (
            azure_mix(self.n_requests, self.seed),
            PoissonArrivals(self.rate_per_second, seed=self.seed),
        )


class NodeTiered(_ServingWorkload):
    """One HILOS-8 node whose KV home is an HBM-over-SSD stack under LRU.

    The only workload on the 1-node preload path, and the only one where
    the KV tier layer both demotes KV and reads spilled KV back in decode.
    """

    name = "node-tiered"
    labels = ("HILOS (8 SmartSSDs)",)
    n_requests = 512
    rate_per_second = 0.02
    guards = (checks.guard_tiering,)

    def build(self, store) -> ClusterScheduler:
        stack = TierStack(
            (
                KVTier("hbm", capacity_bytes=self.long_contexts(2)),
                KVTier(
                    "ssd",
                    capacity_bytes=self.long_contexts(16),
                    bandwidth_bytes_per_s=16e9,
                ),
            )
        )
        fleet = build_fleet(
            self.model,
            self.labels,
            store=store,
            prefill_chunk_tokens=PREFILL_CHUNK,
            kv_tiers=stack,
            kv_policy=LRUByRequest(),
        )
        return ClusterScheduler(
            fleet, ContinuousBatching(BATCH_SLOTS, admission="optimistic")
        )

    def inputs(self):
        return (
            azure_mix(self.n_requests, self.seed),
            PoissonArrivals(self.rate_per_second, seed=self.seed),
        )


class FleetFolded(_ServingWorkload):
    """Symmetric 64-node round-robin fleet drained as one representative.

    ~200k Short requests arrive in Poisson-timed bursts of 256, so the
    representative engine is small and the O(requests) bookkeeping --
    queue building, fold plan, unfold/mirror, percentiles -- dominates.
    """

    name = "fleet-folded"
    labels = ("HILOS (8 SmartSSDs)",)
    n_nodes = 64
    n_requests = 200_704  # 64 nodes x 3136 requests
    burst = 256
    rate_per_second = 0.05
    guards = (checks.guard_fleet_folded,)

    def build(self, store) -> ClusterScheduler:
        fleet = build_fleet(self.model, self.labels * self.n_nodes, store=store)
        return ClusterScheduler(
            fleet,
            ContinuousBatching(BATCH_SLOTS),
            router=RoundRobin(),
            fleet_symmetry="representative",
        )

    def inputs(self):
        return (
            [SHORT] * self.n_requests,
            BatchedArrivals(self.rate_per_second, self.burst, seed=self.seed),
        )

    def checks(self, report, fold_ratio=None):
        results = super().checks(report)
        if fold_ratio is not None:
            results.append(("fold-ratio", checks.guard_fold_ratio(fold_ratio)))
        return results


WORKLOADS = {w.name: w for w in (PaperFigures, FleetJSQ, NodeTiered, FleetFolded)}
