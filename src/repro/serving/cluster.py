"""Cluster serving: drain one request queue across a simulated fleet.

The paper's Section 6.6 comparison treats the 2-node vLLM deployment as a
cost line; this module makes multi-host serving a *scheduling target*.  A
:class:`ClusterScheduler` owns N :class:`~repro.serving.engine.Node`\\ s
and one :class:`~repro.serving.routers.Router`; ``drain()`` runs every
node's :class:`~repro.serving.engine.NodeEngine` as a process on one
shared discrete-event simulator, a dispatcher process routes each request
to a node at its arrival time, and the per-node outcomes merge into a
fleet-level :class:`~repro.serving.metrics.ServingReport` (per-node
breakdowns, preemption/wasted-prefill totals, fleet tokens/s/$).

**One delivery path.** Every drain that simulates all of its nodes -- a
single node included -- delivers through the
:class:`~repro.serving.faults.FaultDriver`: a dispatcher process hands
each request, at its arrival time, to a live node the router picks, and
the driver releases the engines once the last request completes or
sheds.  Without faults, overload control or autoscaling the driver starts
no injector and only routes arrivals and counts completions.  A 1-node cluster reports in the
single-system shape (the system's name, no router), which is what
:class:`~repro.serving.scheduler.OfflineServingScheduler` -- itself a
1-node cluster -- returns.  The golden corpus in
``tests/serving/golden/`` pins these reports across policies, arrival
processes, chunking, routers, tiers, faults, overload and autoscaling.

(Same-instant arrivals are delivered one at a time.  A parked engine wakes
*inside* the delivery of the first request of a burst -- event callbacks
run synchronously -- and admits it before the rest of the burst reaches
its queue, on one node as on many.  The folded path delivers the same
way, which is what keeps it equal to the full path, one node included.  When an arrival ties exactly with a node's iteration boundary,
heap order -- deterministic -- decides whether the request joins that
boundary or the next.)

**Fault injection.** ``ClusterScheduler(..., faults=FaultSchedule(...))``
runs the drain under a seeded fault schedule (:mod:`repro.serving.faults`):
nodes die and recover mid-drain, their requests migrate
recompute-on-migrate through the router (bounded retry), a fully-down
fleet parks arrivals until a recovery, and an unrecoverable fleet raises
a structured :class:`~repro.errors.SchedulingError` naming the stranded
requests.  :func:`check_report_conservation` extends to migration and
downtime accounting so every request is still accounted by exactly one
node.

**Overload control & elasticity.** ``overload=OverloadControl(...)``
bounds admission at the dispatcher (queue depth and/or fleet token rate;
over-limit arrivals shed, retry with seeded backoff, or park with a
deadline -- see :mod:`repro.serving.overload`), and
``autoscale=AutoscalePolicy(...)`` runs a reactive
:class:`~repro.serving.autoscale.Autoscaler` that provisions offline
spares and gracefully drains idle nodes on the fault layer's lifecycle.
Both act at the fault driver's front door; with neither (and no faults)
the driver routes every arrival unbounded.

**Fleet & request folding.** ``fleet_symmetry="auto"`` (the default)
carries the device-level representative-symmetry fast path up to hosts
and requests: when the fleet is symmetric (nodes sharing one system
instance, one calibrated step-time grid, equal budgets and chunking) and
the router is load-oblivious (:attr:`~repro.serving.routers.Router.load_oblivious`),
the drain partitions the arrival stream per the router's deterministic
cycle, groups nodes receiving identical slices, simulates **one**
representative :class:`~repro.serving.engine.NodeEngine` per group (with
identical queued requests folded into weighted representatives, see
:mod:`repro.serving.request`), and reports from (representative outcome,
multiplicity) units -- a 1000-node drain at the cost of one node, with
per-request objects built only for the representatives' slices (and for
every member only if the report's request list is read).  Heterogeneous
fleets, load-dependent routers (JSQ, BestFitKV), faults, overload
control, and autoscaling all auto-fall back to full-fleet simulation; ``"full"`` forces the fallback
and ``"representative"`` demands folding (raising a
:class:`~repro.errors.ConfigurationError` naming the blocker when the
fleet cannot fold), mirroring the device-array ``symmetry`` modes.
"""

from __future__ import annotations

import dataclasses
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

from repro.analysis.sanitizer import SanitizerError
from repro.errors import ConfigurationError, SchedulingError
from repro.models.config import ModelConfig
from repro.serving.arrivals import ArrivalProcess
from repro.serving.autoscale import Autoscaler, AutoscalePolicy
from repro.serving.engine import Node, NodeEngine
from repro.serving.faults import FaultDriver, FaultSchedule
from repro.serving.metrics import (
    NodeBreakdown,
    ServingReport,
    build_fleet_report,
    build_report,
    node_breakdown,
)
from repro.serving.overload import OverloadControl
from repro.serving.policies import ContinuousBatching, SchedulingPolicy
from repro.serving.request import FoldTable, LazyRequests, ServingRequest
from repro.serving.routers import Router, RoundRobin
from repro.sim.engine import Simulator
from repro.workloads.requests import RequestClass

#: Slot count of the default policy when a cluster is built without one.
DEFAULT_BATCH_SLOTS = 16

#: Valid ``ClusterScheduler(fleet_symmetry=...)`` modes, mirroring the
#: device-array ``symmetry`` grammar.
FLEET_SYMMETRY_MODES = ("auto", "full", "representative")


def as_request_queue(
    requests: Sequence[RequestClass] | Sequence[ServingRequest],
    arrivals: ArrivalProcess | None = None,
) -> list[ServingRequest]:
    """Validate and normalise a drain's input queue, stamping ``arrivals``.

    Every element is type-checked (mixed queues raise with the offending
    index).  Caller-built :class:`ServingRequest` queues must be fresh --
    a request that was already admitted, finished, shed or folded would
    make the drain report garbage -- and carry distinct request ids, the
    key of every KV ledger and report side table; they are stamped in
    place.  Bare
    :class:`RequestClass` shapes become an id-ordered
    :class:`~repro.serving.request.LazyRequests` held as two columns,
    classes and arrival times (zero without ``arrivals``); its
    :class:`ServingRequest` objects are built only when something reads
    the list, which a folded drain never does.
    """
    if not requests:
        raise SchedulingError("cannot drain an empty request queue")
    expected: type = (
        ServingRequest if isinstance(requests[0], ServingRequest) else RequestClass
    )
    if not all(map(isinstance, requests, repeat(expected))):
        index, request = next(
            (i, r) for i, r in enumerate(requests) if not isinstance(r, expected)
        )
        raise SchedulingError(
            f"mixed request queue: element {index} is "
            f"{type(request).__name__}, expected {expected.__name__} "
            "(queues must be all RequestClass or all ServingRequest)"
        )
    if expected is RequestClass:
        n = len(requests)
        times = [0.0] * n if arrivals is None else arrivals.checked_times(n)
        return LazyRequests.from_columns(range(n), list(requests), times)
    queue: list[ServingRequest] = list(requests)  # type: ignore[arg-type]
    first_index: dict[int, int] = {}
    for index, request in enumerate(queue):
        state = _lifecycle_state(request)
        if state is not None:
            raise SchedulingError(
                f"stale request queue: element {index} is already {state}, "
                "expected a fresh request (a drained queue cannot be drained "
                "again; build a new one)"
            )
        earlier = first_index.setdefault(request.request_id, index)
        if earlier != index:
            raise SchedulingError(
                f"duplicate request id {request.request_id} at elements "
                f"{earlier} and {index}; request ids must be unique"
            )
    if arrivals is not None:
        arrivals.assign(queue)
    return queue


def _lifecycle_state(request: ServingRequest) -> str | None:
    """The lifecycle state a queued request already carries, if any."""
    if request.finished:
        return "finished"
    if request.shed:
        return "shed"
    if request.admitted:
        return "admitted"
    if request.weight != 1:
        return f"weighted (weight {request.weight})"
    if request.folded:
        return "folded"
    return None


def check_report_conservation(
    report: ServingReport, sim_time: float | None = None
) -> None:
    """Token/request conservation between node outcomes and the fleet report.

    Every generated token and every arrived request must be accounted for
    by exactly one node breakdown -- completed on it, or shed and charged
    to it -- and the fleet's shed/retry totals must equal the per-node
    sums.  A mismatch means an engine's outcome was dropped or
    double-counted on the way into the fleet report.  Sanitized drains run
    this automatically; it is exported so tests can aim it at deliberately
    inconsistent reports.
    """
    if not report.node_reports:
        return
    node_tokens = sum(node.generated_tokens for node in report.node_reports)
    if node_tokens != report.generated_tokens:
        raise SanitizerError(
            f"fleet report counts {report.generated_tokens} generated tokens "
            f"but the node breakdowns sum to {node_tokens}",
            invariant="token-conservation",
            sim_time=sim_time,
        )
    # Shed requests never join a node's assigned list, so the node
    # n_requests sums cover only the routed share of the queue.
    node_routed = sum(node.n_requests for node in report.node_reports)
    if node_routed + report.shed_requests != report.n_requests:
        raise SanitizerError(
            f"fleet report counts {report.n_requests} n_requests but the "
            f"node breakdowns sum to {node_routed} routed plus "
            f"{report.shed_requests} shed",
            invariant="token-conservation",
            sim_time=sim_time,
        )
    node_completed = sum(node.completed for node in report.node_reports)
    if node_completed != report.completed:
        raise SanitizerError(
            f"fleet report counts {report.completed} completed but the "
            f"node breakdowns sum to {node_completed}",
            invariant="token-conservation",
            sim_time=sim_time,
        )
    # Request conservation under overload control: every request either
    # completed on exactly one node or was shed (and charged to exactly
    # one node); retry attempts conserve the same way.
    if report.completed + report.shed_requests != report.n_requests:
        raise SanitizerError(
            f"fleet report loses requests: {report.completed} completed + "
            f"{report.shed_requests} shed != {report.n_requests} arrived",
            invariant="request-conservation",
            sim_time=sim_time,
        )
    for field_name in ("shed_requests", "retry_attempts"):
        node_total = sum(getattr(node, field_name) for node in report.node_reports)
        if node_total != getattr(report, field_name):
            raise SanitizerError(
                f"fleet report counts {getattr(report, field_name)} "
                f"{field_name} but the node breakdowns sum to {node_total}",
                invariant="request-conservation",
                sim_time=sim_time,
            )
    # Conservation across migrations: the fleet totals come from per-request
    # counters, the node figures from the dying engines' counters; every
    # migration must be charged to exactly one node death.
    for field_name in ("migrations", "migrated_recompute_tokens"):
        node_total = sum(getattr(node, field_name) for node in report.node_reports)
        if node_total != getattr(report, field_name):
            raise SanitizerError(
                f"fleet report counts {getattr(report, field_name)} "
                f"{field_name} but the node breakdowns sum to {node_total}",
                invariant="migration-conservation",
                sim_time=sim_time,
            )
    node_downtime = sum(node.downtime_seconds for node in report.node_reports)
    if abs(node_downtime - report.downtime_seconds) > 1e-6:
        raise SanitizerError(
            f"fleet report carries {report.downtime_seconds} downtime "
            f"seconds but the node breakdowns sum to {node_downtime}",
            invariant="migration-conservation",
            sim_time=sim_time,
        )
    # Tier conservation at the report boundary: the fleet's spilled-decode
    # total and merged per-tier shares must equal the per-node sums, and no
    # node may report a tier peak above the tier's capacity (the tracker
    # enforces this live; the report check catches hand-built reports).
    node_spilled = sum(node.spilled_decode_seconds for node in report.node_reports)
    if abs(node_spilled - report.spilled_decode_seconds) > 1e-6:
        raise SanitizerError(
            f"fleet report carries {report.spilled_decode_seconds} spilled "
            f"decode seconds but the node breakdowns sum to {node_spilled}",
            invariant="tier-conservation",
            sim_time=sim_time,
        )
    for node in report.node_reports:
        for tier in node.kv_tiers:
            if tier.peak_occupied_bytes > tier.capacity_bytes * (1 + 1e-9) + 1e-6:
                raise SanitizerError(
                    f"node {node.node!r} tier {tier.tier!r} peaked at "
                    f"{tier.peak_occupied_bytes} bytes over its "
                    f"{tier.capacity_bytes}-byte capacity",
                    invariant="tier-conservation",
                    sim_time=sim_time,
                )
    # Fold conservation: a folded drain's (representative, multiplicity)
    # table must cover the queue exactly -- every unit stands for at least
    # one member and the units sum to n_requests.  Member objects are
    # checked only where they already exist (a plain list, or lazy members
    # somebody read): building them here would cost the whole queue.
    requests = report.requests
    folding = requests.folding if isinstance(requests, LazyRequests) else None
    if folding is not None:
        for unit, multiplicity in enumerate(folding.multiplicity):
            if multiplicity < 1:
                raise SanitizerError(
                    f"fold unit {unit} has multiplicity {multiplicity}; every "
                    "unit stands for at least one request",
                    invariant="fold-conservation",
                    sim_time=sim_time,
                )
        member_total = sum(folding.multiplicity)
        if member_total != report.n_requests:
            raise SanitizerError(
                f"fleet report counts {report.n_requests} n_requests but the "
                f"fold table's multiplicities sum to {member_total} members",
                invariant="fold-conservation",
                sim_time=sim_time,
            )
    if isinstance(requests, LazyRequests) and not requests.materialised:
        return
    for request in requests:
        if request.weight < 1:
            raise SanitizerError(
                f"request {request.request_id} reports weight "
                f"{request.weight}; every request stands for at least itself",
                invariant="fold-conservation",
                sim_time=sim_time,
            )
    if requests:
        member_total = sum(r.weight for r in requests)
        if member_total != report.n_requests:
            raise SanitizerError(
                f"fleet report counts {report.n_requests} n_requests but the "
                f"request weights sum to {member_total} members; a folded "
                "representative was not unfolded (or members were lost)",
                invariant="fold-conservation",
                sim_time=sim_time,
            )


@dataclass
class _FoldGroup:
    """One homogeneous node group of a folded fleet drain.

    ``representative`` (the group's lowest node index) is the one node
    actually simulated; every index in ``members`` received an identical
    slice of the arrival stream, so the representative's outcome mirrors
    onto each of them positionally.
    """

    representative: int
    members: list[int] = field(default_factory=list)
    #: Node index -> the queue positions of that node's slice, FCFS order.
    slices: dict[int, list[int]] = field(default_factory=dict)


def _fold_table(
    plan: list[_FoldGroup], group_units: list[list[ServingRequest]], n_members: int
) -> FoldTable:
    """The (representative, multiplicity) table of a folded drain.

    ``group_units[g]`` holds group ``g``'s outcome per slice position; each
    counts once per node of the group, and every node's slice maps its
    queue members onto those positions in order.
    """
    outcomes: list[ServingRequest] = []
    multiplicity: list[int] = []
    members = array("q", bytes(8 * n_members))
    for group, units in zip(plan, group_units):
        base = len(outcomes)
        outcomes.extend(units)
        multiplicity.extend([len(group.members)] * len(units))
        for index in group.members:
            for unit, q in enumerate(group.slices[index], base):
                members[q] = unit
    return FoldTable(outcomes, multiplicity, members)


class ClusterScheduler:
    """Drains one request queue across N nodes on a shared simulator.

    ``policy`` is shared by every node's admission loop (policies are
    consulted with per-node queues and ledgers, so one instance serves the
    whole fleet); it defaults to iteration-level continuous batching at
    :data:`DEFAULT_BATCH_SLOTS` slots.  ``router`` picks the placement
    policy (default round-robin).  All nodes must serve the same model --
    one queue means one tokenizer and one KV-per-token arithmetic.

    ``faults`` injects a :class:`~repro.serving.faults.FaultSchedule` into
    the drain: nodes die (and maybe recover) mid-drain, their requests
    migrate recompute-on-migrate through the router, and the report grows
    migration/downtime accounting with uptime-only cost billing.  An empty
    schedule is normalised to ``None``: no injector runs, and the report
    keeps its fault-free shape.

    ``overload`` bounds admission at the dispatcher (shed / retry / park,
    see :mod:`repro.serving.overload`); an empty control is normalised to
    ``None`` the same way.  ``autoscale`` hands the fleet to a reactive
    :class:`~repro.serving.autoscale.Autoscaler`: the cluster is built at
    ``max_nodes`` size, nodes past ``min_nodes`` start offline (billed
    zero until provisioned), and scale decisions land on the fleet
    report's scale-event timeline.

    ``fleet_symmetry`` selects the folding mode (see the module docstring):
    ``"auto"`` folds symmetric multi-node fleets under load-oblivious
    routers and silently falls back otherwise; ``"full"`` always simulates
    every node (byte-identical to the pre-folding drain); and
    ``"representative"`` demands folding, raising a
    :class:`~repro.errors.ConfigurationError` at construction when the
    fleet cannot fold.  ``"auto"`` never folds a single-node cluster:
    with one node there is nothing to fold, so it takes the full path.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        policy: SchedulingPolicy | None = None,
        router: Router | None = None,
        faults: FaultSchedule | None = None,
        overload: OverloadControl | None = None,
        autoscale: AutoscalePolicy | None = None,
        fleet_symmetry: str = "auto",
    ) -> None:
        self.nodes = list(nodes)
        if not self.nodes:
            raise ConfigurationError("a cluster needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"duplicate node names in cluster: {', '.join(dupes)} "
                "(name= disambiguates nodes sharing a system label)"
            )
        models = {id(node.system.model): node.system.model for node in self.nodes}
        if len({m.name for m in models.values()}) > 1:
            raise ConfigurationError(
                "cluster nodes serve different models ("
                + ", ".join(sorted({m.name for m in models.values()}))
                + "); one queue requires one model"
            )
        self.policy = policy or ContinuousBatching(DEFAULT_BATCH_SLOTS)
        self.router = router or RoundRobin()
        if faults is not None and not faults.is_empty:
            faults.validate_for(len(self.nodes))
            self.faults: FaultSchedule | None = faults
        else:
            self.faults = None
        # An OverloadControl with no bound set is a no-op; normalise it to
        # None (mirroring the empty-FaultSchedule rule) so overload-off
        # drains deliver unbounded and stay eligible for folding.
        if overload is not None and not overload.is_empty:
            self.overload: OverloadControl | None = overload
        else:
            self.overload = None
        if autoscale is not None:
            autoscale.validate_for(len(self.nodes))
        self.autoscale = autoscale
        if fleet_symmetry not in FLEET_SYMMETRY_MODES:
            raise ConfigurationError(
                f"unknown fleet_symmetry {fleet_symmetry!r}; expected one of "
                + ", ".join(FLEET_SYMMETRY_MODES)
            )
        self.fleet_symmetry = fleet_symmetry
        if fleet_symmetry == "representative":
            reason = self._fold_ineligibility()
            if reason is not None:
                raise ConfigurationError(
                    "fleet_symmetry='representative' requires a foldable "
                    f"fleet, but {reason}; use 'auto' to fall back to "
                    "full-fleet simulation"
                )

    @property
    def _controlled(self) -> bool:
        """Whether faults, overload control or autoscaling manage the fleet."""
        return (
            self.faults is not None
            or self.overload is not None
            or self.autoscale is not None
        )

    def _fold_ineligibility(self) -> str | None:
        """Why this cluster cannot run a folded drain (``None`` if it can).

        Folding needs a placement that is a pure function of the arrival
        sequence (a load-oblivious router, no liveness-aware driver
        dispatcher) over a symmetric fleet: representative outcomes are
        only transferable to nodes that would have simulated identically.
        Sharing is checked by *instance*, matching how
        :func:`build_fleet` shares one system and one calibrated grid per
        label -- two separately-calibrated step-time models are not
        interchangeable even when configured alike.
        """
        if self._controlled:
            return (
                "faults/overload/autoscale drains need the liveness-aware "
                "full-fleet dispatcher"
            )
        if not self.router.load_oblivious:
            return f"router {self.router.name!r} routes on live node load"
        if any(node.kv_tiers is not None for node in self.nodes):
            return (
                "tiered KV nodes track per-request tier residency, which "
                "weighted representatives cannot mirror"
            )
        first = self.nodes[0]
        for node in self.nodes[1:]:
            if node.system is not first.system:
                return f"node {node.name!r} does not share the fleet's system instance"
            if node.step_time is not first.step_time:
                return (
                    f"node {node.name!r} does not share the fleet's "
                    "calibrated step-time instance"
                )
            if node.budget.kv_capacity_bytes != first.budget.kv_capacity_bytes:
                return f"node {node.name!r} has a different KV capacity budget"
            if node.prefill_chunk_tokens != first.prefill_chunk_tokens:
                return f"node {node.name!r} has a different prefill chunk size"
        return None

    # --- the drain -------------------------------------------------------------

    def drain(
        self,
        requests: Sequence[RequestClass] | Sequence[ServingRequest],
        arrivals: ArrivalProcess | None = None,
    ) -> ServingReport:
        """Run the queue to empty across the fleet; return the fleet report.

        ``arrivals`` stamps the queue with an arrival schedule before the
        simulation starts; without it requests keep the arrival times they
        carry (zero for queues built from bare :class:`RequestClass`
        shapes -- the classic offline drain).
        """
        queue = as_request_queue(requests, arrivals)
        self.router.reset()
        if self._folds():
            return self._drain_folded(queue)
        ordered = sorted(queue, key=lambda r: (r.arrival_time, r.request_id))
        sim = Simulator()
        engines = [NodeEngine(node, self.policy, sim) for node in self.nodes]
        counters_before = self._clamp_counters()
        # Every full drain delivers through the fault driver: it routes only
        # to live engines, re-routes what a dying node returns, and -- not
        # the arrival stream -- releases the engines once the last request
        # completes or sheds, since migrations and retries can still be in
        # flight after the last arrival.
        driver = FaultDriver(
            sim,
            engines,
            self.router,
            self.faults or FaultSchedule(),
            total_requests=len(ordered),
            overload=self.overload,
        )
        for engine in engines:
            engine.driver = driver
        autoscaler: Autoscaler | None = None
        if self.autoscale is not None:
            # Nodes past min_nodes start as unbilled offline spares the
            # autoscaler can provision.
            for engine in engines[self.autoscale.min_nodes :]:
                engine.start_offline()
            autoscaler = Autoscaler(sim, engines, self.autoscale, driver)
        processes = [
            sim.process(
                self._route_arrivals(sim, ordered, driver), name="cluster.route"
            ),
            sim.process(driver.redispatch(), name="cluster.redispatch"),
        ]
        processes.extend(
            sim.process(engine.run(), name=f"{engine.node.name}.drain")
            for engine in engines
        )
        # Injectors (and the autoscaler's tick) are fire-and-forget: a spot
        # stream's next draw or decision timer past the drain's end must not
        # hold the conjunction open.
        driver.start_injectors()
        if autoscaler is not None:
            autoscaler.start()
        sim.run(sim.all_of(processes))
        breakdowns = tuple(
            node_breakdown(
                engine.node.name,
                engine.node.system,
                engine.assigned,
                makespan_seconds=sim.now,
                peak_kv_reserved_bytes=engine.tracker.peak_reserved_bytes,
                kv_capacity_bytes=engine.node.budget.kv_capacity_bytes,
                migrations=engine.migrations,
                migrated_recompute_tokens=engine.migrated_recompute_tokens,
                downtime_seconds=engine.downtime_seconds,
                shed_requests=engine.shed_requests,
                shed_retry_attempts=engine.shed_retry_attempts,
                kv_tiers=engine.tier_reports(),
                spilled_decode_seconds=engine.spilled_decode_seconds,
            )
            for engine in engines
        )
        report = self._report(
            sim,
            engines,
            counters_before,
            queue,
            breakdowns,
            fleet_symmetry="full",
            sheds=tuple(driver.sheds),
            scale_events=tuple(autoscaler.events) if autoscaler is not None else (),
        )
        # Engines and driver point at each other: unlink them so the
        # finished drain is freed by reference counting, not by a
        # collector pass whose timing shifts peak memory.
        for engine in engines:
            engine.driver = None
        return report

    @property
    def fleet_name(self) -> str:
        """Display label: ``"4x HILOS (8 SmartSSDs)"`` or ``"fleet(3 nodes)"``."""
        systems = [node.system.name for node in self.nodes]
        if len(set(systems)) == 1:
            return f"{len(systems)}x {systems[0]}"
        return f"fleet({len(systems)} nodes)"

    def _route_arrivals(self, sim: Simulator, ordered, driver: FaultDriver):
        """Dispatcher process: deliver each request at its arrival time.

        Exhausting the arrival stream does *not* release the engines --
        migrated or backed-off requests may still be bouncing through the
        driver, which calls ``finish_arrivals`` only once the last request
        completes or sheds.
        """
        for request in ordered:
            if request.arrival_time > sim.now:
                yield sim.timeout(request.arrival_time - sim.now)
            yield from driver.deliver(request)

    # --- the folded (representative) drain --------------------------------------

    def _folds(self) -> bool:
        """Whether this drain takes the folded (representative) path.

        Not under ``fleet_symmetry="full"``, nor under ``"auto"`` for an
        ineligible fleet or a single node (one node has nothing to fold; the
        two paths agree on it anyway).
        """
        if self.fleet_symmetry == "full":
            return False
        return self.fleet_symmetry == "representative" or (
            len(self.nodes) > 1 and self._fold_ineligibility() is None
        )

    def _fold_plan(
        self,
        order: Sequence[int],
        classes: Sequence[RequestClass],
        arrival_times: Sequence[float],
    ) -> list[_FoldGroup]:
        """Partition the stream per the router's cycle and group the nodes.

        ``order`` lists the queue positions in arrival order.  Every node's
        slice comes from
        :meth:`~repro.serving.routers.Router.static_assignments`, and nodes
        whose slices carry identical request classes and arrival times,
        position by position, merge into one :class:`_FoldGroup`.  Slices
        are compared as per-node columns, not per-request signature tuples.
        """
        n_nodes = len(self.nodes)
        assignments = self.router.static_assignments(len(order), n_nodes)
        if len(assignments) != len(order) or (
            assignments and not 0 <= min(assignments) <= max(assignments) < n_nodes
        ):
            raise SchedulingError(
                f"router {self.router.name!r} produced an invalid static "
                f"assignment for {len(order)} requests over "
                f"{n_nodes} nodes"
            )
        slices: list[list[int]] = [[] for _ in self.nodes]
        for position, node_index in zip(order, assignments):
            slices[node_index].append(position)
        groups: list[_FoldGroup] = []
        # Slices keyed by their arrival-time column; nodes sharing one
        # compare class columns (identity-fast list equality).
        by_times: dict[tuple, list[tuple[list, _FoldGroup]]] = {}
        for index, positions in enumerate(slices):
            node_classes = list(map(classes.__getitem__, positions))
            candidates = by_times.setdefault(
                tuple(map(arrival_times.__getitem__, positions)), []
            )
            for group_classes, group in candidates:
                if group_classes == node_classes:
                    group.members.append(index)
                    group.slices[index] = positions
                    break
            else:
                group = _FoldGroup(
                    representative=index, members=[index], slices={index: positions}
                )
                candidates.append((node_classes, group))
                groups.append(group)
        return groups

    def _drain_folded(self, queue: list[ServingRequest]) -> ServingReport:
        """Run one representative engine per node group and mirror the rest.

        Only the representatives' slices become :class:`ServingRequest`
        objects.  They are delivered request by request by a single
        dispatcher walking the merged arrival order -- the dispatcher wakes
        at exactly the instants the full-fleet dispatcher delivers to the
        representative (every mirrored node's arrival times are, by group
        construction, also its representative's), so the event
        interleaving matches the full path.  Request folding happens
        *inside* each representative engine
        (:attr:`~repro.serving.engine.NodeEngine.fold_requests`): at every
        scheduling point, adjacent identical waiting requests collapse into
        weighted representatives -- folding at delivery time would merge
        requests the full path admits separately, because a parked engine
        wakes (and admits) inside the dispatcher's first same-time
        delivery, before the rest of a burst reaches its queue.

        After the drain, each slice position's outcome is the
        representative it ended up folded into; a
        :class:`~repro.serving.request.FoldTable` maps every queue member to
        that position with its group's multiplicity, and the report reads
        the table (building member objects only if asked).
        Mirrored nodes get their representative's breakdown under their
        own name; caller-built queues get every outcome written back.
        """
        if isinstance(queue, LazyRequests):
            owned = None
            request_ids, classes, arrival_times = queue.columns
            # Id order is arrival order: checked_times is non-decreasing.
            order: Sequence[int] = range(len(request_ids))
        else:
            owned = queue
            request_ids = [r.request_id for r in owned]
            classes = [r.request_class for r in owned]
            arrival_times = [r.arrival_time for r in owned]
            order = sorted(
                range(len(owned)), key=lambda q: (arrival_times[q], request_ids[q])
            )
        plan = self._fold_plan(order, classes, arrival_times)
        sim = Simulator()
        counters_before = self._clamp_counters()
        engines: dict[int, NodeEngine] = {}
        pieces: dict[int, list[ServingRequest]] = {}
        deliveries: list[tuple[tuple, NodeEngine, ServingRequest]] = []
        for group in plan:
            engine = NodeEngine(self.nodes[group.representative], self.policy, sim)
            engine.fold_requests = True
            engines[group.representative] = engine
            pieces[group.representative] = rep_pieces = []
            for q in group.slices[group.representative]:
                piece = ServingRequest(request_ids[q], classes[q], arrival_times[q])
                rep_pieces.append(piece)
                # Merged arrival order: (time, id), ties in queue order.
                key = (arrival_times[q], request_ids[q], q)
                deliveries.append((key, engine, piece))
        deliveries.sort(key=lambda item: item[0])
        processes = [
            sim.process(
                self._dispatch_folded(sim, deliveries, engines),
                name="cluster.route",
            )
        ]
        processes.extend(
            sim.process(engine.run(), name=f"{engine.node.name}.drain")
            for engine in engines.values()
        )
        sim.run(sim.all_of(processes))

        # Each slice position's outcome is the representative it ended up
        # in: itself, or the piece whose ``folded`` list holds it.
        group_units = []
        for group in plan:
            rep_pieces = pieces[group.representative]
            carrier = {
                member.request_id: piece
                for piece in rep_pieces
                for member in piece.folded
            }
            group_units.append(
                [carrier.get(piece.request_id, piece) for piece in rep_pieces]
            )
        folding = _fold_table(plan, group_units, len(request_ids))
        breakdowns: dict[int, NodeBreakdown] = {}
        for group, units in zip(plan, group_units):
            rep = group.representative
            positions = group.slices[rep]
            rep_slice = LazyRequests.from_columns(
                [request_ids[q] for q in positions],
                [classes[q] for q in positions],
                [arrival_times[q] for q in positions],
                folding=FoldTable(units, [1] * len(units), range(len(units))),
            )
            breakdown = node_breakdown(
                self.nodes[rep].name,
                self.nodes[rep].system,
                rep_slice,
                makespan_seconds=sim.now,
                peak_kv_reserved_bytes=engines[rep].tracker.peak_reserved_bytes,
                kv_capacity_bytes=self.nodes[rep].budget.kv_capacity_bytes,
            )
            for index in group.members:
                breakdowns[index] = dataclasses.replace(
                    breakdown, node=self.nodes[index].name
                )
        if owned is None:
            queue.folding = folding
            reported = queue
        else:
            for request, unit in zip(owned, folding.members):
                request.copy_outcome_from(folding.outcomes[unit])
            reported = LazyRequests(owned)
            reported.folding = folding
        return self._report(
            sim,
            engines.values(),
            counters_before,
            reported,
            tuple(breakdowns[index] for index in range(len(self.nodes))),
            fleet_symmetry="representative",
        )

    def _dispatch_folded(self, sim: Simulator, deliveries, engines):
        """Folded dispatcher: deliver each folded piece at its arrival time."""
        for _, engine, piece in deliveries:
            if piece.arrival_time > sim.now:
                yield sim.timeout(piece.arrival_time - sim.now)
            engine.enqueue(piece)
        for engine in engines.values():
            engine.finish_arrivals()

    # --- the drain epilogue ----------------------------------------------------

    def _clamp_counters(self) -> dict:
        """Snapshot each distinct step-time model's clamp counters.

        The counters are shared and monotonic, so a drain's notes cover
        only its own off-grid queries by diffing against this snapshot.
        Keyed by model identity: symmetric fleets legitimately share one
        step-time instance.
        """
        return {
            id(n.step_time): (n.step_time, n.step_time.clamp_counters())
            for n in self.nodes
        }

    def _step_time_notes(self, counters_before: dict) -> dict:
        """Per-drain clamp summaries, merged across the fleet's models.

        Single-node drains embed the summary directly (the single-system
        report shape); fleets key each distinct model's summary by the
        names of the nodes sharing it, dropping empty summaries.
        """
        if len(self.nodes) == 1:
            ((model, before),) = counters_before.values()
            return model.grid_clamp_summary(since=before)
        notes = {}
        for model, before in counters_before.values():
            summary = model.grid_clamp_summary(since=before)
            if summary:
                users = [n.name for n in self.nodes if n.step_time is model]
                notes[",".join(users)] = summary
        return notes

    def _report(
        self,
        sim: Simulator,
        engines,
        counters_before: dict,
        requests,
        node_reports: tuple[NodeBreakdown, ...],
        fleet_symmetry: str,
        sheds: tuple = (),
        scale_events: tuple = (),
    ) -> ServingReport:
        """The epilogue every drain shares: checks, notes, report.

        A sanitized drain first checks that every engine's KV ledger is
        fully released and nothing is still parked on an untriggered
        event, then the report's token/request conservation.  A single
        node without faults, overload control or autoscaling reports in
        the single-system shape (its system's name, no router, and an empty
        ``fleet_symmetry`` unless folded); everything else reports as a
        fleet.
        """
        if sim.sanitizer is not None:
            for engine in engines:
                engine.tracker.assert_drained(context=f"node {engine.node.name!r}")
            sim.sanitize_check_drained()
        notes = self._step_time_notes(counters_before)
        if len(self.nodes) == 1 and not self._controlled:
            report = build_report(
                self.nodes[0].system,
                self.policy.name,
                requests,
                makespan_seconds=sim.now,
                node_reports=node_reports,
                step_time_notes=notes,
                fleet_symmetry="" if fleet_symmetry == "full" else fleet_symmetry,
            )
        else:
            report = build_fleet_report(
                fleet_name=self.fleet_name,
                policy_name=self.policy.name,
                router_name=self.router.name,
                requests=requests,
                makespan_seconds=sim.now,
                node_reports=node_reports,
                step_time_notes=notes,
                sheds=sheds,
                scale_events=scale_events,
                fleet_symmetry=fleet_symmetry,
            )
        if sim.sanitizer is not None:
            check_report_conservation(report, sim_time=sim.now)
        return report


def build_fleet(
    model: ModelConfig,
    labels: Sequence[str],
    store=None,
    batch_grid: tuple[int, ...] | None = None,
    seq_grid: tuple[int, ...] | None = None,
    symmetry: str = "auto",
    prefill_chunk_tokens: int | None = None,
    kv_tiers=None,
    kv_policy=None,
) -> list[Node]:
    """Build a fleet from system labels, one node per label entry.

    Repeat a label for a symmetric fleet (``["HILOS (8 SmartSSDs)"] * 4``)
    or mix labels for a heterogeneous one.  Nodes sharing a label share
    **one** system instance and **one**
    :class:`~repro.serving.steptime.CalibratedStepTime` resolved through
    ``store`` (and the optional grid overrides), so a fleet's calibration
    cost is per distinct label, not per node -- and warm stores make even
    heterogeneous fleets start measurement-free.  Nodes are named
    ``node0`` .. ``nodeN-1`` in label order.

    ``kv_tiers`` (a :class:`~repro.serving.kvtiers.TierStack`) gives every
    node that tier stack instead of the flat system budget, with
    ``kv_policy`` selecting the eviction/offload policy; the frozen stack
    and the (stateless) policy are shared across nodes -- each engine
    still builds its own per-drain tier ledgers.
    """
    from repro.baselines.registry import build_inference_system
    from repro.serving.steptime import CalibratedStepTime

    if not labels:
        raise ConfigurationError("build_fleet needs at least one system label")
    shared: dict[str, tuple] = {}
    nodes = []
    for index, label in enumerate(labels):
        if label not in shared:
            system = build_inference_system(label, model)
            system.symmetry = symmetry
            grids = {}
            if batch_grid is not None:
                grids["batch_grid"] = batch_grid
            if seq_grid is not None:
                grids["seq_grid"] = seq_grid
            shared[label] = (system, CalibratedStepTime(system, store=store, **grids))
        system, step_time = shared[label]
        nodes.append(
            Node(
                system,
                step_time=step_time,
                prefill_chunk_tokens=prefill_chunk_tokens,
                name=f"node{index}",
                kv_tiers=kv_tiers,
                kv_policy=kv_policy,
            )
        )
    return nodes
