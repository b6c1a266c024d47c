"""Aggregate serving metrics: throughput, latency percentiles, cost.

The tokens/s/$ figure reuses the Figure 16a capital-cost model, deriving the
priced configuration directly from the measured system's hardware config so
serving reports stay consistent with the paper's cost analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.cost import CostModel, cost_efficiency
from repro.baselines.base import InferenceSystem
from repro.errors import SchedulingError
from repro.serving.request import FoldTable, LazyRequests, ServingRequest


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]) of a non-empty list."""
    if not values:
        raise SchedulingError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise SchedulingError(f"percentile fraction {fraction} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def weighted_percentile(
    values: list[float], weights: list[int], fraction: float
) -> float:
    """Nearest-rank percentile of the weight-expanded multiset.

    Equivalent to :func:`percentile` over ``values`` with each entry
    repeated ``weights[i]`` times, computed by rank selection over the
    sorted ``(value, weight)`` pairs without materialising the expansion.
    This is the fold-aware SLO path: folded representatives carry their
    member count as :attr:`~repro.serving.request.ServingRequest.weight`,
    so percentiles over weighted representatives match the unfolded
    distribution exactly (property-tested in
    ``tests/serving/test_fleet_folding.py``).  With every weight 1 this
    degenerates to :func:`percentile`.
    """
    if len(values) != len(weights):
        raise SchedulingError(
            f"weighted percentile got {len(values)} values but "
            f"{len(weights)} weights"
        )
    if not values:
        raise SchedulingError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise SchedulingError(f"percentile fraction {fraction} outside (0, 1]")
    total = 0
    for weight in weights:
        if weight < 1:
            raise SchedulingError(
                f"weighted percentile needs positive weights, got {weight!r}"
            )
        total += weight
    rank = max(1, math.ceil(fraction * total))
    ordered = sorted(zip(values, weights))
    accumulated = 0
    for value, weight in ordered:
        accumulated += weight
        if accumulated >= rank:
            return value
    return ordered[-1][0]


def system_cost_model(system: InferenceSystem) -> CostModel:
    """Price a system from its hardware config (host, GPU, drives, chassis)."""
    hardware = system.hardware_config()
    return CostModel(
        label=system.name,
        gpu=system.gpu,
        n_conventional_ssds=hardware.n_conventional_ssds,
        n_smartssds=hardware.n_smartssds,
        needs_expansion=hardware.n_smartssds > 0,
    )


def uptime_billing(
    cost_usd: float, downtime_seconds: float, makespan_seconds: float
) -> tuple[float, str | None]:
    """Bill a node only for its uptime fraction of the drain.

    Returns ``(billed_cost, note)``.  The note is ``None`` on the normal
    path and a structured explanation on the degenerate ones: a
    zero-length drain with downtime, or downtime exceeding the makespan
    (both bill $0 rather than full price or a negative cost).
    """
    if downtime_seconds <= 0.0:
        return cost_usd, None
    if makespan_seconds <= 0:
        return 0.0, (
            f"zero-length drain with {downtime_seconds:g}s downtime; "
            "uptime fraction undefined, billed $0"
        )
    fraction = 1.0 - downtime_seconds / makespan_seconds
    if fraction < 0.0:
        return 0.0, (
            f"downtime {downtime_seconds:g}s exceeds the {makespan_seconds:g}s "
            "makespan; uptime fraction clamped to 0, billed $0"
        )
    return cost_usd * fraction, None


@dataclass(frozen=True)
class TierReport:
    """One KV tier's share of a drain (tiered nodes only).

    ``hit_rate`` is this tier's fraction of the decode-iteration KV read
    bytes -- every running request re-reads its current KV each iteration,
    and the share resident below the top tier is what the offloaded-
    attention surcharge billed (``spilled_decode_seconds`` on the owning
    breakdown).  ``demoted_bytes`` counts pressure-driven movement *into*
    the tier, ``promoted_bytes`` movement *out of* it back to the top.
    """

    tier: str
    capacity_bytes: float
    peak_occupied_bytes: float
    demoted_bytes: float
    promoted_bytes: float
    decode_read_bytes: float
    hit_rate: float


def merge_tier_reports(
    node_reports: tuple["NodeBreakdown", ...],
) -> tuple[TierReport, ...]:
    """Merge per-node tier shares into fleet-wide per-tier totals.

    Tiers merge by name in first-seen stack order; hit rates are
    recomputed over the fleet-wide read bytes.  Flat nodes contribute
    nothing, so a mixed flat/tiered fleet reports only the tiered share.
    """
    order: list[str] = []
    totals: dict[str, list[float]] = {}
    for node in node_reports:
        for tier in node.kv_tiers:
            if tier.tier not in totals:
                order.append(tier.tier)
                totals[tier.tier] = [0.0, 0.0, 0.0, 0.0, 0.0]
            entry = totals[tier.tier]
            entry[0] += tier.capacity_bytes
            entry[1] += tier.peak_occupied_bytes
            entry[2] += tier.demoted_bytes
            entry[3] += tier.promoted_bytes
            entry[4] += tier.decode_read_bytes
    total_reads = sum(entry[4] for entry in totals.values())
    return tuple(
        TierReport(
            tier=name,
            capacity_bytes=totals[name][0],
            peak_occupied_bytes=totals[name][1],
            demoted_bytes=totals[name][2],
            promoted_bytes=totals[name][3],
            decode_read_bytes=totals[name][4],
            hit_rate=(
                totals[name][4] / total_reads if total_reads > 0.0 else 0.0
            ),
        )
        for name in order
    )


@dataclass(frozen=True)
class NodeBreakdown:
    """One node's share of a fleet drain (see :mod:`repro.serving.cluster`).

    ``tokens_per_second`` is the node's generated tokens over the *fleet*
    makespan, so the per-node rates sum to the fleet rate; a node that was
    routed nothing contributes all-zero counters (and no latency figure).

    Under fault injection, ``migrations`` / ``migrated_recompute_tokens``
    are charged to the node that *died* (the per-request counters travel
    to the completing node, so ``preemptions``/``wasted_prefill_tokens``
    attribute there); ``downtime_seconds`` is time spent DOWN, and
    ``cost_usd`` is billed only for UP time -- a preempted spot node costs
    its uptime fraction of the capital price, which is exactly the
    discount the spot-vs-recompute trade prices.
    """

    node: str
    system: str
    n_requests: int
    completed: int
    generated_tokens: int
    tokens_per_second: float
    mean_latency_seconds: float
    peak_kv_reserved_bytes: float
    kv_capacity_bytes: float
    preemptions: int
    wasted_prefill_tokens: int
    cost_usd: float
    #: Latency percentiles of the requests completed on this node (zero
    #: when nothing finished here); lets tests assert mirrored breakdowns
    #: preserve the latency *distribution*, not just its mean.
    p50_latency_seconds: float = 0.0
    p95_latency_seconds: float = 0.0
    p99_latency_seconds: float = 0.0
    migrations: int = 0
    migrated_recompute_tokens: int = 0
    downtime_seconds: float = 0.0
    #: Requests admission control shed against this node's backlog.
    shed_requests: int = 0
    #: Backoff re-deliveries by requests that ended here (or were shed here).
    retry_attempts: int = 0
    #: Tokens from completed (never-shed) requests over the fleet makespan.
    goodput_tokens_per_s: float = 0.0
    #: Structured uptime-billing caveat (degenerate drains only).
    billing_note: str | None = None
    #: Per-tier occupancy/movement/hit-rate shares (tiered nodes only;
    #: see :class:`TierReport`).  Empty for flat-budget nodes.
    kv_tiers: tuple = ()
    #: Extra decode seconds this node's spilled-attention reads cost
    #: (near-storage rate for KV resident below the top tier).
    spilled_decode_seconds: float = 0.0


@dataclass(frozen=True)
class ServingReport:
    """Outcome of draining one request queue under one policy.

    Fleet drains (:class:`~repro.serving.cluster.ClusterScheduler` with
    more than one node) fill ``router`` and ``node_reports``; single-node
    drains leave ``router`` empty and carry exactly one breakdown, so the
    legacy single-system report shape is a special case of the fleet one.
    """

    system: str
    policy: str
    n_requests: int
    completed: int
    makespan_seconds: float
    generated_tokens: int
    tokens_per_second: float
    mean_latency_seconds: float
    p95_latency_seconds: float
    mean_queueing_seconds: float
    peak_kv_reserved_bytes: float
    kv_capacity_bytes: float
    system_cost_usd: float
    tokens_per_second_per_usd: float
    #: Total evictions across the drain (optimistic admission only; zero
    #: under reserve-mode accounting).
    preemptions: int = 0
    #: Context tokens whose KV preemptions dropped and readmission prefills
    #: had to recompute -- the work optimistic admission gambled away
    #: (includes the migration share counted in
    #: ``migrated_recompute_tokens``).
    wasted_prefill_tokens: int = 0
    #: Requests re-routed off dying nodes (fault-injected drains only).
    migrations: int = 0
    #: Context tokens dropped by node deaths and recomputed elsewhere.
    migrated_recompute_tokens: int = 0
    #: Summed per-node DOWN time; ``system_cost_usd`` already reflects the
    #: uptime-only billing, so tokens/s/$ prices spot capacity honestly.
    downtime_seconds: float = 0.0
    #: Requests admission control rejected (structured, never silent;
    #: see :class:`~repro.serving.overload.ShedRequest`).
    shed_requests: int = 0
    #: Total admission-control backoff re-deliveries across the queue.
    retry_attempts: int = 0
    #: Tokens from completed (never-shed) requests over the makespan --
    #: the useful-work rate an overloaded drain actually sustained.
    goodput_tokens_per_s: float = 0.0
    #: Median and tail latency alongside the p95 figure (nearest-rank,
    #: over completed requests; zero when nothing finished).
    p50_latency_seconds: float = 0.0
    p99_latency_seconds: float = 0.0
    #: Which fleet path produced this report: ``"representative"`` when the
    #: drain folded symmetric node groups to representative engines,
    #: ``"full"`` when every node was simulated, ``""`` for single-node
    #: legacy-shape reports.
    fleet_symmetry: str = ""
    #: Per-request outcomes, in queue order, as plain weight-1 requests.
    #: A folded drain reports a :class:`~repro.serving.request.LazyRequests`:
    #: its figures come from (representative, multiplicity) units, and the
    #: member objects -- one per request -- are built only when this list
    #: is first read, then cached (``len()`` alone builds nothing).
    requests: list[ServingRequest] = field(default_factory=list, repr=False)
    #: Structured warnings from the step-time model (e.g. queries clamped to
    #: the calibration grid edge); empty when the drain stayed on-grid.
    step_time_notes: dict = field(default_factory=dict)
    #: Placement policy that sharded the queue across nodes (fleet drains
    #: only; empty for single-node drains, where routing is trivial).
    router: str = ""
    #: Per-node share of a fleet drain (one entry per node, in node order).
    node_reports: tuple[NodeBreakdown, ...] = field(default=(), repr=False)
    #: Structured shed outcomes, in shed order (overloaded drains only).
    sheds: tuple = field(default=(), repr=False)
    #: Autoscaler decision timeline (autoscaled drains only; see
    #: :class:`~repro.serving.autoscale.ScaleEvent`).
    scale_events: tuple = field(default=(), repr=False)
    #: Per-node uptime-billing caveats, as ``"node: note"`` strings.
    billing_notes: tuple = ()
    #: Fleet-merged per-tier KV shares (tiered drains only; tiers merge by
    #: name across nodes, hit rates over fleet-wide reads).
    kv_tiers: tuple = ()
    #: Summed extra decode seconds spilled-attention reads cost the fleet.
    spilled_decode_seconds: float = 0.0

    @property
    def all_completed(self) -> bool:
        """Whether the drain finished every request (no starvation)."""
        return self.completed == self.n_requests

    @property
    def all_accounted(self) -> bool:
        """Whether every request either completed or was explicitly shed."""
        return self.completed + self.shed_requests == self.n_requests

    def per_class_mean_latency(self) -> dict[str, float]:
        """Mean latency split by request class (Short/Medium/Long)."""
        sums: dict[str, list[float]] = {}
        for request in self.requests:
            if request.finished:
                sums.setdefault(request.request_class.name, []).append(
                    request.latency_seconds
                )
        return {name: sum(vals) / len(vals) for name, vals in sums.items()}


@dataclass
class _Summary:
    """What a report needs from its requests, read over outcome units.

    A plain request list is one unit per request; a folded drain's
    :class:`~repro.serving.request.LazyRequests` gives one unit per
    representative-slice position with its multiplicity, so integer
    totals multiply instead of iterating members.  The latency and
    queueing columns list every finished *member* in queue order, so
    their means sum the same floats in the same order as the member list.
    """

    n_requests: int
    completed: int
    generated_tokens: int
    latencies: list[float]
    queueing: list[float]
    #: Finished units' latencies and multiplicities: the exact
    #: weight-expanded multiset :func:`weighted_percentile` ranks.
    unit_latencies: list[float]
    unit_weights: list[int]
    preemptions: int
    wasted_prefill_tokens: int
    migrations: int
    migrated_recompute_tokens: int
    retry_attempts: int

    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    def mean_queueing(self) -> float:
        return sum(self.queueing) / len(self.queueing) if self.queueing else 0.0

    def latency_percentile(self, fraction: float) -> float:
        if not self.unit_latencies:
            return 0.0
        return weighted_percentile(self.unit_latencies, self.unit_weights, fraction)


def _summarise(requests) -> _Summary:
    """Fold-aware totals and columns of a report's request list."""
    folding = requests.folding if isinstance(requests, LazyRequests) else None
    if folding is None:
        units: Sequence[ServingRequest] = list(requests)
        counts: Sequence[int] = [1] * len(units)
    else:
        units, counts = folding.outcomes, folding.multiplicity
    done = [k for k, unit in enumerate(units) if unit.finished]
    weights = [counts[k] for k in done]
    latencies = [units[k].latency_seconds for k in done]
    queueing = [units[k].queueing_seconds for k in done]
    unit_latencies = latencies
    if folding is not None:
        latencies = _member_column(folding, len(units), done, latencies)
        queueing = _member_column(folding, len(units), done, queueing)

    def total(name: str, over) -> int:
        return sum(getattr(units[k], name) * counts[k] for k in over)

    every = range(len(units))
    return _Summary(
        n_requests=len(requests),
        completed=sum(weights),
        generated_tokens=total("tokens_generated", done),
        latencies=latencies,
        queueing=queueing,
        unit_latencies=unit_latencies,
        unit_weights=weights,
        preemptions=total("preemption_count", every),
        wasted_prefill_tokens=total("wasted_prefill_tokens", every),
        migrations=total("migration_count", every),
        migrated_recompute_tokens=total("migrated_recompute_tokens", every),
        retry_attempts=total("retry_attempts", every),
    )


def _member_column(
    folding: FoldTable, n_units: int, done: list[int], values: list[float]
) -> list[float]:
    """Finished units' ``values`` expanded to every finished member, in queue order."""
    per_unit: list = [None] * n_units
    for k, value in zip(done, values):
        per_unit[k] = value
    column = folding.expand(per_unit)
    if len(done) < n_units:
        column = [value for value in column if value is not None]
    return column


def _kept(requests) -> list[ServingRequest]:
    """The list a report keeps: a folded drain's lazy members as they are
    (reading them is what builds them), otherwise a copy."""
    if isinstance(requests, LazyRequests) and requests.folding is not None:
        return requests
    return list(requests)


def build_report(
    system: InferenceSystem,
    policy_name: str,
    requests: list[ServingRequest],
    makespan_seconds: float,
    peak_kv_reserved_bytes: float,
    kv_capacity_bytes: float,
    step_time_notes: dict | None = None,
    node_reports: tuple[NodeBreakdown, ...] = (),
    fleet_symmetry: str = "",
) -> ServingReport:
    """Aggregate per-request state into a :class:`ServingReport`."""
    summary = _summarise(requests)
    if not summary.completed:
        raise SchedulingError("drain completed no requests; nothing to report")
    if makespan_seconds <= 0:
        raise SchedulingError("drain makespan must be positive")
    tokens_per_second = summary.generated_tokens / makespan_seconds
    cost = system_cost_model(system)
    return ServingReport(
        system=system.name,
        policy=policy_name,
        n_requests=summary.n_requests,
        completed=summary.completed,
        makespan_seconds=makespan_seconds,
        generated_tokens=summary.generated_tokens,
        tokens_per_second=tokens_per_second,
        mean_latency_seconds=summary.mean_latency(),
        p95_latency_seconds=summary.latency_percentile(0.95),
        p50_latency_seconds=summary.latency_percentile(0.50),
        p99_latency_seconds=summary.latency_percentile(0.99),
        mean_queueing_seconds=summary.mean_queueing(),
        peak_kv_reserved_bytes=peak_kv_reserved_bytes,
        kv_capacity_bytes=kv_capacity_bytes,
        system_cost_usd=cost.total_usd(),
        tokens_per_second_per_usd=cost_efficiency(tokens_per_second, cost),
        preemptions=summary.preemptions,
        wasted_prefill_tokens=summary.wasted_prefill_tokens,
        migrations=summary.migrations,
        migrated_recompute_tokens=summary.migrated_recompute_tokens,
        downtime_seconds=sum(n.downtime_seconds for n in node_reports),
        goodput_tokens_per_s=tokens_per_second,
        fleet_symmetry=fleet_symmetry,
        requests=_kept(requests),
        step_time_notes=dict(step_time_notes or {}),
        node_reports=node_reports,
        billing_notes=tuple(
            f"{n.node}: {n.billing_note}"
            for n in node_reports
            if n.billing_note is not None
        ),
        kv_tiers=merge_tier_reports(node_reports),
        spilled_decode_seconds=sum(
            n.spilled_decode_seconds for n in node_reports
        ),
    )


def node_breakdown(
    node_name: str,
    system: InferenceSystem,
    assigned: list[ServingRequest],
    makespan_seconds: float,
    peak_kv_reserved_bytes: float,
    kv_capacity_bytes: float,
    migrations: int = 0,
    migrated_recompute_tokens: int = 0,
    downtime_seconds: float = 0.0,
    shed_requests: int = 0,
    shed_retry_attempts: int = 0,
    kv_tiers: tuple = (),
    spilled_decode_seconds: float = 0.0,
) -> NodeBreakdown:
    """Summarise one node's share of a drain into a :class:`NodeBreakdown`.

    ``migrations``/``migrated_recompute_tokens``/``downtime_seconds`` come
    from the engine's fault counters (zero on fault-free drains), and
    ``shed_requests``/``shed_retry_attempts`` from its overload counters
    (sheds charge the node whose backlog turned the request away; retry
    attempts of requests that landed here travel with the requests).  A
    node that was down part of the drain is billed only its uptime
    fraction of the capital cost (see :func:`uptime_billing`).
    """
    summary = _summarise(assigned)
    generated = summary.generated_tokens
    cost_usd, billing_note = uptime_billing(
        system_cost_model(system).total_usd(), downtime_seconds, makespan_seconds
    )
    return NodeBreakdown(
        node=node_name,
        system=system.name,
        n_requests=summary.n_requests,
        completed=summary.completed,
        generated_tokens=generated,
        tokens_per_second=(
            generated / makespan_seconds if makespan_seconds > 0 else 0.0
        ),
        mean_latency_seconds=summary.mean_latency(),
        peak_kv_reserved_bytes=peak_kv_reserved_bytes,
        kv_capacity_bytes=kv_capacity_bytes,
        preemptions=summary.preemptions,
        wasted_prefill_tokens=summary.wasted_prefill_tokens,
        cost_usd=cost_usd,
        p50_latency_seconds=summary.latency_percentile(0.50),
        p95_latency_seconds=summary.latency_percentile(0.95),
        p99_latency_seconds=summary.latency_percentile(0.99),
        migrations=migrations,
        migrated_recompute_tokens=migrated_recompute_tokens,
        downtime_seconds=downtime_seconds,
        shed_requests=shed_requests,
        retry_attempts=summary.retry_attempts + shed_retry_attempts,
        goodput_tokens_per_s=(
            generated / makespan_seconds if makespan_seconds > 0 else 0.0
        ),
        billing_note=billing_note,
        kv_tiers=tuple(kv_tiers),
        spilled_decode_seconds=spilled_decode_seconds,
    )


def build_fleet_report(
    fleet_name: str,
    policy_name: str,
    router_name: str,
    requests: list[ServingRequest],
    makespan_seconds: float,
    node_reports: tuple[NodeBreakdown, ...],
    step_time_notes: dict | None = None,
    sheds: tuple = (),
    scale_events: tuple = (),
    fleet_symmetry: str = "full",
) -> ServingReport:
    """Merge per-node shares of a cluster drain into one fleet report.

    The fleet tokens/s/$ divides the fleet throughput by the *sum* of the
    nodes' capital costs -- the Section 6.6 comparison's unit of account
    (the 2-node vLLM deployment is priced as a fleet, not per host) --
    and capacity/peak figures are fleet-wide sums for the same reason.
    ``sheds`` / ``scale_events`` carry the overload and autoscale
    timelines; a drain that shed *everything* still reports (with zeroed
    latency figures) -- structured degradation, not an exception.
    """
    summary = _summarise(requests)
    if not summary.completed and not sheds:
        raise SchedulingError("fleet drain completed no requests; nothing to report")
    if makespan_seconds <= 0:
        raise SchedulingError("fleet drain makespan must be positive")
    tokens_per_second = summary.generated_tokens / makespan_seconds
    fleet_cost_usd = sum(node.cost_usd for node in node_reports)
    return ServingReport(
        system=fleet_name,
        policy=policy_name,
        n_requests=summary.n_requests,
        completed=summary.completed,
        makespan_seconds=makespan_seconds,
        generated_tokens=summary.generated_tokens,
        tokens_per_second=tokens_per_second,
        mean_latency_seconds=summary.mean_latency(),
        p95_latency_seconds=summary.latency_percentile(0.95),
        p50_latency_seconds=summary.latency_percentile(0.50),
        p99_latency_seconds=summary.latency_percentile(0.99),
        mean_queueing_seconds=summary.mean_queueing(),
        peak_kv_reserved_bytes=sum(n.peak_kv_reserved_bytes for n in node_reports),
        kv_capacity_bytes=sum(n.kv_capacity_bytes for n in node_reports),
        system_cost_usd=fleet_cost_usd,
        tokens_per_second_per_usd=(
            tokens_per_second / fleet_cost_usd if fleet_cost_usd > 0 else 0.0
        ),
        preemptions=summary.preemptions,
        wasted_prefill_tokens=summary.wasted_prefill_tokens,
        migrations=summary.migrations,
        migrated_recompute_tokens=summary.migrated_recompute_tokens,
        downtime_seconds=sum(n.downtime_seconds for n in node_reports),
        shed_requests=len(sheds),
        retry_attempts=summary.retry_attempts,
        goodput_tokens_per_s=tokens_per_second,
        fleet_symmetry=fleet_symmetry,
        requests=_kept(requests),
        step_time_notes=dict(step_time_notes or {}),
        router=router_name,
        node_reports=node_reports,
        sheds=tuple(sheds),
        scale_events=tuple(scale_events),
        billing_notes=tuple(
            f"{n.node}: {n.billing_note}"
            for n in node_reports
            if n.billing_note is not None
        ),
        kv_tiers=merge_tier_reports(node_reports),
        spilled_decode_seconds=sum(
            n.spilled_decode_seconds for n in node_reports
        ),
    )
