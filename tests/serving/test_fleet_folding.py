"""Property tests: fleet & request folding is equivalent to full simulation.

The representative fleet drain must be *numerically indistinguishable*
from simulating every node of a symmetric fleet:

* every numeric ``ServingReport`` field (makespan, throughput, latency
  percentiles, preemption/waste totals) matches to 1e-9 relative
  tolerance across policies x arrival processes x seeds;
* every per-request outcome and every ``NodeBreakdown`` field matches the
  same way -- mirrored nodes carry figures identical to their
  representative's;
* ineligible configurations (heterogeneous fleets, load-dependent
  routers, faults/overload/autoscale) transparently fall back to the
  full-fleet path under ``fleet_symmetry="auto"`` and refuse
  ``"representative"`` with a :class:`~repro.errors.ConfigurationError`
  naming the blocker;
* the ``fold-conservation`` sanitizer invariant catches weighted
  representatives that leak into a report.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerError
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError, SchedulingError
from repro.serving import (
    AnalyticStepTime,
    BatchedArrivals,
    BestFitKV,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    FCFSFixedBatch,
    LeastOutstandingTokens,
    LengthBucketedBatch,
    Node,
    PoissonArrivals,
    RoundRobin,
    WeightedRoundRobin,
    fold_identical_runs,
    make_request_queue,
    percentile,
    total_weight,
    weighted_percentile,
)
from repro.serving.autoscale import parse_autoscale_spec
from repro.serving.cluster import (
    FLEET_SYMMETRY_MODES,
    as_request_queue,
    check_report_conservation,
)
from repro.serving.faults import parse_fault_spec
from repro.serving.overload import parse_overload_spec
from repro.serving.request import LazyRequests, ServingRequest
from repro.workloads import sample_request_classes
from repro.workloads.requests import MEDIUM, SHORT

REL = 1e-9

#: Report fields that legitimately differ between the two paths (the mode
#: marker) or need structured comparison instead of scalar closeness.
REPORT_SKIP = {"fleet_symmetry", "requests", "node_reports"}

#: Per-request outcome fields the two paths must agree on.
REQUEST_FIELDS = (
    "arrival_time",
    "admitted_time",
    "last_admitted_time",
    "first_token_time",
    "completion_time",
    "tokens_generated",
    "prefill_tokens_done",
    "preemption_count",
    "wasted_prefill_tokens",
)


@pytest.fixture
def system(tiny_mha):
    return HilosSystem(tiny_mha, HilosConfig(n_devices=2))


def unit_steps() -> AnalyticStepTime:
    return AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
    )


def symmetric_fleet(system, n, budget=None, chunk=None):
    """N nodes sharing one system and one step-time instance (foldable)."""
    step = unit_steps()
    return [
        Node(
            system,
            step_time=step,
            budget=budget,
            prefill_chunk_tokens=chunk,
            name=f"node{i}",
        )
        for i in range(n)
    ]


def assert_rel_close(a, b, context):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a is None or b is None:
            assert a == b, f"{context}: {a!r} != {b!r}"
            return
        if a != b:
            rel = abs(a - b) / max(1e-12, abs(a))
            assert rel <= REL, f"{context}: {a!r} vs {b!r} (rel {rel:.3e})"
    else:
        assert a == b, f"{context}: {a!r} != {b!r}"


def assert_folded_matches_full(full, rep):
    """Every report, breakdown, and per-request field within 1e-9."""
    assert full.fleet_symmetry == "full"
    assert rep.fleet_symmetry == "representative"
    for f in dataclasses.fields(type(full)):
        if f.name in REPORT_SKIP:
            continue
        assert_rel_close(
            getattr(full, f.name), getattr(rep, f.name), f"report.{f.name}"
        )
    assert len(full.node_reports) == len(rep.node_reports)
    for fb, rb in zip(full.node_reports, rep.node_reports):
        for f in dataclasses.fields(type(fb)):
            assert_rel_close(
                getattr(fb, f.name),
                getattr(rb, f.name),
                f"node {fb.node}.{f.name}",
            )
    fa = sorted(full.requests, key=lambda r: r.request_id)
    fb = sorted(rep.requests, key=lambda r: r.request_id)
    assert [r.request_id for r in fa] == [r.request_id for r in fb]
    for x, y in zip(fa, fb):
        assert y.weight == 1 and not y.folded and y.folded_into is None
        for name in REQUEST_FIELDS:
            assert_rel_close(
                getattr(x, name), getattr(y, name), f"request {x.request_id}.{name}"
            )


def drain_pair(system, n_nodes, policy_factory, classes, arrivals_factory,
               budget=None, chunk=None):
    full = ClusterScheduler(
        symmetric_fleet(system, n_nodes, budget, chunk),
        policy_factory(),
        router=RoundRobin(),
        fleet_symmetry="full",
    ).drain(list(classes), arrivals=arrivals_factory())
    rep = ClusterScheduler(
        symmetric_fleet(system, n_nodes, budget, chunk),
        policy_factory(),
        router=RoundRobin(),
        fleet_symmetry="representative",
    ).drain(list(classes), arrivals=arrivals_factory())
    return full, rep


POLICIES = [
    pytest.param(lambda: FCFSFixedBatch(4), id="fcfs"),
    pytest.param(lambda: LengthBucketedBatch(4), id="bucketed"),
    pytest.param(lambda: ContinuousBatching(4), id="continuous"),
    pytest.param(
        lambda: ContinuousBatching(4, admission="optimistic"), id="optimistic"
    ),
]

ARRIVALS = [
    pytest.param(lambda seed: None, id="offline"),
    pytest.param(
        lambda seed: PoissonArrivals(rate_per_second=2.0, seed=seed), id="poisson"
    ),
    pytest.param(
        lambda seed: BatchedArrivals(0.02, 16, seed=seed), id="burst"
    ),
]


class TestFoldedEquivalence:
    """ISSUE acceptance: folded vs unfolded within 1e-9 on every field."""

    N_REQUESTS = 48

    @pytest.mark.parametrize("policy_factory", POLICIES)
    @pytest.mark.parametrize("arrival_factory", ARRIVALS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_representative_matches_full(
        self, system, policy_factory, arrival_factory, seed
    ):
        classes = sample_request_classes(self.N_REQUESTS, seed=seed)
        full, rep = drain_pair(
            system, 4, policy_factory, classes, lambda: arrival_factory(seed)
        )
        assert_folded_matches_full(full, rep)

    def test_auto_folds_symmetric_rr_fleets(self, system):
        report = ClusterScheduler(
            symmetric_fleet(system, 4), ContinuousBatching(4), router=RoundRobin()
        ).drain(sample_request_classes(16, seed=5))
        assert report.fleet_symmetry == "representative"
        assert report.all_completed

    def test_uniform_bursts_fold_maximally(self, system):
        """The bench shape: one class, 64-multiple bursts, deep folding."""
        full, rep = drain_pair(
            system,
            8,
            lambda: ContinuousBatching(8),
            [SHORT] * 128,
            lambda: BatchedArrivals(0.01, 32, seed=2),
        )
        assert_folded_matches_full(full, rep)

    def test_mirrored_nodes_share_identical_breakdowns(self, system):
        """Group members must carry byte-identical per-node figures."""
        report = ClusterScheduler(
            symmetric_fleet(system, 6),
            ContinuousBatching(4),
            router=RoundRobin(),
        ).drain([SHORT] * 36)
        assert report.fleet_symmetry == "representative"
        first = report.node_reports[0]
        for other in report.node_reports[1:]:
            for name in (
                "n_requests",
                "completed",
                "generated_tokens",
                "mean_latency_seconds",
                "p50_latency_seconds",
                "p95_latency_seconds",
                "p99_latency_seconds",
                "tokens_per_second",
            ):
                assert getattr(other, name) == getattr(first, name)

    # tiny_mha is a frozen model config; sharing it across examples is safe.
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_nodes=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=100),
        burst=st.integers(min_value=1, max_value=24),
    )
    def test_equivalence_property(self, tiny_mha, n_nodes, seed, burst):
        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        classes = sample_request_classes(32, seed=seed)
        full, rep = drain_pair(
            system,
            n_nodes,
            lambda: ContinuousBatching(4),
            classes,
            lambda: BatchedArrivals(0.05, burst, seed=seed),
        )
        assert_folded_matches_full(full, rep)


class TestFoldedSplits:
    """Partial admission and preemption must split representatives apart
    exactly where the unfolded schedule diverges."""

    def test_preemption_splits_match_full(self, system, tiny_mha):
        # Optimistic admission at prompt footprint; decode growth overflows
        # a budget sized for ~3 prompts, forcing youngest-first eviction on
        # (possibly weighted) victims.
        prompt_kv = tiny_mha.kv_cache_bytes(1, MEDIUM.input_tokens)
        budget = CapacityBudget(prompt_kv * 3.4, "overflowy")
        full, rep = drain_pair(
            system,
            4,
            lambda: ContinuousBatching(8, admission="optimistic"),
            [MEDIUM] * 96,
            lambda: BatchedArrivals(0.002, 16, seed=1),
            budget=budget,
            chunk=256,
        )
        assert full.preemptions > 0
        assert_folded_matches_full(full, rep)

    def test_partial_admission_splits_match_full(self, system, tiny_mha):
        # A budget that fits ~2.5 Shorts admits part of a weighted run and
        # leaves the remainder at the queue head.
        budget = CapacityBudget(
            tiny_mha.kv_cache_bytes(1, SHORT.total_tokens) * 2.5, "tiny"
        )
        full, rep = drain_pair(
            system,
            4,
            lambda: ContinuousBatching(8),
            [SHORT] * 96,
            lambda: BatchedArrivals(0.005, 32, seed=4),
            budget=budget,
        )
        assert_folded_matches_full(full, rep)


class TestFoldFallback:
    """The auto-fallback matrix: every ineligible configuration takes the
    full path under "auto" and refuses "representative" at construction."""

    def _queue(self):
        return sample_request_classes(12, seed=3)

    def assert_falls_back(self, nodes, match, router=None, **cluster_kwargs):
        auto = ClusterScheduler(
            nodes, ContinuousBatching(4), router=router, **cluster_kwargs
        )
        report = auto.drain(self._queue())
        assert report.fleet_symmetry == "full"
        with pytest.raises(ConfigurationError, match=match):
            ClusterScheduler(
                nodes,
                ContinuousBatching(4),
                router=router,
                fleet_symmetry="representative",
                **cluster_kwargs,
            )

    def test_load_dependent_routers_fall_back(self, system):
        for router in (LeastOutstandingTokens(), BestFitKV()):
            self.assert_falls_back(
                symmetric_fleet(system, 3),
                match="routes on live node load",
                router=router,
            )

    def test_unshared_step_time_falls_back(self, system):
        nodes = [
            Node(system, step_time=unit_steps(), name=f"node{i}") for i in range(3)
        ]
        self.assert_falls_back(nodes, match="step-time instance")

    def test_unequal_budget_falls_back(self, system, tiny_mha):
        step = unit_steps()
        small = CapacityBudget(tiny_mha.kv_cache_bytes(1, 16384), "small")
        nodes = [
            Node(system, step_time=step, name="node0"),
            Node(system, step_time=step, budget=small, name="node1"),
        ]
        self.assert_falls_back(nodes, match="KV capacity")

    def test_unequal_prefill_chunk_falls_back(self, system):
        step = unit_steps()
        nodes = [
            Node(system, step_time=step, name="node0"),
            Node(system, step_time=step, prefill_chunk_tokens=128, name="node1"),
        ]
        self.assert_falls_back(nodes, match="prefill chunk")

    def test_faults_fall_back(self, system):
        self.assert_falls_back(
            symmetric_fleet(system, 2),
            match="liveness-aware",
            faults=parse_fault_spec("slow:5:10:2.0:1"),
        )

    def test_overload_falls_back(self, system):
        self.assert_falls_back(
            symmetric_fleet(system, 2),
            match="liveness-aware",
            overload=parse_overload_spec("shed:64"),
        )

    def test_autoscale_falls_back(self, system):
        self.assert_falls_back(
            symmetric_fleet(system, 3),
            match="liveness-aware",
            autoscale=parse_autoscale_spec("auto:1:3:8"),
        )

    def test_auto_single_node_keeps_the_legacy_path(self, system):
        """auto never folds one node: the preloaded bit-identity path."""
        report = ClusterScheduler(
            symmetric_fleet(system, 1), ContinuousBatching(4)
        ).drain(self._queue())
        assert report.fleet_symmetry == ""  # legacy single-node report

    def test_representative_single_node_is_allowed(self, system):
        report = ClusterScheduler(
            symmetric_fleet(system, 1),
            ContinuousBatching(4),
            fleet_symmetry="representative",
        ).drain(self._queue())
        assert report.fleet_symmetry == "representative"
        assert report.all_completed

    def test_full_mode_forces_every_node(self, system):
        report = ClusterScheduler(
            symmetric_fleet(system, 3),
            ContinuousBatching(4),
            fleet_symmetry="full",
        ).drain(self._queue())
        assert report.fleet_symmetry == "full"

    def test_unknown_mode_rejected(self, system):
        with pytest.raises(ConfigurationError, match="fleet_symmetry"):
            ClusterScheduler(
                symmetric_fleet(system, 2),
                ContinuousBatching(4),
                fleet_symmetry="mirrored",
            )
        assert FLEET_SYMMETRY_MODES == ("auto", "full", "representative")

    def test_ineligible_error_names_the_blocker_and_the_fallback(self, system):
        with pytest.raises(ConfigurationError, match="use 'auto' to fall back"):
            ClusterScheduler(
                symmetric_fleet(system, 2),
                ContinuousBatching(4),
                router=BestFitKV(),
                fleet_symmetry="representative",
            )


class TestFoldConservation:
    """The fold-conservation sanitizer invariant."""

    def _report(self, system):
        return ClusterScheduler(
            symmetric_fleet(system, 2), ContinuousBatching(4), router=RoundRobin()
        ).drain(sample_request_classes(8, seed=1))

    def test_clean_report_passes(self, system):
        check_report_conservation(self._report(system))

    def test_unfolded_leak_is_caught(self, system):
        report = self._report(system)
        report.requests[0].weight = 2  # a fold that never unfolded
        with pytest.raises(SanitizerError, match="fold-conservation"):
            check_report_conservation(report)

    def test_lost_member_is_caught(self, system):
        report = self._report(system)
        report.requests[0].weight = 0  # a member dropped from the queue
        with pytest.raises(SanitizerError, match="fold-conservation"):
            check_report_conservation(report)

    def test_check_reads_the_multiplicity_table_without_building_members(
        self, system
    ):
        report = self._report(system)
        assert isinstance(report.requests, LazyRequests)
        check_report_conservation(report)
        assert not report.requests.materialised

    def test_zero_multiplicity_unit_is_caught(self, system):
        report = self._report(system)
        folding = report.requests.folding
        report.requests.folding = dataclasses.replace(
            folding, multiplicity=[0] + list(folding.multiplicity[1:])
        )
        with pytest.raises(SanitizerError, match="fold-conservation"):
            check_report_conservation(report)
        assert not report.requests.materialised

    def test_table_not_covering_the_queue_is_caught(self, system):
        report = self._report(system)
        folding = report.requests.folding
        report.requests.folding = dataclasses.replace(
            folding, multiplicity=[m + 1 for m in folding.multiplicity]
        )
        with pytest.raises(SanitizerError, match="multiplicities sum"):
            check_report_conservation(report)

    def test_sanitized_folded_drain_runs_the_invariant(self, system):
        # The folded drain under REPRO_SIM_SANITIZE=1 (the autouse test
        # default) runs the fold-table and conservation checks end to end.
        report = ClusterScheduler(
            symmetric_fleet(system, 4),
            ContinuousBatching(4),
            fleet_symmetry="representative",
        ).drain([SHORT] * 24)
        assert report.fleet_symmetry == "representative"
        assert all(r.weight == 1 for r in report.requests)
        assert total_weight(report.requests) == report.n_requests


class TestWeightedRequests:
    """Unit tests for the folding/splitting machinery on ServingRequest."""

    def _queue(self, classes, times=None):
        return make_request_queue(list(classes), arrival_times=times)

    def test_fold_identical_runs_folds_adjacent_same_class(self):
        queue = self._queue([SHORT, SHORT, MEDIUM, SHORT])
        folded = fold_identical_runs(queue)
        assert [(r.request_id, r.weight) for r in folded] == [
            (0, 2),
            (2, 1),
            (3, 1),
        ]
        assert queue[1].folded_into is queue[0]
        assert total_weight(folded) == 4

    def test_fold_respects_arrival_time_boundaries(self):
        queue = self._queue([SHORT] * 4, times=[0.0, 0.0, 5.0, 5.0])
        folded = fold_identical_runs(queue)
        assert [(r.request_id, r.weight) for r in folded] == [(0, 2), (2, 2)]

    def test_admitted_requests_do_not_fold(self):
        queue = self._queue([SHORT, SHORT])
        queue[0].admitted_time = 1.0
        folded = fold_identical_runs(queue)
        assert [r.weight for r in folded] == [1, 1]

    def test_split_waiting_keeps_fcfs_prefix(self):
        queue = self._queue([SHORT] * 5)
        rep = fold_identical_runs(queue)[0]
        remainder = rep.split_waiting(2)
        assert rep.weight == 2
        assert [m.request_id for m in rep.folded] == [1]
        assert remainder.request_id == 2
        assert remainder.weight == 3
        assert [m.request_id for m in remainder.folded] == [3, 4]
        assert remainder.folded_into is None
        assert queue[3].folded_into is remainder

    def test_split_waiting_bounds(self):
        rep = fold_identical_runs(self._queue([SHORT] * 3))[0]
        with pytest.raises(SchedulingError):
            rep.split_waiting(0)
        with pytest.raises(SchedulingError):
            rep.split_waiting(3)

    def test_split_youngest_sheds_the_highest_id(self):
        rep = fold_identical_runs(self._queue([SHORT] * 3))[0]
        rep.admitted_time = 1.0
        rep.prefill_tokens_done = 64
        rep.kv_holder = "node0"
        evicted = rep.split_youngest()
        assert evicted.request_id == 2
        assert evicted.weight == 1
        assert evicted.prefill_tokens_done == 64
        assert evicted.kv_holder is None  # its KV share was released
        assert rep.weight == 2

    def test_unfold_copies_outcomes_to_members(self):
        queue = self._queue([SHORT] * 3)
        rep = fold_identical_runs(queue)[0]
        rep.admitted_time = 1.0
        rep.completion_time = 9.0
        rep.tokens_generated = SHORT.output_tokens
        rep.unfold()
        assert all(r.weight == 1 for r in queue)
        assert all(r.completion_time == 9.0 for r in queue)
        assert all(r.folded_into is None for r in queue)
        assert rep.folded == []


class TestWeightedRoundRobinFolding:
    """WRR's static placement is fold-eligible; nodes whose slices agree
    (equal weights) merge into one representative group."""

    def test_unequal_weights_fold_the_equal_weight_nodes(self, system):
        full = ClusterScheduler(
            symmetric_fleet(system, 3),
            ContinuousBatching(4),
            router=WeightedRoundRobin((2, 1, 1)),
            fleet_symmetry="full",
        ).drain([SHORT] * 24)
        rep = ClusterScheduler(
            symmetric_fleet(system, 3),
            ContinuousBatching(4),
            router=WeightedRoundRobin((2, 1, 1)),
            fleet_symmetry="representative",
        ).drain([SHORT] * 24)
        assert_folded_matches_full(full, rep)
        # The double-weight node takes twice the requests of the others.
        assert [n.n_requests for n in rep.node_reports] == [12, 6, 6]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_equal_weight_wrr_matches_round_robin_folded(self, system, seed):
        classes = sample_request_classes(24, seed=seed)
        rr = ClusterScheduler(
            symmetric_fleet(system, 2),
            ContinuousBatching(4),
            router=RoundRobin(),
            fleet_symmetry="representative",
        ).drain(list(classes))
        wrr = ClusterScheduler(
            symmetric_fleet(system, 2),
            ContinuousBatching(4),
            router=WeightedRoundRobin((1, 1)),
            fleet_symmetry="representative",
        ).drain(list(classes))
        assert [r.completion_time for r in rr.requests] == [
            r.completion_time for r in wrr.requests
        ]


class TestWeightedPercentile:
    """Fold-aware SLO percentiles: rank selection over the weighted
    multiset must equal the materialised expansion exactly."""

    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(
                    min_value=0.0,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=1,
            max_size=24,
        ),
        fraction=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_the_expanded_multiset(self, pairs, fraction):
        values = [value for value, _ in pairs]
        weights = [weight for _, weight in pairs]
        expanded = [
            value for value, weight in pairs for _ in range(weight)
        ]
        assert weighted_percentile(values, weights, fraction) == percentile(
            expanded, fraction
        )

    def test_unit_weights_degenerate_to_percentile(self):
        values = [5.0, 1.0, 3.0, 2.0]
        for fraction in (0.5, 0.95, 0.99, 1.0):
            assert weighted_percentile(
                values, [1] * len(values), fraction
            ) == percentile(values, fraction)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SchedulingError, match="weights"):
            weighted_percentile([1.0, 2.0], [1], 0.5)
        with pytest.raises(SchedulingError, match="empty"):
            weighted_percentile([], [], 0.5)
        with pytest.raises(SchedulingError, match="positive weights"):
            weighted_percentile([1.0], [0], 0.5)
        with pytest.raises(SchedulingError, match="fraction"):
            weighted_percentile([1.0], [1], 0.0)


class TestReportPercentiles:
    """p50/p99 latency percentiles on reports and node breakdowns."""

    def test_percentiles_present_and_ordered(self, system):
        report = ClusterScheduler(
            symmetric_fleet(system, 2), ContinuousBatching(4), router=RoundRobin()
        ).drain(sample_request_classes(24, seed=7))
        assert 0 < report.p50_latency_seconds <= report.p99_latency_seconds
        assert report.p50_latency_seconds <= report.mean_latency_seconds * 2
        for node in report.node_reports:
            assert (
                0
                < node.p50_latency_seconds
                <= node.p95_latency_seconds
                <= node.p99_latency_seconds
            )

    def test_single_host_report_carries_percentiles(self, system):
        report = ClusterScheduler(
            symmetric_fleet(system, 1), ContinuousBatching(4)
        ).drain(sample_request_classes(16, seed=2))
        assert report.p50_latency_seconds > 0
        assert report.p99_latency_seconds >= report.p50_latency_seconds


class TestLazyFoldedReports:
    """A folded drain builds ServingRequest objects only for each group's
    representative slice; ``report.requests`` builds the members on first
    read and then behaves as the eager list."""

    N_NODES = 64
    PER_NODE = 8

    def _drain(self, system, symmetry, requests):
        return ClusterScheduler(
            symmetric_fleet(system, self.N_NODES),
            ContinuousBatching(4),
            router=RoundRobin(),
            fleet_symmetry=symmetry,
        ).drain(requests, arrivals=BatchedArrivals(0.02, 128, seed=3))

    def test_objects_built_are_bounded_by_the_representative_slice(
        self, system, monkeypatch
    ):
        counts = {"init": 0, "copy": 0}
        original_init = ServingRequest.__init__
        original_copy = ServingRequest.copy_outcome_from

        def counted_init(self, *args, **kwargs):
            counts["init"] += 1
            original_init(self, *args, **kwargs)

        def counted_copy(self, other):
            counts["copy"] += 1
            original_copy(self, other)

        monkeypatch.setattr(ServingRequest, "__init__", counted_init)
        monkeypatch.setattr(ServingRequest, "copy_outcome_from", counted_copy)
        n_requests = self.N_NODES * self.PER_NODE
        rep = self._drain(system, "representative", [SHORT] * n_requests)
        assert counts["init"] <= self.PER_NODE
        assert counts["copy"] <= self.PER_NODE
        assert not rep.requests.materialised
        assert len(rep.requests) == n_requests
        assert not rep.requests.materialised

        members = rep.requests  # the first read builds every member
        assert members[0].finished and rep.requests.materialised
        assert counts["init"] <= self.PER_NODE + n_requests
        assert len(members) == n_requests
        assert all(r.weight == 1 and not r.folded for r in members)
        full = self._drain(system, "full", [SHORT] * n_requests)
        assert_folded_matches_full(full, rep)

    def test_means_equal_the_member_means_bit_for_bit(self, system):
        """Fleet and node means sum the members' floats in queue order."""
        report = self._drain(
            system,
            "representative",
            sample_request_classes(self.N_NODES * self.PER_NODE, seed=9),
        )

        def mean(values):
            values = list(values)
            return sum(values) / len(values)

        members = list(report.requests)
        assert report.mean_latency_seconds == mean(r.latency_seconds for r in members)
        assert report.mean_queueing_seconds == mean(r.queueing_seconds for r in members)
        # Round-robin deals arrival position i to node i % N.
        for index in (0, self.N_NODES - 1):
            node = report.node_reports[index]
            share = members[index :: self.N_NODES]
            assert node.mean_latency_seconds == mean(r.latency_seconds for r in share)

    def test_members_are_cached_and_behave_as_a_list(self, system):
        report = self._drain(system, "representative", [SHORT] * 128)
        first = report.requests[0]
        assert report.requests[0] is first
        first.tokens_generated = -1
        assert report.requests[0].tokens_generated == -1
        assert sorted(report.requests, key=lambda r: -r.request_id)[0].request_id == 127
        assert [r.request_id for r in report.requests[:3]] == [0, 1, 2]
        copy = pickle.loads(pickle.dumps(report.requests))
        assert copy == report.requests
        as_dict = dataclasses.asdict(report)["requests"]
        assert len(as_dict) == 128 and as_dict[0]["tokens_generated"] == -1

    def test_caller_owned_queue_carries_its_outcomes(self, system):
        classes = sample_request_classes(self.N_NODES * 2, seed=4)
        queue = make_request_queue(classes)
        rep = self._drain(system, "representative", queue)
        assert rep.fleet_symmetry == "representative"
        assert all(a is b for a, b in zip(rep.requests, queue))
        assert all(r.finished and r.weight == 1 for r in queue)
        full = self._drain(system, "full", list(classes))
        assert_folded_matches_full(full, rep)

    def test_request_class_queue_stays_lazy(self):
        queue = as_request_queue([SHORT] * 5, BatchedArrivals(0.5, 2, seed=1))
        assert isinstance(queue, LazyRequests) and not queue.materialised
        assert len(queue) == 5
        assert [r.request_id for r in queue] == list(range(5))
        assert queue[0].arrival_time == queue[1].arrival_time < queue[2].arrival_time


class TestStaleQueues:
    """Re-draining a ServingRequest queue used to report garbage (its
    requests still carried the first drain's lifecycle state); the queue
    validation now refuses requests that are not fresh."""

    @pytest.mark.parametrize("symmetry", ["representative", "full"])
    def test_redrained_queue_is_refused(self, system, symmetry):
        queue = make_request_queue([SHORT] * 16)
        scheduler = ClusterScheduler(
            symmetric_fleet(system, 4),
            ContinuousBatching(4),
            router=RoundRobin(),
            fleet_symmetry=symmetry,
        )
        first = scheduler.drain(queue)
        assert first.all_completed and first.mean_latency_seconds > 1.0
        with pytest.raises(
            SchedulingError, match="stale request queue: element 0 is already finished"
        ):
            scheduler.drain(queue)

    @pytest.mark.parametrize(
        "mutate, state",
        [
            (lambda r: setattr(r, "admitted_time", 1.0), "admitted"),
            (lambda r: setattr(r, "completion_time", 2.0), "finished"),
            (lambda r: setattr(r, "shed_time", 1.0), "shed"),
            (lambda r: setattr(r, "weight", 3), "weighted"),
            (lambda r: r.folded.append(r), "folded"),
        ],
        ids=["admitted", "finished", "shed", "weighted", "folded"],
    )
    def test_first_offending_index_and_state_are_named(self, mutate, state):
        queue = make_request_queue([SHORT] * 4)
        mutate(queue[2])
        mutate(queue[3])
        with pytest.raises(SchedulingError, match=f"element 2 is already {state}"):
            as_request_queue(queue)
