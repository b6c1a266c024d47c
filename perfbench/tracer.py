"""Span tracer that measures each layer of the program from the outside.

Nothing under ``src/`` knows about it: :func:`install` replaces each
traced function *where its caller looks it up* -- a method on the class
that defines it, a module-level function in every ``repro`` module that
bound it by import -- with a wrapper that opens a span, and
:meth:`Patches.restore` puts every original back.

Spans are kept in memory.  Every span feeds the ledger (per phase and
name: calls, busy time, self time); spans of the coarse layer
boundaries are also kept as Chrome ``trace_event`` records, written once
by :meth:`Tracer.write`.  High-frequency leaf calls (step-time queries,
routing, outcome copies, percentiles) are aggregated only, which keeps
the trace file small without losing their time from the ledger.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """In-memory span stack, ledger and counters."""

    def __init__(self) -> None:
        #: Open spans, innermost last: [name, start, child_seconds, id, emit].
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._next_id = 0
        #: Closed coarse spans: (name, start, end, id, parent id, drain id).
        self.spans: list[tuple] = []
        #: phase -> name -> [calls, busy seconds, self seconds].  A phase is
        #: the outermost open span's name (``bench.setup`` / ``bench.body``).
        self.ledger: dict[str, dict[str, list]] = {}
        #: Deterministic work counters and derived sums, by metric name.
        self.counters: Counter = Counter()
        self.drain_id: int | None = None
        self.epoch = _clock()

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def begin(self, name: str, emit: bool = True) -> list:
        self._next_id += 1
        frame = [name, _clock(), 0.0, self._next_id, emit]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def end(self, frame: list) -> float:
        end = _clock()
        name, start, child, span_id, emit = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        self._open[name] -= 1
        duration = end - start
        phase = self._stack[0][0] if self._stack else name
        row = self.ledger.setdefault(phase, {}).setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        if not self._open[name]:
            # Busy time counts the outermost call of a name only, so a
            # recursive or re-entrant call is not counted twice.
            row[1] += duration
        row[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if emit:
            parent = next((f[3] for f in reversed(self._stack) if f[4]), None)
            self.spans.append((name, start, end, span_id, parent, self.drain_id))
        return duration

    def span(self, name: str, emit: bool = True) -> "_Span":
        return _Span(self, name, emit)

    # --- ledger queries --------------------------------------------------------

    def total(self, name: str, column: int, phase: str | None = None) -> float:
        """Sum of one ledger column for ``name``, in one phase or all."""
        phases = self.ledger.values() if phase is None else [self.ledger.get(phase, {})]
        return sum(names[name][column] for names in phases if name in names)

    def calls(self, *names: str, phase: str | None = None) -> int:
        return sum(int(self.total(name, 0, phase)) for name in names)

    def busy(self, *names: str, phase: str | None = None) -> float:
        return sum(self.total(name, 1, phase) for name in names)

    def self_time(self, *names: str) -> float:
        return sum(self.total(name, 2) for name in names)

    def ledger_json(self) -> dict:
        phases = {
            phase: {
                name: {"calls": row[0], "busy_s": row[1], "self_s": row[2]}
                for name, row in sorted(names.items())
            }
            for phase, names in self.ledger.items()
        }
        layers: dict[str, dict[str, float]] = {}
        for phase, names in self.ledger.items():
            per_layer = layers.setdefault(phase, {})
            for name, row in names.items():
                layer = name.split(".", 1)[0]
                per_layer[layer] = per_layer.get(layer, 0.0) + row[2]
        return {
            "phases": phases,
            "layer_self_s": layers,
            "counters": dict(sorted(self.counters.items())),
        }

    def trace_events(self) -> list[dict]:
        """Closed coarse spans as Chrome ``trace_event`` complete events."""
        events = []
        for name, start, end, span_id, parent, drain in self.spans:
            args = {"id": span_id, "parent": parent}
            if drain is not None:
                args["drain"] = drain
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - self.epoch) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return events

    def write(self, directory: Path, metrics: dict) -> None:
        """Write ``trace.json`` (Chrome format) and ``ledger.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "trace.json").write_text(
            json.dumps({"traceEvents": self.trace_events(), "displayTimeUnit": "ms"})
        )
        ledger = self.ledger_json()
        ledger["metrics"] = metrics
        (directory / "ledger.json").write_text(json.dumps(ledger, indent=1))


class _Span:
    def __init__(self, tracer: Tracer, name: str, emit: bool) -> None:
        self._tracer, self._name, self._emit = tracer, name, emit
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        self._frame = self._tracer.begin(self._name, self._emit)
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = self._tracer.end(self._frame)


# --- patching ------------------------------------------------------------------


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found


def _wrap(tracer: Tracer, name: str, fn, emit: bool, enter=None, exit=None):
    """A traced stand-in for ``fn``.

    ``enter(args)`` runs before the span opens and returns a token;
    ``exit(args, result, token, seconds)`` runs after it closes.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = enter(args) if enter is not None else None
        frame = tracer.begin(name, emit)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = tracer.end(frame)
        if exit is not None:
            exit(args, result, token, seconds)
        return result

    return traced


def _patch_method(patches, tracer, base, attr, name, emit=False, enter=None, exit=None):
    """Trace ``attr`` on ``base`` and on every subclass that overrides it."""
    for cls in _subclasses(base):
        original = cls.__dict__.get(attr)
        if original is None or getattr(original, "__isabstractmethod__", False):
            continue
        patches.set(cls, attr, _wrap(tracer, name, original, emit, enter, exit))


def _patch_function(patches, tracer, fn, name, emit=False):
    """Trace ``fn`` in every ``repro`` module that binds it by name."""
    traced = _wrap(tracer, name, fn, emit)
    for module_name, module in list(sys.modules.items()):
        if (module_name == "repro" or module_name.startswith("repro.")) and (
            module.__dict__.get(fn.__name__) is fn
        ):
            patches.set(module, fn.__name__, traced)


def install(tracer: Tracer, figure_modules=()) -> Patches:
    """Trace every layer boundary the per-layer metrics are built from."""
    from repro.baselines.base import InferenceSystem
    from repro.calibration import prewarm
    from repro.calibration.store import CalibrationStore
    from repro.serving import cluster, metrics
    from repro.serving.kvtiers import TieredBudgetTracker
    from repro.serving.policies import SchedulingPolicy
    from repro.serving.request import ServingRequest
    from repro.serving.routers import Router
    from repro.serving.steptime import CalibratedStepTime, StepTimeModel

    patches = Patches()
    counters = tracer.counters

    # -- sim: every full-simulator measurement ----------------------------------
    def measure_enter(args):
        return args[0].last_system

    def measure_exit(args, result, previous, seconds):
        if tracer.is_open("sim.measure"):
            return  # an override delegating to the base measure()
        counters["sim.measure_calls"] += 1
        system = args[0].last_system
        if system is not None and system is not previous:
            counters["sim.events"] += system.sim.events_processed
        if tracer.is_open("calibration.step_seconds"):
            counters["calibration.cells_measured"] += 1
        if tracer.is_open("experiments.run"):
            counters["experiments.measure_s"] += seconds

    _patch_method(
        patches, tracer, InferenceSystem, "measure", "sim.measure", emit=True,
        enter=measure_enter, exit=measure_exit,
    )

    # -- calibration ------------------------------------------------------------
    def query_enter(args):
        if tracer.drain_id is not None:
            counters["serving.iterations"] += 1

    _patch_method(
        patches, tracer, CalibratedStepTime, "step_seconds",
        "calibration.step_seconds", enter=query_enter,
    )
    _patch_method(
        patches, tracer, CalibratedStepTime, "prefill_seconds",
        "calibration.prefill_seconds",
    )
    for attr in ("load_step_grid", "load_prefill_grid", "load_breakdown_grid", "record"):
        _patch_method(patches, tracer, CalibrationStore, attr, "calibration.store")
    _patch_method(
        patches, tracer, CalibrationStore, "flush_dirty", "calibration.store", emit=True
    )
    patches.set(
        prewarm, "prewarm_step_grids",
        _wrap(tracer, "calibration.prewarm", prewarm.prewarm_step_grids, True),
    )

    # -- serving ----------------------------------------------------------------
    simulators: list = []
    real_simulator = cluster.Simulator

    def simulator_factory(*args, **kwargs):
        sim = real_simulator(*args, **kwargs)
        simulators.append(sim)
        return sim

    patches.set(cluster, "Simulator", simulator_factory)

    admitted: set[int] = set()

    def drain_enter(args):
        scheduler = args[0]
        simulators.clear()
        admitted.clear()
        models = {id(n.step_time): n.step_time for n in scheduler.nodes}
        before = {key: m.clamp_counters() for key, m in models.items()}
        tracer.drain_id = tracer._next_id + 1  # the drain span's own id
        return models, before

    def drain_exit(args, report, token, seconds):
        tracer.drain_id = None
        models, before = token
        for key, model in models.items():
            after = model.clamp_counters()
            counters["calibration.drain_step_queries"] += (
                after["step_queries"] - before[key]["step_queries"]
            )
            counters["calibration.clamped_queries"] += (
                after["clamped_queries"] - before[key]["clamped_queries"]
            )
        counters["serving.drains"] += 1
        counters["serving.events"] += sum(s.events_processed for s in simulators)
        counters["serving.requests"] += report.n_requests
        counters["serving.simulated_requests"] += len(admitted)
        counters["serving.preemptions"] += report.preemptions
        counters["serving.wasted_prefill_tokens"] += report.wasted_prefill_tokens
        counters["serving.prefill_tokens"] += report.wasted_prefill_tokens + sum(
            r.input_tokens for r in report.requests
        )
        if report.kv_tiers:
            counters["kvtiers.demoted_bytes"] += sum(t.demoted_bytes for t in report.kv_tiers)
            counters["kvtiers.promoted_bytes"] += sum(
                t.promoted_bytes for t in report.kv_tiers
            )
            counters["kvtiers.top_hits"] += report.kv_tiers[0].hit_rate
            counters["kvtiers.tiered_drains"] += 1
        counters["kvtiers.spilled_decode_s"] += report.spilled_decode_seconds

    _patch_method(
        patches, tracer, cluster.ClusterScheduler, "drain", "serving.drain",
        emit=True, enter=drain_enter, exit=drain_exit,
    )
    _patch_method(patches, tracer, Router, "route", "serving.route")

    def admit_exit(args, result, token, seconds):
        admitted.update(id(request) for request in result)

    _patch_method(
        patches, tracer, SchedulingPolicy, "admit", "serving.admit", exit=admit_exit
    )

    # -- KV tiers ---------------------------------------------------------------
    _patch_method(
        patches, tracer, TieredBudgetTracker, "spill_read_seconds",
        "kvtiers.spill_read_seconds",
    )
    _patch_method(
        patches, tracer, StepTimeModel, "spill_read_seconds",
        "kvtiers.spill_query",
    )

    # -- fleet bookkeeping and reports ------------------------------------------
    _patch_function(patches, tracer, cluster.as_request_queue, "fleet.queue_build", emit=True)
    _patch_method(
        patches, tracer, ServingRequest, "copy_outcome_from", "fleet.copy_outcome"
    )
    original_init = ServingRequest.__init__

    @functools.wraps(original_init)
    def counted_init(self, *args, **kwargs):
        counters["fleet.requests_materialised"] += 1
        original_init(self, *args, **kwargs)

    patches.set(ServingRequest, "__init__", counted_init)
    for fn in (metrics.build_report, metrics.build_fleet_report, metrics.node_breakdown):
        _patch_function(patches, tracer, fn, "report.build", emit=True)
    for fn in (metrics.percentile, metrics.weighted_percentile):
        _patch_function(patches, tracer, fn, "report.percentile")

    # -- experiments ------------------------------------------------------------
    for module in figure_modules:
        patches.set(
            module, "run", _wrap(tracer, "experiments.run", module.run, True)
        )
    return patches


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, computed from one traced process's ledger."""
    c = tracer.counters
    events = c["sim.events"]
    measure_s = tracer.busy("sim.measure")
    drain_queries = c["calibration.drain_step_queries"]
    prefill_tokens = c["serving.prefill_tokens"]
    simulated = c["serving.simulated_requests"]
    tiered = c["kvtiers.tiered_drains"]
    run_s = tracer.busy("experiments.run")
    queries = ("calibration.step_seconds", "calibration.prefill_seconds")
    return {
        "sim.measure_calls": c["sim.measure_calls"],
        "sim.events": events,
        "sim.measure_s": measure_s,
        "sim.us_per_event": measure_s / events * 1e6 if events else 0.0,
        "calibration.cells_measured": c["calibration.cells_measured"],
        "calibration.prewarm_s": tracer.busy("calibration.prewarm"),
        "calibration.store_s": tracer.busy("calibration.store"),
        "calibration.step_queries": tracer.calls(*queries, phase="bench.body"),
        "calibration.query_s": tracer.busy(*queries, phase="bench.body"),
        "calibration.clamped_frac": (
            c["calibration.clamped_queries"] / drain_queries if drain_queries else 0.0
        ),
        "serving.drain_s": tracer.busy("serving.drain"),
        "serving.drain_self_s": tracer.self_time("serving.drain"),
        "serving.events": c["serving.events"],
        "serving.iterations": c["serving.iterations"],
        "serving.route_calls": tracer.calls("serving.route"),
        "serving.route_s": tracer.busy("serving.route"),
        "serving.preemptions": c["serving.preemptions"],
        "serving.wasted_prefill_frac": (
            c["serving.wasted_prefill_tokens"] / prefill_tokens if prefill_tokens else 0.0
        ),
        "kvtiers.spill_queries": tracer.calls("kvtiers.spill_query"),
        "kvtiers.spill_s": tracer.busy("kvtiers.spill_read_seconds"),
        "kvtiers.demoted_bytes": c["kvtiers.demoted_bytes"],
        "kvtiers.promoted_bytes": c["kvtiers.promoted_bytes"],
        "kvtiers.top_hit_rate": c["kvtiers.top_hits"] / tiered if tiered else 0.0,
        "kvtiers.spilled_decode_s": c["kvtiers.spilled_decode_s"],
        "fleet.queue_build_s": tracer.busy("fleet.queue_build"),
        "fleet.fold_ratio": c["serving.requests"] / simulated if simulated else 0.0,
        "fleet.outcomes_copied": tracer.calls("fleet.copy_outcome"),
        "fleet.requests_materialised": c["fleet.requests_materialised"],
        "report.build_s": tracer.busy("report.build"),
        "report.percentile_s": tracer.busy("report.percentile"),
        "experiments.run_s": run_s,
        "experiments.self_s": run_s - c["experiments.measure_s"],
    }
