"""Shared machinery for simulated inference systems.

Every system (HILOS and the baselines) follows the same measurement recipe:

1. decide the *effective* batch size its placement allows (FLEX(DRAM) halves
   the batch until the KV cache fits host DRAM; storage-backed systems keep
   the requested batch, Section 6.3);
2. build a fresh :class:`~repro.sim.topology.SystemModel` and place weights
   and caches;
3. run one warm-up decode step, then time several steady-state steps while
   recording phase spans (Figures 4b/11b) and resource busy time (Fig. 4c);
4. report tokens/sec as ``effective_batch / step_seconds``.

Subclasses implement :meth:`InferenceSystem._setup` (placement, staging
channels) and :meth:`InferenceSystem._layer` (one layer of one decode
step).  The base class owns the decode step's only layer loop: it drives
the step's per-layer body and each :class:`LayerProducer` -- weight
prefetching, common to every framework, plus any the subclass adds -- as
concurrent processes that share one :class:`LayerCursor`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.capacity import (
    KVPlacement,
    WeightPlacement,
    default_weight_placement,
    max_feasible_batch,
)
from repro.errors import CapacityError
from repro.models.config import ModelConfig
from repro.sim.engine import Event
from repro.sim.metrics import (
    HOST_COMPUTE,
    LOAD_WEIGHT,
    Breakdown,
    PhaseRecorder,
    StorageCounters,
    UtilizationSample,
)
from repro.sim.periodic import RelativeState, Totals, relative_state
from repro.sim.topology import HardwareConfig, SystemModel, build_system


@dataclass(frozen=True)
class MeasuredResult:
    """Outcome of measuring one system at one (model, batch, context) point."""

    system: str
    model: str
    requested_batch: int
    effective_batch: int
    seq_len: int
    step_seconds: float
    tokens_per_second: float
    prefill_seconds: float
    breakdown: Breakdown
    utilization: UtilizationSample
    storage_logical_written: float = 0.0
    storage_physical_written: float = 0.0
    oom: bool = False
    note: str = ""

    @staticmethod
    def out_of_memory(
        system: str, model: str, batch: int, seq_len: int, note: str
    ) -> "MeasuredResult":
        """The paper's ``CPU OOM`` bars: zero throughput with a reason."""
        return MeasuredResult(
            system=system,
            model=model,
            requested_batch=batch,
            effective_batch=0,
            seq_len=seq_len,
            step_seconds=float("inf"),
            tokens_per_second=0.0,
            prefill_seconds=float("inf"),
            breakdown=Breakdown(),
            utilization=UtilizationSample(cpu=0.0, gpu=0.0, dram_capacity=0.0),
            oom=True,
            note=note,
        )


class LayerCursor:
    """Layer numbering shared by one decode step and its producers.

    Each process counts the layers it has finished; its current layer is
    that count plus :attr:`skipped`.  Moving :attr:`skipped` therefore
    moves the step and every producer by the same number of layers at
    once.
    """

    __slots__ = ("n_layers", "skipped")

    def __init__(self, n_layers: int) -> None:
        self.n_layers = n_layers
        self.skipped = 0


class LayerFeed:
    """One producer's per-layer ready signal to the decode step.

    Replaces a list of ``n_layers`` ready events: the producer counts the
    layers it has delivered, and the step waits on a layer only while it
    is not yet delivered.  A delivered layer yields an already-fired
    event, which resumes the waiting process at once, as a fired ready
    event did.
    """

    __slots__ = ("cursor", "produced", "started", "_sim", "_delivered", "_waiting", "_waiter")

    def __init__(self, sim, cursor: LayerCursor, delivered: Event) -> None:
        self._sim = sim
        self.cursor = cursor
        #: Layers delivered so far, counted from the start of the step.
        self.produced = 0
        #: When the transfer in flight was issued.
        self.started = 0.0
        self._delivered = delivered
        self._waiting = 0
        self._waiter: Event | None = None

    def wait(self, layer: int) -> Event:
        """An event that fires once ``layer`` has been delivered."""
        index = layer - self.cursor.skipped
        if index < self.produced:
            return self._delivered
        self._waiting = index
        self._waiter = Event(self._sim, name="layer_ready")
        return self._waiter

    @property
    def done(self) -> bool:
        """Whether every layer of the step has been delivered."""
        return self.produced + self.cursor.skipped >= self.cursor.n_layers

    @property
    def in_flight(self) -> int:
        """The layer whose transfer is in flight (meaningless once done)."""
        return self.produced + self.cursor.skipped

    def deliver(self) -> None:
        """Mark the next layer delivered, waking the step if it waits on it."""
        self.produced += 1
        waiter = self._waiter
        if waiter is not None and self._waiting < self.produced:
            self._waiter = None
            waiter.succeed()


@dataclass(frozen=True)
class LayerProducer:
    """A process that runs ahead of the decode step, one transfer per layer.

    ``transfer(ctx, layer)`` issues one layer's transfer and returns its
    completion event; the span is recorded under ``phase``.
    """

    name: str
    phase: str
    transfer: Callable[["StepContext", int], Event]


@dataclass
class StepContext:
    """Everything a decode-step process needs, bundled."""

    system: SystemModel
    model: ModelConfig
    batch_size: int
    seq_len: int
    recorder: PhaseRecorder
    cursor: LayerCursor | None = None
    feeds: dict[str, LayerFeed] = field(default_factory=dict)
    #: Simulated seconds of the layer periods fast-forwarded so far.
    skipped_seconds: float = 0.0
    #: Per-layer inputs (see ``InferenceSystem._layer_inputs``).
    layer_inputs: list[tuple] = field(default_factory=list)

    @property
    def sim(self):
        """The underlying simulator."""
        return self.system.sim

    def clock(self) -> float:
        """Elapsed simulated time, fast-forwarded periods included."""
        return self.system.sim.now + self.skipped_seconds

    def ready(self, producer: str, layer: int) -> Event:
        """The event that fires once ``producer`` has delivered ``layer``."""
        return self.feeds[producer].wait(layer)


class InferenceSystem(abc.ABC):
    """Base class for all simulated inference frameworks."""

    name: str = "abstract"
    #: GPU model this framework is priced and timed against (Table 1);
    #: subclasses targeting other hosts override it (or accept it as a
    #: constructor argument) instead of being ``getattr``-probed for it.
    gpu: str = "A100"
    #: Where this framework keeps the KV cache (drives batch feasibility).
    kv_placement: KVPlacement = KVPlacement.STORAGE
    #: Simulation symmetry mode passed to ``build_system`` by ``measure()``:
    #: ``"auto"`` folds homogeneous device arrays to a representative device
    #: (numerically equivalent, O(n_groups) instead of O(n_devices));
    #: ``"full"`` forces the reference full-array path.
    symmetry: str = "auto"
    #: Per-layer fixed overhead: kernel launches, framework bookkeeping.
    per_layer_overhead_s: float = 0.003
    #: Delivered bandwidth of the framework's pinned-buffer weight pipeline.
    #: All evaluated frameworks (FlexGen, DeepSpeed, and HILOS, which is
    #: integrated into the FlexGen-style PyTorch stack, Section 5) stream
    #: weights through staged pinned copies at well below the raw link rate.
    weight_staging_bandwidth: float = 16e9

    def __init__(self, model: ModelConfig) -> None:
        self.model = model
        self._weight_staging = None
        #: The most recent measurement's system model, kept for byte-counter
        #: introspection (tests cross-check simulated traffic against the
        #: paper's closed forms).
        self.last_system: SystemModel | None = None

    def _staging_bandwidth(self) -> float:
        """Weight-pipeline bandwidth; PCIe 5.0 hosts (H100) move ~1.5x more."""
        if self.gpu == "H100":
            return self.weight_staging_bandwidth * 1.5
        return self.weight_staging_bandwidth

    # --- hooks -----------------------------------------------------------------------

    @abc.abstractmethod
    def hardware_config(self) -> HardwareConfig:
        """The machine this framework runs on (Table 1 variants)."""

    @abc.abstractmethod
    def _setup(self, ctx: StepContext) -> None:
        """Place data, validate capacity, create framework channels."""

    @abc.abstractmethod
    def _layer(self, ctx: StepContext, layer: int):
        """Generator: the decode step's work for one layer.

        Must wait for everything it issues before it returns, so that
        nothing the step started is still in flight between layers.
        """

    def _layer_inputs(self, ctx: StepContext, layer: int) -> tuple:
        """Every input of the layer body and producers that varies by layer.

        Fast-forwarding replays a period of layers only where these repeat
        with the period; a body or producer that reads another
        layer-dependent quantity must add it here.
        """
        model = self.model
        return (
            model.mlp_weight_bytes_per_layer(layer),
            model.mlp_flops_per_layer(ctx.batch_size, layer),
        )

    def _producers(self) -> tuple[LayerProducer, ...]:
        """The processes that run ahead of the step; weights by default."""
        return (LayerProducer("weights", LOAD_WEIGHT, self._load_layer_weights),)

    # --- weight streaming (shared by every framework) -----------------------------------

    def weight_placement(self) -> WeightPlacement:
        """Resolved placement for this model's weights."""
        return default_weight_placement(self.model)

    def _weight_staging_event(self, ctx: StepContext, n_bytes: float) -> Event:
        """The pinned-buffer staging hop every framework's weight path pays."""
        if self._weight_staging is None:
            from repro.sim.channel import Channel

            self._weight_staging = Channel(
                ctx.sim, self._staging_bandwidth(), name=f"{self.name}.wstage"
            )
        return self._weight_staging.request(n_bytes, LOAD_WEIGHT)

    def _load_weights_event(self, ctx: StepContext, n_bytes: float) -> Event:
        """One layer's weight transfer to the GPU; overridden per source."""
        return ctx.sim.all_of(
            [
                ctx.system.dram_to_gpu(n_bytes, tag=LOAD_WEIGHT),
                self._weight_staging_event(ctx, n_bytes),
            ]
        )

    def _load_layer_weights(self, ctx: StepContext, layer: int) -> Event:
        """The Weights Prefetcher's transfer of one layer's weights.

        Its producer runs ahead of the layer loop, so layer ``i+1``'s
        weights stream while layer ``i`` computes.
        """
        model = self.model
        n_bytes = (
            model.attention_weight_bytes_per_layer()
            + model.mlp_weight_bytes_per_layer(layer)
        )
        return self._load_weights_event(ctx, n_bytes)

    def _gpu_projection_and_mlp_flops(self, layer: int, batch: int) -> tuple[float, float]:
        """(QKV, MLP) FLOPs of one decode step of one layer."""
        qkv = self.model.qkv_flops_per_layer(batch)
        mlp = self.model.mlp_flops_per_layer(batch, layer)
        return qkv, mlp

    def _run_gpu(self, ctx: StepContext, flops: float, mem_bytes: float) -> Event:
        """GPU kernel tagged as host compute."""
        return ctx.system.gpu.run_kernel(flops, mem_bytes, tag=HOST_COMPUTE)

    # --- batch feasibility ------------------------------------------------------------------

    def effective_batch(self, batch_size: int, seq_len: int) -> int:
        """Largest batch this placement supports (0 means OOM)."""
        hardware = self.hardware_config()
        if self.kv_placement is KVPlacement.DRAM:
            return max_feasible_batch(
                self.model, seq_len, self.kv_placement, hardware.host_dram_bytes, batch_size
            )
        return batch_size

    # --- measurement -----------------------------------------------------------------------

    def measure(
        self, batch_size: int, seq_len: int, n_steps: int = 2, warmup_steps: int = 1
    ) -> MeasuredResult:
        """Simulate decoding and report steady-state throughput + breakdowns."""
        effective = self.effective_batch(batch_size, seq_len)
        if effective == 0:
            return MeasuredResult.out_of_memory(
                self.name, self.model.name, batch_size, seq_len, note="CPU OOM"
            )
        system = build_system(self.hardware_config(), symmetry=self.symmetry)
        recorder = PhaseRecorder(system.sim)
        ctx = StepContext(
            system=system,
            model=self.model,
            batch_size=effective,
            seq_len=seq_len,
            recorder=recorder,
        )
        self._weight_staging = None  # channels must bind to the fresh simulator
        self.last_system = system
        try:
            self._setup(ctx)
        except CapacityError as exc:
            return MeasuredResult.out_of_memory(
                self.name, self.model.name, batch_size, seq_len, note=str(exc)
            )
        ctx.layer_inputs = [
            self._layer_inputs(ctx, layer) for layer in range(self.model.n_layers)
        ]
        for _ in range(warmup_steps):
            self._run_one_step(ctx)
        # Reset the recorder so breakdowns cover only measured steps.
        ctx.recorder = PhaseRecorder(system.sim)
        measure_start = ctx.clock()
        # A device is "busy" when either its compute or its memory stream is
        # occupied; decode kernels are memory-bound, so the stream dominates.
        gpu_busy0 = max(system.gpu.compute.busy_seconds, system.gpu.hbm.busy_seconds)
        cpu_busy0 = max(system.cpu.compute.busy_seconds, system.cpu.stream.busy_seconds)
        written0 = self._storage_written(system)
        for _ in range(n_steps):
            self._run_one_step(ctx)
        elapsed = ctx.clock() - measure_start
        step_seconds = elapsed / n_steps
        gpu_busy1 = max(system.gpu.compute.busy_seconds, system.gpu.hbm.busy_seconds)
        cpu_busy1 = max(system.cpu.compute.busy_seconds, system.cpu.stream.busy_seconds)
        gpu_util = (gpu_busy1 - gpu_busy0) / elapsed
        cpu_util = (cpu_busy1 - cpu_busy0) / elapsed
        written1 = self._storage_written(system)
        deferred = self._deferred_writes_per_step(ctx)
        return MeasuredResult(
            system=self.name,
            model=self.model.name,
            requested_batch=batch_size,
            effective_batch=effective,
            seq_len=seq_len,
            step_seconds=step_seconds,
            tokens_per_second=effective / step_seconds,
            prefill_seconds=self.prefill_seconds(effective, seq_len),
            breakdown=ctx.recorder.breakdown,
            utilization=UtilizationSample(
                cpu=min(1.0, cpu_util),
                gpu=min(1.0, gpu_util),
                dram_capacity=system.dram.utilization,
            ),
            storage_logical_written=(written1[0] - written0[0]) / n_steps
            + deferred.logical_written,
            storage_physical_written=(written1[1] - written0[1]) / n_steps
            + deferred.physical_written,
        )

    def _run_one_step(self, ctx: StepContext) -> None:
        sim = ctx.system.sim
        ctx.cursor = LayerCursor(self.model.n_layers)
        delivered = sim.event("layer_delivered").succeed()
        ctx.feeds = {}
        for producer in self._producers():
            feed = LayerFeed(sim, ctx.cursor, delivered)
            ctx.feeds[producer.name] = feed
            sim.process(
                self._produce(ctx, producer, feed), name=f"{self.name}.{producer.name}"
            )
        step = sim.process(self._decode_step(ctx), name=f"{self.name}.step")
        sim.run(step)

    def _produce(self, ctx: StepContext, producer: LayerProducer, feed: LayerFeed):
        """A producer's process: one transfer per layer, ahead of the step."""
        while not feed.done:
            feed.started = started = ctx.recorder.start()
            yield producer.transfer(ctx, feed.in_flight)
            ctx.recorder.stop(producer.phase, started)
            feed.deliver()

    def _decode_step(self, ctx: StepContext):
        """The decode step's process: the one per-layer loop of the DES.

        At each layer boundary a :class:`_FastForward` looks for a period
        of layers whose simulation state repeats, and skips whole periods
        once it proves one (see its docstring).
        """
        cursor = ctx.cursor
        forward: _FastForward | None = _FastForward(ctx)
        finished = 0
        while finished + cursor.skipped < cursor.n_layers:
            if finished and forward is not None and not forward.at_boundary(finished):
                forward = None
            yield from self._layer(ctx, finished + cursor.skipped)
            finished += 1

    def _deferred_writes_per_step(self, ctx: StepContext) -> StorageCounters:
        """Flash writes a step owes but issues less often than once a step.

        A write made every ``c`` steps rarely falls inside the few steps
        ``measure()`` simulates, so it is reported amortised, ``1/c`` per
        step.  None by default.
        """
        return StorageCounters()

    @staticmethod
    def _storage_written(system: SystemModel) -> tuple[float, float]:
        """(logical, physical) bytes written across the *logical* flash array.

        Goes through the symmetric-group counters so representative-device
        simulations report array-wide totals, not the lone simulated share.
        """
        counters = system.storage_counters()
        return counters.logical_written, counters.physical_written

    # --- prefill (analytic, Section 6.4 / Figure 14) ------------------------------------------

    def prefill_compute_seconds(self, batch_size: int, seq_len: int) -> float:
        """GPU time of the prefill pass (FlashAttention for all systems)."""
        model = self.model
        gpu = self.hardware_config().gpu_spec
        total = 0.0
        for layer in range(model.n_layers):
            qkv = model.qkv_flops_per_layer(batch_size) * seq_len
            attn = model.attention_flops_per_layer(batch_size, seq_len) * seq_len / 2.0
            mlp = model.mlp_flops_per_layer(batch_size, layer) * seq_len
            total += qkv + attn + mlp
        return total / gpu.effective_flops

    def prefill_weight_seconds(self, batch_size: int, seq_len: int) -> float:
        """Weight-streaming time of one full pass (source-dependent)."""
        hardware = self.hardware_config()
        total_bytes = self.model.weight_bytes()
        return total_bytes / hardware.host_pcie_bandwidth

    def prefill_kv_write_seconds(self, batch_size: int, seq_len: int) -> float:
        """Time to persist the prefill KV cache to its home."""
        hardware = self.hardware_config()
        kv_bytes = self.model.kv_cache_bytes(batch_size, seq_len)
        if self.kv_placement is KVPlacement.DRAM:
            return kv_bytes / hardware.host_dram_bandwidth
        n = max(1, hardware.n_conventional_ssds + hardware.n_smartssds)
        write_bw = n * (
            hardware.conventional_ssd_spec.write_bandwidth
            if hardware.n_conventional_ssds
            else hardware.smartssd_flash_spec.write_bandwidth
        )
        return kv_bytes / write_bw

    #: Prefill pipeline inefficiency (imperfect overlap of the three streams).
    PREFILL_OVERLAP_FACTOR = 1.15

    def prefill_seconds(self, batch_size: int, seq_len: int) -> float:
        """End-to-end prefill latency: overlapped compute/weights/KV writes."""
        compute = self.prefill_compute_seconds(batch_size, seq_len)
        weights = self.prefill_weight_seconds(batch_size, seq_len)
        kv_write = self.prefill_kv_write_seconds(batch_size, seq_len)
        return max(compute, weights, kv_write) * self.PREFILL_OVERLAP_FACTOR

    # --- end-to-end (Figure 14) -----------------------------------------------------------------

    def total_latency_seconds(
        self, batch_size: int, seq_len: int, output_tokens: int
    ) -> tuple[float, float, float]:
        """(prefill, decode, total) latency for a full request batch."""
        result = self.measure(batch_size, seq_len)
        if result.oom:
            return float("inf"), float("inf"), float("inf")
        decode = result.step_seconds * output_tokens
        return result.prefill_seconds, decode, result.prefill_seconds + decode


#: Longest layer period looked for.  GLaM interleaves dense and MoE
#: layers, a period of 2; every other registry model has period 1.  Each
#: boundary keeps ``MAX_LAYER_PERIOD`` earlier states and totals, so a
#: longer horizon costs memory on every step.
MAX_LAYER_PERIOD = 2


class _FastForward:
    """Skips whole periods of a decode step's layers once they repeat.

    At each layer boundary -- the step has finished every request of the
    previous layer, and only producers have transfers in flight -- it
    takes the simulation's :func:`~repro.sim.periodic.relative_state`,
    extended by each producer's lead in layers and the issue time of its
    transfer, plus a :class:`~repro.sim.periodic.Totals` snapshot of every
    accumulator.  When the state at boundary ``x`` matches the one at
    ``x - p``, determinism proves that each following period replays
    ``[x - p, x)`` for as long as the layer inputs of the step and of every
    producer repeat with period ``p`` and no producer runs out of layers.
    It then skips the ``m`` periods that allows: the shared cursor moves
    ``m * p`` layers, and ``m`` times the period's increment is credited to
    the clock and to every accumulator (channel busy time and work, flash
    counters, the phase breakdown).  The event heap is not shifted and no
    event is created for a skipped layer.  The layers left over, at least
    one, are simulated for real.  A state that never repeats is simply
    simulated layer by layer.
    """

    __slots__ = ("ctx", "drives", "history", "until")

    def __init__(self, ctx: StepContext) -> None:
        self.ctx = ctx
        self.drives = ctx.system.drives()
        #: Boundary layer -> (its state, its totals) for the last
        #: ``MAX_LAYER_PERIOD`` describable boundaries.
        self.history: dict[int, tuple[RelativeState, Totals]] = {}
        #: ``until[p][l]``: the first layer from ``l`` whose inputs differ
        #: from those ``p`` layers earlier (``n_layers`` if none does).
        inputs = ctx.layer_inputs
        n_layers = len(inputs)
        self.until: list[list[int]] = [[]]
        for period in range(1, MAX_LAYER_PERIOD + 1):
            until = [n_layers] * (n_layers + 1)
            for layer in range(n_layers - 1, period - 1, -1):
                if inputs[layer] != inputs[layer - period]:
                    until[layer] = layer
                else:
                    until[layer] = until[layer + 1]
            self.until.append(until)

    def at_boundary(self, finished: int) -> bool:
        """Inspect the boundary before the step's next layer.

        ``finished`` counts the layers the step has simulated.  Returns
        ``False`` once a skip is made: none can follow it.
        """
        ctx = self.ctx
        layer = finished + ctx.cursor.skipped
        self.history.pop(layer - MAX_LAYER_PERIOD - 1, None)
        state = self._state(finished)
        if state is None:
            return True
        phases = ctx.recorder.breakdown.seconds
        totals = Totals(ctx.sim, self.drives, phases)
        for period in range(1, min(MAX_LAYER_PERIOD, layer) + 1):
            earlier = self.history.get(layer - period)
            if earlier is None or not state.matches(earlier[0]):
                continue
            times = self._periods(layer, period)
            if times == 0:
                break  # the inputs change within a period: look further on
            ctx.skipped_seconds += earlier[1].credit(totals, times, self.drives, phases)
            ctx.cursor.skipped += times * period
            return False
        self.history[layer] = (state, totals)
        return True

    def _state(self, finished: int) -> RelativeState | None:
        sim = self.ctx.sim
        now = sim.now
        leads = []
        issued = []
        for feed in self.ctx.feeds.values():
            if feed.done:
                leads.append(None)
            else:
                leads.append(feed.produced - finished)
                issued.append((feed.started - now, now))
        return relative_state(sim, tuple(leads), issued)

    def _periods(self, layer: int, period: int) -> int:
        """How many periods can be skipped from boundary ``layer``.

        The period that matched and every skipped one must read the same
        inputs: the step's layers ``[layer - p, layer + m*p)`` and each
        producer's transfers from the one in flight at ``layer - p`` to the
        ``m*p``-th after the one in flight now must repeat with period
        ``p``.  The step keeps at least one layer to simulate.
        """
        until = self.until[period]
        n_layers = self.ctx.cursor.n_layers
        times = (min(until[layer], n_layers - 1) - layer) // period
        for feed in self.ctx.feeds.values():
            if not feed.done:
                in_flight = feed.in_flight
                times = min(times, (until[in_flight] - 1 - in_flight) // period)
        return max(times, 0)
