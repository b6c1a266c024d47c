"""The single-system serving scheduler (a 1-node cluster).

:class:`OfflineServingScheduler` is the original single-host API: one
system, one policy, one queue.  It is a 1-node
:class:`~repro.serving.cluster.ClusterScheduler`, so its drain is the
cluster's: the dispatcher delivers each request to the node's
:class:`~repro.serving.engine.NodeEngine` at its arrival time, and the
report comes back in the single-system shape (the system's name, no
router).  Its schedules are pinned by the golden corpus in
``tests/serving/golden/``.

Request lifecycle (the admission/preemption state machine)::

    pending --arrival--> waiting --admit--> prefilling --chunks done-->
    running --last token--> finished
                  ^                                |
                  +------- preempt (optimistic) ---+

Execution semantics per policy family:

* *padded* (batch-synchronous) policies bill every iteration at the formed
  batch's slot count and **maximum** live context -- short requests finish
  early (their completion timestamps stop) but their slots idle until the
  batch drains;
* iteration-level policies bill only the live requests at their **mean**
  context (no padding), and completed requests' slots refill immediately.

Under ``admission="optimistic"`` (see
:class:`~repro.serving.policies.ContinuousBatching`) requests are admitted
against their *current* KV footprint; before every decode iteration the
scheduler checks that one more token per running request still fits the
budget, and resolves overflow by evicting the youngest admitted request
(recompute-on-readmit: its KV is dropped, it rejoins the waiting queue
front, and readmission re-runs prefill over its full context).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.baselines.base import InferenceSystem
from repro.calibration import CalibrationStore
from repro.errors import ConfigurationError
from repro.serving.arrivals import ArrivalProcess
from repro.serving.budget import CapacityBudget
from repro.serving.cluster import ClusterScheduler
from repro.serving.engine import Node
from repro.serving.metrics import ServingReport
from repro.serving.policies import SchedulingPolicy
from repro.serving.steptime import CalibratedStepTime, StepTimeModel
from repro.workloads.requests import RequestClass


class OfflineServingScheduler(ClusterScheduler):
    """Drains heterogeneous request queues through one inference system.

    ``prefill_chunk_tokens`` enables chunked prefill: each scheduling
    round processes at most that many prompt tokens per prefilling request
    before the next decode iteration runs, so a long admission stalls
    running decodes for one chunk instead of a whole prompt.  ``None``
    (the default) prefills whole prompts in one pass -- exactly the
    chunked path with an unbounded chunk, so a chunk size at or above
    every prompt length reproduces the unchunked schedule bit for bit.
    """

    def __init__(
        self,
        system: InferenceSystem,
        policy: SchedulingPolicy,
        step_time: StepTimeModel | None = None,
        budget: CapacityBudget | None = None,
        prefill_chunk_tokens: int | None = None,
    ) -> None:
        node = Node(
            system,
            step_time=step_time,
            budget=budget,
            prefill_chunk_tokens=prefill_chunk_tokens,
        )
        super().__init__([node], policy=policy)

    @property
    def step_time(self) -> StepTimeModel:
        """The node's step-time model (shared calibration, flushed by callers)."""
        return self.nodes[0].step_time


def drain_queue(
    system: InferenceSystem,
    policies: Iterable[SchedulingPolicy],
    requests: Sequence[RequestClass],
    step_time: StepTimeModel | None = None,
    store: "CalibrationStore | None" = None,
    batch_grid: tuple[int, ...] | None = None,
    seq_grid: tuple[int, ...] | None = None,
    arrivals: ArrivalProcess | None = None,
    prefill_chunk_tokens: int | None = None,
) -> list[ServingReport]:
    """Drain the same queue under several policies on one system.

    The step-time model (and its calibration cache) is shared across
    policies; each policy gets a fresh copy of the queue so per-request
    state never leaks between drains.  ``store`` (plus optional grid
    overrides) builds the default :class:`CalibratedStepTime` against a
    persistent calibration cache so repeated sweeps skip re-measuring.
    ``arrivals`` and ``prefill_chunk_tokens`` pass through to every drain;
    seeded arrival processes replay the identical schedule per policy.
    """
    if step_time is None:
        grids = {}
        if batch_grid is not None:
            grids["batch_grid"] = batch_grid
        if seq_grid is not None:
            grids["seq_grid"] = seq_grid
        step_time = CalibratedStepTime(system, store=store, **grids)
    elif store is not None or batch_grid is not None or seq_grid is not None:
        raise ConfigurationError(
            "drain_queue: store/batch_grid/seq_grid configure the default "
            "CalibratedStepTime and conflict with an explicit step_time"
        )
    reports = []
    for policy in policies:
        scheduler = OfflineServingScheduler(
            system,
            policy,
            step_time=step_time,
            prefill_chunk_tokens=prefill_chunk_tokens,
        )
        reports.append(scheduler.drain(list(requests), arrivals=arrivals))
    step_time.flush()
    return reports
