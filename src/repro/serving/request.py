"""Per-request serving state and latency accounting.

A :class:`ServingRequest` wraps one of the workload
:class:`~repro.workloads.requests.RequestClass` shapes with the mutable
lifecycle state the scheduler drives: arrival, admission into a batch,
(possibly chunked) prefill -- whose completion produces the next output
token -- per-iteration decode progress, preemption, and completion.  All
timestamps are simulated seconds from the drain's start; a request's
latency is its arrival-to-completion time, so offline all-at-time-zero
queues and online arrival processes share one accounting.

Preemption is recompute-on-readmit: an evicted request drops its KV cache
(and any partial prefill progress) but keeps the tokens it already emitted;
readmission re-runs prefill over the full current context (prompt plus
generated tokens) before decoding resumes.

Migration (a node dying under fault injection, see
:mod:`repro.serving.faults`) is the cross-node variant of the same
accounting: the dead node's KV is lost, the emitted tokens survive, and the
request re-runs prefill wherever the dispatcher re-routes it.
:attr:`ServingRequest.migration_count` is also the bounded-retry key -- a
request that keeps landing on dying nodes eventually fails the drain
instead of looping forever.

**Request folding.** Identical queued requests (same
:class:`~repro.workloads.requests.RequestClass`, same arrival time,
adjacent in FCFS order) can be folded into one *representative* carrying a
:attr:`ServingRequest.weight` -- the member multiplicity.  Identical
members admitted together march through prefill and decode in lockstep, so
one weighted state machine reproduces all of them; the engine multiplies
token/KV/slot accounting by ``weight``, and partial admission or
preemption *splits* a representative so the pieces diverge exactly where
the unfolded schedule would (see :meth:`ServingRequest.split_waiting` /
:meth:`ServingRequest.split_youngest`).  Folding is applied only by the
representative fleet drain (:mod:`repro.serving.cluster`); ordinary drains
never see a weight above 1.

**Lazy members.** A folded drain never builds most of its members: its
report keeps the queue as columns plus a :class:`FoldTable` of
(representative outcome, multiplicity) units, and
:class:`LazyRequests` builds plain weight-1 members from them only when
someone reads the request list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

from repro.errors import SchedulingError
from repro.models.config import ModelConfig
from repro.workloads.requests import RequestClass


@dataclass
class ServingRequest:
    """One in-flight request of a serving drain."""

    request_id: int
    request_class: RequestClass
    arrival_time: float = 0.0
    #: First admission out of the waiting queue (stable across preemptions;
    #: queueing time is measured against this).
    admitted_time: float | None = None
    #: Most recent (re)admission -- the youngest-first preemption order key.
    last_admitted_time: float | None = None
    first_token_time: float | None = None
    completion_time: float | None = None
    tokens_generated: int = 0
    #: Prompt/context tokens whose KV the current (chunked) prefill pass has
    #: already computed; reset to zero when the request is preempted.
    prefill_tokens_done: int = 0
    #: Times this request was evicted from the engine to resolve a KV
    #: budget overflow (optimistic admission only).
    preemption_count: int = 0
    #: Context tokens whose KV was dropped by preemptions and had to be
    #: recomputed by a readmission prefill -- the throughput cost of
    #: admitting optimistically.  Migration recompute is charged here too
    #: (the loss mechanism is identical); :attr:`migrated_recompute_tokens`
    #: tracks the migration share separately.
    wasted_prefill_tokens: int = 0
    #: Times this request was re-routed off a dying node (spot preemption /
    #: crash fault injection); the bounded-retry counter.
    migration_count: int = 0
    #: Context tokens whose KV died with a node and had to be recomputed on
    #: the destination -- the migration share of ``wasted_prefill_tokens``.
    migrated_recompute_tokens: int = 0
    #: Sanitizer-only provenance: name of the node whose KV ledger currently
    #: holds this request's bytes (``None`` when unadmitted or released).
    #: Maintained only on sanitized drains, where it catches a migrated
    #: request re-admitted before the dead node released its bytes.
    kv_holder: str | None = None
    #: Admission-control re-deliveries under ``action="retry"`` overload
    #: (see :mod:`repro.serving.overload`); distinct from
    #: :attr:`migration_count`, which counts node-death re-routing.
    retry_attempts: int = 0
    #: Live per-tier KV residency (tier name -> bytes) while admitted to a
    #: tiered node -- the same dict the node's
    #: :class:`~repro.serving.kvtiers.TieredBudgetTracker` maintains, so
    #: reads are zero-copy; ``None`` on flat nodes and whenever the
    #: request holds no reservation.  Excluded from equality/repr: it is
    #: transient tracker state, not an outcome.
    kv_residency: dict | None = field(default=None, repr=False, compare=False)
    #: Extra decode seconds this request paid re-reading its spilled KV at
    #: the near-storage rate (tiered nodes with bytes below the top tier;
    #: counted at the nominal rate, before slowdown-fault scaling).
    spilled_decode_seconds: float = 0.0
    #: When admission control shed this request (``None`` if never shed).
    shed_time: float | None = None
    #: Which bound shed it: ``"queue-bound"``, ``"token-rate"``,
    #: ``"retry-exhausted"``, or ``"park-deadline"``.
    shed_reason: str | None = None
    #: Member multiplicity of a folded representative: this request stands
    #: for ``weight`` identical requests (itself plus :attr:`folded`).
    #: Always 1 outside the representative fleet drain.
    weight: int = 1
    #: The other members this representative stands for, in ascending
    #: request-id order (``len(folded) == weight - 1``).
    folded: list["ServingRequest"] = field(default_factory=list, repr=False)
    #: Back-pointer from a folded member to the representative currently
    #: carrying its state (``None`` for representatives and plain
    #: requests).  Excluded from equality/repr: it closes a cycle with
    #: :attr:`folded`.
    folded_into: "ServingRequest | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def input_tokens(self) -> int:
        """Prompt length in tokens."""
        return self.request_class.input_tokens

    @property
    def output_tokens(self) -> int:
        """Tokens the request generates before completing."""
        return self.request_class.output_tokens

    @property
    def context_tokens(self) -> int:
        """Current KV-cache context length (prompt + generated so far)."""
        return self.input_tokens + self.tokens_generated

    @property
    def final_context_tokens(self) -> int:
        """Context length when the last token has been generated."""
        return self.request_class.total_tokens

    @property
    def prefill_target_tokens(self) -> int:
        """Context tokens the current prefill pass must compute KV for.

        A fresh request prefills its prompt; a preempted request recomputes
        prompt *plus* every token it had generated before eviction.
        """
        return self.context_tokens

    @property
    def prefill_remaining_tokens(self) -> int:
        """Prefill tokens still to process before decode can (re)start."""
        return self.prefill_target_tokens - self.prefill_tokens_done

    @property
    def admitted(self) -> bool:
        """Whether the request has been pulled out of the waiting queue."""
        return self.admitted_time is not None

    @property
    def finished(self) -> bool:
        """Whether every output token has been generated."""
        return self.completion_time is not None

    @property
    def shed(self) -> bool:
        """Whether admission control rejected this request."""
        return self.shed_time is not None

    @property
    def latency_seconds(self) -> float:
        """Arrival-to-completion time."""
        if self.completion_time is None:
            raise SchedulingError(f"request {self.request_id} has not completed")
        return self.completion_time - self.arrival_time

    @property
    def queueing_seconds(self) -> float:
        """Time spent waiting before the scheduler first admitted the request.

        Preempted requests do not re-accrue queueing time: readmissions
        update only :attr:`last_admitted_time`.
        """
        if self.admitted_time is None:
            raise SchedulingError(f"request {self.request_id} was never admitted")
        return self.admitted_time - self.arrival_time

    def record_preemption(self, dropped_tokens: int) -> None:
        """Account one eviction dropping ``dropped_tokens`` of computed KV.

        The request's emitted tokens survive (they were already delivered);
        only the cache state is lost, so readmission pays a recompute
        prefill over the full current context.
        """
        self.preemption_count += 1
        self.wasted_prefill_tokens += dropped_tokens
        self.prefill_tokens_done = 0

    def record_migration(self, dropped_tokens: int) -> None:
        """Account one node-death eviction dropping ``dropped_tokens`` of KV.

        Same physics as :meth:`record_preemption` -- emitted tokens survive,
        the cache is lost, the destination re-runs prefill over the full
        current context -- but tracked separately so fault accounting
        (migrations, recompute waste, bounded retry) is distinguishable from
        optimistic-admission preemption.  Requests still queued when their
        node died migrate with ``dropped_tokens=0``: re-routing costs them
        nothing but still counts against the retry bound.
        """
        self.migration_count += 1
        self.migrated_recompute_tokens += dropped_tokens
        self.wasted_prefill_tokens += dropped_tokens
        self.prefill_tokens_done = 0

    # --- folding (representative fleet drains only) -----------------------------

    #: Dynamic per-request state a representative carries for its members.
    #: ``kv_holder`` travels too: members share the representative's ledger
    #: entry, and a split clears it on the piece whose bytes were released.
    OUTCOME_FIELDS = (
        "admitted_time",
        "last_admitted_time",
        "first_token_time",
        "completion_time",
        "tokens_generated",
        "prefill_tokens_done",
        "preemption_count",
        "wasted_prefill_tokens",
        "migration_count",
        "migrated_recompute_tokens",
        "kv_holder",
        "retry_attempts",
        "shed_time",
        "shed_reason",
        "spilled_decode_seconds",
    )

    @property
    def youngest_member_id(self) -> int:
        """Highest member request id -- the preemption-victim tie-break key.

        An unfolded drain evicts the youngest *member* (latest admission,
        ties by id); a representative must therefore compete with the id
        of its youngest member, not its own (lowest) id.
        """
        return self.folded[-1].request_id if self.folded else self.request_id

    def copy_outcome_from(self, other: "ServingRequest") -> None:
        """Copy ``other``'s dynamic lifecycle state onto this request."""
        for name in self.OUTCOME_FIELDS:
            setattr(self, name, getattr(other, name))

    def absorb(self, members: Sequence["ServingRequest"]) -> None:
        """Fold ``members`` (identical, ascending-id) into this request."""
        for member in members:
            member.folded_into = self
        self.folded.extend(members)
        self.weight = 1 + len(self.folded)

    def split_waiting(self, admitted: int) -> "ServingRequest":
        """Split an *unadmitted* representative: keep ``admitted`` members.

        The first ``admitted`` members (lowest ids -- exactly the ones an
        unfolded FCFS admission would have taken) stay with this
        representative; the rest move to a new representative, which is
        returned so the caller can put it back at the head of the waiting
        queue.  Both pieces keep the shared (pristine) pre-admission state.
        """
        if not 0 < admitted < self.weight:
            raise SchedulingError(
                f"cannot split {admitted} members out of a weight-"
                f"{self.weight} representative (request {self.request_id})"
            )
        moved = self.folded[admitted - 1 :]
        self.folded = self.folded[: admitted - 1]
        self.weight = admitted
        remainder = moved[0]
        remainder.folded_into = None
        remainder.copy_outcome_from(self)
        remainder.absorb(moved[1:])
        return remainder

    def split_youngest(self) -> "ServingRequest":
        """Split the youngest member off an *admitted* representative.

        Used by preemption: the unfolded engine would evict exactly one
        request -- the youngest -- so the representative sheds its
        highest-id member as a weight-1 piece carrying the current state
        (the caller then records the preemption and releases its KV
        share).  Requires ``weight > 1``.
        """
        if self.weight <= 1:
            raise SchedulingError(
                f"request {self.request_id} has no folded members to split"
            )
        evicted = self.folded.pop()
        self.weight -= 1
        evicted.folded_into = None
        evicted.copy_outcome_from(self)
        evicted.kv_holder = None  # its KV share is being released
        evicted.weight = 1
        return evicted

    def unfold(self) -> None:
        """Copy this representative's outcome onto every folded member."""
        for member in self.folded:
            member.copy_outcome_from(self)
            member.folded_into = None
            member.weight = 1
        self.folded = []
        self.weight = 1

    def kv_reservation_bytes(self, model: ModelConfig) -> float:
        """KV bytes this request occupies at its *final* context length.

        Reserve-mode admission holds the full final footprint up front so a
        batch can never outgrow the device budget mid-decode.
        """
        return float(model.kv_cache_bytes(1, self.final_context_tokens))

    def kv_current_bytes(self, model: ModelConfig) -> float:
        """KV bytes at the *current* context length."""
        return float(model.kv_cache_bytes(1, self.context_tokens))

    def kv_admission_bytes(self, model: ModelConfig) -> float:
        """KV bytes charged at optimistic admission: the current context
        plus the token the prefill pass emits on completion.

        Charging the post-prefill footprint up front keeps every ledger
        movement fits-checked -- admission here, decode growth by the
        scheduler's pre-iteration overflow check -- so the budget can
        never burst, while still being a small fraction of the final
        footprint reserve-mode admission would demand.
        """
        return float(model.kv_cache_bytes(1, self.context_tokens + 1))


def total_weight(requests: Iterable[ServingRequest]) -> int:
    """Member count a set of (possibly folded) requests stands for."""
    return sum(request.weight for request in requests)


def fold_identical_runs(requests: Sequence[ServingRequest]) -> list[ServingRequest]:
    """Fold adjacent identical requests into weighted representatives.

    Two requests fold when they share a request class and an arrival time,
    carry no prior folding or lifecycle state, and sit *adjacent* in the
    given (FCFS) order -- adjacency preserves head-of-line semantics, so
    the folded queue admits in exactly the unfolded order.  Returns the
    representative sequence (each run's lowest-id member carries the run);
    the input list is not mutated, but the member requests are linked to
    their representatives in place.
    """
    representatives: list[ServingRequest] = []
    run: list[ServingRequest] = []

    def close_run() -> None:
        if not run:
            return
        rep = run[0]
        rep.absorb(run[1:])
        representatives.append(rep)
        run.clear()

    for request in requests:
        foldable = (
            request.weight == 1
            and not request.folded
            and request.folded_into is None
            and not request.admitted
            and not request.finished
        )
        if (
            run
            and foldable
            and request.request_class == run[0].request_class
            # Bit-identical stamps only: a tolerance would fold near-ties
            # that the full path dispatches at distinct instants.
            and request.arrival_time == run[0].arrival_time  # simlint: disable=SIM005
            and request.request_id > run[-1].request_id
        ):
            run.append(request)
            continue
        close_run()
        if foldable:
            run.append(request)
        else:
            representatives.append(request)
    close_run()
    return representatives


def make_request_queue(
    classes: list[RequestClass], arrival_times: list[float] | None = None
) -> list[ServingRequest]:
    """Wrap sampled request classes as an id-ordered request queue.

    Without ``arrival_times`` the queue is the classic offline
    all-at-time-zero drain; with it, request ``i`` arrives at
    ``arrival_times[i]`` (see :mod:`repro.serving.arrivals`).
    """
    if arrival_times is not None and len(arrival_times) != len(classes):
        raise SchedulingError(
            f"{len(arrival_times)} arrival times for {len(classes)} requests"
        )
    return [
        ServingRequest(
            request_id=i,
            request_class=cls,
            arrival_time=0.0 if arrival_times is None else float(arrival_times[i]),
        )
        for i, cls in enumerate(classes)
    ]


#: Constructor parameters between ``arrival_time`` and ``weight``, in order:
#: the lifecycle state a lazily built member takes from its unit.
_FIELD_NAMES = [f.name for f in fields(ServingRequest)]
_STATE_PARAMS = tuple(
    _FIELD_NAMES[_FIELD_NAMES.index("arrival_time") + 1 : _FIELD_NAMES.index("weight")]
)


def _member_state(unit: ServingRequest) -> tuple:
    """Positional state arguments of a plain member carrying ``unit``'s outcome.

    Outcome fields come from ``unit``; transient tracker state
    (``kv_residency``) starts empty, as on a fresh request that
    :meth:`ServingRequest.copy_outcome_from` filled.
    """
    return tuple(
        getattr(unit, name) if name in ServingRequest.OUTCOME_FIELDS else None
        for name in _STATE_PARAMS
    )


@dataclass(frozen=True)
class FoldTable:
    """A folded drain's outcomes as (representative, multiplicity) units.

    Unit ``k`` is one position of a representative node's slice:
    ``outcomes[k]`` is the request carrying its final lifecycle state (the
    folded representative it ended up in), and ``multiplicity[k]`` counts
    the queue members sharing that outcome -- one per node of the group
    the slice was mirrored onto.  ``members[i]`` is the unit of queue
    member ``i``, so ``sum(multiplicity) == len(members)``.
    """

    outcomes: Sequence[ServingRequest]
    multiplicity: Sequence[int]
    members: Sequence[int]

    def expand(self, values: Sequence) -> list:
        """Per-unit ``values`` as a per-member column, in queue order."""
        return list(map(values.__getitem__, self.members))


def _materialising(name: str):
    method = getattr(list, name)

    def call(self, *args, **kwargs):
        self._materialise()
        for arg in args:
            if isinstance(arg, LazyRequests):
                arg._materialise()
        return method(self, *args, **kwargs)

    call.__name__ = name
    call.__doc__ = method.__doc__
    return call


class LazyRequests(list):
    """A request list whose members are built on first access, then cached.

    It holds a queue as columns -- request ids, classes and arrival times
    -- plus, after a folded drain, the :class:`FoldTable` the members'
    outcomes come from.  ``len()`` answers from the columns; any other
    read or change builds every member once (plain weight-1
    :class:`ServingRequest`\\ s, in queue order, each carrying its unit's
    outcome), caches them and drops the columns.  From then on it is an
    ordinary ``list``: indexing, iteration, ``sorted``, element mutation,
    equality, pickling and ``dataclasses.asdict`` behave as they do on
    the eager list.  Constructed from an iterable it is simply eager.
    """

    def __init__(self, iterable: Iterable[ServingRequest] = ()) -> None:
        super().__init__(iterable)
        self._columns: tuple | None = None
        #: The (representative, multiplicity) units of a folded drain's
        #: outcomes; ``None`` for a queue that has not been drained.
        self.folding: FoldTable | None = None

    @classmethod
    def from_columns(
        cls,
        request_ids: Sequence[int],
        classes: Sequence[RequestClass],
        arrival_times: Sequence[float],
        folding: FoldTable | None = None,
    ) -> "LazyRequests":
        """A lazy list of ``len(request_ids)`` members built from columns."""
        lazy = cls()
        lazy._columns = (request_ids, classes, arrival_times)
        lazy.folding = folding
        return lazy

    @property
    def columns(self) -> tuple | None:
        """``(request_ids, classes, arrival_times)`` until the members are built."""
        return self._columns

    @property
    def materialised(self) -> bool:
        """Whether the member objects exist (reading them builds them)."""
        return self._columns is None

    def _materialise(self) -> None:
        columns = self._columns
        if columns is None:
            return
        self._columns = None
        request_ids, classes, arrival_times = columns
        if self.folding is None:
            members = map(ServingRequest, request_ids, classes, arrival_times)
        else:
            states = [_member_state(unit) for unit in self.folding.outcomes]
            members = (
                ServingRequest(request_id, cls, time, *states[unit])
                for request_id, cls, time, unit in zip(
                    request_ids, classes, arrival_times, self.folding.members
                )
            )
        list.extend(self, members)

    def __len__(self) -> int:
        columns = self._columns
        return list.__len__(self) if columns is None else len(columns[0])

    def __radd__(self, other):
        self._materialise()
        return other + list(self)

    def __reduce_ex__(self, protocol):
        return (type(self), (list(self),))


# Every list operation that reads or changes the members builds them first;
# ``__len__`` (answered from the columns) is the one exception.
for _name in (
    "__getitem__", "__setitem__", "__delitem__", "__iter__", "__reversed__",
    "__contains__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__",
    "__ge__", "__add__", "__iadd__", "__mul__", "__rmul__", "__imul__",
    "__repr__", "append", "extend", "insert", "pop", "remove", "clear",
    "index", "count", "sort", "reverse", "copy",
):
    setattr(LazyRequests, _name, _materialising(_name))
del _name
