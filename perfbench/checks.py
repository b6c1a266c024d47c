"""Output checks and simulated-output digests.

Every check returns ``None`` when the output is correct and a one-line
reason when it is not; the benchmark counts each check it runs as one
operation and each reason as one failed operation.

Figure tables are compared with values pinned in
``perfbench/reference/figures.json``.  Serving reports are *not* pinned:
a step-time model change may move them.  They are checked for invariants
that hold for any correct drain, plus scenario guards that keep each
workload on the code path it exists to load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from array import array
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "figures.json"

#: Relative tolerance for pinned figure values.  The hardware simulator is
#: deterministic; the slack only absorbs float summation-order changes.
FIGURE_RTOL = 1e-9


def figure_tables(tables) -> list[dict]:
    """A figure's result tables as plain data, bookkeeping tables dropped.

    Calibration-cache utilisation tables describe the cache, not the
    figure, so they are neither pinned nor digested.
    """
    return [
        {"title": t.title, "columns": list(t.columns), "rows": [list(r) for r in t.rows]}
        for t in tables
        if "new_measurements" not in t.columns
    ]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _same(value, expected) -> bool:
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return value == expected
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isclose(value, expected, rel_tol=FIGURE_RTOL, abs_tol=1e-12)


def check_figure(name: str, tables: list[dict], reference: list[dict]) -> str | None:
    """Every table, column and cell of one figure matches its pinned values."""
    if [t["title"] for t in tables] != [t["title"] for t in reference]:
        return f"{name}: table titles differ from the reference"
    for table, expected in zip(tables, reference):
        if table["columns"] != expected["columns"]:
            return f"{name}: columns of {table['title']!r} differ"
        if len(table["rows"]) != len(expected["rows"]):
            return f"{name}: {table['title']!r} has {len(table['rows'])} rows, expected {len(expected['rows'])}"
        for index, (row, want) in enumerate(zip(table["rows"], expected["rows"])):
            for column, value, wanted in zip(table["columns"], row, want):
                if not _same(value, wanted):
                    return (
                        f"{name}: {table['title']!r} row {index} {column} = "
                        f"{value!r}, expected {wanted!r}"
                    )
    return None


# --- serving invariants --------------------------------------------------------


def check_accounted(report, n_requests: int) -> str | None:
    """Completed plus shed equals the requests submitted."""
    if report.n_requests != n_requests:
        return f"report counts {report.n_requests} requests, {n_requests} were submitted"
    if report.completed + report.shed_requests != n_requests:
        return (
            f"completed {report.completed} + shed {report.shed_requests} "
            f"!= {n_requests} requests"
        )
    return None


def check_node_sums(report) -> str | None:
    """Per-node breakdowns sum to the fleet totals."""
    nodes = report.node_reports
    for field in ("n_requests", "completed", "generated_tokens", "preemptions",
                  "wasted_prefill_tokens"):
        total = sum(getattr(node, field) for node in nodes)
        if total != getattr(report, field):
            return f"per-node {field} sum {total} != fleet {getattr(report, field)}"
    return None


def check_kv_capacity(report) -> str | None:
    """No node, and not the fleet, ever held more KV than its capacity."""
    for node in report.node_reports:
        if node.peak_kv_reserved_bytes > node.kv_capacity_bytes:
            return f"{node.node} peak KV {node.peak_kv_reserved_bytes} > capacity {node.kv_capacity_bytes}"
    if report.peak_kv_reserved_bytes > report.kv_capacity_bytes:
        return f"fleet peak KV {report.peak_kv_reserved_bytes} > capacity {report.kv_capacity_bytes}"
    return None


# --- scenario guards -----------------------------------------------------------


def guard_preemptions(report) -> str | None:
    """The drain exercised optimistic-admission preemption."""
    return None if report.preemptions > 0 else "no preemptions: the eviction path went untested"


def guard_tiering(report) -> str | None:
    """The KV stack demoted to its lower tier and decode read spilled KV."""
    if len(report.kv_tiers) < 2:
        return "report carries no KV tier stack"
    top, lower = report.kv_tiers[0], report.kv_tiers[1:]
    if not sum(t.demoted_bytes for t in lower) > 0:
        return "no demotions: the KV write-down path went untested"
    if not top.hit_rate < 1.0:
        return f"top-tier hit rate {top.hit_rate} is not below 1"
    return None


def guard_fleet_folded(report) -> str | None:
    """The drain took the representative (folded) fleet path."""
    if report.fleet_symmetry != "representative":
        return f"fleet_symmetry is {report.fleet_symmetry!r}, not 'representative'"
    return None


def guard_fold_ratio(fold_ratio: float) -> str | None:
    """Folding simulated fewer requests than it reported (traced runs)."""
    return None if fold_ratio > 1.0 else f"fold ratio {fold_ratio} is not above 1"


# --- digests -------------------------------------------------------------------

#: Per-request outcome fields hashed into a serving digest.
_REQUEST_FIELDS = (
    "request_id", "arrival_time", "admitted_time", "first_token_time",
    "completion_time", "tokens_generated", "preemption_count",
    "wasted_prefill_tokens", "spilled_decode_seconds",
)
_BULK_FIELDS = {"requests", "node_reports", "sheds", "scale_events"}


def serving_digest(report) -> tuple[str, dict]:
    """Hash of every simulated statistic of a drain, and its key stats."""
    summary = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name not in _BULK_FIELDS
    }
    summary["node_reports"] = [dataclasses.asdict(n) for n in report.node_reports]
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True, default=repr).encode())
    # Exact bits of every outcome (None as NaN), hashed in one pass.
    nan = math.nan
    outcomes = array(
        "d",
        (
            nan if value is None else value
            for request in report.requests
            for value in map(request.__getattribute__, _REQUEST_FIELDS)
        ),
    )
    digest.update(outcomes.tobytes())
    stats = {
        "makespan_s": report.makespan_seconds,
        "sim_tokens_per_s": report.tokens_per_second,
        "p50_latency_s": report.p50_latency_seconds,
        "p99_latency_s": report.p99_latency_seconds,
        "preemptions": report.preemptions,
    }
    return digest.hexdigest()[:16], stats


def figure_digest(figures: dict[str, list[dict]]) -> tuple[str, dict]:
    """Hash of every figure table, and the point count."""
    payload = json.dumps(figures, sort_keys=True)
    points = sum(len(t["rows"]) for tables in figures.values() for t in tables)
    return hashlib.sha256(payload.encode()).hexdigest()[:16], {"points": points}
