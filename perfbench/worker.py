"""One benchmark process: set up a workload, then run its body.

Started by ``perfbench/run.py``, one fresh process per sample, so each
process measures its own set-up from interpreter start and its own peak
resident memory::

    python3 -m perfbench.worker --workload fleet-jsq --seed 7 --budget 5 \\
        --mode timed --spawned-at <time.monotonic() of the parent>

``timed`` runs the body back to back until ``--budget`` seconds have
passed (at least once) with tracing off.  ``traced`` installs the tracer
before set-up, runs the body exactly once, and writes the Chrome trace
and the per-layer ledger under ``--out``.  Either mode prints one JSON
object on its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from perfbench import yardstick

ROOT = Path(__file__).resolve().parent.parent


def _outputs(workload, result, fold_ratio=None) -> dict:
    outcomes = workload.checks(result, fold_ratio)
    digest, stats = workload.digest(result)
    return {
        "items": workload.count(result),
        "attempted": len(outcomes),
        "failures": [f"{name}: {reason}" for name, reason in outcomes if reason],
        "digest": digest,
        "stats": stats,
    }


def run_timed(workload, budget: float) -> dict:
    """Bodies back to back for ``budget`` seconds, each step's time scaled
    by the yardstick samples taken just before and just after it."""
    workload.setup()
    ready = time.monotonic()
    before = first = yardstick.sample()
    iterations, scaled, outputs = [], [], []
    while True:
        parts, raw, normal = [], 0.0, 0.0
        for step in workload.steps():
            start = time.perf_counter()
            parts.append(step())
            seconds = time.perf_counter() - start
            after = yardstick.sample()
            raw += seconds
            normal += seconds * yardstick.REFERENCE_S / ((before + after) / 2)
            before = after
        iterations.append(raw)
        scaled.append(normal)
        result = workload.assemble(parts)
        del parts
        outputs.append(_outputs(workload, result))
        del result  # the next body must not run with this one still resident
        if time.monotonic() - ready >= budget:
            break
    return {
        "ready": ready,
        "iterations": iterations,
        "scaled": scaled,
        "yardstick_at_ready": first,
        "outputs": outputs,
    }


def run_traced(workload, out: Path, untraced_wall: float | None) -> dict:
    from perfbench import tracer as tracing

    tracer = tracing.Tracer()
    with tracer.span("bench.setup"):
        patches = tracing.install(tracer, workload.figure_modules)
        try:
            workload.setup()
        except BaseException:
            patches.restore()
            raise
    ready = time.monotonic()
    before = yardstick.sample()
    try:
        with tracer.span("bench.body") as body:
            result = workload.body()
    finally:
        patches.restore()
    pair = (before + yardstick.sample()) / 2
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.wall_s"] = body.seconds
    if untraced_wall:
        # Both sides at the yardstick's reference speed, like wall_s.
        scaled = body.seconds * yardstick.REFERENCE_S / pair
        metrics["trace.overhead_frac"] = scaled / untraced_wall - 1.0
    outputs = _outputs(workload, result, metrics["fleet.fold_ratio"])
    tracer.write(out, metrics)
    return {
        "ready": ready,
        "iterations": [body.seconds],
        "outputs": [outputs],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "trace")
    parser.add_argument("--untraced-wall", type=float, default=None)
    args = parser.parse_args(argv)

    from perfbench.workloads import WORKLOADS

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    store_dir = Path(tempfile.mkdtemp(prefix="calibration-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, store_dir)
        if args.mode == "timed":
            result = run_timed(workload, args.budget)
        else:
            result = run_traced(workload, args.out, args.untraced_wall)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    result["setup_s"] = result.pop("ready") - args.spawned_at
    result["item_unit"] = workload.items
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
