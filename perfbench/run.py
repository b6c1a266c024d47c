"""Benchmark of the HILOS reproduction: host time to regenerate figures and drain fleets.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-jsq --seed 7 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all

Each sample runs in a fresh worker process (``perfbench/worker.py``): one
client calling the program back to back, no threads or worker pools.
With ``--trace 0`` the run spreads ``--seconds`` of timed work over
several workers and reports the end-to-end metrics -- ``wall_s`` (median
host seconds of one timed body), ``setup_s`` (median host seconds from
process start to ready-to-time), both scaled to the yardstick's reference
host speed (``perfbench/yardstick.py``), and ``peak_rss_mb`` (median
process high-water resident memory).  With ``--trace 1`` it runs one untraced
worker and one traced worker, reports the per-layer metrics, and writes
``trace.json`` and ``ledger.json`` under ``.perfbench/trace/``.

Every body's outputs are checked; each check is one operation attempted,
and a failed check is one operation failed.  The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import yardstick  # noqa: E402  (stdlib only)

WORKLOADS = ("paper-figures", "fleet-jsq", "node-tiered", "fleet-folded")
#: Worker processes per untraced run; set-up is sampled once per worker.
WORKERS = 3
#: A run must finish well inside the 180 s allowed for one benchmark run.
DEADLINE_S = 170.0


class BenchError(Exception):
    """A worker failed; the run has no result."""


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The production hot path: runtime invariant checking off, and a
    # calibration directory inside the checkout in case anything falls back
    # to the default store.
    env["REPRO_SIM_SANITIZE"] = "0"
    env["REPRO_CALIBRATION_DIR"] = str(ROOT / ".perfbench" / "default-calibration")
    command = [sys.executable, "-m", "perfbench.worker", *args]
    at_spawn = yardstick.sample()
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--spawned-at", repr(spawned)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if done.returncode != 0:
        raise BenchError(f"worker failed ({' '.join(args)}):\n{done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["yardstick_at_spawn"] = at_spawn
    return result


def scaled_setup(worker: dict) -> float:
    """A worker's set-up time at the yardstick's reference speed, scaled by
    the samples taken just before the spawn and just after ready."""
    pair = (worker["yardstick_at_spawn"] + worker["yardstick_at_ready"]) / 2
    return worker["setup_s"] * yardstick.REFERENCE_S / pair


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        untraced = _worker(common + ["--mode", "timed", "--budget", str(seconds / 2)], deadline)
        out = ROOT / ".perfbench" / "trace" / f"{workload}-seed{seed}"
        traced = _worker(
            common
            + ["--mode", "traced", "--out", str(out),
               "--untraced-wall", repr(statistics.median(untraced["scaled"]))],
            deadline,
        )
        workers = [untraced, traced]
    else:
        workers = [
            _worker(common + ["--mode", "timed", "--budget", str(seconds / WORKERS)], deadline)
            for _ in range(WORKERS)
        ]
    outputs = [o for w in workers for o in w["outputs"]]
    failures = [f for o in outputs for f in o["failures"]]
    attempted = sum(o["attempted"] for o in outputs) + 1
    digests = sorted({o["digest"] for o in outputs})
    if len(digests) != 1:
        failures.append(f"determinism: bodies produced {len(digests)} distinct digests {digests}")
    timed = workers[:1] if trace else workers
    measured = [t for w in timed for t in w["iterations"]]
    summary = {
        "workload": workload,
        "seed": seed,
        "wall_s": statistics.median(t for w in timed for t in w["scaled"]),
        "raw_wall_s": statistics.median(measured),
        "bodies": len(measured),
        "items": outputs[0]["items"],
        "item_unit": workers[0]["item_unit"],
        "setup_s": statistics.median(scaled_setup(w) for w in timed),
        "raw_setup_s": statistics.median(w["setup_s"] for w in timed),
        "peak_rss_mb": statistics.median(w["rss_mb"] for w in timed),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digest": digests[0],
        "stats": outputs[0]["stats"],
    }
    if trace:
        summary["layers"] = workers[1]["metrics"]
        summary["trace_dir"] = str(out.relative_to(ROOT))
    return summary


def _print_summary(s: dict) -> None:
    print(f"== {s['workload']} (seed {s['seed']}) ==")
    print(f"wall_s       {s['wall_s']:.4f} s   median of {s['bodies']} bodies, "
          f"{s['items']} {s['item_unit']} each (measured {s['raw_wall_s']:.4f} s)")
    print(f"setup_s      {s['setup_s']:.4f} s   (measured {s['raw_setup_s']:.4f} s)")
    print(f"peak_rss_mb  {s['peak_rss_mb']:.1f} MB")
    print(f"operations   {s['attempted']} attempted, {s['failed']} failed")
    for failure in s["failures"]:
        print(f"  FAILED {failure}")
    stats = "  ".join(f"{k}={v:.6g}" for k, v in s["stats"].items())
    print(f"simulated    digest={s['digest']}  {stats}  (reported, not gated)")
    if "layers" in s:
        for name, value in s["layers"].items():
            print(f"  {name:30s} {value:.6g}")
        print(f"trace        {s['trace_dir']}/trace.json, ledger.json")


def _result(summaries: list[dict], trace: bool) -> dict:
    """The final JSON line; metric names and units come from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    failed = sum(s["failed"] for s in summaries)
    metrics = {}
    for s in summaries:
        values = s["layers"] if trace else s
        prefix = "" if len(summaries) == 1 else f"{s['workload']}:"
        for metric in wanted:
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]],
                "unit": metric["unit"],
            }
    return {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            _print_summary(summary)
            summaries.append(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = _result(summaries, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
