"""Golden pins of the hardware DES: :class:`MeasuredResult` per point.

Each cell measures one system at one (model, batch, context) point and
records what a caller can read afterwards: step and prefill seconds,
throughput, the phase breakdown, utilization, storage bytes written per
step, and -- because integration tests cross-check them -- the array-wide
flash counters and the expansion uplink's per-tag work on
``last_system``.  Values are stored as plain JSON floats (``repr``
round-trips exactly), so a re-derivation can be compared bit for bit or
within a tolerance.

The cells cover every registry system over a shape grid on OPT-66B, two
models whose MLP size depends on the layer (GLaM-143B interleaves dense and
MoE layers; Mixtral-8x7B is MoE throughout), a full-array simulation, the
fig15 straggler array, naive writeback, and one default-step measurement.

``test_golden.py`` re-derives every cell.  After a deliberate change to
simulated behaviour, regenerate the pins from the repository root and
justify the diff in the change log; the command lists every cell that
moved, with its largest relative change, before it rewrites the file::

    PYTHONPATH=src python -m tests.sim.golden
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.baselines.base import MeasuredResult
from repro.baselines.flexgen import FlexGenSSD
from repro.baselines.registry import SYSTEM_BUILDERS
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.fig15_ablation import _degraded_hardware
from repro.models import get_model

PINS = Path(__file__).resolve().parent / "measured_results.json"

#: (batch, context) grid every registry system is pinned on.
SHAPES = ((1, 2048), (16, 16384), (12, 6000), (32, 32768))


def _hilos(config: HilosConfig, symmetry: str = "auto", **kwargs):
    def build(model):
        system = HilosSystem(model, config, **kwargs)
        system.symmetry = symmetry
        return system

    return build


def cells() -> dict[str, tuple[Callable, str, int, int, dict]]:
    """Cell name -> (system builder, model name, batch, context, measure kwargs)."""
    one_step = {"n_steps": 1, "warmup_steps": 1}
    out: dict[str, tuple[Callable, str, int, int, dict]] = {}
    for label, builder in SYSTEM_BUILDERS.items():
        for batch, seq_len in SHAPES:
            out[f"{label}|OPT-66B|b{batch}|s{seq_len}"] = (
                builder, "OPT-66B", batch, seq_len, one_step,
            )
    out["HILOS (8 SmartSSDs)|GLaM-143B|b16|s16384"] = (
        SYSTEM_BUILDERS["HILOS (8 SmartSSDs)"], "GLaM-143B", 16, 16384, one_step,
    )
    out["FLEX(SSD)|Mixtral-8x7B|b16|s16384"] = (
        FlexGenSSD, "Mixtral-8x7B", 16, 16384, one_step,
    )
    out["HILOS (16 SmartSSDs) full|OPT-66B|b16|s16384"] = (
        _hilos(HilosConfig(n_devices=16), symmetry="full"), "OPT-66B", 16, 16384, one_step,
    )
    out["HILOS (16 SmartSSDs) slow dev0|OPT-30B|b16|s32768"] = (
        _hilos(HilosConfig(n_devices=16), hardware=_degraded_hardware()),
        "OPT-30B", 16, 32768, one_step,
    )
    out["HILOS (16 SmartSSDs) ANS naive writeback|OPT-30B|b16|s16384"] = (
        _hilos(HilosConfig(n_devices=16, use_xcache=False, spill_interval=1)),
        "OPT-30B", 16, 16384, one_step,
    )
    out["HILOS (8 SmartSSDs) default steps|OPT-66B|b16|s16384"] = (
        SYSTEM_BUILDERS["HILOS (8 SmartSSDs)"], "OPT-66B", 16, 16384, {},
    )
    return out


def observe(result: MeasuredResult, system) -> dict:
    """Everything a caller reads from one measurement, as plain data."""
    last = system.last_system
    flash = uplink = None
    if last is not None and not result.oom:
        counters = last.storage_counters()
        flash = {
            "logical_read": counters.logical_read,
            "logical_written": counters.logical_written,
            "physical_written": counters.physical_written,
        }
        if last.expansion_uplink is not None:
            uplink = dict(sorted(last.expansion_uplink.work_by_tag.items()))
    return {
        "effective_batch": result.effective_batch,
        "oom": result.oom,
        "step_seconds": result.step_seconds,
        "tokens_per_second": result.tokens_per_second,
        "prefill_seconds": result.prefill_seconds,
        "breakdown": dict(sorted(result.breakdown.seconds.items())),
        "utilization": result.utilization.as_dict(),
        "storage_logical_written": result.storage_logical_written,
        "storage_physical_written": result.storage_physical_written,
        "flash": flash,
        "uplink_work_by_tag": uplink,
    }


def derive_cell(name: str) -> dict:
    builder, model_name, batch, seq_len, kwargs = cells()[name]
    system = builder(get_model(model_name))
    return observe(system.measure(batch, seq_len, **kwargs), system)


def derive() -> dict[str, dict]:
    return {name: derive_cell(name) for name in cells()}


#: Leaves whose values are fractions of a larger quantity, compared at the
#: scale of that quantity: each breakdown phase against the breakdown's
#: total, each utilization (busy time over elapsed time) against 1.
SCALED_GROUPS = ("breakdown", "utilization")


def differences(pinned: dict, derived: dict, rel: float) -> list[tuple[str, float]]:
    """``(path, relative change)`` of every leaf of a cell beyond ``rel``.

    A leaf's change is relative to its own magnitude, except in
    :data:`SCALED_GROUPS`.  A phase or busy time of a few microseconds per
    layer is a difference of clock readings tens of seconds apart, so its
    own float rounding is ~1e-9 of itself; measured against the quantity
    it is a share of, it carries the clock's precision like every other
    leaf.  Structural mismatches (a key, a type, a bool or an int) report
    an infinite change; ``rel=0`` asks for bit-identity.
    """
    if pinned.keys() != derived.keys():
        return [("<cell>", float("inf"))]
    out = []
    for key in pinned:
        scale = 0.0
        if key == "breakdown" and isinstance(pinned[key], dict):
            scale = sum(pinned[key].values())
        elif key == "utilization":
            scale = 1.0
        out += _leaf_differences(pinned[key], derived[key], rel, scale, f"/{key}")
    return out


def _leaf_differences(pinned, derived, rel: float, scale: float, path: str):
    if isinstance(pinned, dict) and isinstance(derived, dict):
        if pinned.keys() != derived.keys():
            return [(path, float("inf"))]
        out = []
        for key in pinned:
            out += _leaf_differences(pinned[key], derived[key], rel, scale, f"{path}/{key}")
        return out
    if isinstance(pinned, float) and isinstance(derived, float):
        if pinned == derived:
            return []
        magnitude = max(abs(pinned), abs(derived), scale)
        if magnitude in (0.0, float("inf")):
            return [(path, float("inf"))]
        change = abs(pinned - derived) / magnitude
        return [(path, change)] if change > rel else []
    return [] if pinned == derived and type(pinned) is type(derived) else [(path, float("inf"))]
