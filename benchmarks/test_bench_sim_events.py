"""Counter gate: hardware-DES events per measurement, pinned exactly.

``Simulator.events_processed`` counts the callbacks one ``measure()``
runs.  The simulation is deterministic, so the count is the same on every
host and every run: unlike a wall-time gate it cannot pass on a slower
change or fail on a noisy machine.  Each point measures one decode step
with no warm-up, as figure points and calibration cells do.

The points cover every system family, a point whose layer state never
repeats (so every layer is simulated) and a full-array simulation.  Each
docstring gives the count before decode steps fast-forwarded through
repeating layer periods, so the cut stays visible; a change that cuts
events further lowers the pin, one that adds events must justify it.
"""

from __future__ import annotations

import pytest

from repro.baselines.registry import SYSTEM_BUILDERS
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.models import get_model


def events(system, batch: int, seq_len: int) -> int:
    system.measure(batch, seq_len, n_steps=1, warmup_steps=0)
    return system.last_system.sim.events_processed


def hilos16(model, symmetry: str = "auto") -> HilosSystem:
    system = HilosSystem(model, HilosConfig(n_devices=16))
    system.symmetry = symmetry
    return system


@pytest.fixture(scope="module")
def opt66b():
    return get_model("OPT-66B")


def test_flex_ssd(opt66b):
    """KV and weight producers both ahead of the step; 1,159 events before."""
    assert events(SYSTEM_BUILDERS["FLEX(SSD)"](opt66b), 16, 16384) == 319


def test_flex_dram(opt66b):
    """Resident KV, weights from DRAM; 707 events before."""
    assert events(SYSTEM_BUILDERS["FLEX(DRAM)"](opt66b), 16, 16384) == 35


def test_flex_smartssds_without_fpga(opt66b):
    """Sixteen PCIe 3.0 drives behind the staging pipeline; 1,157 before."""
    system = SYSTEM_BUILDERS["FLEX(16 PCIe 3.0 SSDs)"](opt66b)
    assert events(system, 16, 16384) == 302


def test_deepspeed_uvm(opt66b):
    """KV faulted in over UVM; 966 events before."""
    assert events(SYSTEM_BUILDERS["DS+UVM(DRAM)"](opt66b), 1, 32768) == 546


def test_hilos8(opt66b):
    """The paper's default array; 2,035 events before."""
    assert events(SYSTEM_BUILDERS["HILOS (8 SmartSSDs)"](opt66b), 16, 16384) == 1083


def test_hilos16_after_weights_finish():
    """The state repeats only once the weight producer has finished; 1,456 before."""
    assert events(hilos16(get_model("OPT-30B")), 32, 32768) == 403


def test_hilos16_full_array(opt66b):
    """Every device simulated (``symmetry="full"``); 10,596 events before."""
    assert events(hilos16(opt66b, symmetry="full"), 16, 16384) == 7194


def test_glam_never_repeats():
    """Fallback: GLaM's MoE weights keep the producer's lead drifting, so no
    state repeats and every layer is simulated -- 831 events, as before."""
    assert events(hilos16(get_model("GLaM-143B")), 16, 65536) == 831
