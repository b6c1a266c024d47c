"""Fast-forwarding repeated decode layers changes no measured result.

Each case measures a point twice: as ``measure()`` runs it, and layer by
layer with period detection switched off (``MAX_LAYER_PERIOD = 0``).
Every caller-visible value must agree within the golden corpus's rule,
and the fast-forwarded run must have simulated fewer events where a
period exists to skip.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import base
from repro.baselines.registry import SYSTEM_BUILDERS
from repro.models import get_model
from tests.sim.golden import differences, observe

GLAM = get_model("GLaM-143B")
#: GLaM with an MoE layer every fifth layer: its period exceeds
#: ``MAX_LAYER_PERIOD``, so only the dense runs between MoE layers repeat,
#: and every skip must stop short of the next MoE layer -- for the step
#: and for the weight transfer in flight.
GLAM_MOE5 = dataclasses.replace(GLAM, name="GLaM-moe5", moe_every=5)

CASES = [
    ("HILOS (8 SmartSSDs)", get_model("OPT-66B"), 16, 16384, True),
    ("FLEX(SSD)", get_model("OPT-66B"), 32, 32768, True),
    ("DS+UVM(DRAM)", get_model("OPT-66B"), 1, 32768, True),
    # GLaM interleaves dense and MoE layers: a period of 2.
    ("HILOS (8 SmartSSDs)", GLAM, 1, 2048, True),
    ("FLEX(DRAM)", GLAM, 16, 16384, True),
    ("FLEX(SSD)", GLAM_MOE5, 16, 16384, True),
    ("DS+UVM(DRAM)", GLAM_MOE5, 1, 2048, True),
    ("HILOS (4 SmartSSDs)", GLAM_MOE5, 16, 16384, True),
    # The weight producer's lead never settles: every layer is simulated.
    ("HILOS (16 SmartSSDs)", GLAM_MOE5, 16, 16384, False),
]


def run(label, model, batch, seq_len):
    system = SYSTEM_BUILDERS[label](model)
    result = system.measure(batch, seq_len, n_steps=2, warmup_steps=1)
    return observe(result, system), system.last_system.sim.events_processed


@pytest.mark.parametrize(
    "label,model,batch,seq_len,skips",
    CASES,
    ids=[f"{c[0]}-{c[1].name}-b{c[2]}-s{c[3]}" for c in CASES],
)
def test_fast_forward_matches_layer_by_layer(label, model, batch, seq_len, skips, monkeypatch):
    fast, fast_events = run(label, model, batch, seq_len)
    monkeypatch.setattr(base, "MAX_LAYER_PERIOD", 0)
    slow, slow_events = run(label, model, batch, seq_len)
    assert differences(slow, fast, rel=1e-9) == []
    if skips:
        assert fast_events < slow_events
    else:
        assert fast_events == slow_events


def test_skipped_layers_create_no_events(monkeypatch):
    """Events scale with the layers simulated, not with the model depth."""
    model = get_model("OPT-66B")
    shallow = dataclasses.replace(model, name="OPT-66B-48", n_layers=48)
    deep = dataclasses.replace(model, name="OPT-66B-96", n_layers=96)
    _, shallow_events = run("FLEX(DRAM)", shallow, 16, 16384)
    _, deep_events = run("FLEX(DRAM)", deep, 16, 16384)
    assert deep_events == shallow_events
