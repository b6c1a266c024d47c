"""Every pinned hardware-DES measurement re-derives within rel 1e-9."""

from __future__ import annotations

import json

import pytest

from tests.sim.golden import PINS, cells, derive_cell, differences

#: Relative tolerance: the DES is deterministic, so the slack only absorbs
#: float summation-order changes such as extrapolated layer periods.
REL = 1e-9

PINNED = json.loads(PINS.read_text())


def test_pins_cover_every_cell():
    assert sorted(PINNED) == sorted(cells())


@pytest.mark.parametrize("cell", sorted(cells()))
def test_measured_result_matches_pin(cell):
    assert differences(PINNED[cell], derive_cell(cell), rel=REL) == []
