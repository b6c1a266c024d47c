"""Re-derive the pinned golden fingerprints of the folded-drain corpus."""

from __future__ import annotations

import pytest

from tests.serving.golden import (
    fingerprint,
    folded_report,
    folded_scenarios,
    load_folded,
    scenario_id,
)


def test_pins_cover_the_scenario_matrix():
    assert sorted(load_folded()) == sorted(
        scenario_id(*cell) for cell in folded_scenarios()
    )


@pytest.mark.parametrize(
    "cell", folded_scenarios(), ids=[scenario_id(*c) for c in folded_scenarios()]
)
def test_folded_report_matches_its_pin(cell):
    report = folded_report(*cell)
    assert report.fleet_symmetry == "representative"
    assert fingerprint(report) == load_folded()[scenario_id(*cell)]
