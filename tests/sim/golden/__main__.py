"""Regenerate the pinned MeasuredResult golden (see the package docstring).

Before rewriting the pin file, lists every cell that differs from the
committed pins at all (``==``), with its largest relative change, so a
re-pin's change log can quote exactly what moved and by how much.
"""

from __future__ import annotations

import json

from tests.sim.golden import PINS, derive, differences

old = json.loads(PINS.read_text()) if PINS.exists() else {}
derived = derive()
moved = 0
for cell in sorted(old.keys() | derived.keys()):
    if cell not in old or cell not in derived:
        print(f"{PINS.name}: {'added' if cell not in old else 'dropped'} {cell}")
        moved += 1
        continue
    diffs = differences(old[cell], derived[cell], rel=0.0)
    if diffs:
        worst = max(change for _, change in diffs)
        print(f"{PINS.name}: moved {cell} ({len(diffs)} values, max rel {worst:.3g})")
        moved += 1
print(f"{PINS.name}: {moved} of {len(derived)} cells differ from the pins")
PINS.write_text(json.dumps(derived, indent=1, sort_keys=True) + "\n")
