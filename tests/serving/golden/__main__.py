"""Regenerate the pinned golden fingerprints (see the package docstring).

Before rewriting a pin file, lists every cell whose fingerprint differs
from the committed pins (added, moved or dropped), so a re-pin's change
log can quote exactly what moved.
"""

from __future__ import annotations

import json

from tests.serving.golden import FOLDED_PINS, FULL_PINS, derive_folded, derive_full


def repin(path, derived: dict[str, str]) -> None:
    old = json.loads(path.read_text()) if path.exists() else {}
    cells = old.keys() | derived.keys()
    moved = sorted(cell for cell in cells if old.get(cell) != derived.get(cell))
    for cell in moved:
        if cell not in old:
            state = "added"
        elif cell not in derived:
            state = "dropped"
        else:
            state = "moved"
        print(f"{path.name}: {state} {cell}")
    print(f"{path.name}: {len(moved)} of {len(derived)} cells differ from the pins")
    path.write_text(json.dumps(derived, indent=1, sort_keys=True) + "\n")


repin(FOLDED_PINS, derive_folded())
repin(FULL_PINS, derive_full())
