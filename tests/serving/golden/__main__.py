"""Regenerate the pinned golden fingerprints (see the package docstring)."""

from __future__ import annotations

import json

from tests.serving.golden import FOLDED_PINS, derive_folded

FOLDED_PINS.write_text(json.dumps(derive_folded(), indent=1, sort_keys=True) + "\n")
print(f"wrote {FOLDED_PINS}")
