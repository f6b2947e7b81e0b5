"""Exact-count self-check: the benchmark's counters repeat for a given seed.

    python3 -m pytest -q perfbench/test_counts.py

Each workload's traced round 0 is run twice in fresh interpreters; the
counters below do not depend on the machine, so they must agree exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

EXACT_COUNTERS = [
    "spectral.iterations",
    "families.members",
    "families.classes",
    "embedding.creates_copy_calls",
    "structure.bridge_calls",
    "jsonio.bytes",
]
SEED = 11


def traced_counters(workload: str) -> dict:
    run.OUT.mkdir(exist_ok=True)
    spans = run.OUT / f"spans-{workload}-selfcheck.json"
    record = run.spawn(workload, run.round_seed(SEED, 0), "--trace", str(spans))
    return {k: record["layers"][k] for k in EXACT_COUNTERS}


@pytest.mark.parametrize("workload", sorted(run.MIN_ROUNDS))
def test_counters_repeat_exactly(workload):
    first = traced_counters(workload)
    assert first == traced_counters(workload)
    # each workload drives at least one of the counted layers
    assert any(first.values())
