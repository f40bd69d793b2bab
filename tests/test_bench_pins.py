"""The benchmark's pinned outputs, checked with the unit tests.

bench/run.py checks every run against the adapted-dataset digests and window
counts in bench/pins.json, and reads windows through the ``WindowBundle``
interface. A change that moves a pin or breaks that interface makes the
benchmark report its outputs as incorrect; these tests fail on it first.
bench/pins.json is only read here.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from driftcal.pipeline import label_and_window

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import pin  # noqa: E402  (bench/pin.py)
import workloads  # noqa: E402  (bench/workloads.py)

PINS = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["default", "cli"])
def test_pinned_digest_and_window_counts_at_seed_0(name):
    assert pin.pin(workloads.SPECS[name], 0) == PINS[name]["0"]


def test_window_bundle_interface_used_by_the_benchmark(small_dataset):
    w = workloads.WINDOW
    bundle = label_and_window(small_dataset, w=w, seed=0)
    for side in (bundle.train_raw, bundle.val_raw):
        assert len(side) > 0
        assert len(list(iter(side))) == len(side)
        labels = [win.label for win in side]
        assert all(label >= 0 for label in labels)
        X = np.stack([win.features for win in side])
        assert X.shape == (len(side), w, small_dataset.runs[0].channels.shape[1])
