"""Write bench/pins.json: the adapted-dataset digest and window counts of
every workload for the seeds in ``PINNED_SEEDS``, as the code at the
current commit makes them.

    python3 bench/pin.py

Run it from the root of a driftcal checkout, and only when a change is
meant to alter the adapted data or the windows; the benchmark's checks
compare every run against these pins.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

PINNED_SEEDS = range(40)


def pin(spec: workloads.Spec, seed: int) -> dict:
    from driftcal import adaptation, pipeline, synthetic

    trajs = synthetic.synthetic_trajectories(
        n_engines=spec.engines, seed=seed, length_range=spec.length_range
    )
    dataset = adaptation.adapt_dataset(trajs, adaptation.AdaptationConfig(), seed=seed,
                                       split_tag="synthetic")
    bundle = pipeline.label_and_window(dataset, w=workloads.WINDOW, seed=seed)
    return {"digest": adaptation.dataset_digest(dataset),
            "train_windows": len(bundle.train_raw), "val_windows": len(bundle.val_raw)}


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    pins = {name: {str(seed): pin(spec, seed) for seed in PINNED_SEEDS}
            for name, spec in workloads.SPECS.items()}
    path = Path(__file__).with_name("pins.json")
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path} (seeds {PINNED_SEEDS.start}-{PINNED_SEEDS.stop - 1} per workload)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
