"""Built-in synthetic drift generator.

Produces trajectories with the same 24-channel layout as the turbofan
benchmark so the full pipeline and test suite run without any external
download. A few sensors carry a saturating monotone drift whose crossing
time is controlled by ``RAMP_FRACTION``; the rest are stationary noise or
exactly constant.
"""

from __future__ import annotations

import numpy as np

from .cmapss_io import N_CHANNELS, N_SENSORS, N_SETTINGS, SensorTrajectory, sensor_column
from .util import derive_rng

DRIFT_SENSORS = (2, 7, 15)
CONSTANT_SENSORS = (5, 18, 19)
RAMP_FRACTION = 0.45
SHAPE_RANGE = (1.4, 2.6)  # the drift curvature, a sensor trait
NOISE_FRAC = 0.015  # drift-sensor noise, as a fraction of the span


def synthetic_trajectories(
    n_engines: int = 20,
    seed: int = 0,
    length_range: tuple[int, int] = (200, 300),
) -> list[SensorTrajectory]:
    """Generate ``n_engines`` run-to-failure style trajectories.

    Drift sensors follow base + span * min(1, t/T_ramp)^shape plus noise,
    with T_ramp = RAMP_FRACTION * length, so the level saturates mid-run and
    synthetic thresholds (placed at 55-80% of the span) are crossed well
    before the end. Bases, spans, and curvature are sensor traits shared
    across the fleet (with small per-engine jitter), which keeps donor
    stitching sane and lets models generalize across engines; curvature
    still makes time-to-crossing a nonlinear function of the observed level.
    """
    if n_engines < 1:
        raise ValueError("n_engines must be >= 1")
    lo, hi = length_range
    if lo < 20 or hi < lo:
        raise ValueError(f"invalid length_range {length_range}; need 20 <= lo <= hi")

    fleet_rng = derive_rng(seed, 0)
    base = fleet_rng.uniform(1.0, 3.0, size=N_SENSORS)
    span = fleet_rng.uniform(0.8, 1.6, size=N_SENSORS) * fleet_rng.choice([-1.0, 1.0], size=N_SENSORS)
    shape = fleet_rng.uniform(*SHAPE_RANGE, size=N_SENSORS)
    setting_levels = fleet_rng.uniform(-1.0, 1.0, size=N_SETTINGS)

    trajs = []
    for engine_id in range(1, n_engines + 1):
        rng = derive_rng(seed, engine_id)
        length = int(rng.integers(lo, hi + 1))
        t = np.arange(1, length + 1, dtype=np.float64)
        channels = np.empty((length, N_CHANNELS), dtype=np.float64)

        for j in range(N_SETTINGS):
            channels[:, j] = setting_levels[j] + rng.normal(0.0, 1e-3, size=length)

        for sensor_id in range(1, N_SENSORS + 1):
            col = sensor_column(sensor_id)
            b = base[sensor_id - 1] + rng.normal(0.0, 0.02)
            if sensor_id in CONSTANT_SENSORS:
                channels[:, col] = base[sensor_id - 1]
            elif sensor_id in DRIFT_SENSORS:
                s = span[sensor_id - 1]
                gamma = shape[sensor_id - 1] + rng.uniform(-0.1, 0.1)
                t_ramp = RAMP_FRACTION * length * rng.uniform(0.9, 1.1)
                ramp = np.minimum(1.0, t / t_ramp) ** gamma
                channels[:, col] = b + s * ramp + rng.normal(0.0, NOISE_FRAC * abs(s), size=length)
            else:
                channels[:, col] = b + rng.normal(0.0, 0.05, size=length)

        trajs.append(SensorTrajectory(engine_id=engine_id, channels=channels))
    return trajs
