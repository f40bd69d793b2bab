"""driftcal: time-to-drift forecasting and cost-aware calibration scheduling.

The pipeline adapts run-to-failure sensor trajectories into calibration
surrogates (virtual thresholds, synthetic resets), labels them with
time-to-drift, trains forecasters, and replays scheduling policies under a
violation-aware cost model. The stages live in the submodules; the two
entry points of the README's library example are re-exported here.
"""

from .adaptation import adapt_dataset
from .synthetic import synthetic_trajectories

__version__ = "0.1.0"
