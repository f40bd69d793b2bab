"""driftcal: time-to-drift forecasting and cost-aware calibration scheduling.

The pipeline adapts run-to-failure sensor trajectories into calibration
surrogates (virtual thresholds, synthetic resets), labels them with
time-to-drift, trains forecasters, and replays scheduling policies under a
violation-aware cost model.
"""

from .adaptation import (
    AdaptationConfig,
    AdaptationError,
    AdaptedDataset,
    AdaptedRun,
    DegenerateSpanError,
    DriftSensorRanking,
    ResetEvent,
    Segment,
    ThresholdSpec,
    adapt_dataset,
    dataset_digest,
    make_threshold,
    rank_drift_sensors,
    read_adapted_dataset,
    spearman_rho,
    subset_runs,
    synthesize_resets,
    write_adapted_dataset,
)
from .cmapss_io import (
    CHANNEL_NAMES,
    SchemaError,
    SensorTrajectory,
    load_trajectories,
    parse_trajectories,
    serialize_trajectories,
)
from .labeling import (
    LabeledWindow,
    SplitAssignment,
    Standardizer,
    TtdSeries,
    apply_standardizer,
    compute_ttd,
    fit_standardizer,
    make_windows,
    split_engines,
)
from .metrics import RegressionReport, regression_metrics
from .scheduler import (
    CapacitySpec,
    CostSpec,
    CycleScorer,
    PolicyOutcome,
    PolicySpec,
    SimulationError,
    oracle_scorer,
    rank_by_urgency,
    simulate,
    total_cost,
)
from .synthetic import synthetic_trajectories

__version__ = "0.1.0"
