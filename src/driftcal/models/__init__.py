"""TTD forecasters: linear baseline, quantile regressor, attention model.

The package re-exports the names the CLI, the pipeline and the README's
library example use; everything else is imported from its module.
"""

from .attention import train_attention
from .base import (
    EpochLog,
    ForecastModel,
    TrainConfig,
    TrainingDivergedError,
    load_model,
    read_model,
    save_model,
)
from .linear import fit_linear
from .nn import NonFiniteError
from .predict import (KINDS, kind_of, predict_quantiles_batch, predict_ttd_batch,
                      predict_ttd_windows)
from .quantile import fit_quantile
