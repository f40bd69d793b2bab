"""TTD forecasters: linear baseline, quantile regressor, attention model."""

from .attention import (
    attention_forward_batch,
    attention_loss_and_grads,
    init_attention_params,
    train_attention,
)
from .base import (
    EpochLog,
    ForecastModel,
    ShapeMismatchError,
    TrainConfig,
    TrainingDivergedError,
    load_model,
    save_model,
)
from .linear import SingularSystemError, fit_linear
from .nn import NonFiniteError, pinball_loss, smooth_l1
from .optim import AdamWState, LrSchedule, adamw_step, init_adamw_state, lr_at
from .predict import predict_quantiles, predict_quantiles_batch, predict_ttd, predict_ttd_batch
from .quantile import DEFAULT_QUANTILES, QuantileForecast, fit_quantile
