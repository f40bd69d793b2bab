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
    stack_windows,
)
from .linear import SingularSystemError, fit_linear
from .nn import NonFiniteError, pinball_loss, sinusoidal_pe, smooth_l1
from .optim import AdamWState, LrSchedule, adamw_step, init_adamw_state, lr_at
from .predict import predict_quantiles, predict_quantiles_batch, predict_ttd, predict_ttd_batch
from .quantile import DEFAULT_QUANTILES, QuantileForecast, fit_quantile

__all__ = [
    "AdamWState",
    "DEFAULT_QUANTILES",
    "EpochLog",
    "ForecastModel",
    "LrSchedule",
    "NonFiniteError",
    "QuantileForecast",
    "ShapeMismatchError",
    "SingularSystemError",
    "TrainConfig",
    "TrainingDivergedError",
    "adamw_step",
    "attention_forward_batch",
    "attention_loss_and_grads",
    "fit_linear",
    "fit_quantile",
    "init_adamw_state",
    "init_attention_params",
    "load_model",
    "lr_at",
    "pinball_loss",
    "predict_quantiles",
    "predict_quantiles_batch",
    "predict_ttd",
    "predict_ttd_batch",
    "save_model",
    "sinusoidal_pe",
    "smooth_l1",
    "stack_windows",
    "train_attention",
]
