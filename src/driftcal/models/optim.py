"""AdamW with decoupled weight decay, the warmup+cosine schedule
(Loshchilov & Hutter, 2019) and the mini-batch loop that trains the
quantile and attention forecasters with them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import EpochLog, TrainConfig, TrainingDivergedError
from .nn import NonFiniteError, leading_view

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass(frozen=True)
class LrSchedule:
    base_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.total_steps <= self.warmup_steps:
            raise ValueError(
                f"total_steps ({self.total_steps}) must exceed warmup_steps "
                f"({self.warmup_steps})"
            )


def lr_at(step: int, sched: LrSchedule) -> float:
    """Linear warmup from 0 to base_lr, then cosine decay to 0 at total_steps."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if step < sched.warmup_steps:
        return sched.base_lr * step / sched.warmup_steps
    progress = (step - sched.warmup_steps) / (sched.total_steps - sched.warmup_steps)
    progress = min(progress, 1.0)
    return sched.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class AdamWState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    # two work buffers per parameter: views of one pair sized to the largest
    scratch: dict[str, tuple[np.ndarray, np.ndarray]]


def init_adamw_state(params: dict[str, np.ndarray]) -> AdamWState:
    """Zero moments like each parameter, and a scratch pair in the
    parameters' dtype, so a step runs in the precision of the parameters."""
    largest = max((p.size for p in params.values()), default=0)
    dtype = np.result_type(*params.values()) if params else np.float64
    a, b = np.empty(largest, dtype), np.empty(largest, dtype)
    return AdamWState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        scratch={k: (leading_view(a, p.shape), leading_view(b, p.shape))
                 for k, p in params.items()},
    )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    step: int,
    lr: float,
    weight_decay: float = 0.01,
):
    """One in-place update: decay params by (1 - lr*wd), then apply the
    bias-corrected Adam step (BETA1, BETA2, EPS). ``step`` is 1-based."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    bc1 = 1.0 - BETA1**step
    bc2 = 1.0 - BETA2**step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        if weight_decay != 0.0:
            p *= 1.0 - lr * weight_decay
        m = state.m[name]
        v = state.v[name]
        a, b = state.scratch[name]
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        np.square(g, out=a)
        v += np.multiply(a, 1.0 - BETA2, out=a)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), without temporaries
        np.divide(m, bc1, out=a)
        a *= lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        p -= a
    return params, state


def fit_minibatch(loss_and_grads, val_metric, params, take, y, cfg: TrainConfig, shuffle_rng):
    """Mini-batch AdamW with early stopping; returns (best params, logs).

    ``take(idx)`` gathers the inputs of the training examples ``idx``, so
    a batch is the only copy of them, and ``y`` holds all their targets.
    ``loss_and_grads(Xb, yb, params)`` gives a batch's mean loss and the
    parameter gradients; ``val_metric(params)`` scores the parameters after
    each epoch, lower being better. ``params`` are updated in place. The
    batches of each epoch are a fresh permutation drawn from ``shuffle_rng``.
    Training stops after ``cfg.patience`` epochs without a better metric,
    and the parameters of the best epoch are returned.
    """
    state = init_adamw_state(params)
    n = len(y)
    n_batches = max(1, math.ceil(n / cfg.batch_size))
    total_steps = cfg.max_epochs * n_batches
    warmup = min(cfg.warmup_steps, total_steps - 1)  # tiny runs: keep schedule valid
    sched = LrSchedule(base_lr=cfg.base_lr, warmup_steps=warmup, total_steps=total_steps)

    logs: list[EpochLog] = []
    best_metric = math.inf
    best_params = {k: v.copy() for k, v in params.items()}
    bad_epochs = 0
    step = 0
    lr = 0.0
    for epoch in range(1, cfg.max_epochs + 1):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for b in range(n_batches):
            idx = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            try:
                loss, grads = loss_and_grads(take(idx), y[idx], params)
            except NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"diverged at epoch {epoch}, step {step}: {exc}"
                ) from None
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"loss diverged at epoch {epoch}, step {step}")
            lr = lr_at(step, sched)
            adamw_step(params, grads, state, step + 1, lr, weight_decay=cfg.weight_decay)
            step += 1
            epoch_loss += loss * len(idx)
        metric = val_metric(params)
        logs.append(EpochLog(epoch=epoch, train_loss=epoch_loss / n, val_metric=metric, lr=lr))
        if metric < best_metric:
            best_metric = metric
            best_params = {k: v.copy() for k, v in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return best_params, logs
