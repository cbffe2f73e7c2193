"""Hierarchical window classifier: a bidirectional recurrent encoder with
two affine heads, a focal hierarchical loss, AdamW, and the training loop."""

from .losses import (
    LossConfig,
    cross_entropy,
    focal_transform,
    hierarchical_focal_loss,
    hierarchical_focal_loss_grads,
    hierarchical_loss,
    log_softmax,
    softmax,
)
from .network import (
    ModelConfig,
    ModelParams,
    encoder_backward,
    encoder_forward,
    init_params,
    make_dropout_mask,
    model_backward,
    model_forward,
)
from .optim import (
    OptimState,
    PlateauScheduler,
    TrainConfig,
    TrainingDivergedError,
    adamw_step,
    init_optim_state,
)
from .training import (
    Predictions,
    load_checkpoint,
    loss_and_grads,
    loss_value,
    predict,
    save_checkpoint,
    train,
    windows_to_arrays,
)

__all__ = [
    "LossConfig",
    "ModelConfig",
    "ModelParams",
    "OptimState",
    "PlateauScheduler",
    "Predictions",
    "TrainConfig",
    "TrainingDivergedError",
    "adamw_step",
    "cross_entropy",
    "encoder_backward",
    "encoder_forward",
    "focal_transform",
    "hierarchical_focal_loss",
    "hierarchical_focal_loss_grads",
    "hierarchical_loss",
    "init_optim_state",
    "init_params",
    "load_checkpoint",
    "log_softmax",
    "loss_and_grads",
    "loss_value",
    "make_dropout_mask",
    "model_backward",
    "model_forward",
    "predict",
    "save_checkpoint",
    "softmax",
    "train",
    "windows_to_arrays",
]
