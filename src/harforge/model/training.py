"""Training loop, batched prediction, and JSON checkpoints.

Each epoch shuffles the training windows with a seeded generator, steps
AdamW over the batches, then scores the validation set in eval mode, as one
batch because its loss is a mean over the set. Only ``loss_and_grads``
keeps a forward cache for the backward pass; the validation pass,
``predict`` and ``loss_value`` run inference forward passes, which keep
none, so each LSTM direction holds one pre-activation slab at a time. The
learning rate follows the plateau scheduler, the best validation snapshot
is kept, and training stops early after a patience worth of epochs without
a new best. A non-finite loss aborts the run and returns the last good
snapshot with the event recorded in the history.

Checkpoints store every array as a flat list of JSON numbers. Python floats
serialize via their shortest round-tripping representation, so a checkpoint
reloads bit-for-bit equal.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from ..core import ActivityTaxonomy, write_text
from ..dataset import WindowSet
from .losses import LossConfig, hierarchical_focal_loss, hierarchical_focal_loss_grads, softmax
from .network import ModelConfig, ModelParams, _array_shapes, model_backward, model_forward
from .optim import (
    OptimState,
    PlateauScheduler,
    TrainConfig,
    TrainingDivergedError,
    adamw_step,
    init_optim_state,
)

CHECKPOINT_KIND = "harforge-checkpoint"

#: A checkpoint's flat "model" object: the sizes of ModelParams and the
#: fields of its ModelConfig.
_SIZE_FIELDS = tuple(f.name for f in fields(ModelParams) if f.name not in ("arrays", "config"))
_MODEL_FIELDS = _SIZE_FIELDS + tuple(f.name for f in fields(ModelConfig))


def _class_indices(labels: np.ndarray, classes: Sequence[str]) -> np.ndarray:
    names, inverse = np.unique(labels, return_inverse=True)
    index = {name: i for i, name in enumerate(classes)}
    return np.array([index[name] for name in names.tolist()], dtype=np.int64)[inverse]


def windows_to_arrays(
    windows: WindowSet, taxonomy: ActivityTaxonomy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The feature block and both label columns as taxonomy class indices."""
    if not len(windows):
        raise ValueError("no windows to stack")
    return (
        windows.features,
        _class_indices(windows.label_l1, taxonomy.level1_classes),
        _class_indices(windows.label_l2, taxonomy.level2_classes),
    )


def loss_value(
    params: ModelParams,
    x: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    loss_config: LossConfig = LossConfig(),
    *,
    train_mode: bool = False,
    dropout_mask: np.ndarray | None = None,
) -> float:
    """Forward-only loss; the finite-difference oracle calls this. The
    forward pass keeps no cache (``dropout_mask`` is a boolean keep array)."""
    logits1, logits2, _ = model_forward(
        x, params, train_mode=train_mode, dropout_mask=dropout_mask
    )
    total, _ = hierarchical_focal_loss(logits1, logits2, y1, y2, loss_config)
    return total


def loss_and_grads(
    params: ModelParams,
    x: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    loss_config: LossConfig = LossConfig(),
    *,
    train_mode: bool = True,
    dropout_mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
):
    """Loss plus analytic gradients for every parameter array. The only
    forward pass that keeps its cache, which the backward pass consumes."""
    logits1, logits2, cache = model_forward(
        x, params, train_mode=train_mode, keep_cache=True, dropout_mask=dropout_mask, rng=rng
    )
    total, dlogits1, dlogits2, parts = hierarchical_focal_loss_grads(
        logits1, logits2, y1, y2, loss_config
    )
    grads = model_backward(dlogits1, dlogits2, cache, params)
    return total, grads, parts


@dataclass
class Predictions:
    probs1: np.ndarray
    probs2: np.ndarray
    pred1: np.ndarray
    pred2: np.ndarray


def predict(params: ModelParams, x: np.ndarray, batch_size: int = 1024) -> Predictions:
    """Class probabilities and argmax predictions for both levels. Each
    batch runs an inference forward pass, which keeps no cache."""
    probs1_parts = []
    probs2_parts = []
    for lo in range(0, x.shape[0], batch_size):
        logits1, logits2, _ = model_forward(x[lo : lo + batch_size], params)
        probs1_parts.append(softmax(logits1))
        probs2_parts.append(softmax(logits2))
    probs1 = np.concatenate(probs1_parts)
    probs2 = np.concatenate(probs2_parts)
    return Predictions(
        probs1=probs1,
        probs2=probs2,
        pred1=probs1.argmax(axis=1),
        pred2=probs2.argmax(axis=1),
    )


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    return float((pred == labels).mean())


def train(
    params: ModelParams,
    train_data: tuple[np.ndarray, np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray, np.ndarray],
    train_config: TrainConfig = TrainConfig(),
    loss_config: LossConfig = LossConfig(),
) -> tuple[ModelParams, list[dict]]:
    """Fit the model; returns (best-validation snapshot, epoch history).

    The input ``params`` object is left untouched; optimization happens on
    a copy. History entries carry the epoch index, mean train batch loss,
    validation loss, validation accuracy at both levels, and the learning
    rate used that epoch.
    """
    x_tr, y1_tr, y2_tr = train_data
    x_va, y1_va, y2_va = val_data
    current = params.copy()
    best = current.copy()
    best_val = math.inf
    state: OptimState = init_optim_state(current)
    scheduler = PlateauScheduler(lr=train_config.learning_rate)
    shuffle_rng = np.random.default_rng(train_config.seed)
    dropout_rng = np.random.default_rng([train_config.seed, 1])
    history: list[dict] = []
    lr = train_config.learning_rate
    epochs_since_best = 0

    for epoch in range(train_config.max_epochs):
        order = shuffle_rng.permutation(x_tr.shape[0])
        batch_losses = []
        try:
            for lo in range(0, len(order), train_config.batch_size):
                idx = order[lo : lo + train_config.batch_size]
                loss, grads, _ = loss_and_grads(
                    current,
                    x_tr[idx],
                    y1_tr[idx],
                    y2_tr[idx],
                    loss_config,
                    rng=dropout_rng,
                )
                if not math.isfinite(loss):
                    raise TrainingDivergedError(f"non-finite loss {loss!r}")
                adamw_step(current, grads, state, train_config, lr=lr)
                batch_losses.append(loss)
        except TrainingDivergedError as err:
            history.append({"epoch": epoch, "diverged": True, "error": str(err)})
            break

        logits1, logits2, _ = model_forward(x_va, current)
        val_loss, _ = hierarchical_focal_loss(
            logits1, logits2, y1_va, y2_va, loss_config
        )
        pred1 = logits1.argmax(axis=1)
        pred2 = logits2.argmax(axis=1)
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(batch_losses)) if batch_losses else 0.0,
                "val_loss": float(val_loss),
                "val_acc_l1": _accuracy(pred1, y1_va),
                "val_acc_l2": _accuracy(pred2, y2_va),
                "lr": lr,
            }
        )
        if val_loss < best_val:
            best_val = float(val_loss)
            best = current.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= train_config.early_stopping_patience:
                break
        lr = scheduler.step(float(val_loss))

    return best, history


def save_checkpoint(
    params: ModelParams,
    path,
    *,
    seed: int | None = None,
    taxonomy_hash: str | None = None,
    config: dict | None = None,
) -> None:
    """Write a bit-exact JSON snapshot of the model."""
    payload = {
        "kind": CHECKPOINT_KIND,
        "version": 1,
        "seed": seed,
        "taxonomy_hash": taxonomy_hash,
        "config": config or {},
        "model": {name: getattr(params, name) for name in _SIZE_FIELDS} | asdict(params.config),
        "arrays": [
            {
                "name": name,
                "shape": list(params.arrays[name].shape),
                "values": [float(v) for v in params.arrays[name].ravel()],
            }
            for name in sorted(params.arrays)
        ],
    }
    # one dumps call takes the C encoder; json.dump streams through the
    # pure-Python one, for the same text
    write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Reload a checkpoint; returns (params, metadata). A checkpoint whose
    model object lacks a field, has an unknown one or holds a value that
    ModelParams rejects, or whose arrays are not exactly those of that
    model at their shapes, is a ValueError naming the path and the field or
    array."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("kind") != CHECKPOINT_KIND:
        raise ValueError(f"{path} is not a model checkpoint")
    model = payload["model"]
    for name in _MODEL_FIELDS:
        if name not in model:
            raise ValueError(f"{path}: checkpoint model has no {name!r}")
    for name in model:
        if name not in _MODEL_FIELDS:
            raise ValueError(f"{path}: checkpoint model has unknown field {name!r}")
    sizes = {name: model.pop(name) for name in _SIZE_FIELDS}
    try:
        params = ModelParams({}, **sizes, config=ModelConfig(**model))
    except ValueError as err:
        raise ValueError(f"{path}: checkpoint model {err}") from None
    shapes = _array_shapes(
        params.input_size, params.config.hidden_size, params.n_level1, params.n_level2
    )
    arrays = params.arrays
    for entry in payload["arrays"]:
        name = entry["name"]
        if name not in shapes or name in arrays:
            raise ValueError(f"{path}: unexpected array {name!r} in checkpoint")
        values = np.array(entry["values"], dtype=np.float64)
        if tuple(entry["shape"]) != shapes[name] or values.size != math.prod(shapes[name]):
            raise ValueError(
                f"{path}: array {name!r} has shape {entry['shape']} and {values.size} values,"
                f" the model needs shape {list(shapes[name])}"
            )
        arrays[name] = values.reshape(shapes[name])
    for name in shapes:
        if name not in arrays:
            raise ValueError(f"{path}: checkpoint has no array {name!r}")
    return params, {
        "seed": payload.get("seed"),
        "taxonomy_hash": payload.get("taxonomy_hash"),
        "config": payload.get("config", {}),
    }
