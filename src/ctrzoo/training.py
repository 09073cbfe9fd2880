"""Mini-batch training with Adam, weight decay, and validation-AUC early stop.

The loop is deterministic for a given config: the epoch shuffle and the
per-batch dropout masks come from seeded generators, parameter slots
iterate in insertion order, and regularization enters through the gradient
buffers (2 * l2 * theta added after backward), so two runs with equal
seeds produce bit-identical parameters and history rows.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, NumericError, TrainingError
from .metrics import auc, logloss
from .tape import Tape, sigmoid

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 1024
    epochs: int = 20
    l2: float = 1e-5
    seed: int = 0
    patience: int = 3

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epoch count must be positive, got {self.epochs}")
        if self.l2 < 0:
            raise ConfigError(f"l2 strength must be nonnegative, got {self.l2}")
        if self.patience < 1:
            raise ConfigError(f"patience must be positive, got {self.patience}")

    def to_dict(self):
        return asdict(self)


class AdamState:
    """First and second moment buffers, one pair per slot."""

    def __init__(self, store):
        self.t = 0
        self.m = {s.name: np.zeros_like(s.value) for s in store.slots()}
        self.v = {s.name: np.zeros_like(s.value) for s in store.slots()}


def adam_step(store, state, lr):
    """One Adam update from the current gradient buffers."""
    if state.t < 0:
        raise ContractError(f"optimizer step counter must be non-negative, got {state.t}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for slot in store.slots():
        g = slot.grad
        m = state.m[slot.name]
        v = state.v[slot.name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        slot.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float

    def row(self):
        return f"{self.epoch},{self.train_loss!r},{self.val_loss!r},{self.val_auc!r}"


@dataclass
class TrainHistory:
    """Per-epoch stats plus where early stopping landed."""

    epochs: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float = float("-inf")
    stopped_early: bool = False

    def append(self, stats):
        self.epochs.append(stats)

    def to_csv(self):
        lines = ["epoch,train_loss,val_loss,val_auc"]
        lines.extend(s.row() for s in self.epochs)
        return "\n".join(lines) + "\n"

    def save_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())

    def summary(self):
        return {
            "epochs_run": len(self.epochs),
            "best_epoch": self.best_epoch,
            "best_val_auc": self.best_val_auc,
            "stopped_early": self.stopped_early,
        }


def _epoch_pass(model, indices, labels, order, config, adam, epoch):
    """One optimization pass; returns the mean training loss per record."""
    loss_sum = 0.0
    n_batches = (len(order) + config.batch_size - 1) // config.batch_size
    for b in range(n_batches):
        rows = order[b * config.batch_size : (b + 1) * config.batch_size]
        batch_idx = indices[rows]
        batch_y = labels[rows]
        model.store.zero_grads()
        tape = Tape()
        drop_rng = np.random.default_rng([int(config.seed), 13, epoch, b])
        try:
            loss = model.loss_node(tape, batch_idx, batch_y, training=True, drop_rng=drop_rng)
            tape.backward(loss)
        except NumericError as exc:
            raise TrainingError(str(exc), epoch=epoch, batch=b) from exc
        if not np.isfinite(loss.value):
            raise TrainingError("non-finite training loss", epoch=epoch, batch=b)
        if config.l2 > 0.0:
            for slot in model.store.slots():
                slot.grad += 2.0 * config.l2 * slot.value
        adam_step(model.store, adam, config.lr)
        loss_sum += float(loss.value) * len(rows)
    return loss_sum / len(order)


def train(model, train_data, valid_data, config=None):
    """Fit `model` on `train_data`, early-stopping on `valid_data` AUC.

    The model keeps the parameters of its best validation epoch (ties keep
    the earlier one). Returns a `TrainHistory`.
    """
    config = config or TrainConfig()
    train_data.check_schema(model.schema)
    valid_data.check_schema(model.schema)
    if len(train_data) == 0 or len(valid_data) == 0:
        raise TrainingError("training and validation splits must be nonempty")

    shuffle_rng = np.random.default_rng([int(config.seed), 11])
    adam = AdamState(model.store)
    history = TrainHistory()
    best_snapshot = model.store.snapshot()
    stale = 0

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_data))
        train_loss = _epoch_pass(
            model, train_data.indices, train_data.labels, order, config, adam, epoch
        )
        val_probs = sigmoid(model.forward(valid_data.indices))
        stats = EpochStats(
            epoch=epoch,
            train_loss=train_loss,
            val_loss=logloss(val_probs, valid_data.labels),
            val_auc=auc(val_probs, valid_data.labels),
        )
        history.append(stats)
        if stats.val_auc > history.best_val_auc:
            history.best_val_auc = stats.val_auc
            history.best_epoch = epoch
            best_snapshot = model.store.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                history.stopped_early = True
                break

    model.store.restore(best_snapshot)
    return history
