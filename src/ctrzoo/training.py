"""Mini-batch training with Adam, weight decay, and validation-AUC early stop.

The loop is deterministic for a given config: the epoch shuffle and the
per-batch dropout masks come from seeded generators, and `adam_step` walks
the store's flat buffers in a fixed order, adding the regularization term
2 * l2 * theta to each gradient just before updating it. So two runs with
equal seeds produce bit-identical parameters and history rows.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, NumericError, TrainingError, write_text
from .metrics import auc, logloss
from .tape import Tape, sigmoid

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 15  # entries per Adam block: few numpy calls, small temporaries


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 1024
    epochs: int = 20
    l2: float = 1e-5
    seed: int = 0
    patience: int = 3

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epoch count must be positive, got {self.epochs}")
        if not 0.0 <= self.l2 < math.inf:
            raise ConfigError(f"l2 strength must be finite and nonnegative, got {self.l2}")
        if self.patience < 1:
            raise ConfigError(f"patience must be positive, got {self.patience}")

    def to_dict(self):
        return asdict(self)


class AdamState:
    """First and second moments, flat arrays laid out like the store's `values`."""

    def __init__(self, store):
        self.t = 0
        self.m, self.v = np.zeros((2, store.values.size))


def adam_step(store, state, lr, l2=0.0):
    """One Adam update with weight decay `l2`, over the flat buffers block by block."""
    if state.t < 0:
        raise ContractError(f"optimizer step counter must be non-negative, got {state.t}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for start in range(0, store.values.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        theta, g, m, v = store.values[block], store.grads[block], state.m[block], state.v[block]
        if l2 > 0.0:
            g += 2.0 * l2 * theta
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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
        write_text(path, [self.to_csv()])

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
        model.store.zero_grads()
        tape = Tape()
        drop_rng = np.random.default_rng([int(config.seed), 13, epoch, b])
        try:
            loss = model.loss_node(tape, indices[rows], labels[rows], drop_rng=drop_rng)
            tape.backward(loss)
        except NumericError as exc:
            raise TrainingError(str(exc), epoch=epoch, batch=b) from exc
        adam_step(model.store, adam, config.lr, config.l2)
        loss_sum += float(loss.value) * len(rows)
    return loss_sum / len(order)


def train(model, train_data, valid_data, config=None):
    """Fit `model` on `train_data`, early-stopping on `valid_data` AUC.

    The model keeps the parameters of its best validation epoch (ties keep
    the earlier one). Returns a `TrainHistory`. A non-finite value in a step
    or a validation pass raises TrainingError naming the epoch (and batch).
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
        try:
            val_probs = sigmoid(model.forward(valid_data.indices))
        except NumericError as exc:
            raise TrainingError(f"validation pass: {exc}", epoch=epoch) from exc
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
