"""Optimizer and training-loop tests."""

import math

import numpy as np
import pytest

from ctrzoo.data import Dataset, FieldSchema, SyntheticSpec, generate_dcm, split_dataset
from ctrzoo.errors import ConfigError, ContractError, DataError, TrainingError
from ctrzoo.interaction import MODEL_NAMES
from ctrzoo.metrics import auc, logloss
from ctrzoo.tape import ParameterStore, Tape
from ctrzoo.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    AdamState,
    EpochStats,
    TrainConfig,
    TrainHistory,
    adam_step,
    train,
)
from ctrzoo.zoo import ModelSpec, build_model, random_batch

SCHEMA = FieldSchema.of_sizes([5, 7, 4, 6])


def small_model(name, seed=0, **kw):
    kw.setdefault("d", 3)
    kw.setdefault("mlp_hidden", (8,))
    return build_model(ModelSpec(name, SCHEMA, **kw), seed=seed)


def synth_split(family="linear", noise=0.05, count=2000, seed=3, **kw):
    spec = SyntheticSpec(
        n_fields=4, categories=5, family=family, noise=noise, count=count, seed=seed, **kw
    )
    data = generate_dcm(spec)
    return data, split_dataset(data.dataset, (0.8, 0.1, 0.1), seed=seed)


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_leaves_values_untouched():
    store = ParameterStore()
    store.add_value("w", [1.0, -2.0, 3.5])
    before = store.value("w").copy()
    store.zero_grads()
    adam_step(store, AdamState(store), lr=0.1)
    np.testing.assert_array_equal(store.value("w"), before)


def test_adam_first_step_is_signed_learning_rate():
    # with fresh moments both bias corrections cancel, leaving
    # -lr * g / (|g| + eps): the sign of the gradient times lr
    store = ParameterStore()
    store.add_value("w", [1.0, 1.0, 1.0])
    store.zero_grads()
    store.slot("w").grad[...] = [2.0, -0.5, 1e-3]
    adam_step(store, AdamState(store), lr=0.01)
    delta = store.value("w") - 1.0
    np.testing.assert_allclose(delta, [-0.01, 0.01, -0.01], rtol=1e-4, atol=0)


def test_adam_constant_gradient_step_magnitude_stays_lr():
    store = ParameterStore()
    store.add_value("w", [0.0])
    state = AdamState(store)
    prev = 0.0
    for _ in range(10):
        store.zero_grads()
        store.slot("w").grad[...] = 3.0
        adam_step(store, state, lr=0.05)
        step = store.value("w")[0] - prev
        prev = store.value("w")[0]
        assert abs(step + 0.05) < 1e-6


def test_adam_rejects_negative_step_counter():
    store = ParameterStore()
    store.add_value("w", [1.0])
    state = AdamState(store)
    state.t = -1
    with pytest.raises(ContractError):
        adam_step(store, state, lr=0.1)


def test_adam_biased_moments_match_reference_formula():
    rng = np.random.default_rng(0)
    store = ParameterStore()
    store.add_value("w", rng.normal(size=4))
    state = AdamState(store)
    w = store.value("w").copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 6):
        g = rng.normal(size=4)
        store.zero_grads()
        store.slot("w").grad[...] = g
        adam_step(store, state, lr=0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1.0 - 0.9**t)
        vh = v / (1.0 - 0.999**t)
        w = w - 0.01 * mh / (np.sqrt(vh) + ADAM_EPS)
        np.testing.assert_allclose(store.value("w"), w, rtol=0, atol=1e-15)


def test_blocked_adam_with_l2_is_bitwise_a_per_slot_loop():
    # slots that straddle the block boundaries of a store three blocks long:
    # a block that skipped entries or overlapped its neighbour changes bytes
    rng = np.random.default_rng(21)
    store = ParameterStore()
    for k, size in enumerate((ADAM_BLOCK - 5, 7, 2 * ADAM_BLOCK + 3)):
        store.add_value(f"w{k}", rng.normal(size=size))
    ref = {name: store.value(name).copy() for name in store.names()}
    m = {name: np.zeros_like(w) for name, w in ref.items()}
    v = {name: np.zeros_like(w) for name, w in ref.items()}
    state = AdamState(store)
    lr, l2 = 0.01, 0.05
    for t in range(1, 4):
        store.zero_grads()
        for name, w in ref.items():
            g = rng.normal(size=w.shape)
            store.slot(name).grad[...] = g
            g += 2.0 * l2 * w
            m[name] = m[name] * ADAM_BETA1 + (1.0 - ADAM_BETA1) * g
            v[name] = v[name] * ADAM_BETA2 + (1.0 - ADAM_BETA2) * g * g
            w -= lr * (m[name] / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v[name] / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
        adam_step(store, state, lr, l2)
        for name, w in ref.items():
            assert store.value(name).tobytes() == w.tobytes(), (t, name)


# ---------------------------------------------------------------------------
# descent and regularization


def eval_loss(model, indices, labels):
    """The batch's mean log-loss in evaluation mode, as a float."""
    return float(model.loss_node(Tape(record=False), indices, labels).value)


def squared_norm(store):
    """Sum of squared entries over every slot: the l2 penalty before its strength."""
    return float(sum(np.sum(s.value * s.value) for s in store.slots()))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_one_small_adam_step_decreases_regularized_loss(name):
    model = small_model(name, seed=5)
    indices, labels = random_batch(SCHEMA, 16, seed=2)
    l2 = 1e-4

    def objective():
        return eval_loss(model, indices, labels) + l2 * squared_norm(model.store)

    before = objective()
    model.store.zero_grads()
    tape = Tape()
    tape.backward(model.loss_node(tape, indices, labels))
    for slot in model.store.slots():
        slot.grad += 2.0 * l2 * slot.value
    adam_step(model.store, AdamState(model.store), lr=1e-5)
    assert objective() < before


def test_l2_gradient_matches_penalty_finite_difference():
    rng = np.random.default_rng(1)
    store = ParameterStore()
    store.add_value("w", rng.normal(size=5))
    l2 = 0.01
    eps = 1e-6
    w = store.value("w")
    for k in range(5):
        saved = w[k]
        w[k] = saved + eps
        up = l2 * squared_norm(store)
        w[k] = saved - eps
        down = l2 * squared_norm(store)
        w[k] = saved
        central = (up - down) / (2.0 * eps)
        assert abs(central - 2.0 * l2 * saved) < 1e-9


def test_eval_loss_equals_logloss_of_predictions():
    model = small_model("FM", seed=6)
    indices, labels = random_batch(SCHEMA, 32, seed=3)
    assert abs(eval_loss(model, indices, labels) - logloss(model.predict(indices), labels)) < 1e-12


# ---------------------------------------------------------------------------
# the full loop


def test_lr_fits_a_separable_linear_signal():
    data, split = synth_split(family="linear", noise=0.05)
    model = build_model(ModelSpec("LR", data.schema), seed=1)
    config = TrainConfig(lr=0.05, batch_size=256, epochs=30, l2=0.0, seed=1, patience=30)
    history = train(model, split.train, split.valid, config)
    assert history.epochs[-1].train_loss < 0.45  # well under the ln 2 baseline
    assert auc(model.predict(split.valid.indices), split.valid.labels) > 0.95


def test_huge_weight_decay_collapses_to_even_odds():
    # adam caps each update near lr regardless of gradient size, so the
    # decay term needs enough steps to walk every weight down to zero
    data, split = synth_split(family="fm", d_true=3, noise=0.3, count=1200)
    model = build_model(ModelSpec("FM", data.schema, d=3), seed=2)
    start_norm = squared_norm(model.store)
    config = TrainConfig(lr=1e-2, batch_size=256, epochs=60, l2=1e6, seed=2, patience=60)
    train(model, split.train, split.valid, config)
    assert squared_norm(model.store) < min(0.1, start_norm / 50.0)
    final_loss = eval_loss(model, split.valid.indices, split.valid.labels)
    assert abs(final_loss - math.log(2.0)) < 0.05


def test_motionless_training_stops_after_patience():
    # a vanishing learning rate freezes validation AUC, so the best epoch
    # stays at zero and the stop triggers after exactly `patience` stale epochs
    data, split = synth_split(count=300)
    model = build_model(ModelSpec("FM", data.schema, d=2), seed=3)
    config = TrainConfig(lr=1e-12, batch_size=128, epochs=50, l2=0.0, seed=3, patience=4)
    history = train(model, split.train, split.valid, config)
    assert history.stopped_early
    assert history.best_epoch == 0
    assert len(history.epochs) == 1 + config.patience


def test_best_epoch_parameters_are_restored():
    data, split = synth_split(family="fm", d_true=3, count=1500, noise=0.2)
    config_long = TrainConfig(lr=5e-3, batch_size=256, epochs=12, l2=0.0, seed=4, patience=12)
    long_run = build_model(ModelSpec("FM", data.schema, d=3), seed=4)
    history = train(long_run, split.train, split.valid, config_long)
    best = history.best_epoch
    assert best < 12  # otherwise the comparison below is vacuous
    config_short = TrainConfig(
        lr=5e-3, batch_size=256, epochs=best + 1, l2=0.0, seed=4, patience=best + 1
    )
    short_run = build_model(ModelSpec("FM", data.schema, d=3), seed=4)
    train(short_run, split.train, split.valid, config_short)
    for name in long_run.store.names():
        np.testing.assert_array_equal(long_run.store.value(name), short_run.store.value(name))


def test_training_is_bit_reproducible():
    data, split = synth_split(count=600)
    config = TrainConfig(lr=1e-2, batch_size=128, epochs=4, seed=9, patience=4)
    runs = []
    for _ in range(2):
        model = build_model(ModelSpec("SAM2_E", data.schema, d=3), seed=9)
        history = train(model, split.train, split.valid, config)
        runs.append((model, history.to_csv()))
    assert runs[0][1] == runs[1][1]
    for name in runs[0][0].store.names():
        np.testing.assert_array_equal(
            runs[0][0].store.value(name), runs[1][0].store.value(name)
        )


def test_dropout_models_train_deterministically():
    data, split = synth_split(count=600)
    config = TrainConfig(lr=1e-2, batch_size=128, epochs=3, seed=5, patience=3)
    csvs = set()
    for _ in range(2):
        model = build_model(
            ModelSpec("IPNN", data.schema, d=3, mlp_hidden=(8,), dropout=0.3), seed=5
        )
        csvs.add(train(model, split.train, split.valid, config).to_csv())
    assert len(csvs) == 1


def test_training_is_bitwise_independent_of_the_allocation_history():
    # freed memory stays in the process, so each tensor lands wherever the heap
    # has room; what a model learns and predicts must not depend on where
    data = generate_dcm(SyntheticSpec(n_fields=8, categories=5, count=2000, seed=6))
    split = split_dataset(data.dataset, (0.8, 0.1, 0.1), seed=6)
    config = TrainConfig(lr=1e-2, batch_size=512, epochs=3, seed=6, patience=3)

    def fit(name):
        model = build_model(ModelSpec(name, data.schema, d=8), seed=6)
        train(model, split.train, split.valid, config)
        return model.store.values.tobytes(), model.predict(split.test.indices).tobytes()

    first = {name: fit(name) for name in ("AFM", "SAM3_E")}
    rng = np.random.default_rng(6)
    held = [np.ones(int(n)) for n in np.exp(rng.uniform(0.0, np.log(2**20), size=48))]  # 8 B to 8 MB
    del held[::3]  # holes of assorted sizes between the blocks still held
    again = {name: fit(name) for name in ("SAM3_E", "AFM")}
    assert held and again == first


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_poisoned_parameters_raise_training_error_with_location():
    data, split = synth_split(count=300)
    model = build_model(ModelSpec("FM", data.schema, d=2), seed=0)
    model.store.value("emb.0")[...] = float("nan")
    config = TrainConfig(lr=1e-3, batch_size=64, epochs=2, seed=0, patience=2)
    with pytest.raises(TrainingError) as excinfo:
        train(model, split.train, split.valid, config)
    assert excinfo.value.epoch == 0
    assert excinfo.value.batch == 0


@pytest.mark.parametrize("name, slot", [("FM", "emb.2"), ("FFM", "emb.2.0")])
def test_a_non_finite_table_stops_training_naming_its_slot(name, slot):
    data, split = synth_split(count=300)
    model = build_model(ModelSpec(name, data.schema, d=2), seed=0)
    model.store.value(slot)[-1, 0] = float("nan")
    with pytest.raises(TrainingError, match=f"slot '{slot}'") as excinfo:
        train(model, split.train, split.valid, TrainConfig(lr=1e-3, batch_size=64, epochs=2, seed=0))
    assert (excinfo.value.epoch, excinfo.value.batch) == (0, 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_divergence_in_the_validation_pass_names_its_epoch():
    data, split = synth_split(count=300)
    model = build_model(ModelSpec("FM", data.schema, d=2), seed=0)
    config = TrainConfig(lr=1e300, batch_size=len(split.train), epochs=2, seed=0)  # one step, then validation
    with pytest.raises(TrainingError, match="^epoch 0: validation pass: non-finite") as excinfo:
        train(model, split.train, split.valid, config)
    assert (excinfo.value.epoch, excinfo.value.batch) == (0, None)


def test_a_training_error_message_starts_with_its_epoch_and_batch():
    assert str(TrainingError("diverged", epoch=2, batch=5)) == "epoch 2, batch 5: diverged"
    assert str(TrainingError("diverged", epoch=2)) == "epoch 2: diverged"
    assert str(TrainingError("no records")) == "no records"


def test_train_validates_schema_and_nonempty_splits():
    data, split = synth_split(count=300)
    model = build_model(ModelSpec("LR", data.schema), seed=0)
    other = Dataset(np.zeros((5, 2), dtype=np.int64), np.zeros(5))
    with pytest.raises(DataError):
        train(model, other, split.valid, TrainConfig())
    empty = Dataset(np.zeros((0, data.schema.n), dtype=np.int64), np.zeros(0))
    with pytest.raises(TrainingError):
        train(model, empty, split.valid, TrainConfig())


# ---------------------------------------------------------------------------
# config and history plumbing


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(l2=-1e-3)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)


def test_history_csv_round_trips_floats_exactly():
    history = TrainHistory()
    history.append(EpochStats(0, 0.6931471805599453, 1.0 / 3.0, 0.5000000000000001))
    history.append(EpochStats(1, 0.1, 0.2, 0.9))
    text = history.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss,val_auc"
    cells = lines[1].split(",")
    assert int(cells[0]) == 0
    assert float(cells[1]) == 0.6931471805599453
    assert float(cells[2]) == 1.0 / 3.0
    assert float(cells[3]) == 0.5000000000000001


def test_history_summary_fields():
    history = TrainHistory()
    history.append(EpochStats(0, 0.5, 0.5, 0.6))
    history.best_epoch = 0
    history.best_val_auc = 0.6
    assert history.summary() == {
        "epochs_run": 1,
        "best_epoch": 0,
        "best_val_auc": 0.6,
        "stopped_early": False,
    }
