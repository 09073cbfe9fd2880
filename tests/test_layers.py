"""Aggregation and transform-stack tests."""

import numpy as np
import pytest

from ctrzoo.errors import ConfigError, DomainError, ShapeError
from ctrzoo.layers import MLPSpec, add_mlp_slots, combine_fields_nodes, mlp_nodes, sum_nodes
from ctrzoo.tape import ParameterStore, Tape
from test_interaction import as_nodes


def mlp_forward(spec, weights, x):
    """Plain numpy reference for `mlp_nodes` in evaluation mode (no dropout).

    `weights` is a list of (W, b) pairs, one per layer; x is one record
    (input_dim,) or a batch (B, input_dim).
    """
    x = np.asarray(x, dtype=np.float64)
    assert len(weights) == spec.depth
    h = np.atleast_2d(x)
    for k, (w, b) in enumerate(weights):
        h = h @ w + b
        if k < spec.depth - 1:
            h = np.maximum(h, 0.0)
    return h if x.ndim == 2 else h[0]


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_sum_hand_value():
    tape = Tape()
    out = sum_nodes(tape, as_nodes(tape, [[[1.0, 0.0]], [[0.0, 1.0]]]))
    np.testing.assert_array_equal(out.value, [[1.0, 1.0]])


def test_aggregate_field_combination_hand_value():
    tape = Tape()
    weights = tape.constant(np.array([2.0, -1.0]))
    out = combine_fields_nodes(tape, as_nodes(tape, [[[1.0, 1.0]], [[1.0, 0.0]]]), weights)
    np.testing.assert_array_equal(out.value, [[1.0, 2.0]])


def test_aggregate_validation():
    tape = Tape()
    fields = as_nodes(tape, [[[1.0]], [[2.0]]])
    with pytest.raises(ShapeError):
        combine_fields_nodes(tape, fields, tape.constant(np.ones(3)))


def test_combine_fields_nodes_matches_value_level():
    tape = Tape()
    store = ParameterStore()
    store.add_value("al.w", [0.5, -2.0, 1.5])
    vecs = np.random.default_rng(0).normal(size=(3, 4, 2))
    out = combine_fields_nodes(tape, as_nodes(tape, vecs), tape.parameter(store, "al.w"))
    want = sum(w * v for w, v in zip(store.value("al.w"), vecs))
    np.testing.assert_allclose(out.value, want, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# transform stack


def test_mlp_spec_widths_and_depth():
    spec = MLPSpec(6, hidden=(8, 4), out_dim=2)
    assert spec.widths == (6, 8, 4, 2)
    assert spec.depth == 3
    assert spec.weight_count() == 6 * 8 + 8 * 4 + 4 * 2
    assert spec.weight_count(include_bias=True) == spec.weight_count() + 8 + 4 + 2


def test_mlp_spec_validation():
    with pytest.raises(ConfigError):
        MLPSpec(0)
    with pytest.raises(ConfigError):
        MLPSpec(4, hidden=(8, 0))
    with pytest.raises(ConfigError):
        MLPSpec(4, dropout=1.0)


def test_zero_depth_stack_is_affine():
    spec = MLPSpec(3, hidden=(), out_dim=2)
    assert spec.depth == 1
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([0.5, -0.5])
    x = np.array([2.0, 3.0, 4.0])
    out = mlp_forward(spec, [(w, b)], x)
    np.testing.assert_array_equal(out, x @ w + b)


def test_all_zero_weights_output_the_bias():
    spec = MLPSpec(4, hidden=(5,), out_dim=1)
    weights = [
        (np.zeros((4, 5)), np.zeros(5)),
        (np.zeros((5, 1)), np.array([0.7])),
    ]
    out = mlp_forward(spec, weights, np.ones((3, 4)))
    np.testing.assert_array_equal(out, np.full((3, 1), 0.7))


def test_positive_region_stack_collapses_to_matrix_product():
    # with all preactivations positive the relu is the identity, so the
    # stack equals one affine map with composed weights
    rng = np.random.default_rng(5)
    spec = MLPSpec(3, hidden=(4,), out_dim=2)
    w1 = np.abs(rng.normal(size=(3, 4))) + 0.1
    b1 = np.abs(rng.normal(size=4)) + 0.1
    w2 = rng.normal(size=(4, 2))
    b2 = rng.normal(size=2)
    x = np.abs(rng.normal(size=(6, 3))) + 0.1  # positive inputs keep h positive
    out = mlp_forward(spec, [(w1, b1), (w2, b2)], x)
    want = (x @ w1 + b1) @ w2 + b2
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


def test_mlp_nodes_matches_value_level_eval():
    spec = MLPSpec(5, hidden=(7, 3), out_dim=1)
    store = ParameterStore(seed=21)
    add_mlp_slots(store, spec)
    x = np.random.default_rng(2).normal(size=(4, 5))
    tape = Tape()
    out = mlp_nodes(tape, spec, store, tape.constant(x))
    weights = [
        (store.value(f"st.l{k}.w"), store.value(f"st.l{k}.b")) for k in range(spec.depth)
    ]
    np.testing.assert_allclose(out.value, mlp_forward(spec, weights, x), rtol=0, atol=1e-12)


def test_mlp_nodes_shape_guard():
    spec = MLPSpec(5, hidden=())
    store = ParameterStore()
    add_mlp_slots(store, spec)
    tape = Tape()
    with pytest.raises(ShapeError):
        mlp_nodes(tape, spec, store, tape.constant(np.ones((2, 4))))


def test_training_dropout_needs_generator():
    spec = MLPSpec(3, hidden=(4,), dropout=0.5)
    store = ParameterStore(seed=0)
    add_mlp_slots(store, spec)
    tape = Tape()
    with pytest.raises(DomainError):
        mlp_nodes(tape, spec, store, tape.constant(np.ones((2, 3))), training=True)


def test_eval_mode_ignores_dropout():
    spec = MLPSpec(3, hidden=(4,), dropout=0.5)
    store = ParameterStore(seed=1)
    add_mlp_slots(store, spec)
    x = np.random.default_rng(0).normal(size=(2, 3))
    tape = Tape()
    out = mlp_nodes(tape, spec, store, tape.constant(x))
    weights = [
        (store.value(f"st.l{k}.w"), store.value(f"st.l{k}.b")) for k in range(spec.depth)
    ]
    np.testing.assert_allclose(out.value, mlp_forward(spec, weights, x), rtol=0, atol=1e-12)


def test_dropout_keeps_expected_activation_scale():
    # inverted dropout divides survivors by the keep rate, so the average
    # over many masks recovers the eval-mode activation
    spec = MLPSpec(2, hidden=(3,), out_dim=3, dropout=0.4)
    store = ParameterStore(seed=3)
    add_mlp_slots(store, spec)
    # identity-ish second layer so the hidden activations pass through
    store.set_value("st.l1.w", np.eye(3))
    store.set_value("st.l1.b", np.zeros(3))
    x = np.array([[0.8, -0.3]])
    rng = np.random.default_rng(9)
    trials = 20000
    acc = np.zeros(3)
    for _ in range(trials):
        tape = Tape()
        out = mlp_nodes(
            tape, spec, store, tape.constant(x), training=True, drop_rng=rng
        )
        acc += out.value[0]
    mean = acc / trials
    tape = Tape()
    ref = mlp_nodes(tape, spec, store, tape.constant(x)).value[0]
    # per-entry standard error: ref * sqrt(rate/(keep)) / sqrt(trials)
    spread = np.abs(ref) * np.sqrt(0.4 / 0.6) / np.sqrt(trials)
    assert np.all(np.abs(mean - ref) <= 4.0 * spread + 1e-12)
