"""Embedding table tests: slot layout, lookups, sparse updates, checkpoints."""

import math

import numpy as np
import pytest

from ctrzoo.data import FieldSchema
from ctrzoo.embedding import (
    _pair_sides,
    add_embedding_tables,
    add_linear_table,
    emb_slot,
    linear_slot,
    lookup_field_aware,
    lookup_fields,
)
from ctrzoo.errors import ConfigError, ShapeError
from ctrzoo.tape import ParameterStore, Tape
from ctrzoo.training import AdamState, adam_step
from test_interaction import sum_all

SCHEMA = FieldSchema.of_sizes([5, 7, 4])


def test_plain_tables_one_per_field():
    store = ParameterStore(seed=0)
    add_embedding_tables(store, SCHEMA, d=3)
    assert store.names() == ["emb.0", "emb.1", "emb.2"]
    assert store.value("emb.0").shape == (5, 3)
    assert store.value("emb.1").shape == (7, 3)
    assert store.value("emb.2").shape == (4, 3)


def test_field_aware_tables_one_per_ordered_pair():
    store = ParameterStore(seed=0)
    add_embedding_tables(store, SCHEMA, d=2, field_aware=True)
    n = SCHEMA.n
    assert len(store.names()) == n * (n - 1)
    assert emb_slot(0, 1) in store
    assert emb_slot(0, 0) not in store
    assert store.value(emb_slot(2, 0)).shape == (4, 2)


def test_field_aware_tables_lie_in_lookup_order():
    # each side of the pairs i < j joins only its own tables into one lookup leaf
    schema = FieldSchema.of_sizes([5, 7, 4, 6])
    store = ParameterStore(seed=0)
    add_embedding_tables(store, schema, d=2, field_aware=True)
    sides = _pair_sides(schema.n)
    assert store.names() == [name for _, names in sides for name in names]
    for own, names in sides:
        assert store.row_view(names).shape == (sum(schema.vocab_sizes[i] for i in own), 2)


def test_embedding_dimension_must_be_positive():
    with pytest.raises(ConfigError):
        add_embedding_tables(ParameterStore(), SCHEMA, d=0)


def test_linear_table_is_width_one():
    store = ParameterStore(seed=0)
    add_linear_table(store, SCHEMA)
    assert store.value(linear_slot(1)).shape == (7, 1)


def test_same_seed_tables_are_identical():
    a, b = ParameterStore(seed=12), ParameterStore(seed=12)
    add_embedding_tables(a, SCHEMA, d=4)
    add_embedding_tables(b, SCHEMA, d=4)
    for name in a.names():
        np.testing.assert_array_equal(a.value(name), b.value(name))


def test_xavier_rows_stay_within_fan_bound():
    store = ParameterStore(seed=3)
    add_embedding_tables(store, SCHEMA, d=6)
    for i, size in enumerate(SCHEMA.vocab_sizes):
        bound = math.sqrt(6.0 / (size + 6))
        assert np.all(np.abs(store.value(emb_slot(i))) <= bound)


def test_lookup_selects_rows_per_field():
    store = ParameterStore(seed=1)
    add_embedding_tables(store, SCHEMA, d=3)
    indices = np.array([[0, 2, 1], [4, 6, 3]])
    tape = Tape()
    node = lookup_fields(tape, store, indices)
    assert node.value.shape == (2, 3, 3)
    for i in range(3):
        np.testing.assert_array_equal(node.value[:, i], store.value(emb_slot(i))[indices[:, i]])


def test_lookup_field_aware_excludes_self_pairs():
    store = ParameterStore(seed=1)
    add_embedding_tables(store, SCHEMA, d=2, field_aware=True)
    indices = np.array([[1, 4, 2]])
    tape = Tape()
    mine, theirs = lookup_field_aware(tape, store, indices)
    # one column per pair i < j, each side reading its own field's row
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert mine.value.shape == theirs.value.shape == (1, len(pairs), 2)
    for p, (i, j) in enumerate(pairs):
        np.testing.assert_array_equal(mine.value[:, p], store.value(emb_slot(i, j))[indices[:, i]])
        np.testing.assert_array_equal(theirs.value[:, p], store.value(emb_slot(j, i))[indices[:, j]])


def test_lookup_linear_shapes():
    store = ParameterStore(seed=1)
    add_linear_table(store, SCHEMA)
    node = lookup_fields(Tape(), store, np.array([[0, 1, 2], [1, 2, 3]]), linear_slot)
    assert node.value.shape == (2, 3, 1)


def test_lookup_requires_batched_indices():
    store = ParameterStore(seed=0)
    add_embedding_tables(store, SCHEMA, d=2)
    with pytest.raises(ShapeError):
        lookup_fields(Tape(), store, np.array([0, 1, 2]))


def test_gradients_touch_only_active_rows():
    store = ParameterStore(seed=2)
    add_embedding_tables(store, SCHEMA, d=3)
    indices = np.array([[0, 2, 1], [0, 2, 3]])
    store.zero_grads()
    tape = Tape()
    tape.backward(sum_all(tape, lookup_fields(tape, store, indices)))
    # field 0 used row 0 twice: gradient 2 there, exact zero elsewhere
    g0 = store.slot("emb.0").grad
    np.testing.assert_array_equal(g0[0], np.full(3, 2.0))
    np.testing.assert_array_equal(g0[1:], np.zeros((4, 3)))


def test_adam_leaves_untouched_rows_bit_identical():
    store = ParameterStore(seed=4)
    add_embedding_tables(store, SCHEMA, d=3)
    before = {name: store.value(name).copy() for name in store.names()}
    state = AdamState(store)
    indices = np.array([[0, 0, 0]])
    store.zero_grads()
    tape = Tape()
    tape.backward(sum_all(tape, lookup_fields(tape, store, indices)))
    adam_step(store, state, lr=0.1)
    for i in range(SCHEMA.n):
        table = store.value(emb_slot(i))
        assert np.any(table[0] != before[emb_slot(i)][0])
        np.testing.assert_array_equal(table[1:], before[emb_slot(i)][1:])


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    store = ParameterStore(seed=8)
    add_embedding_tables(store, SCHEMA, d=5)
    add_linear_table(store, SCHEMA)
    path = tmp_path / "ckpt.json"
    store.save(path)
    loaded = ParameterStore.load(path)
    assert loaded.names() == store.names()
    for name in store.names():
        np.testing.assert_array_equal(loaded.value(name), store.value(name))
