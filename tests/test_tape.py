"""Math kernel tests: pure ops, the reverse-mode tape, and parameter storage."""

import base64
import importlib
import json
import math
import platform
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrzoo import embedding
from ctrzoo import tape as tape_module
from ctrzoo.data import FieldSchema
from ctrzoo.errors import ContractError, DataError, DomainError, NumericError, ShapeError
from ctrzoo.interaction import MODEL_NAMES, _pair_index, fi_catalog
from ctrzoo.metrics import PROB_FLOOR, logloss
from ctrzoo.tape import (
    ParameterStore,
    Tape,
    finite_diff_check,
    keep_freed_memory,
    release_memory,
    sigmoid,
    xavier_uniform,
)
from ctrzoo.zoo import ModelSpec, build_model, random_batch
from test_interaction import (
    ORACLES,
    PER_FIELD,
    make_fields,
    make_slots,
    oracle_ffm,
    oracle_ffm_pairs,
    run_config,
    slots_for,
)


# ---------------------------------------------------------------------------
# pure ops


def _values(op, *arrays):
    """Value of the tape op named `op` applied to constants."""
    tape = Tape()
    return getattr(tape, op)(*(tape.constant(np.asarray(a, dtype=np.float64)) for a in arrays)).value


def _contracted(spec, *arrays):
    """Value of `Tape.contract(spec, ...)` applied to constants."""
    tape = Tape()
    return tape.contract(spec, *(tape.constant(np.asarray(a, dtype=np.float64)) for a in arrays)).value


def test_inner_hand_value():
    assert _contracted("i,i->", [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_inner_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        _contracted("i,i->", [1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        _contracted("bi,bi->b", np.ones((2, 3)), np.ones((3, 2)))


def test_hadamard_hand_value():
    np.testing.assert_array_equal(_contracted("i,i->i", [2.0, 3.0], [4.0, 5.0]), [8.0, 15.0])


def test_softmax_weights_hand_value():
    w = _values("softmax", [0.0, math.log(2.0)])
    np.testing.assert_allclose(w, [1.0 / 3.0, 2.0 / 3.0], rtol=0, atol=1e-15)


def test_softmax_weights_sum_and_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.normal(size=7)
        w = _values("softmax", s)
        assert abs(w.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(w, _values("softmax", s + 123.456), rtol=0, atol=1e-12)


def test_softmax_weights_large_scores_stay_finite():
    w = _values("softmax", [1000.0, 1000.0, 0.0])
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w[:2], [0.5, 0.5], atol=1e-12)


def test_softmax_weights_empty_rejected():
    with pytest.raises(DomainError):
        _values("softmax", np.zeros((2, 0)))


def test_relu_values():
    np.testing.assert_array_equal(_values("relu", -3.0), 0.0)
    np.testing.assert_array_equal(_values("relu", 2.5), 2.5)
    np.testing.assert_array_equal(_values("relu", [-1.0, 0.0, 4.0]), [0.0, 0.0, 4.0])


@pytest.mark.parametrize("module", ["ctrzoo", "ctrzoo.tape"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


_VIEWS = {
    "plain": lambda x: x,
    "transposed": lambda x: x.T,
    "axes-permuted": lambda x: x.reshape(x.shape[:1] + (1,) + x.shape[1:]).swapaxes(0, -1),
    "strided": lambda x: x[..., ::2] if x.ndim else x,
    "reversed": lambda x: x[::-1] if x.ndim else x,
    "fortran": np.asfortranarray,
}


@settings(max_examples=300, deadline=None, database=None)
@given(
    shape=st.lists(st.integers(0, 5), max_size=3).map(tuple),
    scale=st.sampled_from([1.0, 1e-300, 1e150, 1e154, 1e155, 1e200, 1.7e308]),
    bad=st.sampled_from([None, np.inf, -np.inf, np.nan]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    view=st.sampled_from(sorted(_VIEWS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_finite_agrees_with_isfinite_all(shape, scale, bad, where, view, seed):
    # an inf or a NaN anywhere, entries whose squares overflow, views that are not one
    # dense block, 0-d and empty arrays
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape) * scale
    if bad is not None and x.size:
        x.flat[int(where * x.size)] = bad
    x = _VIEWS[view](x)
    assert tape_module._finite(x) == bool(np.isfinite(x).all())


def test_sigmoid_hand_values():
    assert sigmoid(0.0) == 0.5
    assert abs(sigmoid(math.log(3.0)) - 0.75) < 1e-15
    assert abs(sigmoid(-math.log(3.0)) - 0.25) < 1e-15


def test_sigmoid_extreme_inputs_stay_in_unit_interval():
    out = sigmoid(np.array([-750.0, -40.0, 40.0, 750.0]))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.all(np.isfinite(out))
    assert out[0] < 1e-16 and out[3] > 1.0 - 1e-16


def test_nonfinite_input_rejected():
    with pytest.raises(NumericError):
        sigmoid(np.inf)


def test_xavier_uniform_support():
    rng = np.random.default_rng(7)
    a = math.sqrt(6.0 / (1000 + 16))
    arr = xavier_uniform(rng, (1000, 16), 1000, 16)
    assert arr.shape == (1000, 16)
    assert np.all(np.abs(arr) <= a)
    # mean of 16000 uniform(-a, a) draws concentrates near zero
    assert abs(arr.mean()) < 0.02 * a


def test_xavier_uniform_bad_fans():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        xavier_uniform(rng, (2, 2), 0, 4)


# ---------------------------------------------------------------------------
# parameter store


def test_store_duplicate_slot_rejected():
    store = ParameterStore()
    store.add_zeros("w", (2,))
    with pytest.raises(ContractError):
        store.add_zeros("w", (2,))


def test_store_unknown_slot_rejected():
    with pytest.raises(ContractError):
        ParameterStore().value("missing")


def test_store_nonfinite_init_rejected():
    with pytest.raises(NumericError):
        ParameterStore().add_value("w", [1.0, np.inf])


def test_store_set_value_shape_guard():
    store = ParameterStore()
    store.add_zeros("w", (3,))
    with pytest.raises(ShapeError):
        store.set_value("w", np.zeros((4,)))


def test_store_counts_and_norm():
    store = ParameterStore()
    store.add_value("w", [[1.0, 2.0], [3.0, 4.0]])
    store.add_value("c", [5.0])
    assert store.param_count() == 5
    # the squared norm an l2 penalty reads, over every slot in creation order
    assert [s.name for s in store.slots()] == ["w", "c"]
    assert sum(float(np.sum(s.value * s.value)) for s in store.slots()) == 55.0


def test_store_slot_views_and_flat_buffers_alias_both_ways():
    store = ParameterStore()
    store.add_value("w", [[1.0, 2.0], [3.0, 4.0]])
    store.add_value("b", 5.0)
    store.add_value("c", [6.0, 7.0])
    assert store.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    # slot -> buffer
    store.value("w")[1, 0] = -3.0
    store.grad("b")[...] = 2.5
    assert store.values[2] == -3.0 and store.grads[4] == 2.5
    # buffer -> slot
    store.values[5] = 60.0
    store.grads[:] = np.arange(7.0)
    assert store.value("c").tolist() == [60.0, 7.0]
    assert store.grad("w").tolist() == [[0.0, 1.0], [2.0, 3.0]] and store.grad("b") == 4.0
    store.zero_grads()
    assert not np.any(store.grads) and not np.any(store.grad("c"))


def test_store_values_and_gradients_survive_buffer_growth():
    store = ParameterStore(seed=1)
    store.add_value("first", [1.0, 2.0])
    store.grad("first")[...] = [-1.0, -2.0]
    buffer = store.values
    for k in range(12):
        store.add_xavier(f"t{k}", (k + 1, 3))
    assert not np.shares_memory(buffer, store.values), "the buffers never moved"
    assert store.value("first").tolist() == [1.0, 2.0]
    assert store.grad("first").tolist() == [-1.0, -2.0]
    # every slot is a view at its place in creation order, after every move
    start = 0
    for slot in store.slots():
        end = start + slot.value.size
        assert np.shares_memory(slot.value, store.values[start:end])
        assert np.shares_memory(slot.grad, store.grads[start:end])
        start = end
    assert start == store.param_count() == store.values.size == store.grads.size
    # the draws are those of a store that never grew
    fresh = ParameterStore(seed=1)
    fresh.add_value("first", [1.0, 2.0])
    for k in range(12):
        assert fresh.add_xavier(f"t{k}", (k + 1, 3)).tobytes() == store.value(f"t{k}").tobytes()


def test_store_snapshot_restore_round_trip():
    store = ParameterStore()
    store.add_value("w", [1.0, 2.0])
    snap = store.snapshot()
    store.value("w")[0] = 99.0
    store.restore(snap)
    np.testing.assert_array_equal(store.value("w"), [1.0, 2.0])
    # snapshots are copies, not views
    snap["w"][1] = -1.0
    assert store.value("w")[1] == 2.0


def test_store_save_load_bit_exact(tmp_path):
    store = ParameterStore(seed=11)
    store.add_xavier("emb", (6, 3))
    store.add_value("shift", [0.25, -0.5])
    path = tmp_path / "params.json"
    store.save(path)
    loaded = ParameterStore.load(path)
    assert loaded.seed == 11
    assert loaded.names() == store.names()
    for name in store.names():
        np.testing.assert_array_equal(loaded.value(name), store.value(name))
    # the v1 format marks every slot trainable
    slots = json.loads(path.read_text())["slots"]
    assert [slots[name]["trainable"] for name in store.names()] == [True, True]


def test_store_load_allocates_once_at_the_exact_size(tmp_path):
    rng = np.random.default_rng(4)
    store = ParameterStore(seed=5)
    for k, shape in enumerate([(3, 2), (4,), (), (2, 2, 2)]):
        store.add_value(f"s{k}", rng.normal(size=shape))
    path = tmp_path / "params.json"
    store.save(path)
    loaded = ParameterStore.load(path)
    assert loaded._buffer.shape == (2, 19) and loaded.values.size == 19
    assert loaded.values.tobytes() == store.values.tobytes()


def test_store_save_streams_the_checkpoint_in_small_chunks(tmp_path, monkeypatch):
    from ctrzoo import tape as tape_module

    chunks, write_text = [], tape_module.write_text

    def recording_write_text(path, pieces):
        write_text(path, (chunks.append(c) or c for c in pieces))

    monkeypatch.setattr(tape_module, "write_text", recording_write_text)
    store = ParameterStore(seed=2)
    store.add_xavier("emb", (2000, 8))
    path = tmp_path / "params.json"
    store.save(path)
    text = path.read_text()
    assert "".join(chunks) == text
    assert len(text) > 100_000 and max(map(len, chunks)) < 100


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]
_slot_values = st.lists(
    st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False), max_size=8
)


def _edge_store(seed, slots, scalar, long):
    """A 0-d slot, an empty slot and one long enough to be encoded in several blocks, plus
    named random slots of any length."""
    store = ParameterStore(seed=seed)
    store.add_value("zero-d", np.array(scalar))
    store.add_zeros("empty", (0, 3))
    store.add_value("long", np.random.default_rng(seed).normal(size=long))
    for name, values in slots.items():
        if name not in store:
            store.add_value(name, values)
    return store


def _v2(values):
    """A v2 slot's `values` and `crc32` entries for the float64 entries `values`."""
    raw = np.asarray(values, "<f8").tobytes()
    return {"crc32": zlib.crc32(raw), "values": base64.b64encode(raw).decode("ascii")}


def _payload(store, version):
    """The checkpoint payload of `store` in format `version`: v1 lists the floats, v2 holds base64."""
    def entries(value):
        return {"values": value.ravel().tolist()} if version == 1 else _v2(value)

    return {
        "format": f"ctrzoo-params-v{version}",
        "seed": store.seed,
        "slots": {
            name: {"shape": list(slot.shape), "trainable": True, **entries(slot.value)}
            for name, slot in zip(store.names(), store.slots())
        },
    }


_edge_stores = dict(
    seed=st.integers(0, 2**40),
    slots=st.dictionaries(st.text(max_size=6), _slot_values, max_size=5),
    scalar=st.sampled_from(_EDGE_FLOATS),
    long=st.sampled_from([4094, 4095, 4096, 8190, 8191, 8193]),
)


@settings(max_examples=60, deadline=None, database=None)
@given(**_edge_stores)
def test_store_save_writes_the_stdlib_encoding_of_the_v2_payload(tmp_path_factory, seed, slots, scalar, long):
    store = _edge_store(seed, slots, scalar, long)
    path = tmp_path_factory.mktemp("save") / "params.json"
    store.save(path)
    assert path.read_text(encoding="utf-8") == json.dumps(_payload(store, 2), sort_keys=True)


@settings(max_examples=40, deadline=None, database=None)
@given(**_edge_stores)
def test_store_v1_and_v2_checkpoints_load_bit_exact_in_sorted_order(tmp_path_factory, seed, slots, scalar, long):
    store = _edge_store(seed, slots, scalar, long)
    root = tmp_path_factory.mktemp("round")
    store.save(root / "v2.json")
    (root / "v1.json").write_text(json.dumps(_payload(store, 1), sort_keys=True), encoding="utf-8")
    for path in (root / "v2.json", root / "v1.json"):
        loaded = ParameterStore.load(path)
        assert loaded.seed == seed and loaded.names() == sorted(store.names())
        for name in store.names():  # -0.0, subnormals and +-max keep their bits
            assert loaded.value(name).shape == store.value(name).shape
            assert loaded.value(name).tobytes() == store.value(name).tobytes()


def test_store_save_refuses_a_non_finite_value_before_opening_the_file(tmp_path):
    store = ParameterStore(seed=1)
    store.add_value("a", [1.0, 2.0])
    store.add_value("b", [3.0, 4.0])
    store.value("b")[1] = np.nan
    path = tmp_path / "params.json"
    with pytest.raises(NumericError, match="'b'"):
        store.save(path)
    assert not path.exists()


def test_store_load_rejects_a_non_finite_value(tmp_path):
    path = tmp_path / "params.json"
    slots = '{"w": {"shape": [2], "values": [1.0, 1e999], "trainable": true}}'
    path.write_text('{"format": "ctrzoo-params-v1", "slots": %s}' % slots)
    with pytest.raises(DataError, match="params.json: non-finite initial value for slot 'w'"):
        ParameterStore.load(path)


def test_store_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else", "slots": {}}')
    with pytest.raises(DataError, match="other.json"):
        ParameterStore.load(path)


def test_same_seed_builds_identical_parameters():
    a = ParameterStore(seed=3)
    b = ParameterStore(seed=3)
    va = a.add_xavier("w", (4, 5))
    vb = b.add_xavier("w", (4, 5))
    np.testing.assert_array_equal(va, vb)


# ---------------------------------------------------------------------------
# tape gradients against hand algebra


def _total(tape, x):
    """Sum of every entry of x as a 0-d node."""
    return tape.sum_axis(x, tuple(range(x.value.ndim)))


def _permuted(tape, x, axes):
    """x with its axes in the order `axes`, as `np.transpose` orders them: a one-operand `contract`,
    whose value is a view."""
    sub = "abcde"[: x.value.ndim]
    return tape.contract(sub + "->" + "".join(sub[a] for a in axes), x)


def _run_backward(build, store):
    store.zero_grads()
    tape = Tape()
    tape.backward(build(tape))
    return tape


def test_quadratic_gradient_is_two_w():
    store = ParameterStore()
    store.add_value("w", [1.0, -2.0, 3.0])

    def build(tape):
        w = tape.parameter(store, "w")
        return tape.contract("i,i->", w, w)

    _run_backward(build, store)
    np.testing.assert_array_equal(store.grad("w"), [2.0, -4.0, 6.0])


def test_backward_twice_doubles_buffers_exactly():
    store = ParameterStore(seed=5)
    store.add_xavier("w", (4,))

    def build(tape):
        w = tape.parameter(store, "w")
        return _total(tape, tape.contract("i,i->i", w, w))

    store.zero_grads()
    tape = Tape()
    root = build(tape)
    tape.backward(root)
    once = store.grad("w").copy()
    tape.backward(root)
    np.testing.assert_array_equal(store.grad("w"), 2.0 * once)


def test_backward_requires_scalar_root():
    store = ParameterStore()
    store.add_value("w", [1.0, 2.0])
    tape = Tape()
    w = tape.parameter(store, "w")
    with pytest.raises(ContractError):
        tape.backward(w)


def test_lookup_scatter_accumulates_repeated_rows():
    store = ParameterStore()
    store.add_zeros("table", (3, 2))

    def build(tape):
        rows = tape.reshape(embedding.lookup(tape, store, ["table"], np.array([0, 0, 1])[:, None]), (3, 2))
        return _total(tape, rows)

    _run_backward(build, store)
    np.testing.assert_array_equal(store.grad("table"), [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])


def test_lookup_untouched_rows_get_exact_zero_gradient():
    store = ParameterStore(seed=1)
    store.add_xavier("table", (5, 3))

    def build(tape):
        rows = tape.reshape(embedding.lookup(tape, store, ["table"], np.array([1, 3])[:, None]), (2, 3))
        return _total(tape, tape.contract("bd,bd->bd", rows, rows))

    _run_backward(build, store)
    g = store.grad("table")
    for untouched in (0, 2, 4):
        np.testing.assert_array_equal(g[untouched], np.zeros(3))
    assert np.any(g[1] != 0.0) and np.any(g[3] != 0.0)


def test_lookup_range_and_shape_guards():
    store = ParameterStore()
    store.add_zeros("table", (3, 2))
    tape = Tape()
    with pytest.raises(DomainError):
        embedding.lookup(tape, store, ["table"], np.array([0, 3])[:, None])
    with pytest.raises(DomainError):
        embedding.lookup(tape, store, ["table"], np.array([-1])[:, None])
    with pytest.raises(ShapeError):
        embedding.lookup(tape, store, ["table"], np.array([0.5, 1.0])[:, None])


def test_lookup_index_snapshot_is_defensive():
    store = ParameterStore()
    store.add_zeros("table", (3, 2))
    idx = np.array([0, 1])
    tape = Tape()
    rows = embedding.lookup(tape, store, ["table"], idx[:, None])
    idx[0] = 2  # caller mutates after the fact
    root = _total(tape, rows)
    tape.backward(root)
    np.testing.assert_array_equal(store.grad("table")[:, 0], [1.0, 1.0, 0.0])


@settings(max_examples=60, deadline=None, database=None)
@given(
    b=st.integers(0, 9),
    rows=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_lookup_scatter_is_bitwise_np_add_at(b, rows, d, seed):
    # referee: each table's gradient is np.add.at of its column into zeros
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    names = [f"t{j}" for j in range(len(rows))]
    for name, size in zip(names, rows):
        store.add_value(name, rng.normal(size=(size, d)))
    # indices from a range no wider than the batch, so rows repeat
    idx = np.stack([rng.integers(0, min(size, max(b // 2, 1)), size=b) for size in rows], axis=1)
    weights = rng.normal(size=(b, len(names), d))

    store.zero_grads()
    tape = Tape()
    looked_up = embedding.lookup(tape, store, names, idx)
    root = _total(tape, tape.contract("bkd,bkd->bkd", looked_up, tape.constant(weights)))
    tape.backward(root)

    value = looked_up.value
    assert value.shape == (b, len(names), d)
    assert value.flags.c_contiguous
    once = {}
    for j, name in enumerate(names):
        np.testing.assert_array_equal(value[:, j], store.value(name)[idx[:, j]])
        want = np.zeros_like(store.value(name))
        np.add.at(want, idx[:, j], weights[:, j])
        assert store.grad(name).tobytes() == want.tobytes(), name
        if b == 0:
            assert not np.any(store.grad(name))
        once[name] = store.grad(name).copy()

    tape.backward(root)
    for name, grad in once.items():
        assert store.grad(name).tobytes() == (2.0 * grad).tobytes(), name


def _check_lookups_per_table(store, lookups, seed):
    """Run `lookups(tape)` -> [(node, names, indices)] on one tape, weigh each value by
    a random constant, and hold every value and slot gradient to the per-table referee:
    `np.take` of each column from its table and `np.add.at` of its weights into zeros."""
    rng = np.random.default_rng(seed)
    store.zero_grads()
    tape = Tape()
    looked_up = lookups(tape)
    weights = [rng.normal(size=node.value.shape) for node, _, _ in looked_up]
    terms = [tape.contract("bkd,bkd->bkd", node, tape.constant(w)) for (node, _, _), w in zip(looked_up, weights)]
    tape.backward(tape.add(*(_total(tape, term) for term in terms)))
    want = {name: np.zeros_like(store.value(name)) for _, names, _ in looked_up for name in names}
    for (node, names, idx), w in zip(looked_up, weights):
        for j, name in enumerate(names):
            assert node.value[:, j].tobytes() == store.value(name).take(idx[:, j], axis=0).tobytes(), name
            np.add.at(want[name], idx[:, j], w[:, j])
    for name, grad in want.items():
        assert store.grad(name).tobytes() == grad.tobytes(), name
    assert not np.any(np.delete(store.grads, np.concatenate([np.r_[store.slot(n).span] for n in want])))


def test_lookups_over_a_loaded_store_are_bitwise_the_per_table_referee(tmp_path):
    # a checkpoint holds its slots in sorted order: "bias" comes before the tables
    model = build_model(ModelSpec("FM", FieldSchema.of_sizes([3, 11, 5, 2, 9, 4, 7, 6, 8, 10, 12]), d=3))
    model.store.save(tmp_path / "params.json")
    store = ParameterStore.load(tmp_path / "params.json")
    assert store.names()[0] == "bias" and store.slot("emb.0").span.start == 1
    indices, _ = random_batch(model.schema, 37, seed=4)
    emb, lin = [[f"{kind}.{i}" for i in range(11)] for kind in ("emb", "lin")]

    def lookups(tape):
        return [(embedding.lookup(tape, store, names, indices), names, indices) for names in (emb, lin)]

    _check_lookups_per_table(store, lookups, seed=5)


def test_ffm_lookups_on_one_tape_are_bitwise_the_per_table_referee():
    model = build_model(ModelSpec("FFM", FieldSchema.of_sizes([4, 6, 3, 5, 7]), d=4))
    indices, _ = random_batch(model.schema, 23, seed=6)
    sides = embedding._pair_sides(5)

    def lookups(tape):
        nodes = embedding.lookup_field_aware(tape, model.store, indices)
        return [(node, names, indices[:, own]) for node, (own, names) in zip(nodes, sides)]

    _check_lookups_per_table(model.store, lookups, seed=7)


def test_lookup_tables_must_lie_whole_rows_apart():
    store = ParameterStore()
    store.add_zeros("t0", (3, 2))
    store.add_zeros("odd", (1,))
    store.add_zeros("t1", (3, 2))
    store.add_zeros("t2", (2, 2))
    assert embedding.lookup(Tape(), store, ["t1", "t2"], np.zeros((1, 2), np.int64)).value.shape == (1, 2, 2)
    for names in (["t0", "t1"], ["t2", "t0"]):
        with pytest.raises(ShapeError, match="'t0' and 't[12]' are not whole 2-wide rows apart"):
            embedding.lookup(Tape(), store, names, np.zeros((1, 2), np.int64))


def test_tape_rejects_nonfinite_result():
    tape = Tape()
    with pytest.raises(NumericError):
        tape.constant(np.array([np.inf]))


@pytest.mark.parametrize("record", [True, False])
def test_a_non_finite_result_names_the_op_that_produced_it(record):
    tape = Tape(record=record)
    big = tape.constant([1e200, 1.0])
    overflows = {
        "contract": lambda: tape.contract("i,i->i", big, big),
        "add": lambda: tape.add(tape.constant([1.7e308]), tape.constant([1.7e308])),
        "constant": lambda: tape.constant([np.nan]),
    }
    for op, make in overflows.items():
        message = f"^non-finite value produced on tape by {op}$"
        with pytest.raises(NumericError, match=message), np.errstate(over="ignore"):
            make()


def test_softmax_rows_sum_to_one():
    tape = Tape()
    x = tape.constant(np.random.default_rng(2).normal(size=(5, 4)))
    p = tape.softmax(x)
    np.testing.assert_allclose(p.value.sum(axis=1), np.ones(5), rtol=0, atol=1e-12)


def test_inner_batched_matches_rowwise_dot():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=(6, 3))
    tape = Tape()
    out = tape.contract("bi,bi->b", tape.constant(a), tape.constant(b))
    np.testing.assert_allclose(out.value, (a * b).sum(axis=1), rtol=0, atol=1e-14)


def test_shape_guards_on_binary_ops():
    tape = Tape()
    a = tape.constant(np.ones((2, 3)))
    b = tape.constant(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        tape.add(a, b)
    with pytest.raises(ShapeError):
        tape.contract("ij,ij->ij", a, b)
    with pytest.raises(ShapeError):
        tape.contract("ij,jk->ik", a, tape.constant(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        tape.reshape(a, (2,))


# ---------------------------------------------------------------------------
# finite differences


def test_linear_function_checks_at_machine_precision():
    store = ParameterStore()
    store.add_value("w", [0.3, -1.2, 0.9])
    c = np.array([2.0, 0.5, -1.5])

    def build(tape):
        return tape.contract("i,i->", tape.parameter(store, "w"), tape.constant(c))

    def f():
        tape = Tape()
        return float(build(tape).value)

    store.zero_grads()
    tape = Tape()
    tape.backward(build(tape))
    assert finite_diff_check(f, store, eps=1e-5) < 1e-9


def test_composite_network_checks_below_1e8():
    store = ParameterStore(seed=9)
    store.add_xavier("table", (5, 3))
    store.add_xavier("m", (2, 3))
    store.add_value("b", [0.1, -0.2])
    store.add_value("s", np.array(0.7))
    store.add_value("shift", np.array(0.05))
    store.add_xavier("v", (4,))
    idx = np.array([0, 2, 2, 4])

    def build(tape):
        x = tape.reshape(embedding.lookup(tape, store, ["table"], idx[:, None]), (4, 3))
        y = tape.contract("bq,pq->bp", x, tape.parameter(store, "m"))  # (4, 2)
        y = tape.add(y, tape.parameter(store, "b"))
        p = tape.softmax(y)  # rows sum to one
        z = tape.contract("bp,bp->bp", p, y)
        col = tape.contract("bi,i->b", z, tape.constant([1.0, 0.0]))  # column 0
        pooled = tape.contract("b,b->", col, tape.parameter(store, "v"))  # 0-d
        total = tape.logloss(col, [1.0, 0.0, 0.0, 1.0])
        total = tape.add(total, pooled)
        total = tape.contract(",->", total, tape.parameter(store, "s"))  # 0-d times 0-d
        total = tape.add(total, tape.parameter(store, "shift"))
        # the mean of total and 2 * total
        twice = tape.contract(",->", total, tape.constant(2.0))
        return tape.contract(",->", tape.add(total, twice), tape.constant(0.5))

    def f():
        return float(build(Tape()).value)

    store.zero_grads()
    tape = Tape()
    tape.backward(build(tape))
    assert finite_diff_check(f, store, eps=1e-5) < 1e-8


def test_relu_concat_path_checks_below_1e8():
    # preactivations sit well away from the relu kink, so central
    # differences with eps=1e-5 never straddle it
    store = ParameterStore()
    store.add_value("a", [[0.5, -0.7], [1.2, 0.3]])
    store.add_value("w", [[0.6, -0.4], [0.5, 0.8]])

    def build(tape):
        a = tape.parameter(store, "a")
        h = tape.contract("bi,ij->bj", a, tape.parameter(store, "w"))
        guard = np.abs(h.value)
        assert np.all(guard > 1e-2)
        h = tape.relu(h)
        # [h | a] along the last axis: each block times a constant selector
        left, right = np.eye(4)[:2], np.eye(4)[2:]
        both = tape.add(tape.contract("bi,ij->bj", h, tape.constant(left)), tape.contract("bi,ij->bj", a, tape.constant(right)))
        s = tape.contract("b,bj->bj", tape.constant(np.array([0.9, 1.1])), both)
        # outer product of a batch scalar and a fixed vector
        vec = tape.contract(
            "b,j->bj", tape.constant(np.array([1.0, 2.0])), tape.constant(np.array([0.3, 0.4, 0.5, 0.6]))
        )
        diff = tape.add(s, tape.contract("bj,->bj", vec, tape.constant(-1.0)))
        return _total(tape, tape.contract("bj,bj->bj", diff, s))

    def f():
        return float(build(Tape()).value)

    store.zero_grads()
    tape = Tape()
    tape.backward(build(tape))
    assert finite_diff_check(f, store, eps=1e-5) < 1e-8


def test_corrupted_gradient_is_detected():
    store = ParameterStore()
    store.add_value("w", [0.4, -0.6])

    def build(tape):
        w = tape.parameter(store, "w")
        return tape.contract("i,i->", w, w)

    def f():
        return float(build(Tape()).value)

    store.zero_grads()
    tape = Tape()
    tape.backward(build(tape))
    store.grad("w")[0] += 0.05
    assert finite_diff_check(f, store, eps=1e-5) > 1e-2
    # a NaN entry (the first, so finite errors follow it) fails any tolerance
    store.grad("w")[0] = np.nan
    assert not finite_diff_check(f, store, eps=1e-5) < 1e-2


def test_finite_diff_step_must_be_positive():
    store = ParameterStore()
    store.add_value("w", [1.0])
    with pytest.raises(DomainError):
        finite_diff_check(lambda: 0.0, store, eps=0.0)


# ---------------------------------------------------------------------------
# the log-loss node


def _chain_logloss_grad(z, y):
    """d loss / d z replayed through the node-by-node chain the loss node fuses:
    sigmoid, clip, log(p), log(1 - p), label products, mean, negation."""
    s = sigmoid(z)
    inside = (s > PROB_FLOOR) & (s < 1.0 - PROB_FLOOR)
    p = np.clip(s, PROB_FLOOR, 1.0 - PROB_FLOOR)
    g = np.broadcast_to(np.ones(()) * -1.0 / z.size, z.shape)
    g_p = -(g * (1.0 - y) / (1.0 - p))
    g_p = g_p + g * y / p
    return g_p * inside * s * (1.0 - s)


def _logloss_on_tape(z, y):
    """A store whose slot "z" holds `z`, with the log-loss gradient in its buffer."""
    store = ParameterStore()
    store.add_value("z", z)
    tape = Tape()
    tape.backward(tape.logloss(tape.parameter(store, "z"), y))
    return store


@settings(max_examples=60, deadline=None, database=None)
@given(
    z=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_logloss_node_is_bitwise_the_metric_and_the_chain_gradient(z, seed):
    z = np.array(z)
    y = np.random.default_rng(seed).integers(0, 2, size=z.size).astype(np.float64)
    store = ParameterStore()
    store.add_value("z", z)
    tape = Tape()
    logit = tape.parameter(store, "z")
    loss = tape.logloss(logit, y)
    assert loss.value.shape == ()
    assert float(loss.value) == logloss(sigmoid(z), y)
    # the node's own gradient, from its own backward, before a buffer turns a -0.0 into 0.0
    loss._backward(np.ones(()))
    assert logit.grad.tobytes() == _chain_logloss_grad(z, y).tobytes()


def test_logloss_node_checks_against_finite_differences():
    rng = np.random.default_rng(31)
    z, y = rng.normal(scale=2.0, size=12), rng.integers(0, 2, size=12).astype(np.float64)
    store = _logloss_on_tape(z, y)

    def f():
        tape = Tape()
        return float(tape.logloss(tape.parameter(store, "z"), y).value)

    assert finite_diff_check(f, store, eps=1e-6) < 1e-8


def test_logloss_gradient_is_zero_where_the_clamp_is_active():
    z = np.array([-40.0, -28.0, -0.5, 0.0, 2.0, 28.0, 40.0])
    s = sigmoid(z)
    clamped = (s <= PROB_FLOOR) | (s >= 1.0 - PROB_FLOOR)
    assert clamped.tolist() == [True, True, False, False, False, True, True]
    for y in (np.zeros(7), np.ones(7)):
        store = _logloss_on_tape(z, y)
        g = store.grad("z")
        assert np.all(g[clamped] == 0.0) and np.all(g[~clamped] != 0.0)


def test_logloss_rejects_empty_mismatched_and_non_binary_labels():
    tape = Tape()
    with pytest.raises(DomainError):
        tape.logloss(tape.constant(np.zeros(0)), np.zeros(0))
    with pytest.raises(ShapeError):
        tape.logloss(tape.constant(np.zeros(3)), np.zeros(2))
    with pytest.raises(DataError):
        tape.logloss(tape.constant(np.zeros(2)), [0.0, 0.5])


# ---------------------------------------------------------------------------
# tapes that record no backward


def test_a_tape_that_records_no_backward_counts_nodes_and_refuses_backward():
    store = ParameterStore(seed=2)
    store.add_xavier("w", (3, 2))
    lengths, values = [], []
    for record in (True, False):
        tape = Tape(record=record)
        w = tape.parameter(store, "w")
        assert tape.parameter(store, "w") is w  # one leaf per slot per tape
        root = _total(tape, tape.contract("ij,ij->ij", w, tape.contract("ij->ji", tape.reshape(w, (2, 3)))))
        lengths.append(len(tape))
        values.append(root.value.tobytes())
    assert lengths == [5, 5] and values[0] == values[1]
    with pytest.raises(ContractError):
        tape.backward(root)
    assert not np.any(store.grads)


@pytest.mark.parametrize("record", [True, False])
def test_every_op_check_holds_on_either_tape(record):
    store = ParameterStore()
    store.add_zeros("a", (3, 2))
    store.add_zeros("b", (2, 2))
    store.add_zeros("bad", (2,))
    tape = Tape(record=record)
    c = tape.constant
    x = c(np.ones((2, 3, 4)))
    for entry in (np.nan, np.inf):
        store.values[-1] = entry
        with pytest.raises(NumericError):
            Tape(record=record).parameter(store, "bad")
    with pytest.raises(ShapeError):
        tape.add(c(np.ones(3)), c(np.ones((3, 1))))
    with pytest.raises(ShapeError):
        tape.contract("bij,bjk->bik", x, c(np.ones((3, 4, 2))))
    for axis in ((1, 1), (0, -3), 3, (0, -4)):
        with pytest.raises(ShapeError):
            tape.sum_axis(x, axis)
    for row in (2, -1, 2**63 + 1):
        dtype = np.uint64 if row > 0 else np.int64
        with pytest.raises(DomainError, match="slot 'b' \\(rows=2\\)"):
            embedding.lookup(tape, store, ["a", "b"], np.array([[0, 1], [2, row]], dtype=dtype))
    assert embedding.lookup(tape, store, ["a", "b"], np.array([[2, 1]], dtype=np.uint8)).value.shape == (1, 2, 2)
    for index in (np.array([0.0, 1.0]), np.array([True]), [[0], [1.5]]):
        with pytest.raises(ShapeError, match="integer array"):
            tape.take(x, index, axis=1)
    for axis in (3, -4):
        with pytest.raises(ShapeError):
            tape.take(x, [0], axis)
    for index in ([0, -1], [[4]], np.array([2**63 + 1], dtype=np.uint64)):  # 3 entries on axis 1
        with pytest.raises(DomainError, match=r"outside \[0, 3\]"):
            tape.take(x, index, axis=1)
    assert tape.take(x, [[3, 0]], axis=1).value.shape == (2, 1, 2, 4)


def test_take_keeps_its_index_when_the_caller_reuses_it():
    store = ParameterStore()
    store.add_value("x", np.array([1.0, 2.0, 3.0]))
    index = np.array([0, 0, 2])
    tape = Tape()
    out = tape.take(tape.parameter(store, "x"), index)
    index[:] = 1
    tape.backward(tape.contract("i,i->", out, tape.constant([1.0, 10.0, 100.0])))
    np.testing.assert_array_equal(store.grad("x"), [11.0, 0.0, 100.0])


def test_take_copies_no_table_whose_zero_row_it_does_not_read():
    store = ParameterStore()
    store.add_zeros("table", (100_000, 16))  # 12.8 MB
    index = np.arange(0, 100_000, 97)  # never the zero row, at 100_000
    tape = Tape()
    leaf = tape.parameter(store, "table")
    tracemalloc.start()
    try:
        out = tape.take(leaf, index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.value.shape == (index.size, 16)
    assert peak < 1 << 20, f"take allocated {peak} bytes"


def test_backward_frees_every_node_gradient_and_a_second_sweep_doubles_the_buffers():
    store = ParameterStore(seed=3)
    store.add_xavier("table", (5, 2))
    store.add_value("w", [0.5, -1.5])
    tape = Tape()
    rows = embedding.lookup(tape, store, ["table"], np.array([[1], [3], [1]]))
    h = tape.relu(tape.contract("bkd,d->bk", rows, tape.parameter(store, "w")))
    root = _total(tape, tape.add(h, tape.constant([2.0])))
    tape.backward(root)
    assert all(node.grad is None for node in tape._nodes)
    once = store.grads.copy()
    assert np.any(once)
    tape.backward(root)
    assert store.grads.tobytes() == (2.0 * once).tobytes()


def test_a_row_view_follows_the_buffers_when_they_move():
    store = ParameterStore(seed=1)
    store.add_xavier("t0", (2, 3))
    store.add_xavier("t1", (4, 3))
    view = store.row_view(("t0", "t1"))
    assert store.slot(("t0", "t1")) is view and view.shape == (6, 3)
    assert view.offsets.tolist() == [0, 2] and view.sizes.tolist() == [2, 4]
    buffer = store.values
    for k in range(8):
        store.add_xavier(f"later{k}", (k + 1, 5))
    assert not np.shares_memory(buffer, store.values), "the buffers never moved"
    assert np.shares_memory(view.value, store.values) and np.shares_memory(view.grad, store.grads)
    np.testing.assert_array_equal(view.value, np.concatenate([store.value("t0"), store.value("t1")]))
    tape = Tape()
    assert tape.parameter(store, ("t0", "t1")) is tape.parameter(store, ("t0", "t1"))


# ---------------------------------------------------------------------------
# whole-tensor ops used by the FI kernel


def _grad_error(store, build, eps=1e-6):
    """Max relative gap between tape gradients and central differences of step `eps`."""
    store.zero_grads()
    tape = Tape()
    tape.backward(build(tape))
    return finite_diff_check(lambda: float(build(Tape()).value), store, eps=eps)


def test_broadcast_binary_ops_check_against_finite_differences():
    store = ParameterStore(seed=21)
    store.add_xavier("a", (2, 3, 2))
    store.add_xavier("b", (2, 3, 2))
    store.add_xavier("c", (3, 2))
    store.add_xavier("bias", (2,))
    store.add_value("shift", np.array(0.3))

    def build(tape):
        a, b, c = (tape.parameter(store, k) for k in "abc")
        bias, shift = tape.parameter(store, "bias"), tape.parameter(store, "shift")
        prod = tape.contract("bid,bjd->bijd", a, b)  # (2, 3, 3, 2) grid of pair products
        # a (d,) bias and a 0-d shift
        prod = tape.add(tape.add(prod, bias), tape.contract(",->", shift, tape.constant(-1.0)))
        scaled = tape.contract("d,bijd->bijd", bias, tape.contract("bijd,->bijd", prod, shift))
        # (j, d) trailing axes on either side
        back = tape.add(tape.add(scaled, c), tape.contract("jd,->jd", c, tape.constant(-1.0)))
        return _total(tape, tape.contract("bijd,bijd->bijd", back, tape.add(c, prod)))

    assert _grad_error(store, build) < 1e-8


def test_broadcast_needs_equal_ranks():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.add(tape.constant(np.ones((3,))), tape.constant(np.ones((3, 1))))
    with pytest.raises(ShapeError):
        tape.add(tape.constant(np.ones((2,))), tape.constant(np.ones((2, 3))))
    with pytest.raises(ShapeError):  # equal ranks broadcast no size-1 axis
        tape.add(tape.constant(np.ones((2, 3))), tape.constant(np.ones((1, 3))))


def test_batched_matmul_checks_against_finite_differences():
    store = ParameterStore(seed=22)
    store.add_xavier("e", (2, 3, 4))
    store.add_xavier("k", (4, 4))
    store.add_xavier("v", (3, 3, 2))

    def build(tape):
        e = tape.parameter(store, "e")
        s = tape.contract("bid,bjd->bij", e, tape.contract("bjd,dk->bjk", e, tape.parameter(store, "k")))
        per_field = tape.contract("bij,ijc->ibc", s, tape.parameter(store, "v"))
        mixed = tape.contract("bij,bjd->bid", s, e)  # (2, 3, 3) @ (2, 3, 4)
        return tape.add(_total(tape, tape.contract("ibc,ibc->ibc", per_field, per_field)), _total(tape, mixed))

    assert _grad_error(store, build) < 1e-8


def test_matmul_rejects_mismatched_batch_axes():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.contract("bij,bjk->bik", tape.constant(np.ones((2, 3, 4))), tape.constant(np.ones((3, 4, 2))))


def test_shape_plumbing_checks_against_finite_differences():
    store = ParameterStore(seed=23)
    store.add_xavier("x", (2, 3, 4))
    store.add_xavier("t", (5,))
    store.add_xavier("m", (3, 4))
    store.add_xavier("b", (3,))
    store.add_xavier("h", (3,))

    def build(tape):
        x = tape.parameter(store, "x")
        y = tape.reshape(tape.contract("abc->cab", x), (4, 6))
        picked = tape.contract("ij,jk->ik", y, tape.constant(np.eye(6)[:, [5, 0, 5, 2]]))  # a repeated column
        pick_rows = tape.constant(np.eye(5)[[[0, 4], [4, 1]]])  # (2, 2, 5), row 4 twice
        rows = tape.contract("ijk,k->ij", pick_rows, tape.parameter(store, "t"))
        # x and 2 * x along a new axis 1: (2, 2, 3, 4)
        stacked = tape.contract("bcq,a->bacq", x, tape.constant([1.0, 2.0]))
        mapped = tape.contract("abcq,pq->abcp", stacked, tape.parameter(store, "m"))  # (2, 2, 3, 3)
        hidden = tape.relu(tape.add(mapped, tape.parameter(store, "b")))
        scores = tape.contract("abcp,p->abc", hidden, tape.parameter(store, "h"))  # (2, 2, 3)
        total = tape.add(
            _total(tape, tape.contract("ik,ik->ik", picked, picked)), _total(tape, tape.contract("ij,ij->ij", rows, rows))
        )
        return tape.add(total, _total(tape, tape.sum_axis(scores, (0, 2))))

    assert _grad_error(store, build) < 1e-8


def test_einsum_checks_every_operand_against_finite_differences():
    store = ParameterStore(seed=25)
    store.add_xavier("e", (2, 3, 4))
    store.add_xavier("w", (3, 3, 4))
    store.add_xavier("s", (2, 3, 3))
    store.add_xavier("v", (4,))

    def build(tape):
        e, w, s, v = (tape.parameter(store, k) for k in "ewsv")
        # e passed twice in one op, and again with a vector
        pairs = tape.contract("bik,ijk,bjk->bij", e, w, e)
        square = tape.contract("bik,ijk,bik->bij", e, w, e)
        read = tape.contract("bij,bij->b", s, tape.add(pairs, square))
        lengths = tape.contract("bik,k->bi", e, v)
        return tape.contract("b,b->", read, tape.contract("bi,bi->b", lengths, lengths))

    assert _grad_error(store, build) < 1e-8


@pytest.mark.parametrize(
    "spec, shapes",
    [
        ("bii,bi->b", [(2, 3, 3), (2, 3)]),  # index repeated within an operand
        ("bi,ij->b", [(2, 3), (3, 4)]),  # j only in one operand, not in the output
        ("...i,...i->...", [(2, 3), (2, 3)]),  # ellipsis
        ("bi,bi", [(2, 3), (2, 3)]),  # no output
        ("bi,bi->b", [(2, 3), (2, 4)]),  # i has two sizes
        ("bi,bi->b", [(2, 3)]),  # one operand short
        ("bi,bi->b", [(2, 3), (2, 3), (2, 3)]),  # one operand over
        ("bi,b->bij", [(2, 3), (2,)]),  # output index no operand has
        ("bij,b->bi", [(2, 3), (2,)]),  # subscripts shorter than the operand's rank
    ],
)
def test_einsum_rejects_malformed_specs(spec, shapes):
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.contract(spec, *(tape.constant(np.ones(shape)) for shape in shapes))


def test_einsum_rejects_a_non_finite_result():
    tape = Tape()
    big = tape.constant(np.full((2, 3), 1e200))
    with pytest.raises(NumericError):
        tape.contract("bi,bi->b", big, big)


# ---------------------------------------------------------------------------
# contract: the numpy calls it makes, and its values and gradients on random specs


def _rows_at(x, m):
    """x (..., q) @ m (q, p) as one 2-D product."""
    return (x.reshape(-1, x.shape[-1]) @ m).reshape(x.shape[:-1] + m.shape[-1:])


_B, _N, _D, _T = 6, 4, 3, 5  # batch, fields, width, attention width
_M, _P = _N * (_N - 1) // 2, _N * _N  # pairs i < j, grid pairs


def _swap(x):
    return np.swapaxes(x, -1, -2)


# Every spec the zoo contracts, on operands of the shapes it uses, with the
# numpy expression of the op it replaced: (value, one gradient per operand).
# A gradient is None where the operand is a constant whose gradient the zoo
# never forms (the one-hot pair picks).
_PINNED = {
    "bid,ed->bie": (  # linear maps: residual, projections, AutoInt's values
        [(_B, _N, _D), (_T, _D)],
        lambda x, m: _rows_at(x, m.T),
        [lambda g, x, m: _rows_at(g, m), lambda g, x, m: g.reshape(-1, _T).T @ x.reshape(-1, _D)],
    ),
    "bid,bjd->bij": (  # Gram and projected similarities
        [(_B, _N, _D), (_B, _N, _D)],
        lambda a, b: a @ b.transpose(0, 2, 1),
        [lambda g, a, b: g @ b, lambda g, a, b: (_swap(a) @ g).transpose(0, 2, 1)],
    ),
    "bpd,bpd->bp": (  # FFM's field-aware pair scores
        [(_B, _M, _D), (_B, _M, _D)],
        lambda u, v: np.einsum("...d,...d->...", u, v),
        [lambda g, u, v: g[..., None] * v, lambda g, u, v: g[..., None] * u],
    ),
    "pi,bid->bpd": (  # AFM's pair picks
        [(_M, _N), (_B, _N, _D)],
        lambda first, e: first @ e,
        [None, lambda g, first, e: _swap(first) @ g],
    ),
    "bpd,td->bpt": (  # AFM's attention layer
        [(_B, _M, _D), (_T, _D)],
        lambda x, m: _rows_at(x, m.T),
        [lambda g, x, m: _rows_at(g, m), lambda g, x, m: g.reshape(-1, _T).T @ x.reshape(-1, _D)],
    ),
    "bpt,t->bp": (  # AFM's attention scores
        [(_B, _M, _T), (_T,)],
        lambda x, h: (x.reshape(-1, _T) @ h).reshape(_B, _M),
        [lambda g, x, h: g[..., None] * h, lambda g, x, h: g.reshape(-1) @ x.reshape(-1, _T)],
    ),
    "bpd,d->bp": (  # AFM's projected pair products
        [(_B, _M, _D), (_D,)],
        lambda x, p: (x.reshape(-1, _D) @ p).reshape(_B, _M),
        [lambda g, x, p: g[..., None] * p, lambda g, x, p: g.reshape(-1) @ x.reshape(-1, _D)],
    ),
    "id,jd->ij": (  # IPNN's theta Gram
        [(_N, _D), (_N, _D)],
        lambda a, b: _rows_at(a, b.T),
        [lambda g, a, b: _rows_at(g, b), lambda g, a, b: (a.T @ g).T],
    ),
    "bij,ijd->bid": (  # vector-pair utility
        [(_B, _N, _N), (_N, _N, _D)],
        lambda w, v: (w.transpose(1, 0, 2) @ v).transpose(1, 0, 2),
        [
            lambda g, w, v: (g.transpose(1, 0, 2) @ _swap(v)).transpose(1, 0, 2),
            lambda g, w, v: _swap(w.transpose(1, 0, 2)) @ g.transpose(1, 0, 2),
        ],
    ),
    "bij,bjd->bid": (  # similarity-weighted sum of utilities
        [(_B, _N, _N), (_B, _N, _D)],
        lambda w, x: w @ x,
        [lambda g, w, x: g @ _swap(x), lambda g, w, x: _swap(w) @ g],
    ),
    "bik,ijk,bjk->bij": (  # SAM2_E's grid
        [(_B, _N, _D), (_N, _N, _D), (_B, _N, _D)],
        lambda a, w, b: np.einsum("bik,ijk,bjk->bij", a, w, b),
        [
            lambda g, a, w, b: np.einsum("bij,ijk,bjk->bik", g, w, b),
            lambda g, a, w, b: np.einsum("bij,bik,bjk->ijk", g, a, b),
            lambda g, a, w, b: np.einsum("bij,bik,ijk->bjk", g, a, w),
        ],
    ),
    "bik,ijk,bik->bij": (  # SAM2_E's grid with the self product
        [(_B, _N, _D), (_N, _N, _D), (_B, _N, _D)],
        lambda a, w, b: np.einsum("bik,ijk,bik->bij", a, w, b),
        [
            lambda g, a, w, b: np.einsum("bij,ijk,bik->bik", g, w, b),
            lambda g, a, w, b: np.einsum("bij,bik,bik->ijk", g, a, b),
            lambda g, a, w, b: np.einsum("bij,bik,ijk->bik", g, a, w),
        ],
    ),
    "bij,bij->b": (  # SAM2_E's grid read by the similarity
        [(_B, _N, _N), (_B, _N, _N)],
        lambda s, u: np.einsum("bij,bij->b", s, u),
        [lambda g, s, u: np.einsum("b,bij->bij", g, u), lambda g, s, u: np.einsum("b,bij->bij", g, s)],
    ),
    "pk,pk->p": (  # SAM2_A's pair vectors read by the head rows
        [(_P, _D), (_P, _D)],
        lambda u, v: np.einsum("...d,...d->...", u, v),
        [lambda g, u, v: g[..., None] * v, lambda g, u, v: g[..., None] * u],
    ),
    "bij,ij->b": (  # SAM2_A's grid read by the similarity
        [(_B, _N, _N), (_N, _N)],
        lambda s, c: s.reshape(_B, -1) @ c.reshape(-1),
        [
            lambda g, s, c: (g[:, None] * c.reshape(-1)).reshape(s.shape),
            lambda g, s, c: (g @ s.reshape(_B, -1)).reshape(c.shape),
        ],
    ),
    "bid,i->bd": (  # field combination
        [(_B, _N, _D), (_N,)],
        lambda z, w: (z.transpose(0, 2, 1).reshape(-1, _N) @ w).reshape(_B, _D),
        [
            lambda g, z, w: (g[..., None] * w).transpose(0, 2, 1),
            lambda g, z, w: g.reshape(-1) @ z.transpose(0, 2, 1).reshape(-1, _N),
        ],
    ),
    "bp,pq->bq": (  # transform layers
        [(_B, _N * _D), (_N * _D, _T)],
        lambda h, w: _rows_at(h, w),
        [lambda g, h, w: _rows_at(g, w.T), lambda g, h, w: h.reshape(-1, _N * _D).T @ g.reshape(-1, _T)],
    ),
    "bij,ij->bi": (  # CIN2's and IPNN's pair-scalar utilities
        [(_B, _N, _N), (_N, _N)],
        lambda w, t: (w.transpose(1, 0, 2) @ t.reshape(_N, _N, 1)).reshape(_N, _B).T,
        [
            lambda g, w, t: g[..., None] * t,
            lambda g, w, t: (g.T.reshape(_N, 1, _B) @ w.transpose(1, 0, 2)).reshape(_N, _N),
        ],
    ),
    # element-wise products: the multiply they replaced, whose bits np.einsum
    # keeps on nonzero products, and the gradient g * other, or one einsum
    # over the axes an operand lacks
    "bp,p->bp": (  # FwFM's pair weights
        [(_B, _M), (_M,)],
        lambda s, w: s * w,
        [lambda g, s, w: g * w, lambda g, s, w: np.einsum("ab,ab->b", g, s)],
    ),
    "bpd,bpd->bpd": (  # AFM's pair products
        [(_B, _M, _D), (_B, _M, _D)],
        lambda u, v: u * v,
        [lambda g, u, v: g * v, lambda g, u, v: g * u],
    ),
    "bid,i->bid": (  # DCN's field weights
        [(_B, _N, _D), (_N,)],
        lambda x, w: x * w.reshape(1, _N, 1),
        [lambda g, x, w: g * w.reshape(1, _N, 1), lambda g, x, w: np.einsum("abc,abc->b", g, x)],
    ),
    "bid,bid->bid": (  # the hadamard utility
        [(_B, _N, _D), (_B, _N, _D)],
        lambda e, x: e * x,
        [lambda g, e, x: g * x, lambda g, e, x: g * e],
    ),
    "bp,bp->bp": (  # inverted dropout's mask on a hidden layer, and AFM's weights on its pair utilities
        [(_B, _T), (_B, _T)],
        lambda x, mask: x * mask,
        [lambda g, x, mask: g * mask, lambda g, x, mask: g * x],
    ),
}


def _leaves(tape, store, arrays, transposed):
    """Parameter nodes holding `arrays`; with `transposed` a (B, m, d) one is the
    `contract("pbd->bpd")` view of m contiguous (B, d) blocks, so `contract` reads a
    non-contiguous operand."""
    swapped = [transposed and x.shape == (_B, _M, _D) for x in arrays]
    for k, (x, swap) in enumerate(zip(arrays, swapped)):
        store.add_value(f"x{k}", x.transpose(1, 0, 2) if swap else x)
    nodes = [tape.parameter(store, f"x{k}") for k in range(len(arrays))]
    return [tape.contract("pbd->bpd", node) if swap else node for node, swap in zip(nodes, swapped)]


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize(
    "spec, transposed",
    [(spec, False) for spec in _PINNED]
    + [(spec, True) for spec, case in _PINNED.items() if (_B, _M, _D) in case[0]],
)
def test_contract_makes_the_numpy_calls_of_the_ops_it_replaced(spec, transposed):
    shapes, value, grads = _PINNED[spec]
    rng = np.random.default_rng(31)
    arrays = [rng.normal(size=shape) for shape in shapes]
    tape, store = Tape(), ParameterStore()
    nodes = _leaves(tape, store, arrays, transposed)
    xs = [node.value for node in nodes]
    assert any(not x.flags.c_contiguous for x in xs) == transposed
    out = tape.contract(spec, *nodes)
    assert _same_bits(out.value, value(*xs))
    # the op's own backward: a sweep frees each node's gradient once it has passed it on
    g = rng.normal(size=out.value.shape)
    out._backward(g)
    for node, grad in zip(nodes, grads):
        if grad is not None:
            assert _same_bits(node.grad, grad(g, *xs))


def test_pinned_specs_are_every_spec_the_zoo_contracts(monkeypatch):
    seen = set()
    contract = Tape.contract

    def recording(tape, spec, *nodes):
        seen.add(spec)
        return contract(tape, spec, *nodes)

    monkeypatch.setattr(Tape, "contract", recording)
    schema = FieldSchema.of_sizes([4] * 4)
    for name in MODEL_NAMES:
        for switches in [{}] + ([{"self_product": True}] if name == "SAM2_E" else []):
            model = build_model(ModelSpec(name, schema, d=3, mlp_hidden=(4,), **switches), seed=0)
            model.loss(*random_batch(schema, 5))
            # a training loss: the deep heads' dropout runs
            model.loss_node(Tape(record=False), *random_batch(schema, 5), drop_rng=np.random.default_rng(0))
    assert seen == set(_PINNED)


# ---------------------------------------------------------------------------
# take: the gather that replaced the one-hot pair products


def _mirrored_pair_index(n):
    """(n, n) map reading pair p = (i, j), i < j, at both (i, j) and (j, i), and the appended zero on
    the diagonal: every pair is read twice, which covers take's repeated reads."""
    index = _pair_index(n, True)
    return np.minimum(index, index.T)


@pytest.mark.parametrize(
    "spec, shape, index, axis",
    [
        # (B, m) pair values read along axis 1, and (m,) pair weights along axis 0, each spread over
        # (i, j) and (j, i)
        pytest.param("bp,pij->bij", (_B, _M), _mirrored_pair_index(_N), 1, id="bp,pij->bij"),
        pytest.param("p,pij->ij", (_M,), _mirrored_pair_index(_N), 0, id="p,pij->ij"),
        # SAM2's head rows and pair coefficients placed on the full and the upper-only grid
        pytest.param("ijp,pk->ijk", (_P, _D), _pair_index(_N, False), 0, id="ijp,pk->ijk"),
        pytest.param("ijp,pk->ijk", (_M, _D), _pair_index(_N, True), 0, id="ijp,pk->ijk-upper"),
        pytest.param("ijp,p->ij", (_P,), _pair_index(_N, False), 0, id="ijp,p->ij"),
        pytest.param("ijp,p->ij", (_M,), _pair_index(_N, True), 0, id="ijp,p->ij-upper"),
    ],
)
def test_take_is_bitwise_the_one_hot_product_it_replaced(spec, shape, index, axis):
    rng = np.random.default_rng(37)
    x = rng.normal(size=shape)
    hot = (index[..., None] == np.arange(shape[axis])).astype(np.float64)  # (n, n, pairs)
    weights = rng.normal(size=shape[:axis] + index.shape + shape[axis + 1 :])

    def run(op):
        tape, store = Tape(), ParameterStore()
        store.add_value("x", x)
        node = tape.parameter(store, "x")
        out = op(tape, node)
        out._backward(weights)  # the op's own backward, which leaves the operand's gradient on it
        return out.value, node.grad

    if spec.startswith("ijp"):
        expected = run(lambda tape, node: tape.contract(spec, tape.constant(hot), node))
    else:
        expected = run(lambda tape, node: tape.contract(spec, node, tape.constant(np.moveaxis(hot, -1, 0))))
    value, grad = run(lambda tape, node: tape.take(node, index, axis))
    assert _same_bits(value, expected[0]) and _same_bits(grad, expected[1])


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.data(),
    st.sampled_from([np.int64, np.int32, np.uint8, np.uint64]),
    st.integers(0, 2**32 - 1),
)
def test_take_matches_numpy_and_finite_differences_on_random_indices(shape, data, dtype, seed):
    given_axis = data.draw(st.integers(-len(shape), len(shape) - 1))  # a negative axis counts from the end
    axis = given_axis % len(shape)
    n, head, tail = shape[axis], tuple(shape[:axis]), tuple(shape[axis + 1 :])
    reads = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=5))
    reads += [n, reads[0]]  # the zero, and a repeat
    index = np.array(reads, dtype=dtype).reshape(data.draw(st.sampled_from([(-1,), (1, -1), (-1, 1)])))
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    x = store.add_value("x", rng.normal(size=shape))
    weights = rng.normal(size=head + index.shape + tail)

    def build(tape):
        out = tape.take(tape.parameter(store, "x"), index, given_axis)
        padded = np.concatenate((x, np.zeros(head + (1,) + tail)), axis)
        assert _same_bits(out.value, np.take(padded, index, axis))
        sub = "abcde"[: out.value.ndim]
        return tape.contract(f"{sub},{sub}->", out, tape.constant(weights))

    assert _grad_error(store, build) < 1e-8
    # each entry's reads summed in order into zeros, as np.add.at sums them
    g = np.moveaxis(weights.reshape(head + (-1,) + tail), axis, 0)
    summed = np.zeros((n + 1,) + g.shape[1:])
    np.add.at(summed, index.reshape(-1).astype(np.int64), g)
    assert _same_bits(store.grad("x"), np.moveaxis(summed[:n], 0, axis))


@st.composite
def _contractions(draw):
    """(spec, shapes, storage orders): 2 or 3 operands over up to 5 indices of
    sizes 1-4, each operand stored in a random axis order and read through a view."""
    letters = "abcde"[: draw(st.integers(1, 5))]
    sizes = {c: draw(st.integers(1, 4)) for c in letters}
    ins = [
        "".join(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=len(letters), unique=True)))
        for _ in range(draw(st.integers(2, 3)))
    ]
    once = [c for c in letters if sum(c in sub for sub in ins) == 1]
    shared = [c for c in letters if sum(c in sub for sub in ins) > 1]
    out = draw(st.permutations(once + draw(st.lists(st.sampled_from(shared), unique=True)) if shared else once))
    orders = [draw(st.permutations(range(len(sub)))) for sub in ins]
    return ",".join(ins) + "->" + "".join(out), [tuple(sizes[c] for c in sub) for sub in ins], orders


@settings(max_examples=60, deadline=None)
@given(_contractions(), st.integers(0, 2**32 - 1))
@example(("abdce,b,a->cde", [(2, 4, 4, 4, 4), (4,), (2,)], [(0, 1, 2, 3, 4), (0,), (0,)]), 0)
def test_contract_matches_einsum_and_finite_differences_on_random_specs(case, seed):
    spec, shapes, orders = case
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    for k, (shape, order) in enumerate(zip(shapes, orders)):
        store.add_value(f"x{k}", rng.normal(size=[shape[a] for a in order]))
    weights = rng.normal(size=np.einsum(spec, *(np.ones(shape) for shape in shapes)).shape)

    def build(tape):
        nodes = [
            _permuted(tape, tape.parameter(store, f"x{k}"), np.argsort(order)) for k, order in enumerate(orders)
        ]
        out = tape.contract(spec, *nodes)
        if tape.record:
            xs = [node.value for node in nodes]
            bound = 1e-12 * np.einsum(spec, *(np.abs(x) for x in xs))
            assert np.all(np.abs(out.value - np.einsum(spec, *xs)) <= bound)
        sub = spec.split("->")[1]
        return tape.contract(f"{sub},{sub}->", out, tape.constant(weights)) if sub else out

    # every operand is a distinct leaf, so the loss is linear in each stored entry and a central
    # difference has no truncation error at any step; a unit step keeps its rounding error small
    assert _grad_error(store, build, eps=1.0) < 1e-8


@settings(max_examples=300, deadline=None, database=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 40), st.integers(1, 48)),
    layout=st.sampled_from(["C", "Fortran", "strided", "moveaxis"]),
    reach=st.integers(0, 150),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(1, 7, 1), layout="C", reach=150, seed=0)
def test_a_gram_matrix_is_bitwise_symmetric(shape, layout, reach, seed):
    # FM, FwFM, IPNN, CIN2 and the SAM2 grids read S_ij and S_ji off one Gram node with no symmetrizing:
    # the product of E with a transposed view of its own buffer is syrk, which mirrors one triangle, or
    # numpy's own loop where BLAS cannot read the layout, which adds the same products in the same order
    # for (i, j) and (j, i); entries span 10**-reach to 10**reach
    rng = np.random.default_rng(seed)
    b, n, d = shape

    def draw(size):
        return rng.normal(size=size) * 10.0 ** rng.uniform(-reach, reach, size=size)

    E = {
        "C": lambda: draw(shape),
        "Fortran": lambda: np.asfortranarray(draw(shape)),
        "strided": lambda: draw((2 * b, 2 * n, 3 * d))[::2, 1::2, ::3],
        "moveaxis": lambda: np.moveaxis(draw((n, d, b)), -1, 0),
    }[layout]()
    tape = Tape()
    fields = tape.constant(E)
    assert fields.value is E  # the layout the op reads
    gram = tape.contract("bid,bjd->bij", fields, fields).value
    assert gram.shape == (b, n, n) and _same_bits(gram, gram.transpose(0, 2, 1))


@settings(max_examples=80, deadline=None, database=None)
@given(
    lead=st.lists(st.integers(0, 4), max_size=2),
    n=st.integers(1, 5),
    transposed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_softmax_is_bitwise_the_masked_max_formula(lead, n, transposed, seed):
    # referee: the `np.max` and `exp` formula over the last axis, which the contiguous max must equal bit
    # for bit on ranks 1 to 3, read in C order or, `transposed`, as the reversed view of a C-order slot
    rng = np.random.default_rng(seed)
    shape = (*lead, n)
    reverse = tuple(reversed(range(len(shape))))
    store = ParameterStore()
    store.add_value("s", rng.normal(scale=30.0, size=shape[::-1] if transposed else shape))
    v = store.value("s").transpose(reverse) if transposed else store.value("s")  # the layout the op reads
    weights = rng.normal(size=shape)
    e = np.exp(v - np.max(v, axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    want_grad = want * (weights - np.sum(weights * want, axis=-1, keepdims=True))

    store.zero_grads()
    tape = Tape()
    x = tape.parameter(store, "s")
    p = tape.softmax(_permuted(tape, x, reverse) if transposed else x)
    axes = "abc"[: len(shape)]
    tape.backward(_total(tape, tape.contract(f"{axes},{axes}->{axes}", p, tape.constant(weights))))
    assert p.value.tobytes() == want.tobytes()
    # added into a zeroed gradient buffer, which turns a -0.0 into 0.0
    assert store.grad("s").tobytes() == (0.0 + (want_grad.transpose(reverse) if transposed else want_grad)).tobytes()


@pytest.mark.parametrize("name", ["AFM", "AutoInt", "SAM3_A", "SAM3_E"])
def test_an_empty_batch_reaches_the_loss_through_the_softmax(name):
    model = build_model(ModelSpec(name, FieldSchema.of_sizes([3, 4, 5]), d=2))
    indices, labels = random_batch(model.schema, 0)
    assert model.forward(indices).shape == (0,)
    with pytest.raises(DomainError, match="log-loss of an empty batch"):
        model.loss(indices, labels)


@settings(max_examples=30, deadline=None, database=None)
@given(
    n=st.integers(2, 6),
    b=st.integers(1, 5),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_tensor_fi_forward_matches_the_double_loop_oracles(n, b, d, seed):
    rng = np.random.default_rng(seed)
    f = make_fields(rng, n=n, b=b, d=d)
    store = make_slots(rng, n=n, d=d)
    params = {name: store.value(name) for name in store.names()}
    for name in MODEL_NAMES:
        cfg = fi_catalog(name)
        if cfg.field_aware:
            aware = {(i, j): rng.normal(size=(b, d)) for i in range(n) for j in range(n) if i != j}
            got, want = run_config(cfg, None, ParameterStore(), aware=aware), oracle_ffm_pairs(aware, n)
            # the per-field form sums the ordered pairs, each pair i < j twice
            np.testing.assert_allclose(sum(got), 0.5 * sum(oracle_ffm(aware, n)), rtol=0, atol=1e-12)
        else:
            got, want = run_config(cfg, f, slots_for(cfg, store)), ORACLES[name](f, params)
        if name in PER_FIELD:
            oracle, share = PER_FIELD[name]
            np.testing.assert_allclose(sum(got), share * sum(oracle(f, params)), rtol=0, atol=1e-12)
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# checkpoint loading


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"slots": {}}',
        '{"format": "ctrzoo-params-v1"}',
        '{"format": "ctrzoo-params-v1", "slots": {"w": {"values": [1.0], "trainable": true}}}',
        '{"format": "ctrzoo-params-v1", "slots": {"w": {"shape": [2, 2], "values": [1.0], "trainable": true}}}',
        '{"format": "ctrzoo-params-v1", "slots": {"w": {"shape": [1], "values": [1.0], "trainable": false}}}',
        '{"format": "ctrzoo-params-v1", "seed": "abc", "slots": {}}',
        '{"format": "ctrzoo-params-v1", "seed": -1, "slots": {}}',
    ],
)
def test_store_load_rejects_malformed_checkpoints_as_data_errors(tmp_path, text):
    path = tmp_path / "params.json"
    path.write_text(text)
    with pytest.raises(DataError, match="params.json"):
        ParameterStore.load(path)


def _one_slot(version, shape, floats, **entries):
    """A checkpoint of one slot "w" holding `floats`, its entries then replaced by `entries`."""
    slot = {"shape": shape, "trainable": True, **({"values": floats} if version == 1 else _v2(floats)), **entries}
    return json.dumps({"format": f"ctrzoo-params-v{version}", "seed": 0, "slots": {"w": slot}})


_B64_2 = _v2([1.5, -2.0])["values"]  # "AAAAAAAA+D8AAAAAAAAAwA=="


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(_one_slot(2, [2], [1.5, -2.0], values=[1.5, -2.0]), id="values-a-list"),
        pytest.param(_one_slot(2, [2], [1.5, -2.0], values=_B64_2.replace("+", "*")), id="non-base64-character"),
        pytest.param(_one_slot(2, [2], [1.5, -2.0], values=_B64_2.replace("D8", "D\u00e98")), id="non-ascii"),
        pytest.param(_one_slot(2, [2], [1.5, -2.0], values=_B64_2[:-1]), id="bad-padding"),
        pytest.param(_one_slot(2, [2], [1.5, -2.0], values=_B64_2 + "AA=="), id="padding-inside"),
        pytest.param(_one_slot(2, [2], [1.5]), id="8-bytes-too-few"),
        pytest.param(_one_slot(2, [2], [1.5, -2.0, 3.0]), id="8-bytes-too-many"),
        pytest.param(_one_slot(2, [2], [], values="AAAA" * 5, crc32=zlib.crc32(bytes(15))), id="15-bytes"),
        pytest.param(_one_slot(2, [2], [1.5, np.nan]), id="nan"),
        pytest.param(_one_slot(2, [1], [-np.inf]), id="inf"),
        pytest.param(_one_slot(2, [2], [1.5, -2.0], values=_B64_2.replace("D8", "D9")), id="crc32-mismatch"),
        pytest.param(_one_slot(2, [2], [1.5, -2.0], crc32=None), id="crc32-null"),
        pytest.param(_one_slot(2, [2], [1.5, -2.0], crc32=str(_v2([1.5, -2.0])["crc32"])), id="crc32-a-string"),
    ],
)
def test_store_load_rejects_malformed_v2_values_naming_the_file_and_slot(tmp_path, text):
    path = tmp_path / "params.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=r"params\.json: .*slot 'w'"):
        ParameterStore.load(path)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("shape", [[-1, 2], [2, -1], [-4], [2.0, 2], [True, 4], "4", 4, None, {"rows": 4}], ids=json.dumps)
def test_store_load_rejects_a_shape_that_is_not_a_list_of_non_negative_integers(tmp_path, version, shape):
    # numpy would infer a -1 axis, and read a bare 4 as (4,)
    path = tmp_path / "params.json"
    path.write_text(_one_slot(version, shape, [1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(DataError, match=r"params\.json: slot 'w' shape is not a list of non-negative integers"):
        ParameterStore.load(path)


def test_store_load_lays_out_the_slots_in_sorted_order_whatever_the_file_order(tmp_path):
    slots = {name: {"shape": [1], "trainable": True, **_v2([k])} for k, name in enumerate("cab")}
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"format": "ctrzoo-params-v2", "seed": 0, "slots": slots}))
    store = ParameterStore.load(path)
    assert store.names() == ["a", "b", "c"] and store.values.tolist() == [1.0, 2.0, 0.0]


# ---------------------------------------------------------------------------
# process memory


def test_keep_freed_memory_sets_both_glibc_thresholds():
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    assert keep_freed_memory(libc)
    assert calls == [(-3, 32 << 20), (-1, 1 << 30)]  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
    if platform.libc_ver()[0] == "glibc":
        assert keep_freed_memory(tape_module._LIBC)


def test_keep_freed_memory_is_a_silent_no_op_without_glibc():
    calls = []
    refusing = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 0)
    assert not keep_freed_memory(refusing)
    assert calls == [(-3, 32 << 20)]  # nothing more after a refusal
    assert not keep_freed_memory(SimpleNamespace())  # no mallopt symbol
    assert not keep_freed_memory(None)  # no C library


def test_release_memory_trims_the_heap_where_it_can(monkeypatch):
    trims = []
    monkeypatch.setattr(tape_module, "_LIBC", SimpleNamespace(malloc_trim=trims.append))
    release_memory()
    assert trims == [0]
    for libc in (SimpleNamespace(), None):
        monkeypatch.setattr(tape_module, "_LIBC", libc)
        release_memory()  # no malloc_trim: nothing to do, and no error
