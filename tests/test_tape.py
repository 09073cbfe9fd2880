"""Math kernel tests: pure ops, the reverse-mode tape, and parameter storage."""

import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrzoo.errors import ContractError, DataError, DomainError, NumericError, ShapeError
from ctrzoo.interaction import MODEL_NAMES, fi_catalog
from ctrzoo.tape import ParameterStore, Tape, finite_diff_check, sigmoid, xavier_uniform
from test_interaction import ORACLES, make_fields, make_slots, oracle_ffm, run_config


# ---------------------------------------------------------------------------
# pure ops


def _values(op, *arrays):
    """Value of the tape op named `op` applied to constants."""
    tape = Tape()
    return getattr(tape, op)(*(tape.constant(np.asarray(a, dtype=np.float64)) for a in arrays)).value


def test_inner_hand_value():
    assert _values("inner", [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_inner_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        _values("inner", [1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        _values("inner", np.ones((2, 3)), np.ones((3, 2)))


def test_hadamard_hand_value():
    np.testing.assert_array_equal(_values("mul", [2.0, 3.0], [4.0, 5.0]), [8.0, 15.0])


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
        return tape.inner(w, w)

    _run_backward(build, store)
    np.testing.assert_array_equal(store.grad("w"), [2.0, -4.0, 6.0])


def test_backward_twice_doubles_buffers_exactly():
    store = ParameterStore(seed=5)
    store.add_xavier("w", (4,))

    def build(tape):
        w = tape.parameter(store, "w")
        return _total(tape, tape.mul(w, w))

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
        rows = tape.reshape(tape.lookup(store, ["table"], np.array([0, 0, 1])[:, None]), (3, 2))
        return _total(tape, rows)

    _run_backward(build, store)
    np.testing.assert_array_equal(store.grad("table"), [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])


def test_lookup_untouched_rows_get_exact_zero_gradient():
    store = ParameterStore(seed=1)
    store.add_xavier("table", (5, 3))

    def build(tape):
        rows = tape.reshape(tape.lookup(store, ["table"], np.array([1, 3])[:, None]), (2, 3))
        return _total(tape, tape.mul(rows, rows))

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
        tape.lookup(store, ["table"], np.array([0, 3])[:, None])
    with pytest.raises(DomainError):
        tape.lookup(store, ["table"], np.array([-1])[:, None])
    with pytest.raises(ShapeError):
        tape.lookup(store, ["table"], np.array([0.5, 1.0])[:, None])


def test_lookup_index_snapshot_is_defensive():
    store = ParameterStore()
    store.add_zeros("table", (3, 2))
    idx = np.array([0, 1])
    tape = Tape()
    rows = tape.lookup(store, ["table"], idx[:, None])
    idx[0] = 2  # caller mutates after the fact
    root = _total(tape, rows)
    tape.backward(root)
    np.testing.assert_array_equal(store.grad("table")[:, 0], [1.0, 1.0, 0.0])


@settings(max_examples=60, deadline=None, database=None)
@given(
    b=st.integers(0, 9),
    rows=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    d=st.integers(1, 4),
    blank=st.integers(0, 4),
    slot_major=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lookup_scatter_is_bitwise_np_add_at(b, rows, d, blank, slot_major, seed):
    # referee: each table's gradient is np.add.at of its column into zeros
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    names = [f"t{j}" for j in range(len(rows))]
    for name, size in zip(names, rows):
        store.add_value(name, rng.normal(size=(size, d)))
    blank = min(blank, len(names))
    names.insert(blank, None)
    # indices from a range no wider than the batch, so rows repeat
    idx = np.stack([rng.integers(0, min(size, max(b // 2, 1)), size=b) for size in rows], axis=1)
    idx = np.insert(idx, blank, rng.integers(0, 3, size=b), axis=1)
    weights = rng.normal(size=(b, len(names), d))

    store.zero_grads()
    tape = Tape()
    looked_up = tape.lookup(store, names, idx, slot_major=slot_major)
    root = _total(tape, tape.mul(looked_up, tape.constant(weights)))
    tape.backward(root)

    value = looked_up.value
    assert value.shape == (b, len(names), d)
    assert (value.transpose(1, 0, 2) if slot_major else value).flags.c_contiguous
    np.testing.assert_array_equal(value[:, blank], np.zeros((b, d)))
    once = {}
    for j, name in enumerate(names):
        if name is None:
            continue
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


def test_take_repeats_negative_indices_into_one_gradient_row():
    store = ParameterStore(seed=3)
    store.add_xavier("x", (2, 4, 3))
    idx = np.array([[-1, 3], [0, -4]])  # -1 is 3 and -4 is 0, so both rows repeat
    weights = np.random.default_rng(4).normal(size=(2, 2, 2, 3))

    def build(tape):
        picked = tape.take(tape.parameter(store, "x"), idx, axis=1)  # (2, 2, 2, 3)
        return _total(tape, tape.mul(picked, tape.constant(weights)))

    _run_backward(build, store)
    want = np.zeros((2, 4, 3))
    np.add.at(want, (slice(None), idx), weights)
    assert store.grad("x").tobytes() == want.tobytes()


def test_clip_gradient_passes_only_strictly_inside():
    store = ParameterStore()
    store.add_value("w", [-2.0, 0.5, 3.0])

    def build(tape):
        w = tape.parameter(store, "w")
        return _total(tape, tape.clip(w, 0.0, 1.0))

    _run_backward(build, store)
    np.testing.assert_array_equal(store.grad("w"), [0.0, 1.0, 0.0])


def test_log_rejects_nonpositive():
    tape = Tape()
    x = tape.constant(np.array([1.0, 0.0]))
    with pytest.raises(NumericError):
        tape.log(x)


def test_tape_rejects_nonfinite_result():
    tape = Tape()
    with pytest.raises(NumericError):
        tape.constant(np.array([np.inf]))


def test_dropout_zero_rate_is_identity():
    tape = Tape()
    x = tape.constant(np.ones((2, 3)))
    assert tape.dropout(x, 0.0, np.random.default_rng(0)) is x


def test_dropout_mask_values_are_inverted_scale():
    tape = Tape()
    x = tape.constant(np.ones((64, 8)))
    out = tape.dropout(x, 0.25, np.random.default_rng(3))
    vals = np.unique(out.value)
    np.testing.assert_allclose(vals, [0.0, 1.0 / 0.75], rtol=0, atol=1e-15)


def test_dropout_rate_bounds():
    tape = Tape()
    x = tape.constant(np.ones(4))
    with pytest.raises(DomainError):
        tape.dropout(x, 1.0, np.random.default_rng(0))


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
    out = tape.inner(tape.constant(a), tape.constant(b))
    np.testing.assert_allclose(out.value, (a * b).sum(axis=1), rtol=0, atol=1e-14)


def test_shape_guards_on_binary_ops():
    tape = Tape()
    a = tape.constant(np.ones((2, 3)))
    b = tape.constant(np.ones((3, 2)))
    for op in (tape.add, tape.sub, tape.mul):
        with pytest.raises(ShapeError):
            op(a, b)
    with pytest.raises(ShapeError):
        tape.matmul(a, tape.constant(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        tape.reshape(a, (2,))


# ---------------------------------------------------------------------------
# finite differences


def test_linear_function_checks_at_machine_precision():
    store = ParameterStore()
    store.add_value("w", [0.3, -1.2, 0.9])
    c = np.array([2.0, 0.5, -1.5])

    def build(tape):
        return tape.inner(tape.parameter(store, "w"), tape.constant(c))

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
        x = tape.reshape(tape.lookup(store, ["table"], idx[:, None]), (4, 3))
        y = tape.linear_map(tape.parameter(store, "m"), x)  # (4, 2)
        y = tape.add(y, tape.parameter(store, "b"))
        y = tape.sigmoid(y)
        p = tape.softmax(y)  # rows sum to one
        z = tape.mul(p, y)
        col = tape.reshape(tape.take(z, [0], axis=1), (4,))  # column 0
        pooled = tape.inner(col, tape.parameter(store, "v"))  # 0-d
        total = _total(tape, tape.log(p))
        total = tape.add(total, pooled)
        total = tape.mul(total, tape.parameter(store, "s"))  # 0-d times 0-d
        total = tape.add(total, tape.parameter(store, "shift"))
        # the mean of total and 2 * total
        return tape.scale_const(tape.add(total, tape.scale_const(total, 2.0)), 0.5)

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
        h = tape.matmul(a, tape.parameter(store, "w"))
        guard = np.abs(h.value)
        assert np.all(guard > 1e-2)
        h = tape.relu(h)
        # [h | a] along the last axis: each block times a constant selector
        left, right = np.eye(4)[:2], np.eye(4)[2:]
        both = tape.add(tape.matmul(h, tape.constant(left)), tape.matmul(a, tape.constant(right)))
        s = tape.mul(tape.reshape(tape.constant(np.array([0.9, 1.1])), (2, 1)), both)
        # outer product of a batch scalar and a fixed vector
        vec = tape.mul(
            tape.reshape(tape.constant(np.array([1.0, 2.0])), (2, 1)),
            tape.reshape(tape.constant(np.array([0.3, 0.4, 0.5, 0.6])), (1, 4)),
        )
        return _total(tape, tape.mul(tape.sub(s, vec), s))

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
        return tape.inner(w, w)

    def f():
        return float(build(Tape()).value)

    store.zero_grads()
    tape = Tape()
    tape.backward(build(tape))
    store.grad("w")[0] += 0.05
    assert finite_diff_check(f, store, eps=1e-5) > 1e-2


def test_finite_diff_step_must_be_positive():
    store = ParameterStore()
    store.add_value("w", [1.0])
    with pytest.raises(DomainError):
        finite_diff_check(lambda: 0.0, store, eps=0.0)


# ---------------------------------------------------------------------------
# whole-tensor ops used by the FI kernel


def _grad_error(store, build):
    """Max relative gap between tape gradients and central differences."""
    store.zero_grads()
    tape = Tape()
    tape.backward(build(tape))
    return finite_diff_check(lambda: float(build(Tape()).value), store, eps=1e-6)


def test_broadcast_binary_ops_check_against_finite_differences():
    store = ParameterStore(seed=21)
    store.add_xavier("a", (2, 3, 1, 2))
    store.add_xavier("b", (2, 1, 3, 2))
    store.add_xavier("c", (1, 3, 1, 1))
    store.add_xavier("bias", (2,))
    store.add_value("shift", np.array(0.3))

    def build(tape):
        a, b, c = (tape.parameter(store, k) for k in "abc")
        bias, shift = tape.parameter(store, "bias"), tape.parameter(store, "shift")
        prod = tape.mul(a, b)  # (2, 3, 3, 2) grid of pair products
        prod = tape.sub(tape.add(prod, bias), shift)  # a (d,) bias and a 0-d shift
        scaled = tape.mul(bias, tape.mul(prod, shift))  # lower-rank factors on either side
        return _total(tape, tape.mul(tape.sub(tape.add(scaled, c), c), tape.add(prod, c)))

    assert _grad_error(store, build) < 1e-8


def test_broadcast_needs_equal_ranks():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.add(tape.constant(np.ones((3,))), tape.constant(np.ones((3, 1))))
    with pytest.raises(ShapeError):
        tape.add(tape.constant(np.ones((2,))), tape.constant(np.ones((2, 3))))


def test_batched_matmul_checks_against_finite_differences():
    store = ParameterStore(seed=22)
    store.add_xavier("e", (2, 3, 4))
    store.add_xavier("k", (4, 4))
    store.add_xavier("v", (3, 3, 2))

    def build(tape):
        e = tape.parameter(store, "e")
        s = tape.matmul(e, tape.transpose(tape.matmul(e, tape.parameter(store, "k")), (0, 2, 1)))
        per_field = tape.matmul(tape.transpose(s, (1, 0, 2)), tape.parameter(store, "v"))
        mixed = tape.matmul(s, e)  # (2, 3, 3) @ (2, 3, 4)
        return tape.add(_total(tape, tape.mul(per_field, per_field)), _total(tape, mixed))

    assert _grad_error(store, build) < 1e-8


def test_matmul_rejects_mismatched_batch_axes():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.matmul(tape.constant(np.ones((2, 3, 4))), tape.constant(np.ones((3, 4, 2))))


def test_shape_plumbing_checks_against_finite_differences():
    store = ParameterStore(seed=23)
    store.add_xavier("x", (2, 3, 4))
    store.add_xavier("t", (5,))
    store.add_xavier("m", (3, 4))
    store.add_xavier("b", (3,))
    store.add_xavier("h", (3,))

    def build(tape):
        x = tape.parameter(store, "x")
        y = tape.reshape(tape.transpose(x, (2, 0, 1)), (4, 6))
        picked = tape.take(y, [5, 0, 5, 2], axis=1)  # a repeated column
        rows = tape.take(tape.parameter(store, "t"), np.array([[0, 4], [4, 1]]), axis=0)
        # x and 2 * x along a new axis 1: (2, 2, 3, 4)
        twice = tape.constant(np.reshape([1.0, 2.0], (1, 2, 1, 1)))
        stacked = tape.mul(tape.reshape(x, (2, 1, 3, 4)), twice)
        mapped = tape.linear_map(tape.parameter(store, "m"), stacked)  # (2, 2, 3, 3)
        hidden = tape.relu(tape.add(mapped, tape.parameter(store, "b")))
        scores = tape.inner(hidden, tape.parameter(store, "h"))  # (2, 2, 3)
        total = tape.add(_total(tape, tape.mul(picked, picked)), _total(tape, tape.mul(rows, rows)))
        return tape.add(total, _total(tape, tape.sum_axis(scores, (0, 2))))

    assert _grad_error(store, build) < 1e-8


def test_take_rejects_out_of_range_indices():
    tape = Tape()
    with pytest.raises(DomainError):
        tape.take(tape.constant(np.ones((2, 3))), [3], axis=1)


def test_einsum_checks_every_operand_against_finite_differences():
    store = ParameterStore(seed=25)
    store.add_xavier("e", (2, 3, 4))
    store.add_xavier("w", (3, 3, 4))
    store.add_xavier("s", (2, 3, 3))
    store.add_xavier("v", (4,))

    def build(tape):
        e, w, s, v = (tape.parameter(store, k) for k in "ewsv")
        # e passed twice in one op, and again with a vector
        pairs = tape.einsum("bik,ijk,bjk->bij", e, w, e)
        square = tape.einsum("bik,ijk,bik->bij", e, w, e)
        read = tape.einsum("bij,bij->b", s, tape.add(pairs, square))
        lengths = tape.einsum("bik,k->bi", e, v)
        return tape.einsum("b,b->", read, tape.einsum("bi,bi->b", lengths, lengths))

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
        tape.einsum(spec, *(tape.constant(np.ones(shape)) for shape in shapes))


def test_einsum_rejects_a_non_finite_result():
    tape = Tape()
    big = tape.constant(np.full((2, 3), 1e200))
    with pytest.raises(NumericError):
        tape.einsum("bi,bi->b", big, big)


def test_masked_softmax_checks_against_finite_differences():
    store = ParameterStore(seed=24)
    store.add_xavier("s", (2, 3, 3))
    store.add_xavier("u", (2, 3, 3))
    others = ~np.eye(3, dtype=bool)[None]

    def build(tape):
        s, u = tape.parameter(store, "s"), tape.parameter(store, "u")
        rows = tape.softmax(s, axis=-1, mask=others)
        joint = tape.softmax(s, axis=(1, 2), mask=others)
        return _total(tape, tape.mul(tape.add(rows, joint), u))

    assert _grad_error(store, build) < 1e-8


def test_masked_entry_gets_exactly_zero_weight_whatever_its_score():
    store = ParameterStore()
    store.add_value("s", [[1e300, 0.5, -0.25], [2.0, -1e300, 1e3]])
    mask = np.array([[False, True, True], [True, True, False]])
    tape = Tape()
    p = tape.softmax(tape.parameter(store, "s"), mask=mask)
    assert p.value[0, 0] == 0.0 and p.value[1, 2] == 0.0
    np.testing.assert_allclose(p.value.sum(axis=1), [1.0, 1.0], rtol=0, atol=1e-15)
    # and no gradient flows back to the masked scores
    store.zero_grads()
    tape.backward(_total(tape, tape.mul(p, tape.constant(np.arange(6.0).reshape(2, 3)))))
    assert store.grad("s")[0, 0] == 0.0 and store.grad("s")[1, 2] == 0.0


def test_fully_masked_row_is_a_domain_error():
    tape = Tape()
    x = tape.constant(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        tape.softmax(x, mask=np.array([[True, False, False], [False, False, False]]))
    with pytest.raises(DomainError):
        tape.softmax(tape.constant(np.zeros((1, 2, 2))), axis=(1, 2), mask=np.zeros((1, 2, 2), bool))


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
            got, want = run_config(cfg, None, ParameterStore(), aware=aware), oracle_ffm(aware, n)
        else:
            slots = store
            if cfg.utility == "scalar_pair_sym":
                slots = ParameterStore()
                slots.add_value("fi.pairw", params["fi.pairw_sym"])
            got, want = run_config(cfg, f, slots), ORACLES[name](f, params)
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
