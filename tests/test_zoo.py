"""Model zoo tests: builds, forward passes, closed forms, complexity counts."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from ctrzoo.data import FieldSchema
from ctrzoo.errors import CatalogError, ConfigError, ContractError, DomainError, NumericError
from ctrzoo.interaction import MODEL_NAMES, grid_size
from ctrzoo.tape import Tape
from ctrzoo.zoo import (
    ComplexityReport,
    Model,
    ModelSpec,
    build_model,
    count_complexity,
    gradient_check,
    random_batch,
)
from test_interaction import oracle_afm_pairs

SCHEMA = FieldSchema.of_sizes([5, 7, 4, 6])
BATCH, _LABELS = random_batch(SCHEMA, 6, seed=0)


def small_spec(name, **kw):
    kw.setdefault("d", 3)
    kw.setdefault("mlp_hidden", (8, 4))
    return ModelSpec(name, SCHEMA, **kw)


# ---------------------------------------------------------------------------
# construction and forward shapes


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_model_builds_and_scores(name):
    model = build_model(small_spec(name), seed=1)
    logits = model.forward(BATCH)
    assert logits.shape == (6,)
    assert np.all(np.isfinite(logits))
    probs = model.predict(BATCH)
    assert np.all((probs > 0.0) & (probs < 1.0))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_same_seed_builds_are_bit_identical(name):
    a = build_model(small_spec(name), seed=7)
    b = build_model(small_spec(name), seed=7)
    assert a.store.names() == b.store.names()
    for slot_name in a.store.names():
        np.testing.assert_array_equal(a.store.value(slot_name), b.store.value(slot_name))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_zeroed_parameters_give_even_odds(name):
    model = build_model(small_spec(name), seed=2)
    for slot in model.store.slots():
        slot.value[...] = 0.0
    np.testing.assert_array_equal(model.forward(BATCH), np.zeros(6))
    np.testing.assert_array_equal(model.predict(BATCH), np.full(6, 0.5))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_loss_tape_grows_by_at_most_one_node_per_lookup(name):
    size, lookups = {}, {}
    for n in (3, 8):
        schema = FieldSchema.of_sizes([4] * n)
        model = build_model(ModelSpec(name, schema, d=3, layers=2, mlp_hidden=(8, 4)), seed=0)
        indices, labels = random_batch(schema, 5, seed=0)
        tape = Tape()
        model.loss_node(tape, indices, labels)
        size[n] = len(tape)
        tables = n * (n - 1) if model.cfg.field_aware else n
        lookups[n] = tables + (n if model.spec.use_linear else 0)
    assert size[8] - size[3] <= lookups[8] - lookups[3]


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_loss_tape_is_the_logit_tape_plus_one_node(name):
    model = build_model(small_spec(name), seed=0)
    logit_tape, loss_tape = Tape(), Tape()
    model.logit_node(logit_tape, BATCH)
    model.loss_node(loss_tape, BATCH, _LABELS)
    assert len(loss_tape) == len(logit_tape) + 1
    with pytest.raises(DomainError):
        model.loss_node(Tape(record=False), BATCH[:0], _LABELS[:0])


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_a_tape_that_records_no_backward_gives_the_same_bits(name):
    model = build_model(small_spec(name, layers=2), seed=4)
    tapes = {record: Tape(record=record) for record in (True, False)}
    logits = {r: model.logit_node(t, BATCH).value.tobytes() for r, t in tapes.items()}
    losses = {r: model.loss_node(t, BATCH, _LABELS).value.tobytes() for r, t in tapes.items()}
    assert logits[True] == logits[False] and losses[True] == losses[False]
    assert len(tapes[True]) == len(tapes[False])
    assert model.forward(BATCH).tobytes() == logits[True]


@pytest.mark.parametrize("record", [True, False])
def test_a_non_finite_slot_entry_is_a_numeric_error_on_either_tape(record):
    for bad in (np.nan, np.inf, -np.inf):
        for name in ("FM", "DeepFM-deep"):
            model = build_model(small_spec(name), seed=0)
            model.store.values[-1] = bad  # the last slot: the head's bias, or FM's global bias
            with pytest.raises(NumericError):
                model.logit_node(Tape(record=record), BATCH)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize(
    "name, planted, named",
    [
        ("FM", ["emb.3", "emb.2"], "emb.2"),
        # FFM's second lookup leaf, the j side of the pairs i < j, spans emb.2.0 and emb.2.1 in that order
        ("FFM", ["emb.2.1", "emb.2.0"], "emb.2.0"),
    ],
)
def test_a_non_finite_table_entry_names_the_first_slot_holding_one(name, planted, named, record):
    model = build_model(small_spec(name), seed=0)
    for slot in planted:  # in the table's last row, which a batch need not read
        model.store.value(slot)[-1, 0] = np.nan
    with pytest.raises(NumericError, match=f"^non-finite value produced on tape by parameter: slot '{named}'$"):
        model.logit_node(Tape(record=record), BATCH)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_loss_tape_size_is_independent_of_field_count(name):
    size = {}
    for n in (3, 8):
        schema = FieldSchema.of_sizes([4] * n)
        model = build_model(ModelSpec(name, schema, d=3, layers=2, mlp_hidden=(8, 4)), seed=0)
        indices, labels = random_batch(schema, 5, seed=0)
        tape = Tape()
        model.loss_node(tape, indices, labels)
        size[n] = len(tape)
    assert size[3] == size[8]


@pytest.mark.parametrize(
    "name, upper_only",
    [("SAM2_A", False), ("SAM2_A", True), ("SAM2_E", False), ("SAM2_E", True), ("FFM", False), ("AFM", False)],
)
def test_pair_models_hold_no_per_pair_vectors_beyond_the_pairs_i_below_j(name, upper_only):
    n, d, b = 5, 3, 6
    schema = FieldSchema.of_sizes([4] * n)
    kw = {"sam2_upper_only": upper_only} if name.startswith("SAM2") else {}
    model = build_model(ModelSpec(name, schema, d=d, **kw), seed=0)
    indices, labels = random_batch(schema, b, seed=0)
    tape = Tape()
    model.loss_node(tape, indices, labels)
    shapes = {node.value.shape for node in tape._nodes}
    pairs = grid_size(model.cfg, n)
    assert (b, n, n, d) not in shapes
    if name.startswith("SAM2"):
        assert not {(b, pairs, d), (b, pairs * d)} & shapes
    else:
        # (B, k, d) values with more rows than fields hold one row per pair i < j
        rows = {shape[1] for shape in shapes if len(shape) == 3 and shape[0] == b and shape[1] > n}
        assert rows == {n * (n - 1) // 2}


def test_forward_chunking_is_invisible():
    # records are scored independently; chunk size only changes how the
    # matrix products are blocked, which moves results by at most an ulp
    model = build_model(small_spec("AutoInt"), seed=3)
    indices, _ = random_batch(SCHEMA, 50, seed=5)
    np.testing.assert_allclose(
        model.forward(indices), model.forward(indices, chunk=7), rtol=0, atol=1e-12
    )


def test_ffm_builds_field_aware_tables():
    model = build_model(small_spec("FFM"), seed=0)
    n = SCHEMA.n
    emb_names = [s for s in model.store.names() if s.startswith("emb.")]
    assert len(emb_names) == n * (n - 1)


def test_layered_models_stack_slots_per_layer():
    model = build_model(small_spec("AutoInt", layers=2), seed=0)
    assert "fi.l0.q" in model.store
    assert "fi.l1.q" in model.store
    # layer count only applies to the layered families
    flat = build_model(small_spec("SAM2_A", layers=3), seed=0)
    assert flat.spec.n_layers == 1
    assert "fi.l1.pairvec" not in flat.store


def test_sam3_residual_map_starts_at_zero():
    model = build_model(small_spec("SAM3_A"), seed=1)
    np.testing.assert_array_equal(model.store.value("fi.l0.res"), np.zeros((3, 3)))


def test_upper_triangle_grid_shrinks_the_head():
    full = build_model(small_spec("SAM2_A"), seed=0)
    upper = build_model(small_spec("SAM2_A", sam2_upper_only=True), seed=0)
    n, d = SCHEMA.n, 3
    assert full.store.value("fi.l0.pairvec").shape == (n * n, d)
    assert upper.store.value("fi.l0.pairvec").shape == (n * (n - 1) // 2, d)
    assert upper.forward(BATCH).shape == (6,)


def test_softmax_can_be_disabled_for_raw_similarity():
    for name in ("SAM3_A", "AFM"):
        on = build_model(small_spec(name), seed=4)
        off = build_model(small_spec(name, softmax_enabled=False), seed=4)
        assert not np.allclose(on.forward(BATCH), off.forward(BATCH))
    # AFM without its softmax: sum_p s_p u_p over the pairs i < j, its raw attention scores s
    store = off.store
    f = np.stack([store.value(f"emb.{i}")[BATCH[:, i]] for i in range(SCHEMA.n)])
    params = {"fi." + role: store.value("fi.l0." + role) for role in ("attn_w", "attn_b", "attn_h", "proj_p")}
    want = sum(oracle_afm_pairs(f, params, softmax=False))
    np.testing.assert_allclose(off.forward(BATCH), want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# spec validation and serialization


def test_unknown_model_rejected():
    with pytest.raises(CatalogError):
        ModelSpec("GBDT", SCHEMA)


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        ModelSpec("FM", SCHEMA, d=0)
    with pytest.raises(ConfigError):
        ModelSpec("AutoInt", SCHEMA, layers=0)
    with pytest.raises(ConfigError):
        ModelSpec("IPNN", SCHEMA, mlp_hidden=(16, 0))
    with pytest.raises(ConfigError):
        ModelSpec("IPNN", SCHEMA, dropout=1.5)
    with pytest.raises(ConfigError):
        ModelSpec("AFM", SCHEMA, afm_width=0)
    with pytest.raises(ConfigError):
        ModelSpec("LR", SCHEMA, include_linear=True)


@pytest.mark.parametrize("name", ["FM", "FFM", "FwFM", "AFM"])
def test_pair_models_reject_a_one_field_schema(name):
    with pytest.raises(ConfigError, match=rf"^{name} .*got 1$"):
        ModelSpec(name, FieldSchema.of_sizes([5]))


@pytest.mark.parametrize("name", ["SAM2_A", "SAM2_E"])
def test_upper_only_grid_rejects_a_one_field_schema(name):
    # one field has no pair i < j; the error names the model and the field count
    with pytest.raises(ConfigError, match=rf"^{name} .*got 1$"):
        ModelSpec(name, FieldSchema.of_sizes([5]), sam2_upper_only=True)
    assert build_model(ModelSpec(name, FieldSchema.of_sizes([5]), d=2)).forward([[3]]).shape == (1,)


def test_self_product_only_for_elementwise_models():
    # SAM3_E's softmax weights sum to one, so f_i * f_i would leave its key map unread
    for name in ("FM", "SAM3_E"):
        with pytest.raises(ConfigError, match=name):
            small_spec(name, self_product=True)
    model = build_model(small_spec("SAM2_E", self_product=True), seed=0)
    assert model.forward(BATCH).shape == (6,)


_SLOT_CASES = [(name, {}) for name in MODEL_NAMES] + [
    ("SAM2_A", {"sam2_upper_only": True}),
    ("SAM2_E", {"sam2_upper_only": True}),
    ("SAM2_E", {"self_product": True}),
    ("SAM3_A", {"softmax_enabled": False}),
    ("AutoInt", {"layers": 2}),
    ("SAM3_E", {"layers": 2}),
    ("SAM2_E", {"include_linear": True}),
]


@pytest.mark.parametrize(
    "name, kw", _SLOT_CASES, ids=[name + "".join(f"-{k}={v}" for k, v in kw.items()) for name, kw in _SLOT_CASES]
)
def test_every_created_slot_is_read(name, kw):
    # a slot no forward reads passes a gradient check (0 == 0), so ask for a gradient
    model = build_model(small_spec(name, **kw), seed=0)
    indices, labels = random_batch(SCHEMA, 16, seed=4)
    model.store.zero_grads()
    tape = Tape()
    tape.backward(model.loss_node(tape, indices, labels))
    assert [s for s in model.store.names() if not model.store.slot(s).grad.any()] == []


def test_lr_dimension_is_pinned_to_one():
    spec = small_spec("LR", d=16)
    assert spec.dim == 1
    model = build_model(spec)
    assert model.store.value("emb.0").shape == (5, 1)


def test_spec_dict_round_trip():
    spec = small_spec("SAM3_E", layers=2, dropout=0.2, include_bias=True)
    back = ModelSpec.from_dict(spec.to_dict())
    assert back.to_dict() == spec.to_dict()


def test_extras_follow_family_defaults():
    assert small_spec("FM").use_linear and small_spec("FM").use_bias
    assert not small_spec("SAM2_E").use_linear
    assert small_spec("LR").use_bias
    fm_bare = build_model(small_spec("FM", include_linear=False, include_bias=False))
    assert "lin.0" not in fm_bare.store
    assert "bias" not in fm_bare.store
    sam_wide = build_model(small_spec("SAM2_E", include_linear=True))
    assert "lin.0" in sam_wide.store


def test_mlp_dropout_defaults_half_for_deep_heads():
    assert small_spec("IPNN").drop_rate == 0.5
    assert small_spec("DCN").drop_rate == 0.0
    assert small_spec("IPNN", dropout=0.1).drop_rate == 0.1


# ---------------------------------------------------------------------------
# closed forms from the stored parameters


def test_lr_logit_closed_form():
    model = build_model(small_spec("LR"), seed=9)
    store = model.store
    want = np.array(
        [
            sum(store.value(f"emb.{i}")[row[i], 0] for i in range(SCHEMA.n))
            + store.value("bias")
            for row in BATCH
        ]
    )
    np.testing.assert_allclose(model.forward(BATCH), want, rtol=0, atol=1e-12)


def test_fm_logit_closed_form():
    model = build_model(small_spec("FM"), seed=10)
    store = model.store
    out = []
    for row in BATCH:
        vecs = [store.value(f"emb.{i}")[row[i]] for i in range(SCHEMA.n)]
        logit = float(store.value("bias"))
        logit += sum(store.value(f"lin.{i}")[row[i], 0] for i in range(SCHEMA.n))
        for i in range(SCHEMA.n):
            for j in range(i + 1, SCHEMA.n):
                logit += float(vecs[i] @ vecs[j])
        out.append(logit)
    np.testing.assert_allclose(model.forward(BATCH), out, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["SAM1", "DCN"])
def test_affine_models_superpose(name):
    # the logit is affine in the embedded record, so swapping one field's
    # category shifts it by the same amount whatever the other fields are
    model = build_model(small_spec(name), seed=11)
    rec_a = np.array([[2, 3, 1, 4]])
    rec_b = np.array([[4, 3, 1, 4]])  # field 0 swapped
    rec_c = np.array([[2, 6, 2, 0]])
    rec_d = np.array([[4, 6, 2, 0]])  # same swap, different context
    la, lb = model.forward(rec_a)[0], model.forward(rec_b)[0]
    lc, ld = model.forward(rec_c)[0], model.forward(rec_d)[0]
    assert abs((la - lb) - (lc - ld)) < 1e-10


def test_loss_is_mean_log_loss_of_predictions():
    model = build_model(small_spec("DeepFM-deep"), seed=12)
    labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    p = model.predict(BATCH)
    want = -np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    assert abs(float(model.loss_node(Tape(record=False), BATCH, labels).value) - want) < 1e-12


def test_gradients_check_on_a_small_model():
    model = build_model(small_spec("FwFM", d=2), seed=13)
    indices, labels = random_batch(SCHEMA, 4, seed=1)
    assert gradient_check(model, indices, labels) < 1e-6


@pytest.mark.parametrize("dropout_seed", [0, 7])
@pytest.mark.parametrize("name", ["IPNN", "DeepFM-deep"])
def test_training_mode_gradients_check_through_dropout(name, dropout_seed):
    # the referee size: n=5, vocab 7, d=4, B=8
    schema = FieldSchema.of_sizes([7] * 5)
    model = build_model(ModelSpec(name, schema, d=4), seed=0)
    indices, labels = random_batch(schema, 8, seed=0)
    # the masks gradient_check draws are live: the loss differs from eval mode
    rng = np.random.default_rng([dropout_seed, 13])
    dropped = model.loss_node(Tape(), indices, labels, drop_rng=rng)
    assert float(dropped.value) != float(model.loss_node(Tape(record=False), indices, labels).value)
    err = gradient_check(model, indices, labels, dropout_seed=dropout_seed)
    assert err < 1e-6


def _bit_parity_variants():
    path = Path(__file__).resolve().parents[1] / "tools" / "bit_parity.py"
    spec = importlib.util.spec_from_file_location("bit_parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.VARIANTS


# the 15 rows and the variants tools/bit_parity.py fingerprints, at the `ctrzoo gradcheck` defaults:
# n=5, vocab 7, d=4, B=8, layers 2
REPLAYED = [(name, {}) for name in MODEL_NAMES] + list(_bit_parity_variants())
REFEREE = FieldSchema.of_sizes([7] * 5)


@pytest.mark.parametrize("dropout_seed", [None, 0])
@pytest.mark.parametrize(
    "name, switches", REPLAYED, ids=[name + "".join(f"-{k}={v}" for k, v in sw.items()) for name, sw in REPLAYED]
)
def test_a_rerun_tape_is_bitwise_a_fresh_forward_whichever_entry_moves(name, switches, dropout_seed):
    # the referee gradient_check replays its recorded tape, so the loss it differences must be
    # the loss a fresh forward computes, bit for bit, at every perturbed entry
    model = build_model(ModelSpec(name, REFEREE, d=4, **{"layers": 2, **switches}), seed=0)
    indices, labels = random_batch(REFEREE, 8, seed=0)

    def loss(tape):
        rng = None if dropout_seed is None else np.random.default_rng([dropout_seed, 13])
        return model.loss_node(tape, indices, labels, drop_rng=rng)

    tape = Tape()
    root = loss(tape)
    values, pick = model.store.values, np.random.default_rng(11)
    for slot in model.store.slots():
        start, stop = slot.span.start, slot.span.stop
        for k in sorted({start, stop - 1, *pick.integers(start, stop, size=3).tolist()}):
            saved = values[k]
            for step in (1e-5, -1e-5, 0.5):
                values[k] = saved + step
                assert tape.rerun(root).tobytes() == loss(Tape(record=False)).value.tobytes(), (slot.name, k, step)
            values[k] = saved
    assert tape.rerun(root).tobytes() == loss(Tape(record=False)).value.tobytes()


def test_a_rerun_raises_what_a_fresh_forward_raises():
    model = build_model(ModelSpec("FM", REFEREE, d=4, layers=2), seed=0)
    indices, labels = random_batch(REFEREE, 8, seed=0)
    tape = Tape()
    root = model.loss_node(tape, indices, labels)

    def message(run):
        with pytest.raises(NumericError) as info, np.errstate(over="ignore"):
            run()
        return str(info.value)

    table, row = model.store.value("emb.0"), indices[0, 0]  # a row the batch reads
    for entry, op in ((1e200, "contract"), (np.inf, "parameter: slot 'emb.0'")):
        table[row, 0] = entry  # 1e200 is finite, and its square in the Gram matrix is not
        fresh = message(lambda: model.loss_node(Tape(record=False), indices, labels))
        assert message(lambda: tape.rerun(root)) == fresh == f"non-finite value produced on tape by {op}"
    table[row, 0] = 0.0
    # a sweep belongs to the recorded forward; this rerun stopped part way, leaving two points mixed
    with pytest.raises(ContractError, match="re-run"):
        tape.backward(root)
    unrecorded = Tape(record=False)
    with pytest.raises(ContractError, match="record=False"):
        unrecorded.rerun(model.loss_node(unrecorded, indices, labels))


def test_gradient_check_corruption_is_reported():
    model = build_model(small_spec("LR"), seed=13)
    indices, labels = random_batch(SCHEMA, 4, seed=1)
    assert gradient_check(model, indices, labels, corrupt=0.05) > 1e-2


def test_random_batch_is_deterministic_and_in_range():
    a, la = random_batch(SCHEMA, 20, seed=3)
    b, lb = random_batch(SCHEMA, 20, seed=3)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(la, lb)
    for i, size in enumerate(SCHEMA.vocab_sizes):
        assert a[:, i].min() >= 0 and a[:, i].max() < size
    assert set(np.unique(la)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# complexity accounting


def test_complexity_spot_values():
    lr = count_complexity(ModelSpec("LR", FieldSchema.of_sizes([9] * 6)))
    assert lr.total == 6

    sam1 = count_complexity(ModelSpec("SAM1", FieldSchema.of_sizes([9] * 22), d=16))
    assert sam1.total == 2 * 16 * 22  # dn embeddings, dn head

    sam2e = count_complexity(ModelSpec("SAM2_E", FieldSchema.of_sizes([9] * 4), d=2))
    assert sam2e.total == 2 * 16 + 2 * 4  # d n^2 head + d n embeddings


def test_complexity_time_spot_values():
    lr = count_complexity(ModelSpec("LR", FieldSchema.of_sizes([9] * 6)))
    assert lr.time_ops == 6
    fm = count_complexity(ModelSpec("FM", FieldSchema.of_sizes([9] * 6), d=4))
    assert fm.time_ops == 4 * 6
    sam2a = count_complexity(ModelSpec("SAM2_A", FieldSchema.of_sizes([9] * 5), d=3))
    assert sam2a.time_ops == 2 * 3 * 25


def test_complexity_on_built_model_reports_exact_store_size():
    model = build_model(small_spec("SAM2_A"), seed=0)
    report = count_complexity(model)
    assert report.trainable_params == model.store.param_count()
    spec_only = count_complexity(model.spec)
    assert spec_only.trainable_params is None
    assert spec_only.total == report.total


def test_complexity_report_dict_shape():
    report = count_complexity(small_spec("AutoInt", layers=2))
    d = report.to_dict()
    assert d["layers"] == 2
    assert d["space"]["total"] == report.total
    assert isinstance(report, ComplexityReport)


def test_lr_store_size_is_vocab_total_plus_bias():
    model = build_model(small_spec("LR"))
    assert model.store.param_count() == sum(SCHEMA.vocab_sizes) + 1
