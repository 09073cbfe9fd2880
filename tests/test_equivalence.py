"""Tests for the containment maps between model families."""

import numpy as np
import pytest

from ctrzoo.data import FieldSchema
from ctrzoo.equivalence import (
    enumerate_records,
    lift_fm_to_sam2a,
    lift_lr_to_sam1,
    lift_sam2a_to_sam3a,
    reduce_sam1_to_lr,
    verify_equivalence,
)
from ctrzoo.errors import ContractError
from ctrzoo.zoo import ModelSpec, build_model

SCHEMA = FieldSchema.of_sizes([4, 5, 3])  # 60 joint combinations, exhaustible
WIDE = FieldSchema.of_sizes([10, 10, 10, 10, 10])


def fresh(name, seed=1, **kw):
    return build_model(ModelSpec(name, SCHEMA, **kw), seed=seed)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_covers_the_full_grid_when_small():
    rows, exhaustive = enumerate_records(SCHEMA)
    assert exhaustive
    assert rows.shape == (60, 3)
    assert len({tuple(r) for r in rows}) == 60
    assert rows.min() == 0
    assert rows[:, 0].max() == 3 and rows[:, 1].max() == 4 and rows[:, 2].max() == 2


def test_enumeration_falls_back_to_a_seeded_sample():
    rows, exhaustive = enumerate_records(WIDE, limit=200, seed=4)
    assert not exhaustive
    assert rows.shape == (200, 5)
    assert rows.min() >= 0 and rows.max() < 10
    again, _ = enumerate_records(WIDE, limit=200, seed=4)
    np.testing.assert_array_equal(rows, again)
    other, _ = enumerate_records(WIDE, limit=200, seed=5)
    assert not np.array_equal(rows, other)


# ---------------------------------------------------------------------------
# the four lifts


def test_first_order_lift_matches_everywhere():
    lr = fresh("LR")
    lifted = lift_lr_to_sam1(lr, d=4)
    report = verify_equivalence(lr, lifted, tol=1e-8)
    assert report.exhaustive and report.passed
    assert report.max_abs_diff < 1e-12


def test_first_order_lift_works_at_width_one():
    lr = fresh("LR", seed=7)
    report = verify_equivalence(lr, lift_lr_to_sam1(lr, d=1), tol=1e-8)
    assert report.passed


def test_zero_first_order_model_lifts_to_zero():
    lr = fresh("LR")
    for slot in lr.store.slots():
        slot.value[...] = 0.0
    lifted = lift_lr_to_sam1(lr)
    rows, _ = enumerate_records(SCHEMA)
    np.testing.assert_array_equal(lifted.forward(rows), np.zeros(len(rows)))


def test_reduction_inverts_the_first_order_lift_exactly():
    lr = fresh("LR", seed=3)
    back = reduce_sam1_to_lr(lift_lr_to_sam1(lr, d=5))
    for name in lr.store.names():
        np.testing.assert_array_equal(lr.store.value(name), back.store.value(name))


def test_reduction_of_a_generic_affine_model_matches_everywhere():
    sam1 = fresh("SAM1", seed=9, d=3)
    report = verify_equivalence(sam1, reduce_sam1_to_lr(sam1), tol=1e-8)
    assert report.exhaustive and report.passed


def test_pairwise_lift_matches_everywhere():
    fm = fresh("FM", seed=2, d=3)
    report = verify_equivalence(fm, lift_fm_to_sam2a(fm), tol=1e-8)
    assert report.exhaustive and report.passed


def test_pairwise_lift_respects_linear_and_bias_toggles():
    fm = fresh("FM", seed=4, d=2, include_linear=False, include_bias=False)
    lifted = lift_fm_to_sam2a(fm)
    assert not lifted.spec.use_linear and not lifted.spec.use_bias
    assert verify_equivalence(fm, lifted, tol=1e-8).passed


def test_pairwise_lift_on_orthogonal_embeddings_gives_zero_scores():
    fm = fresh("FM", seed=2, d=2, include_linear=False, include_bias=False)
    # concentrate each field on its own coordinate pair-wise: fields 0 and 1
    # on axis 0 and 1 respectively, field 2 zeroed, so every inner product
    # between distinct fields vanishes
    from ctrzoo.embedding import emb_slot

    for i, size in enumerate(SCHEMA.vocab_sizes):
        table = np.zeros((size, 2))
        if i < 2:
            table[:, i] = np.arange(size, dtype=float)
        fm.store.set_value(emb_slot(i), table)
    rows, _ = enumerate_records(SCHEMA)
    lifted = lift_fm_to_sam2a(fm)
    out = fm.forward(rows)
    # field 0 times field 1 on matching axes is the only surviving term: zero
    # only when either index row is zero; instead verify plain agreement plus
    # exact zeros where both embeddings vanish
    np.testing.assert_allclose(lifted.forward(rows), out, rtol=0, atol=1e-12)
    zero_rows = rows[(rows[:, 0] == 0) | (rows[:, 1] == 0)]
    np.testing.assert_array_equal(fm.forward(zero_rows), np.zeros(len(zero_rows)))


def test_attention_lift_matches_everywhere():
    fm = fresh("FM", seed=6, d=3)
    sam2a = lift_fm_to_sam2a(fm)
    sam3a = lift_sam2a_to_sam3a(sam2a)
    report = verify_equivalence(sam2a, sam3a, tol=1e-8)
    assert report.exhaustive and report.passed
    # and the composition still agrees with the original pairwise model
    assert verify_equivalence(fm, sam3a, tol=1e-8).passed


def test_attention_lift_of_a_generic_pair_matrix_model():
    sam2a = fresh("SAM2_A", seed=11, d=2)
    report = verify_equivalence(sam2a, lift_sam2a_to_sam3a(sam2a), tol=1e-8)
    assert report.exhaustive and report.passed


def test_attention_lift_disables_score_normalization():
    sam2a = fresh("SAM2_A", seed=1, d=2)
    assert not lift_sam2a_to_sam3a(sam2a).spec.softmax_enabled


# ---------------------------------------------------------------------------
# guard rails


def test_lifts_reject_the_wrong_source_family():
    with pytest.raises(ContractError):
        lift_lr_to_sam1(fresh("FM"))
    with pytest.raises(ContractError):
        reduce_sam1_to_lr(fresh("LR"))
    with pytest.raises(ContractError):
        lift_fm_to_sam2a(fresh("LR"))
    with pytest.raises(ContractError):
        lift_sam2a_to_sam3a(fresh("FM"))


def test_attention_lift_rejects_the_upper_triangle_layout():
    sam2a = fresh("SAM2_A", d=2, sam2_upper_only=True)
    with pytest.raises(ContractError):
        lift_sam2a_to_sam3a(sam2a)


def test_verification_requires_a_shared_schema():
    a = fresh("LR")
    b = build_model(ModelSpec("LR", WIDE), seed=0)
    with pytest.raises(ContractError):
        verify_equivalence(a, b)


# ---------------------------------------------------------------------------
# the comparison itself


def test_identical_models_have_zero_difference():
    a = fresh("AFM", seed=13, d=3)
    b = fresh("AFM", seed=13, d=3)
    report = verify_equivalence(a, b, tol=0.0)
    assert report.max_abs_diff == 0.0
    assert report.passed


def test_different_families_are_detected():
    lr = fresh("LR", seed=1)
    fm = fresh("FM", seed=1, d=3)
    report = verify_equivalence(lr, fm, tol=1e-8)
    assert not report.passed
    assert report.max_abs_diff > 1e-3


def test_zero_tolerance_fails_on_genuinely_different_models():
    a = fresh("FM", seed=1, d=3)
    b = fresh("FM", seed=2, d=3)
    assert not verify_equivalence(a, b, tol=0.0).passed


def test_sampled_verification_on_a_large_grid():
    lr = build_model(ModelSpec("LR", WIDE), seed=5)
    lifted = lift_lr_to_sam1(lr, d=3)
    report = verify_equivalence(lr, lifted, tol=1e-8, limit=500)
    assert not report.exhaustive
    assert report.n_points == 500
    assert report.passed


def test_report_dict_round_trip():
    lr = fresh("LR")
    report = verify_equivalence(lr, lift_lr_to_sam1(lr), tol=1e-8)
    d = report.to_dict()
    assert d["model_a"] == "LR" and d["model_b"] == "SAM1"
    assert d["passed"] is True
    assert d["n_points"] == 60 and d["exhaustive"] is True
