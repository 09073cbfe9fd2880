"""Containment maps between model families, checked as exact function equality.

Each lift takes a built model and returns a built model of a wider family
whose scoring function agrees with the source everywhere on the input
space, by explicit parameter construction rather than training. The
companion `verify_equivalence` compares the two scoring functions on the
whole input grid when it is small enough, otherwise on a seeded sample.

Constructions, writing e_0 for the first standard basis vector and n for
the field count:

* first-order model inside the d-dimensional affine family: embed each
  weight at coordinate 0 of its embedding row and read it back with a
  head that is e_0 per field block;
* the reverse direction, collapsing any affine-family member to per-field
  weight tables (the two families coincide as function classes);
* pairwise-inner model inside the pair-matrix family: pair vectors
  c_ij * e_0 with c_ij = 1/2 off the diagonal and 0 on it, head e_0 per
  block, which recovers the half-sum over unordered pairs;
* pair-matrix family inside the unnormalized attention family: identity
  key map, zero residual, unit field-combination weights, and pair
  vectors scaled so the head reads off the same pair coefficients.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .embedding import EMB, LINEAR, emb_slot
from .errors import ContractError
from .zoo import ModelSpec, build_model

LIFT_SEED = 97


def _widened(src, name, **switches):
    """`name` at the source's width, linear and bias settings, holding a copy of its `emb.*`, `lin.*` and bias."""
    spec = ModelSpec(name, src.schema, d=src.spec.dim, include_linear=src.spec.use_linear,
                     include_bias=src.spec.use_bias, **switches)
    target = build_model(spec, seed=LIFT_SEED)
    for slot in src.store.names():
        if slot.startswith((f"{EMB}.", f"{LINEAR}.")) or slot == "bias":
            target.store.set_value(slot, src.store.value(slot))
    return target


def _basis_head(n_blocks, d):
    """(n_blocks * d, 1) head whose block b reads coordinate 0 of block b."""
    head = np.zeros((n_blocks * d, 1))
    head[::d, 0] = 1.0
    return head


def lift_lr_to_sam1(lr_model, d=None):
    """Embed a first-order model in the affine family at width d, by default the LR spec's `d`."""
    if lr_model.name != "LR":
        raise ContractError(f"expected an LR model, got {lr_model.name}")
    d = lr_model.spec.d if d is None else d
    spec = ModelSpec("SAM1", lr_model.schema, d=d)
    target = build_model(spec, seed=LIFT_SEED)
    for i, size in enumerate(lr_model.schema.vocab_sizes):
        table = np.zeros((size, d))
        table[:, 0] = lr_model.store.value(emb_slot(i))[:, 0]
        target.store.set_value(emb_slot(i), table)
    target.store.set_value("st.l0.w", _basis_head(lr_model.schema.n, d))
    target.store.set_value("st.l0.b", np.atleast_1d(lr_model.store.value("bias")))
    return target


def reduce_sam1_to_lr(sam1_model):
    """Collapse an affine-family model to per-field weight tables."""
    if sam1_model.name != "SAM1":
        raise ContractError(f"expected a SAM1 model, got {sam1_model.name}")
    schema = sam1_model.schema
    d = sam1_model.spec.dim
    head = sam1_model.store.value("st.l0.w")[:, 0]
    target = build_model(ModelSpec("LR", schema), seed=LIFT_SEED)
    for i, size in enumerate(schema.vocab_sizes):
        block = head[i * d : (i + 1) * d]
        table = sam1_model.store.value(emb_slot(i))
        target.store.set_value(emb_slot(i), (table @ block)[:, None])
    target.store.set_value("bias", sam1_model.store.value("st.l0.b")[0])
    return target


def lift_fm_to_sam2a(fm_model):
    """Embed the pairwise-inner model in the pair-matrix family."""
    if fm_model.name != "FM":
        raise ContractError(f"expected an FM model, got {fm_model.name}")
    n, d = fm_model.schema.n, fm_model.spec.dim
    target = _widened(fm_model, "SAM2_A")
    pairvec = np.zeros((n * n, d))
    pairvec[:, 0] = 0.5 * (1.0 - np.eye(n)).reshape(-1)
    target.store.set_value("fi.l0.pairvec", pairvec)
    target.store.set_value("st.l0.w", _basis_head(n * n, d))
    target.store.set_value("st.l0.b", np.zeros(1))
    return target


def lift_sam2a_to_sam3a(sam2a_model):
    """Embed the pair-matrix family in the attention family, softmax off.

    With the identity key map and no normalization, the attention scores
    are plain inner products, so each pair contributes its score times a
    pair vector. Scaling those vectors by the source's per-pair read-out
    coefficients makes the two functions equal.
    """
    if sam2a_model.name != "SAM2_A":
        raise ContractError(f"expected a SAM2_A model, got {sam2a_model.name}")
    if sam2a_model.spec.sam2_upper_only:
        raise ContractError("the lift needs the full pair grid, not the upper triangle")
    n, d = sam2a_model.schema.n, sam2a_model.spec.dim
    target = _widened(sam2a_model, "SAM3_A", softmax_enabled=False)
    head2 = sam2a_model.store.value("st.l0.w")[:, 0]
    pair2 = sam2a_model.store.value("fi.l0.pairvec")
    coeff = np.array([head2[p * d : (p + 1) * d] @ pair2[p] for p in range(n * n)])
    pairvec = np.zeros((n * n, d))
    pairvec[:, 0] = coeff
    target.store.set_value("fi.l0.pairvec", pairvec)
    target.store.set_value("fi.l0.k", np.eye(d))
    target.store.set_value("fi.l0.res", np.zeros((d, d)))
    target.store.set_value("al.w", np.ones(n))
    head3 = np.zeros((d, 1))
    head3[0, 0] = 1.0
    target.store.set_value("st.l0.w", head3)
    target.store.set_value("st.l0.b", sam2a_model.store.value("st.l0.b"))
    return target


# The checks `ctrzoo equivalence` runs: name -> (source model, map).
CHECKS = {
    "lr-sam1": ("LR", lift_lr_to_sam1),
    "sam1-lr": ("SAM1", reduce_sam1_to_lr),
    "fm-sam2a": ("FM", lift_fm_to_sam2a),
    "sam2a-sam3a": ("SAM2_A", lift_sam2a_to_sam3a),
}


# ---------------------------------------------------------------------------
# verification


def enumerate_records(schema, limit=1024, seed=0):
    """Input rows to compare on: the full grid if it fits, else a sample.

    Returns (indices, exhaustive). The grid is the cartesian product of
    every field's index range, reserved rows included.
    """
    sizes = schema.vocab_sizes
    if math.prod(sizes) <= limit:
        rows = np.array(list(product(*(range(s) for s in sizes))), dtype=np.int64)
        return rows, True
    rng = np.random.default_rng([int(seed), 19])
    rows = np.stack([rng.integers(0, s, size=limit) for s in sizes], axis=1)
    return rows, False


@dataclass
class EquivalenceReport:
    model_a: str
    model_b: str
    n_points: int
    exhaustive: bool
    max_abs_diff: float
    tol: float

    @property
    def passed(self):
        return self.max_abs_diff <= self.tol

    def to_dict(self):
        return {**asdict(self), "passed": self.passed}


def verify_equivalence(model_a, model_b, tol=1e-8, limit=1024, seed=0):
    """Compare two scoring functions over the input space."""
    if model_a.schema.vocab_sizes != model_b.schema.vocab_sizes:
        raise ContractError("models must share a schema to be compared")
    rows, exhaustive = enumerate_records(model_a.schema, limit=limit, seed=seed)
    diff = np.abs(model_a.forward(rows) - model_b.forward(rows))
    return EquivalenceReport(
        model_a=model_a.name,
        model_b=model_b.name,
        n_points=len(rows),
        exhaustive=exhaustive,
        max_abs_diff=float(diff.max()),
        tol=tol,
    )
