"""Aggregation of per-field interaction outputs and the transform stack.

Aggregation turns the stacked FI output into one tensor: a plain sum over
fields or a field combination (a trainable weighted sum); concatenation is
a reshape the model does itself. The transform stack is a standard MLP;
zero hidden layers make it a single affine map and is how the linear heads
are expressed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ConfigError, ShapeError


def sum_nodes(tape, fields):
    """Sum over fields: axis 1 of a stacked (B, n, ...) node."""
    return tape.sum_axis(fields, 1)


def combine_fields_nodes(tape, fields, weights):
    """Trainable weighted sum over fields, sum_i w_i z_i: (B, n, d) with (n,) -> (B, d)."""
    if fields.value.ndim != 3 or weights.value.shape != fields.value.shape[1:2]:
        raise ShapeError("field_combination needs one weight per field vector")
    return tape.contract("bid,i->bd", fields, weights)


# ---------------------------------------------------------------------------
# transform stack


@dataclass(frozen=True)
class MLPSpec:
    """Affine chain with ReLU between layers; empty hidden = one affine map."""

    input_dim: int
    hidden: tuple = (32, 32, 32)
    dropout: float = 0.0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigError(f"mlp input width must be positive, got {self.input_dim}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"mlp hidden widths must be positive, got {self.hidden}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def widths(self):
        return (self.input_dim,) + tuple(self.hidden) + (1,)

    @property
    def depth(self):
        return len(self.hidden) + 1

    def weight_count(self):
        return sum(a * b for a, b in zip(self.widths, self.widths[1:]))


@lru_cache(maxsize=None)
def _layer_slots(depth):
    """The slot names (`st.l{k}.w`, `st.l{k}.b`) of each of `depth` layers."""
    return tuple((f"st.l{k}.w", f"st.l{k}.b") for k in range(depth))


def add_mlp_slots(store, spec):
    for (w, bias), (a, b) in zip(_layer_slots(spec.depth), zip(spec.widths, spec.widths[1:])):
        store.add_xavier(w, (a, b), fans=(a, b))
        store.add_zeros(bias, (b,))


def mlp_nodes(tape, spec, store, x, *, drop_rng=None):
    """Run the stack on a (B, input_dim) node; returns the (B, 1) logits.

    The weights are the `store` slots `st.l{k}.w` and `st.l{k}.b` that `add_mlp_slots` creates.
    Given a `drop_rng`, dropout follows each hidden ReLU; without one, none does.
    """
    if x.value.ndim != 2 or x.value.shape[1] != spec.input_dim:
        raise ShapeError(f"mlp expects (B, {spec.input_dim}), got {x.value.shape}")
    h = x
    for k, (w_name, b_name) in enumerate(_layer_slots(spec.depth)):
        if k:
            h = tape.relu(h)
            if drop_rng is not None and spec.dropout > 0.0:  # inverted: survivors scaled by 1/(1-rate)
                mask = (drop_rng.random(h.value.shape) >= spec.dropout) / (1.0 - spec.dropout)
                h = tape.contract("bp,bp->bp", h, tape.constant(mask))
        w, b = tape.parameter(store, w_name), tape.parameter(store, b_name)
        h = tape.add(tape.contract("bp,pq->bq", h, w), b)
    return h
