"""Aggregation of per-field interaction outputs and the transform stack.

Aggregation turns the stacked FI output into one tensor: a plain sum over
fields or a field combination (a trainable weighted sum); concatenation is
a reshape the model does itself. The transform stack is a standard MLP;
zero hidden layers make it a single affine map and is how the linear heads
are expressed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, DomainError, ShapeError


def sum_nodes(tape, fields):
    """Sum over fields: axis 1 of a stacked (B, n, ...) node."""
    return tape.sum_axis(fields, 1)


def combine_fields_nodes(tape, fields, weights):
    """Trainable weighted sum over fields, sum_i w_i z_i: (B, n, d) with (n,) -> (B, d)."""
    if fields.value.ndim != 3 or weights.value.shape != fields.value.shape[1:2]:
        raise ShapeError("field_combination needs one weight per field vector")
    return tape.inner(tape.transpose(fields, (0, 2, 1)), weights)


# ---------------------------------------------------------------------------
# transform stack


@dataclass(frozen=True)
class MLPSpec:
    """Affine chain with ReLU between layers; empty hidden = one affine map."""

    input_dim: int
    hidden: tuple = (32, 32, 32)
    out_dim: int = 1
    dropout: float = 0.0

    def __post_init__(self):
        if self.input_dim < 1 or self.out_dim < 1:
            raise ConfigError("mlp dimensions must be positive")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"mlp hidden widths must be positive, got {self.hidden}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def widths(self):
        return (self.input_dim,) + tuple(self.hidden) + (self.out_dim,)

    @property
    def depth(self):
        return len(self.hidden) + 1

    def weight_count(self, include_bias=False):
        ws = self.widths
        total = sum(a * b for a, b in zip(ws[:-1], ws[1:]))
        if include_bias:
            total += sum(ws[1:])
        return total


def add_mlp_slots(store, spec, prefix="st."):
    ws = spec.widths
    for k, (a, b) in enumerate(zip(ws[:-1], ws[1:])):
        store.add_xavier(f"{prefix}l{k}.w", (a, b), fans=(a, b))
        store.add_zeros(f"{prefix}l{k}.b", (b,))


def mlp_nodes(tape, spec, store, x, *, prefix="st.", training=False, drop_rng=None):
    """Run the stack on a (B, input_dim) node; returns (B, out_dim).

    The weights are the `store` slots under `prefix`, as `add_mlp_slots` names them.
    """
    if x.value.ndim != 2 or x.value.shape[1] != spec.input_dim:
        raise ShapeError(f"mlp expects (B, {spec.input_dim}), got {x.value.shape}")
    h = x
    for k in range(spec.depth):
        if k:
            h = tape.relu(h)
            if training and spec.dropout > 0.0:
                if drop_rng is None:
                    raise DomainError("training-mode dropout needs a random generator")
                h = tape.dropout(h, spec.dropout, drop_rng)
        w, b = tape.parameter(store, f"{prefix}l{k}.w"), tape.parameter(store, f"{prefix}l{k}.b")
        h = tape.add(tape.matmul(h, w), b)
    return h
