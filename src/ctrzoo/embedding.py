"""Embedding tables: creation and lookup.

One table per field maps category indices to d-dimensional vectors; the
field-aware variant keeps a separate table per (field, target-field) pair.
Tables live in a `ParameterStore` under fixed slot names, initialized
Xavier-uniform with fans (vocab_size, d). Reserved rows (missing, OOV) are
ordinary trainable rows. Lookup gradients are sparse: only rows that appear
in a batch are touched. Lookups hand the interaction layer one stacked
node per batch; this module alone knows the field-aware layout.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

EMB = "emb"
LINEAR = "lin"


def emb_slot(i, target=None):
    return f"{EMB}.{i}" if target is None else f"{EMB}.{i}.{target}"


def linear_slot(i):
    return f"{LINEAR}.{i}"


def add_embedding_tables(store, schema, d, field_aware=False):
    """Create the embedding slots for every field.

    Plain: one (vocab_i, d) table per field. Field-aware: one (vocab_i, d)
    table per ordered (field, other-field) pair, n*(n-1) tables in total.
    """
    if d < 1:
        raise ConfigError(f"embedding dimension must be positive, got {d}")
    n = schema.n
    for i, size in enumerate(schema.vocab_sizes):
        if field_aware:
            for t in range(n):
                if t != i:
                    store.add_xavier(emb_slot(i, t), (size, d), fans=(size, d))
        else:
            store.add_xavier(emb_slot(i), (size, d), fans=(size, d))


def add_linear_table(store, schema):
    """First-order weights: a d=1 embedding table per field."""
    for i, size in enumerate(schema.vocab_sizes):
        store.add_xavier(linear_slot(i), (size, 1), fans=(size, 1))


def _check_indices(indices):
    if indices.ndim != 2:
        raise ShapeError(f"indices must be (B, n), got {indices.shape}")


def lookup_fields(tape, store, indices, slot=emb_slot):
    """Embed a batch: indices (B, n) -> one (B, n, d) node, field i in [:, i].

    `slot(i)` names field i's table: `emb_slot` for the embeddings,
    `linear_slot` for the first-order weights, which give (B, n, 1).
    """
    _check_indices(indices)
    rows = [tape.lookup(store, slot(i), indices[:, i]) for i in range(indices.shape[1])]
    return tape.stack_last(rows, axis=1)


def lookup_field_aware(tape, store, indices):
    """Field-aware embed: indices (B, n) -> one (B, n, n, d) node.

    Entry [:, i, t] is field i's vector for partner t; the diagonal has no
    table and reads zero.
    """
    _check_indices(indices)
    b, n = indices.shape
    if n < 2:
        raise DomainError("field-aware embeddings need at least two fields")
    d = store.value(emb_slot(0, 1)).shape[1]
    unused = tape.constant(np.zeros((b, d)))
    grid = [
        unused if t == i else tape.lookup(store, emb_slot(i, t), indices[:, i])
        for i in range(n)
        for t in range(n)
    ]
    # pair-major in memory: each (i, t) block of the batch stays contiguous,
    # which keeps the lookup's scatter on contiguous gradients
    pairs = tape.transpose(tape.stack_last(grid, axis=0), (1, 0, 2))
    return tape.reshape(pairs, (b, n, n, d))

