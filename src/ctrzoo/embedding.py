"""Embedding tables: creation and lookup.

One table per field maps category indices to d-dimensional vectors; the
field-aware variant keeps a separate table per (field, target-field) pair.
Tables live in a `ParameterStore` under fixed slot names, initialized
Xavier-uniform with fans (vocab_size, d). Reserved rows (missing, OOV) are
ordinary trainable rows. Each lookup is one `Tape.lookup` node that reads
every field's table at once and hands the interaction layer one stacked
value; this module alone knows the field-aware layout. Lookup gradients are
sparse: rows that do not appear in a batch receive exact zeros.
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
    return tape.lookup(store, [slot(i) for i in range(indices.shape[1])], indices)


def lookup_field_aware(tape, store, indices):
    """Field-aware embed: indices (B, n) -> one (B, n, n, d) node.

    Entry [:, i, t] is field i's vector for partner t; the diagonal has no
    table and reads zero.
    """
    _check_indices(indices)
    b, n = indices.shape
    if n < 2:
        raise DomainError("field-aware embeddings need at least two fields")
    names = [None if t == i else emb_slot(i, t) for i in range(n) for t in range(n)]
    # pair-major in memory, each (i, t) block of the batch contiguous: FFM's
    # reductions follow memory order, and a C-ordered grid moves its logits
    # in the last bits
    pairs = tape.lookup(store, names, np.repeat(indices, n, axis=1), slot_major=True)
    return tape.reshape(pairs, (b, n, n, pairs.value.shape[2]))
