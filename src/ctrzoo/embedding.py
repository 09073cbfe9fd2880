"""Embedding tables: creation and lookup.

One table per field maps category indices to d-dimensional vectors; the
field-aware variant keeps a separate table per (field, target-field) pair.
`add_embedding_tables` and `add_linear_table` create them in a
`ParameterStore` under fixed slot names, in the order the lookups read
them, initialized Xavier-uniform with fans (vocab_size, d). Reserved rows
(missing, OOV) are ordinary trainable rows. A lookup joins the tables it
reads into one parameter leaf, a (rows, d) view of the store, and gathers
their rows with one `Tape.take`. A plain lookup hands the interaction layer
one stacked value; the field-aware lookup hands it two, one per side of
each field pair i < j. Lookup gradients are sparse: rows that do not appear
in a batch receive exact zeros.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

EMB = "emb"
LINEAR = "lin"


def emb_slot(i, target=None):
    return f"{EMB}.{i}" if target is None else f"{EMB}.{i}.{target}"


def linear_slot(i):
    return f"{LINEAR}.{i}"


def add_embedding_tables(store, schema, d, field_aware=False):
    """Create the Xavier-initialized embedding tables, fans (vocab_i, d).

    Plain: one (vocab_i, d) table per field. Field-aware: one (vocab_i, d)
    table per ordered (field, other-field) pair, n*(n-1) tables in total,
    in the order `lookup_field_aware` reads them: field i's for partner j
    over the pairs i < j, then field j's for partner i, so each side's
    lookup leaf spans its own tables alone.
    """
    if d < 1:
        raise ConfigError(f"embedding dimension must be positive, got {d}")
    sizes = schema.vocab_sizes
    tables = enumerate(map(emb_slot, range(schema.n)))  # (field, slot name) pairs
    if field_aware:
        tables = [(i, name) for own, names in _pair_sides(schema.n) for i, name in zip(own.tolist(), names)]
    for i, name in tables:
        store.add_xavier(name, (sizes[i], d), fans=(sizes[i], d))


def add_linear_table(store, schema):
    """First-order weights: a d=1 embedding table per field."""
    for i, size in enumerate(schema.vocab_sizes):
        store.add_xavier(linear_slot(i), (size, 1), fans=(size, 1))


def _check_indices(indices):
    if indices.ndim != 2:
        raise ShapeError(f"indices must be (B, n), got {indices.shape}")


def lookup(tape, store, names, indices):
    """Row gather from k 2-D slots: indices (B, k) -> value (B, k, d), column j from `names[j]`.

    The slots join into one parameter leaf (`ParameterStore.row_view`) read by one `Tape.take`,
    whose backward adds repeated rows in batch order. An index outside its slot raises
    DomainError naming the slot."""
    names = tuple(names)
    table = store.row_view(names)
    idx = np.asarray(indices)
    if idx.ndim != 2 or idx.shape[1] != len(names) or idx.dtype.kind not in "iu":
        raise ShapeError(f"lookup indices must be a (B, {len(names)}) integer array")
    flat = np.array(idx, dtype=np.int64, order="C")  # a copy, so offsets can be added in place
    over = flat.view(np.uint64) >= table.sizes  # read as unsigned, a negative index is out of range too
    if np.logical_or.reduce(over, axis=None):
        j = np.flatnonzero(np.logical_or.reduce(over, axis=0))[0]
        raise DomainError(f"lookup index out of range for slot {names[j]!r} (rows={table.sizes[j]})")
    flat += table.offsets
    return tape.take(tape.parameter(store, names), flat)


def lookup_fields(tape, store, indices, slot=emb_slot):
    """Embed a batch: indices (B, n) -> one (B, n, d) node, field i in [:, i].

    `slot(i)` names field i's table: `emb_slot` for the embeddings,
    `linear_slot` for the first-order weights, which give (B, n, 1).
    """
    _check_indices(indices)
    return lookup(tape, store, [slot(i) for i in range(indices.shape[1])], indices)


def lookup_field_aware(tape, store, indices):
    """Field-aware embed: indices (B, n) -> two (B, m, d) nodes over the
    m = n(n-1)/2 pairs i < j, in `np.triu_indices` order.

    Entry [:, p] of pair p = (i, j) is field i's vector for partner j in
    the first node and field j's vector for partner i in the second, so
    each of the n(n-1) tables is read once and no field meets itself.
    """
    _check_indices(indices)
    n = indices.shape[1]
    if n < 2:
        raise DomainError("field-aware embeddings need at least two fields")
    return tuple(lookup(tape, store, names, indices[:, own]) for own, names in _pair_sides(n))


@lru_cache(maxsize=None)
def _pair_sides(n):
    """For i, then j, of the pairs i < j on n fields: the field each pair reads and the names of its tables."""
    sides = np.triu_indices(n, 1)
    for own in sides:  # shared by every call
        own.flags.writeable = False
    return tuple((own, tuple(map(emb_slot, own.tolist(), other.tolist()))) for own, other in (sides, sides[::-1]))
