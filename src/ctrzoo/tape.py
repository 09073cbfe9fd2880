"""Float64 math kernel: pure array ops, a reverse-mode tape, parameter storage.

Everything downstream (embeddings, feature interactions, the training loop) is
built from what lives here. Values are plain numpy float64 arrays. The tape
records whole-tensor operations in creation order, so replaying it backward is
a single reverse sweep and its length scales with the number of operations,
not with array entries. Batched operands carry the batch on axis 0.

`contract(spec, *nodes)` is the one product op, element-wise products
included. Its spec is explicit einsum subscripts ("bid,bjd->bij" for a
Gram matrix, "bid,d->bid" for a scaled vector): letters and one '->', no
index repeated within an operand, every operand index also in the output
or another operand, and one size per index, so it never broadcasts a
size-1 axis. Operand k's gradient is the contraction `out,<rest>->ins[k]`
of the output gradient with the other operands. A plan cached per (spec,
shapes) makes one numpy call, forward and backward alike: one `@` of two
operands transposed and reshaped into (stacked, own, summed) blocks when an
index is summed and one operand owns an index alone, and `np.einsum` for
everything else, element-wise products included. `np.einsum` adds each
product into a zeroed output, so an exactly zero product of a negative factor
comes out +0.0 where `np.multiply` gives -0.0; no other bit differs.
A Gram matrix `contract("bid,bjd->bij", E, E)` is bitwise symmetric, so
it needs no symmetrizing: its `@` of E with a transposed view of the same
buffer is BLAS's syrk, which computes one triangle and mirrors it, or,
for a layout BLAS cannot read, numpy's own loop, which adds the same
products in the same order for (i, j) and (j, i).
`add` is the one op that broadcasts, by one rule: an operand of lower
rank equals the trailing axes of the other, so (B, m) + (m,) adds a bias
to every row and (B,) + () shifts every entry, while (3,) + (3, 1) and
(2, 3) + (1, 3) raise ShapeError. `take(x, index, axis)` is the one gather:
it reads along `axis` at a constant integer `index`, whose axes replace it,
and an entry equal to the axis length reads zero; only then is x copied to
append that zero. Its backward sums the reads with one `_scatter_rows`.
`take` and `sum_axis(x, axis)` each take one plain int axis; anything else
(a tuple, a numpy integer, an axis out of range) raises ShapeError. An
embedding lookup (`embedding.lookup`) is a `take` of a parameter leaf over k
tables joined as one (rows, d) view of the store (`ParameterStore.row_view`).
`softmax` normalizes over the last axis, and takes its max, which is exact,
as one reduce over a contiguous copy with that axis first. `logloss` is the
training loss as one node: sigmoid, clamp and mean log-loss fused.

Every op checks its operands and its result the same way on either kind of
tape: a non-finite value raises NumericError naming the op (and, for a
parameter leaf, the slot), a broadcast or batch mismatch or a non-integer
take index ShapeError, and a take index outside [0, axis length] DomainError
naming that range. Each op computes its value with one closure over its input nodes;
`rerun(root)` calls those of a recording tape in order, recomputing every node from the
store's current values through the same finite checks. A tape built with `record=False` keeps
no closure and no node list, so intermediates are freed as soon as they are dead, and
`backward` and `rerun` raise ContractError, as `backward` does after a `rerun`.
`Model.forward` (so `predict`, validation and `verify_equivalence`) runs on one; training
steps and `gradient_check`, which re-runs its loss for each perturbed entry, record.
`backward` frees each node's gradient once it has passed it back, so no node holds one.

A `ParameterStore` keeps its slots in one flat `values` and one flat `grads`
buffer. Gradients are accumulation-only: `backward` adds into them and never
clears them, so calling it twice without `zero_grads` doubles every gradient
exactly, which the finite-difference checker and the optimizer rely on.
`save` writes the store as one JSON checkpoint, `ctrzoo-params-v2`, each slot's
float64 bytes in base64 beside their crc32; `load` reads it, and `ctrzoo-params-v1`,
whose slots list their floats as decimal text, bit for bit alike.

Importing this module has glibc keep freed memory in the process (see
`keep_freed_memory`); `release_memory` hands it back.
"""
from __future__ import annotations

import base64
import ctypes
import json
import math
import string
import zlib
from functools import lru_cache

import numpy as np

from .errors import ContractError, DataError, DomainError, NumericError, ShapeError, read_json, write_text
from .metrics import PROB_FLOOR

__all__ = [
    "sigmoid",
    "Node",
    "Tape",
    "ParameterStore",
    "finite_diff_check",
    "xavier_uniform",
]


# ---------------------------------------------------------------------------
# process memory

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)


def _c_library():
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):  # no process-wide C library to open, as on Windows
        return None


_LIBC = _c_library()


def keep_freed_memory(libc):
    """Have glibc keep freed blocks below 32 MiB in the process; True when `libc` took both settings.

    A step's tape allocates a fresh 1-6 MB array per op and frees them all
    when it ends. glibc's dynamic thresholds give blocks that size their own
    mmap, or trim them off the heap top, so each step gave them back to the
    kernel and the next one faulted them in again, 4 KB at a time. 32 MiB is
    glibc's own ceiling for its dynamic mmap threshold on 64-bit, so larger
    arrays still map and unmap. Without `mallopt`, or where it refuses (a C
    library other than glibc), nothing changes.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    return mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1 and mallopt(_M_TRIM_THRESHOLD, 1 << 30) == 1


def release_memory():
    """Hand the freed memory this process keeps back to the kernel (glibc's `malloc_trim(0)`)."""
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


keep_freed_memory(_LIBC)


# ---------------------------------------------------------------------------
# pure value-level operations


def _finite(arr):
    """True when every entry of the float array is finite. For one dense block a finite `np.vdot` with
    itself (in place in C order; no overflow warning, unlike `@`) proves it: a square is >= 0 or NaN,
    so nothing cancels an inf or a NaN. Otherwise (an entry past ~1e154, a strided view) `isfinite` decides."""
    flags = arr.flags
    if flags.c_contiguous or flags.f_contiguous:
        block = arr if flags.c_contiguous else arr.T
        if math.isfinite(np.vdot(block, block)):
            return True
    return np.logical_and.reduce(np.isfinite(arr), axis=None)


def sigmoid(x):
    """Logistic function, numerically stable over the full float64 range."""
    arr = np.asarray(x, dtype=np.float64)
    if not _finite(arr):
        raise NumericError("non-finite input value")
    out = _logistic(arr)
    return float(out) if arr.ndim == 0 else out


def _logistic(arr):
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) <= 1."""
    e = np.exp(-np.abs(arr))
    return np.where(arr >= 0, 1.0, e) / (1.0 + e)


def xavier_uniform(rng, shape, fan_in, fan_out):
    """Uniform(-a, a) sample with a = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise DomainError(f"xavier fans must be positive, got ({fan_in}, {fan_out})")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# parameter storage

_SAVE_BLOCK = 4095  # floats encoded at once by `ParameterStore.save`, a multiple of 3; bounds its memory


class _Slot:
    __slots__ = ("name", "span", "shape", "value", "grad", "offsets", "sizes")

    def __init__(self, name, span, shape, offsets=None, sizes=None):
        self.name, self.span, self.shape, self.offsets, self.sizes = name, span, shape, offsets, sizes


class ParameterStore:
    """Named float64 parameter slots laid out in two flat buffers.

    Slots are created once (duplicate names are an error) and are all
    trained. `values` and `grads` hold their entries in creation order and
    a slot's `value` and `grad` are views into them. The buffers grow
    geometrically as slots are added, so a view taken before an `add_*` call
    may be stale after it.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self.rng = np.random.default_rng([int(seed), 3])
        self._slots: dict[str, _Slot] = {}
        self._row_views: dict[tuple, _Slot] = {}
        self._buffer = np.zeros((2, 0))  # values, then gradients; spare columns at the end
        self.values, self.grads = self._buffer

    # -- creation ----------------------------------------------------------

    def add_value(self, name, value):
        if name in self._slots:
            raise ContractError(f"duplicate parameter slot {name!r}")
        value = np.asarray(value, dtype=np.float64)
        if not _finite(value):
            raise NumericError(f"non-finite initial value for slot {name!r}")
        start, end = self.values.size, self.values.size + value.size
        slot = self._slots[name] = _Slot(name, slice(start, end), value.shape)
        moved = end > self._buffer.shape[1]
        if moved:  # grow geometrically, and re-bind every view
            old, self._buffer = self._buffer, np.zeros((2, max(end, 2 * self._buffer.shape[1])))
            self._buffer[:, :start] = old[:, :start]
        values, grads = self._buffer[0], self._buffer[1]
        for s in [*self._slots.values(), *self._row_views.values()] if moved else [slot]:
            s.value, s.grad = values[s.span].reshape(s.shape), grads[s.span].reshape(s.shape)
        self.values, self.grads = values[:end], grads[:end]
        slot.value[...] = value
        return slot.value

    def add_zeros(self, name, shape):
        return self.add_value(name, np.zeros(shape))

    def add_xavier(self, name, shape, fans=None):
        if fans is None:
            shape = tuple(np.atleast_1d(shape)) if not isinstance(shape, tuple) else shape
            if len(shape) < 2:
                fans = (int(np.prod(shape)), 1)
            else:
                fans = (int(np.prod(shape[:-1])), int(shape[-1]))
        return self.add_value(name, xavier_uniform(self.rng, shape, *fans))

    # -- access ------------------------------------------------------------

    def slot(self, name) -> _Slot:
        """The slot `name`; a tuple of names gives their joined `row_view`."""
        if isinstance(name, tuple):
            return self.row_view(name)
        try:
            return self._slots[name]
        except KeyError:
            raise ContractError(f"unknown parameter slot {name!r}") from None

    def value(self, name):
        return self.slot(name).value

    def set_value(self, name, value):
        slot = self.slot(name)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != slot.shape:
            raise ShapeError(f"set_value shape mismatch for {name!r}: {value.shape} vs {slot.shape}")
        slot.value[...] = value

    def __contains__(self, name):
        return name in self._slots

    def row_view(self, names):
        """The 2-D slots `names`, of one width d, joined into one (rows, d) slot over `values`
        and `grads` from the first of them to the last: slot names[j] is its sizes[j] rows from
        row offsets[j] on. Cached per names, and re-bound by `add_value` when the buffers move."""
        view = self._row_views.get(names)
        if view is None:
            slots = [self.slot(name) for name in names]
            if len({s.shape[1:] for s in slots}) != 1 or len(slots[0].shape) != 2 or slots[0].shape[1] < 1:
                raise ShapeError(f"lookup slots must be 2-D tables of one positive width, got {list(names)}")
            d, first = slots[0].shape[1], min(slots, key=lambda s: s.span.start)
            starts = [s.span.start - first.span.start for s in slots]
            for s, at in zip(slots, starts):
                if at % d:
                    raise ShapeError(f"lookup slots {first.name!r} and {s.name!r} are not whole {d}-wide rows apart")
            start, stop = first.span.start, max(s.span.stop for s in slots)
            view = _Slot(names, slice(start, stop), ((stop - start) // d, d),
                         np.array(starts) // d, np.array([s.shape[0] for s in slots], np.uint64))
            view.value, view.grad = (buffer[start:stop].reshape(view.shape) for buffer in (self.values, self.grads))
            self._row_views[names] = view
        return view

    def names(self):
        return list(self._slots)

    def slots(self):
        return list(self._slots.values())

    # -- bookkeeping -------------------------------------------------------

    def zero_grads(self):
        self.grads[...] = 0.0

    def param_count(self):
        return self.values.size

    def snapshot(self):
        """A copy of the flat `values` buffer, for `restore`."""
        return self.values.copy()

    def restore(self, snap):
        if np.shape(snap) != self.values.shape:
            raise ShapeError(f"snapshot of shape {np.shape(snap)} does not fit a store of {self.values.size} values")
        self.values[...] = snap

    # -- serialization -----------------------------------------------------

    def save(self, path):
        """Write every slot to `path` as a `ctrzoo-params-v2` checkpoint: the text `json.dumps(payload,
        sort_keys=True)` gives for {"format", "seed", "slots": {name: {"crc32", "shape", "trainable": true,
        "values"}}}, `values` the base64 of the slot's little-endian float64 bytes and `crc32` their
        `zlib.crc32`, so no corrupted byte passes for another float. It is encoded `_SAVE_BLOCK` floats
        at a time (whole base64 quanta) and streamed 64 characters a chunk. A non-finite value raises
        NumericError naming its slot before `path` is opened."""
        names = sorted(self._slots)
        for name in names:
            if not _finite(self._slots[name].value):
                raise NumericError(f"non-finite value in slot {name!r}; {path} not written")
        write_text(path, self._chunks(names))

    def _chunks(self, names):
        yield f'{{"format": "ctrzoo-params-v2", "seed": {json.dumps(self.seed)}, "slots": {{'
        for k, name in enumerate(names):
            slot = self._slots[name]
            values, shape = self.values[slot.span].astype("<f8", copy=False), json.dumps(list(slot.shape))
            yield f'{", " if k else ""}{json.dumps(name)}: {{"crc32": {zlib.crc32(values)}, "shape": {shape}, '
            yield '"trainable": true, "values": "'
            for start in range(0, values.size, _SAVE_BLOCK):
                text = base64.b64encode(values[start:start + _SAVE_BLOCK].tobytes()).decode("ascii")
                for i in range(0, len(text), 64):
                    yield text[i:i + 64]
            yield '"}'
        yield "}}"

    @classmethod
    def load(cls, path):
        """Read a checkpoint written by `save`, or a `ctrzoo-params-v1` one, whose `values` list the floats.

        A file that cannot be read as JSON, names another format, lacks an entry, has a seed that
        is not a non-negative integer, marks a slot other than trainable, gives a shape that is not
        a list of non-negative integers, or holds values that are not base64 matching their crc32
        (v2), do not fit their shape or are not finite raises DataError naming `path` and the slot.
        Slots are laid out in sorted name order, read before the buffers are allocated, once."""
        payload = read_json(path)
        if not isinstance(payload, dict) or "format" not in payload:
            raise DataError(f"{path}: checkpoint has no 'format' entry")
        v1 = payload["format"] == "ctrzoo-params-v1"
        if not v1 and payload["format"] != "ctrzoo-params-v2":
            raise DataError(f"{path}: not a parameter checkpoint")
        slots = payload.get("slots")
        if not isinstance(slots, dict):
            raise DataError(f"{path}: checkpoint has no 'slots' object")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise DataError(f"{path}: checkpoint seed is not a non-negative integer: {json.dumps(seed)}")
        arrays = {}
        for name, rec in sorted(slots.items()):
            try:
                shape, values, trainable = rec["shape"], rec["values"], rec["trainable"]
            except (KeyError, TypeError) as exc:
                raise DataError(f"{path}: slot {name!r} has no {exc} entry") from exc
            if trainable is not True:
                raise DataError(f"{path}: slot {name!r} is not trainable: {json.dumps(trainable)}")
            if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
                raise DataError(f"{path}: slot {name!r} shape is not a list of non-negative integers: {shape}")
            try:
                if v1:
                    flat = np.array(values, np.float64)
                else:
                    raw = base64.b64decode(values, validate=True)
                    if zlib.crc32(raw) != rec.get("crc32"):
                        raise ValueError("the bytes do not match their crc32")
                    flat = np.frombuffer(raw, "<f8")
                arr = arrays[name] = flat.reshape(shape)
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: slot {name!r} values do not fit shape {shape}: {exc}") from exc
            if not _finite(arr):
                raise DataError(f"{path}: non-finite initial value for slot {name!r}")
        store = cls(seed)
        store._buffer = np.zeros((2, sum(arr.size for arr in arrays.values())))  # never grows
        for name, arr in arrays.items():
            store.add_value(name, arr)
        return store


# ---------------------------------------------------------------------------
# reverse-mode tape


class Node:
    """One value, the closure that pushes its gradient back and, on a recording tape, `_forward`."""

    __slots__ = ("value", "grad", "_backward", "_forward")

    def __init__(self, value, backward=None):
        self.value = value
        self.grad = None
        self._backward = backward


def _bump(node, g):
    # Node gradients are never updated in place, so the first contribution
    # can be kept as passed (it may be a view another node also holds).
    if node.grad is None:
        node.grad = g
    else:
        node.grad = node.grad + g


def _unbroadcast(g, shape):
    """Sum a gradient down to `shape`, the trailing axes of g: fold the leading ones into one and sum it."""
    return g if g.shape == shape else g.reshape((-1,) + shape).sum(axis=0)


def _scatter_rows(rows, g, n_rows, axis=0):
    """Sum the len(rows) entries of g along `axis` into n_rows entries by `rows` (non-negative).

    One `np.bincount` over the flat positions adds the entries of g in
    order, so each sum is bitwise the one a loop adding them into zeros
    gives. A gradient buffer then takes each sum in one addition, so a
    second `backward` doubles it exactly.
    """
    lead, width = math.prod(g.shape[:axis]), math.prod(g.shape[axis + 1 :])
    bins = rows[:, None] * width + np.arange(width)
    if lead > 1:  # each index of the leading axes sums into n_rows entries of its own
        bins = (np.arange(lead) * (n_rows * width))[:, None, None] + bins
    sums = np.bincount(bins.reshape(-1), weights=g.reshape(-1), minlength=lead * n_rows * width)
    # an empty `rows` gives an integer array
    return sums.astype(np.float64, copy=False).reshape(g.shape[:axis] + (n_rows,) + g.shape[axis + 1 :])


def _broadcast(a, b):
    """Raise ShapeError unless a + b has equal shapes or one's shape is the other's trailing axes."""
    ashape, bshape = a.value.shape, b.value.shape
    if ashape == bshape:
        return
    short, long = sorted((ashape, bshape), key=len)
    if long[len(long) - len(short) :] != short:
        raise ShapeError(f"add shape mismatch: {ashape} vs {bshape}")


def _einsum_operands(spec, shapes):
    """Split an explicit einsum spec into (operand subscripts, output subscripts, index sizes).

    Raises ShapeError unless the spec has `->` and no ellipsis, one subscript
    per shape, each of the shape's rank with no repeated index, every index of
    one size wherever it appears, every output index unique and found in an
    operand, and every operand index found in the output or another operand.
    """
    letters = set(spec.replace(",", "").replace("->", ""))
    if spec.count("->") != 1 or not letters <= set(string.ascii_letters):
        raise ShapeError(f"einsum spec {spec!r} needs explicit letter subscripts and one '->'")
    lhs, out = spec.split("->")
    ins = lhs.split(",")
    if len(ins) != len(shapes):
        raise ShapeError(f"einsum spec {spec!r} names {len(ins)} operands, got {len(shapes)}")
    sizes = {}
    for sub, shape in zip(ins, shapes):
        if len(sub) != len(shape) or len(set(sub)) != len(sub):
            raise ShapeError(f"einsum subscripts {sub!r} do not fit an operand of shape {shape}")
        for index, size in zip(sub, shape):
            if sizes.setdefault(index, size) != size:
                raise ShapeError(f"einsum index {index!r} has sizes {sizes[index]} and {size}")
    if len(set(out)) != len(out) or not set(out) <= set(sizes):
        raise ShapeError(f"einsum output {out!r} repeats an index or names one no operand has")
    for k, sub in enumerate(ins):
        elsewhere = set(out).union(*(ins[m] for m in range(len(ins)) if m != k))
        if not set(sub) <= elsewhere:
            raise ShapeError(f"einsum operand {sub!r} has an index found nowhere else in {spec!r}")
    return ins, out, sizes


@lru_cache(maxsize=1024)
def _contraction(spec, shapes):
    """(run, gradients) of `spec` on operands of `shapes`: `run(*arrays)` makes
    the numpy call, and entry k of `gradients` is the run of operand k's
    gradient, whose operands are the output gradient and the rest."""
    ins, out, sizes = _einsum_operands(spec, shapes)
    out_shape = tuple(map(sizes.get, out))
    grads = tuple(
        _planned_at_first_call(",".join([out, *ins[:k], *ins[k + 1 :]]) + "->" + sub,
                               (out_shape, *shapes[:k], *shapes[k + 1 :]))
        for k, sub in enumerate(ins)
    )
    # something summed (an operand index the output lacks) and an index owned by one operand alone
    if len(ins) == 2 and not set(ins[0]) <= set(out) and not set(out) <= set(ins[0]) & set(ins[1]):
        return _block_product(ins, out, sizes), grads
    return (lambda *arrays: np.einsum(spec, *arrays)), grads


def _planned_at_first_call(spec, shapes):
    """The run of `_contraction(spec, shapes)`, planned when first called and kept."""
    plan = []

    def run(*arrays):
        if not plan:
            plan.append(_contraction(spec, shapes)[0])
        return plan[0](*arrays)

    return run


def _block_product(ins, out, sizes):
    """One `@` of the blocks (stacked, own, summed) @ (stacked, summed, own).

    An index both operands share with the output is stacked. When both
    operands own indices and one's own indices sit on both sides of its
    summed ones, the leading ones are stacked too and the other operand is
    broadcast over them. The operand whose own indices lead the output goes
    on the left; one that owns none stays where the spec puts it, a vector
    unless something is stacked. A step that would change nothing is None.
    """
    stack = [c for c in out if c in ins[0] and c in ins[1]]
    summed = [c for c in ins[0] if c not in out]
    own = [[c for c in out if c in mine and c not in theirs] for mine, theirs in (ins, ins[::-1])]
    for k, sub in enumerate(ins):
        lead = [c for c in own[k] if sub.index(c) < min(map(sub.index, summed))]
        if own[1 - k] and lead and lead != own[k]:
            stack, own[k] = stack + lead, [c for c in own[k] if c not in lead]
            break
    left = int(all(own) and next(c for c in out if c in own[0] + own[1]) in own[1])

    def merged(groups):  # one axis per stacked index and per non-empty group
        return tuple(math.prod(map(sizes.get, g)) for g in groups if g or stack)

    def block(sub, groups):  # transpose to (stacked, groups...), then merge each group
        axes = [c for c in stack if c in sub] + groups[0] + groups[1]
        shape = tuple(sizes[c] if c in sub else 1 for c in stack) + merged(groups)
        return _unless(tuple(map(sub.index, axes)), range(len(sub))), _unless(shape, map(sizes.get, axes))

    lhs, rhs = own[left], own[1 - left]
    (lperm, lshape), (rperm, rshape) = block(ins[left], (lhs, summed)), block(ins[1 - left], (summed, rhs))
    axes = stack + lhs + rhs
    shape = _unless(tuple(map(sizes.get, axes)), tuple(map(sizes.get, stack)) + merged((lhs, rhs)))
    perm = _unless(tuple(map(axes.index, out)), range(len(out)))

    def run(*arrays):
        a, b = arrays[left], arrays[1 - left]
        a, b = (a if lperm is None else a.transpose(lperm)), (b if rperm is None else b.transpose(rperm))
        product = (a if lshape is None else a.reshape(lshape)) @ (b if rshape is None else b.reshape(rshape))
        product = product if shape is None else product.reshape(shape)
        return product if perm is None else product.transpose(perm)

    return run


def _unless(value, same):
    """`value`, or None where it equals `same`: a step that would change nothing."""
    return None if value == tuple(same) else value


def _axis(axis, ndim):
    """A plain int axis of an `ndim`-D node, as a non-negative one."""
    if type(axis) is not int or not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis!r} is not one int axis of a {ndim}-D node")
    return axis % ndim


def _computed(forward, moved):
    """The float64 array `forward()` computes; unless `moved`, a non-finite one raises NumericError."""
    value = np.asarray(forward())
    if not (moved or _finite(value)):
        # the op, read off the closure's name, is named on this path alone, so the finite path pays nothing
        raise NumericError(f"non-finite value produced on tape by {forward.__qualname__.split('.')[1]}")
    return value


class Tape:
    """Ordered record of whole-tensor operations for one forward pass.

    Operations append nodes in topological order by construction, so
    `backward` is a single reversed sweep that touches each node once.
    Build a fresh tape per forward pass; nodes alias parameter-store
    values, so a tape is only valid until those values change or `rerun`
    recomputes it. `len` counts the nodes emitted, also with `record=False`.
    """

    def __init__(self, record=True):
        self.record = record
        self._nodes: list[Node] = []
        self._emitted = 0
        self._params: dict[_Slot, Node] = {}
        self._rerun = False

    def __len__(self):
        return self._emitted

    def _emit(self, forward, backward=None, moved=False):
        """Append the node `forward()` computes. `moved` marks a value already known to be finite:
        it only rearranges entries of nodes on the tape, which were checked, or its op checked it."""
        node = Node(_computed(forward, moved), backward if self.record else None)
        self._emitted += 1
        if self.record:
            node._forward = forward, moved  # what computes the node's value, and how it is checked
            self._nodes.append(node)
        return node

    def rerun(self, root):
        """Root's value, every recorded node recomputed in order from the store's current values through
        the checks of a fresh forward. `backward` then raises: one stopped part way left two points mixed."""
        if not self.record:
            raise ContractError("rerun on a tape that records no forwards (record=False)")
        self._rerun = True
        for node in self._nodes:
            node.value = _computed(*node._forward)
        return root.value

    # -- leaves ------------------------------------------------------------

    def constant(self, value):
        value = np.asarray(value, dtype=np.float64)
        return self._emit(lambda: value)

    def parameter(self, store, name):
        """Whole slot as a leaf, a tuple of names giving their `row_view`; gradient accumulates into the
        slot buffer. A slot gets one leaf per tape: later calls return the same node. A non-finite
        entry raises NumericError naming the slot, or the first slot in a joined one's span holding it."""
        slot = store.slot(name)
        node = self._params.get(slot)
        if node is None:

            def forward():
                if not _finite(slot.value):  # the slot is named on this path alone
                    at = slot.span.start + np.flatnonzero(~np.isfinite(store.values[slot.span]))[0]
                    bad = next(s.name for s in store.slots() if s.span.start <= at < s.span.stop)
                    raise NumericError(f"non-finite value produced on tape by parameter: slot {bad!r}")
                return slot.value

            def backward(g):
                slot.grad += g

            node = self._params[slot] = self._emit(forward, backward, moved=True)
        return node

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        """a + b, broadcast by the rule in the module docstring: (B, m) + (m,) adds a bias to every row."""
        _broadcast(a, b)

        def backward(g):
            _bump(a, _unbroadcast(g, a.value.shape))
            _bump(b, _unbroadcast(g, b.value.shape))

        return self._emit(lambda: a.value + b.value, backward)

    def contract(self, spec, *nodes):
        """Contract `nodes` by explicit einsum subscripts, "bid,bjd->bij" say; a node may come twice."""
        run, grads = _contraction(spec, tuple([node.value.shape for node in nodes]))

        def backward(g):
            values = [node.value for node in nodes]
            for k, node in enumerate(nodes):
                if node._backward is not None:  # not a constant
                    _bump(node, grads[k](g, *values[:k], *values[k + 1 :]))

        return self._emit(lambda: run(*[node.value for node in nodes]), backward)

    # -- nonlinearities ----------------------------------------------------

    def relu(self, x):
        def backward(g):
            _bump(x, g * (x.value > 0))

        return self._emit(lambda: np.maximum(x.value, 0.0), backward)

    def softmax(self, x):
        """Softmax over the last axis."""
        if x.value.ndim == 0:
            raise ShapeError("softmax of a 0-d node")
        n, p = x.value.shape[-1], None  # forward sets p for backward
        if n == 0:
            raise DomainError("softmax over an empty axis")

        def forward():
            nonlocal p
            v = x.value
            # a max is exact: one reduce over a contiguous copy with the normalized axis first keeps its bits
            top = np.maximum.reduce(np.ascontiguousarray(np.moveaxis(v, -1, 0)).reshape(n, -1))
            # in C order, so the sum adds in one order whatever the memory order of x
            e = np.exp(np.subtract(v, top.reshape(v.shape[:-1] + (1,)), order="C"))
            p = e / e.sum(axis=-1, keepdims=True)
            return p

        def backward(g):
            dot = np.sum(g * p, axis=-1, keepdims=True)
            _bump(x, p * (g - dot))

        return self._emit(forward, backward)

    # -- shape plumbing ----------------------------------------------------

    def reshape(self, x, shape):
        """Same entries in a new shape (C order)."""
        def backward(g):
            _bump(x, g.reshape(x.value.shape))

        try:
            return self._emit(lambda: x.value.reshape(shape), backward, moved=True)
        except ValueError:
            raise ShapeError(f"cannot reshape {x.value.shape} to {shape}") from None

    def take(self, x, index, axis=0):
        """x read along `axis` at the integer array `index`, whose axes replace it; an entry
        equal to the axis length reads zero. The backward sums each entry's reads, in order."""
        index, shape = np.asarray(index), x.value.shape
        axis = _axis(axis, len(shape))
        n, head, tail = shape[axis], shape[:axis], shape[axis + 1 :]
        if index.dtype.kind not in "iu":
            raise ShapeError(f"take index must be an integer array, got {index.dtype}")
        rows = index.reshape(-1).astype(np.int64)  # a copy: the caller may reuse `index`
        top = rows.view(np.uint64).max() if rows.size else 0  # as unsigned, a negative entry is huge
        if top > n:
            raise DomainError(f"take index outside [0, {n}]; {n} reads zero")
        picks = rows.reshape(index.shape)

        def forward():  # only an index that reads the zero copies x to append it
            v = x.value if top < n else np.concatenate((x.value, np.zeros(head + (1,) + tail)), axis)
            return v.take(picks, axis)

        def backward(g):
            sums = _scatter_rows(rows, g.reshape(head + (-1,) + tail), n + 1, axis)
            _bump(x, sums[(slice(None),) * axis + (slice(n),)])

        return self._emit(forward, backward, moved=True)

    def sum_axis(self, x, axis):
        """Sum over the one int `axis`, dropping it."""
        axis = _axis(axis, x.value.ndim)

        def backward(g):
            _bump(x, np.broadcast_to(np.expand_dims(g, axis), x.value.shape))

        return self._emit(lambda: np.add.reduce(x.value, axis=axis), backward)

    # -- loss --------------------------------------------------------------

    def logloss(self, logit, labels):
        """Mean log-loss of click probabilities sigmoid(logit) against 0/1 labels, 0-d.

        Probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] as in
        `metrics.logloss`, whose value this equals bitwise; no gradient
        passes where the clamp is active.
        """
        y = np.asarray(labels, dtype=np.float64)
        if y.shape != logit.value.shape:
            raise ShapeError(f"labels {y.shape} do not match logits {logit.value.shape}")
        if not np.logical_and.reduce((y == 0.0) | (y == 1.0), axis=None):
            raise DataError("labels must be 0 or 1")
        if y.size == 0:
            raise DomainError("log-loss of an empty batch")
        y_off, s, p, q = 1.0 - y, None, None, None  # forward sets s, p and q for backward

        def forward():
            nonlocal s, p, q
            s = _logistic(logit.value)  # a tape value, finite already
            # the clamp as np.clip computes it on finite values
            p = np.minimum(np.maximum(s, PROB_FLOOR), 1.0 - PROB_FLOOR)
            q = 1.0 - p
            # the mean as ndarray.mean forms it: one sum, one division
            terms = y * np.log(p) + y_off * np.log(q)
            return -(np.add.reduce(terms, axis=None) / y.size)

        def backward(g):
            # d/dp of the mean, the clamp mask, then s(1 - s), in the order that
            # separate mean, log, clip and sigmoid nodes would apply them
            c = -g / y.size
            inside = (s > PROB_FLOOR) & (s < 1.0 - PROB_FLOOR)
            _bump(logit, (-(c * y_off / q) + c * y / p) * inside * s * (1.0 - s))

        return self._emit(forward, backward)

    # -- reverse sweep -----------------------------------------------------

    def backward(self, root):
        """Accumulate d(root)/d(slot) into every store gradient buffer.

        `root` must be a 0-d node on this tape. Each node's gradient is freed as
        it is passed back, every consumer having added to it, so none is kept;
        store buffers are not reset (accumulation is the caller's contract,
        cleared via `ParameterStore.zero_grads`).
        """
        if not self.record or self._rerun:
            why = "has been re-run" if self._rerun else "records no backward (record=False)"
            raise ContractError(f"backward on a tape that {why}")
        if root.value.shape != ():
            raise ContractError(f"backward root must be scalar, got shape {root.value.shape}")
        root.grad = np.ones((), dtype=np.float64)
        for node in reversed(self._nodes):
            g, node.grad = node.grad, None
            if g is not None and node._backward is not None:
                node._backward(g)


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_check(f, store, eps=1e-5):
    """Compare store gradient buffers against central differences of `f`.

    `f` is a deterministic zero-argument callable returning the scalar being
    differentiated, re-reading current store values on every call (a fresh forward, or
    a `Tape.rerun`). The caller is expected to have populated the gradient buffers
    (zero_grads, forward, backward) before invoking this. Returns the maximum over all store
    entries of |analytic - central| / max(1, |central|), or NaN once either
    value is NaN, so a non-finite gradient fails every `err < tol` check.
    """
    if eps <= 0:
        raise DomainError(f"finite difference step must be positive, got {eps}")
    worst = 0.0
    for k in range(store.values.size):
        saved = store.values[k]
        store.values[k] = saved + eps
        f_plus = float(f())
        store.values[k] = saved - eps
        f_minus = float(f())
        store.values[k] = saved
        central = (f_plus - f_minus) / (2.0 * eps)
        err = abs(store.grads[k] - central) / max(1.0, abs(central))
        if err > worst or np.isnan(err):
            worst = err
    return worst
