"""Float64 math kernel: pure array ops, a reverse-mode tape, parameter storage.

Everything downstream (embeddings, feature interactions, the training loop) is
built from what lives here. Values are plain numpy float64 arrays. The tape
records whole-tensor operations in creation order, so replaying it backward is
a single reverse sweep and its length scales with the number of operations,
not with array entries. Batched operands carry the batch on axis 0.

`add`, `sub` and `mul` follow one broadcasting rule: operands of equal rank
broadcast over axes of size 1, and an operand of lower rank must equal the
trailing axes of the other. So (B, m) + (m,) and (B,) + () broadcast, while
(3,) + (3, 1) raises ShapeError rather than growing into a (3, 3) result.
`inner` contracts the last axis of two equal shapes, or of (..., d) with a
(d,) vector. `einsum` takes explicit subscripts ("bik,ijk,bjk->bij"),
so it contracts several operands without forming their product.

Every `ParameterStore` slot has a gradient buffer, and the buffers are
accumulation-only: `backward` adds into them and never clears them, so
calling it twice without `zero_grads` doubles every buffer exactly. That
property is what the finite-difference checker and the optimizer rely on.
"""
from __future__ import annotations

import json
import string

import numpy as np

from .errors import ContractError, DataError, DomainError, NumericError, ShapeError, read_json

__all__ = [
    "sigmoid",
    "Node",
    "Tape",
    "ParameterStore",
    "finite_diff_check",
    "xavier_uniform",
]


# ---------------------------------------------------------------------------
# pure value-level operations


def _as_f64(x):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite input value")
    return arr


def sigmoid(x):
    """Logistic function, numerically stable over the full float64 range."""
    arr = np.atleast_1d(_as_f64(x))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    if np.asarray(x).ndim == 0:
        return float(out[0])
    return out.reshape(np.shape(x))


def xavier_uniform(rng, shape, fan_in, fan_out):
    """Uniform(-a, a) sample with a = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise DomainError(f"xavier fans must be positive, got ({fan_in}, {fan_out})")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# parameter storage


class _Slot:
    __slots__ = ("name", "value", "grad")

    def __init__(self, name, value):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)


class ParameterStore:
    """Named float64 parameter slots, each with a gradient buffer of its shape.

    Slots are created once (duplicate names are an error) and iterate in
    insertion order, which keeps initialization, regularization, and
    optimizer updates bit-reproducible for a given seed. Every slot is
    trained.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self.rng = np.random.default_rng([int(seed), 3])
        self._slots: dict[str, _Slot] = {}

    # -- creation ----------------------------------------------------------

    def add_value(self, name, value):
        if name in self._slots:
            raise ContractError(f"duplicate parameter slot {name!r}")
        value = np.array(value, dtype=np.float64)
        if not np.all(np.isfinite(value)):
            raise NumericError(f"non-finite initial value for slot {name!r}")
        slot = _Slot(name, value)
        self._slots[name] = slot
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
        try:
            return self._slots[name]
        except KeyError:
            raise ContractError(f"unknown parameter slot {name!r}") from None

    def value(self, name):
        return self.slot(name).value

    def grad(self, name):
        return self.slot(name).grad

    def set_value(self, name, value):
        slot = self.slot(name)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != slot.value.shape:
            raise ShapeError(
                f"set_value shape mismatch for {name!r}: {value.shape} vs {slot.value.shape}"
            )
        slot.value[...] = value

    def __contains__(self, name):
        return name in self._slots

    def names(self):
        return list(self._slots)

    def slots(self):
        return list(self._slots.values())

    # -- bookkeeping -------------------------------------------------------

    def zero_grads(self):
        for slot in self._slots.values():
            slot.grad[...] = 0.0

    def param_count(self):
        return int(sum(s.value.size for s in self._slots.values()))

    def snapshot(self):
        return {name: slot.value.copy() for name, slot in self._slots.items()}

    def restore(self, snap):
        for name, value in snap.items():
            self.set_value(name, value)

    # -- serialization -----------------------------------------------------

    def state_dict(self):
        return {
            name: {
                "shape": list(slot.value.shape),
                # every slot is trained; the entry keeps the v1 format
                "trainable": True,
                "values": slot.value.reshape(-1).tolist(),
            }
            for name, slot in self._slots.items()
        }

    def save(self, path):
        payload = {"format": "ctrzoo-params-v1", "seed": self.seed, "slots": self.state_dict()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, allow_nan=False)

    @classmethod
    def load(cls, path):
        """Read a checkpoint written by `save`.

        A file that cannot be read as JSON, names another format, lacks an
        entry, has a seed that is not a non-negative integer, marks a slot
        other than trainable, or holds values that do not fit their shape
        raises DataError naming `path`.
        """
        payload = read_json(path)
        if not isinstance(payload, dict) or "format" not in payload:
            raise DataError(f"{path}: checkpoint has no 'format' entry")
        if payload["format"] != "ctrzoo-params-v1":
            raise DataError(f"{path}: not a parameter checkpoint")
        slots = payload.get("slots")
        if not isinstance(slots, dict):
            raise DataError(f"{path}: checkpoint has no 'slots' object")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise DataError(f"{path}: checkpoint seed is not a non-negative integer: {json.dumps(seed)}")
        store = cls(seed)
        for name, rec in slots.items():
            try:
                shape, values, trainable = rec["shape"], rec["values"], rec["trainable"]
            except (KeyError, TypeError) as exc:
                raise DataError(f"{path}: slot {name!r} has no {exc} entry") from exc
            if trainable is not True:
                raise DataError(f"{path}: slot {name!r} is not trainable: {json.dumps(trainable)}")
            try:
                arr = np.array(values, dtype=np.float64).reshape(shape)
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: slot {name!r} values do not fit shape {shape}: {exc}") from exc
            try:
                store.add_value(name, arr)
            except NumericError as exc:
                raise DataError(f"{path}: {exc}") from exc
        return store


# ---------------------------------------------------------------------------
# reverse-mode tape


class Node:
    """One value on the tape plus the closure that pushes its gradient back."""

    __slots__ = ("value", "grad", "_backward")

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


def _needs_grad(node):
    """False for constants: leaves recorded without a backward closure."""
    return node._backward is not None


def _unbroadcast(g, shape):
    """Sum a gradient down to `shape`, undoing a broadcast `_broadcast` allows."""
    if g.shape == shape:
        return g
    if g.ndim > len(shape):
        # a lower-rank operand: fold the leading axes into one and sum it away
        return g.reshape((-1,) + shape).sum(axis=0)
    axes = tuple(k for k, size in enumerate(shape) if size == 1 and g.shape[k] != 1)
    return g.sum(axis=axes, keepdims=True)


def _product_grad(g, other, shape):
    """g * other summed down to `shape`: the gradient of a broadcast product.

    `shape` has g's rank or is its trailing axes. The reduction runs inside
    one einsum, so the full-size product of a broadcast operand is never
    formed.
    """
    if g.shape == shape:
        return g * other
    names = "abcdefghijklmnopqrstuvwxyz"
    ndim = g.ndim
    padded = (1,) * (ndim - len(shape)) + tuple(shape)
    g_sub = names[:ndim]
    other_sub = "".join(
        g_sub[k] if other.shape[k] == g.shape[k] else names[ndim + k] for k in range(ndim)
    )
    out_sub = "".join(g_sub[k] for k in range(ndim) if padded[k] == g.shape[k])
    return np.einsum(f"{g_sub},{other_sub}->{out_sub}", g, other).reshape(shape)


def _scatter_rows(rows, g, n_rows):
    """Sum the rows of g (m, ...) into n_rows rows by `rows` (m,) non-negative.

    One `np.bincount` over row * width + column adds the rows of g in
    order, so each sum is bitwise the one a loop adding them into zeros
    gives. A gradient buffer then takes each sum in one addition, so a
    second `backward` doubles it exactly.
    """
    tail = g.shape[1:]
    width = int(np.prod(tail))
    bins = (rows[:, None] * width + np.arange(width)).reshape(-1)
    sums = np.bincount(bins, weights=g.reshape(-1), minlength=n_rows * width)
    # an empty `rows` gives an integer array
    return sums.astype(np.float64, copy=False).reshape((n_rows,) + tail)


def _broadcast(op, a, b):
    """Raise ShapeError unless a (op) b follows the broadcasting rule above."""
    ashape, bshape = a.value.shape, b.value.shape
    if len(ashape) == len(bshape):
        try:
            np.broadcast_shapes(ashape, bshape)
            return
        except ValueError:
            pass
    else:
        short, long = sorted((ashape, bshape), key=len)
        if long[len(long) - len(short) :] == short:
            return
    raise ShapeError(f"{op} shape mismatch: {ashape} vs {bshape}")


def _einsum_operands(spec, shapes):
    """Split an explicit einsum spec into (operand subscripts, output subscripts).

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
    return ins, out


def _last_axis_product(x, m):
    """x (..., q) @ m (q, p) as one 2-D product (numpy would loop over the leading axes)."""
    return (x.reshape(-1, x.shape[-1]) @ m).reshape(x.shape[:-1] + m.shape[-1:])


def _axes(axis, ndim):
    """An int or tuple axis argument as a sorted tuple of non-negative axes."""
    axes = (axis,) if isinstance(axis, (int, np.integer)) else tuple(axis)
    if any(not -ndim <= a < ndim for a in axes):
        raise ShapeError(f"axis {axis} out of range for a {ndim}-D node")
    axes = tuple(sorted({int(a) % ndim for a in axes}))
    if len(axes) != len(np.atleast_1d(axis)):
        raise ShapeError(f"repeated axis in {axis}")
    return axes


class Tape:
    """Ordered record of whole-tensor operations for one forward pass.

    Operations append nodes in topological order by construction, so
    `backward` is a single reversed sweep that touches each node once.
    Build a fresh tape per forward pass; nodes alias parameter-store
    values, so a tape is only valid until those values change.
    """

    def __init__(self):
        self._nodes: list[Node] = []
        self._params: dict[_Slot, Node] = {}

    def __len__(self):
        return len(self._nodes)

    def _emit(self, value, backward=None, moved=False):
        """Append a node. `moved` marks a value that only rearranges entries
        of nodes already on the tape, which were checked to be finite."""
        value = np.asarray(value, dtype=np.float64)
        if not moved and not np.all(np.isfinite(value)):
            raise NumericError("non-finite value produced on tape")
        node = Node(value, backward)
        self._nodes.append(node)
        return node

    # -- leaves ------------------------------------------------------------

    def constant(self, value):
        return self._emit(value)

    def parameter(self, store, name):
        """Whole slot as a leaf; gradient accumulates into the slot buffer.

        A slot gets one leaf per tape: later calls return the same node.
        """
        slot = store.slot(name)
        node = self._params.get(slot)
        if node is None:

            def backward(g):
                slot.grad += g

            node = self._params[slot] = self._emit(slot.value, backward)
        return node

    def lookup(self, store, names, indices, slot_major=False):
        """Batched row gather from k 2-D slots: indices (B, k) -> value (B, k, d).

        Column j of `indices` reads rows of the slot `names[j]`; a None name
        reads zero rows and passes no gradient. Named slots share the width d.
        The value is C-contiguous; with `slot_major` it is k contiguous
        (B, d) blocks, one per column, viewed as (B, k, d).

        The backward pass sums each column's gradient rows into its slot
        with `_scatter_rows`, so repeated indices inside a batch accumulate
        rather than overwrite.
        """
        names = list(names)
        slots = [None if name is None else store.slot(name) for name in names]
        idx = np.asarray(indices)
        if idx.ndim != 2 or idx.shape[1] != len(names) or not np.issubdtype(idx.dtype, np.integer):
            raise ShapeError(f"lookup indices must be a (B, {len(names)}) integer array")
        widths = {s.value.shape[1:] for s in slots if s is not None}
        if len(widths) != 1 or len(next(iter(widths))) != 1:
            raise ShapeError(f"lookup slots must be 2-D tables of one width, got {names}")
        ((d,),) = widths
        rows = np.array([0 if s is None else s.value.shape[0] for s in slots])
        if idx.size:
            named = np.array([s is not None for s in slots])
            bad = named & ((idx.min(axis=0) < 0) | (idx.max(axis=0) >= rows))
            if bad.any():
                j = int(np.argmax(bad))
                raise DomainError(
                    f"lookup index out of range for slot {names[j]!r} (rows={rows[j]})"
                )
        # a copy, one contiguous row per column: the caller may reuse `indices`
        columns = np.array(idx.T, dtype=np.int64, order="C")
        b, k = idx.shape
        value = np.empty((k, b, d)).transpose(1, 0, 2) if slot_major else np.empty((b, k, d))
        for j, slot in enumerate(slots):
            if slot is None:
                value[:, j] = 0.0
            else:
                # in range, checked above; "clip" spares np.take a buffered copy
                np.take(slot.value, columns[j], axis=0, out=value[:, j], mode="clip")

        def backward(g):
            for j, slot in enumerate(slots):
                if slot is not None:
                    slot.grad += _scatter_rows(columns[j], g[:, j], rows[j])

        return self._emit(value, backward)

    # -- arithmetic --------------------------------------------------------

    # Binary element-wise ops broadcast by the rule in the module docstring:
    # (B, n, 1, d) * (B, 1, n, d) is the (B, n, n, d) grid of pair products,
    # (B, m) + (m,) adds a bias to every row.

    def add(self, a, b):
        _broadcast("add", a, b)

        def backward(g):
            _bump(a, _unbroadcast(g, a.value.shape))
            _bump(b, _unbroadcast(g, b.value.shape))

        return self._emit(a.value + b.value, backward)

    def sub(self, a, b):
        _broadcast("sub", a, b)

        def backward(g):
            _bump(a, _unbroadcast(g, a.value.shape))
            _bump(b, _unbroadcast(-g, b.value.shape))

        return self._emit(a.value - b.value, backward)

    def mul(self, a, b):
        """Element-wise (Hadamard) product."""
        _broadcast("mul", a, b)

        def backward(g):
            if _needs_grad(a):
                _bump(a, _product_grad(g, b.value, a.value.shape))
            if _needs_grad(b):
                _bump(b, _product_grad(g, a.value, b.value.shape))

        return self._emit(a.value * b.value, backward)

    def scale_const(self, a, c):
        c = float(c)

        def backward(g):
            _bump(a, g * c)

        return self._emit(a.value * c, backward)

    def inner(self, u, v):
        """Dot product over the last axis: (..., d) with (..., d) -> (...).

        Equal shapes pair up entry-wise over the leading axes, e.g.
        (B, d)x(B, d) -> (B,) and (d,)x(d,) -> 0-d. A vector (d,), the
        trailing axis of the other operand, is contracted with every row:
        (..., d)x(d,) and (d,)x(..., d) -> (...).
        """
        if u.value.ndim < v.value.ndim:
            u, v = v, u
        ushape, vshape = u.value.shape, v.value.shape
        if ushape == vshape and ushape:
            out = np.einsum("...d,...d->...", u.value, v.value)

            def backward(g):
                # work in the operands' memory order: the output is laid out
                # like them, and each gradient is laid out like its operand
                laid_out = np.empty_like(out)
                laid_out[...] = g
                g = laid_out[..., None]
                _bump(u, np.multiply(g, v.value, out=np.empty_like(u.value)))
                _bump(v, np.multiply(g, u.value, out=np.empty_like(v.value)))

            return self._emit(out, backward)
        if len(vshape) != 1 or ushape[-1:] != vshape:
            raise ShapeError(f"inner shape mismatch: {ushape} vs {vshape}")
        rows = u.value.reshape(-1, vshape[0])

        def backward(g):
            _bump(u, g[..., None] * v.value)
            _bump(v, g.reshape(-1) @ rows)

        return self._emit((rows @ v.value).reshape(ushape[:-1]), backward)

    def einsum(self, spec, *nodes):
        """`np.einsum` with explicit subscripts, e.g. "bik,ijk,bjk->bij".

        The rules `_einsum_operands` checks keep every gradient one einsum:
        each operand's is the output gradient contracted with the other
        operands. A node may be passed more than once.
        """
        ins, out = _einsum_operands(spec, [node.value.shape for node in nodes])

        def backward(g):
            for k, node in enumerate(nodes):
                if _needs_grad(node):
                    others = [m for m in range(len(nodes)) if m != k]
                    grad_spec = ",".join([out] + [ins[m] for m in others]) + "->" + ins[k]
                    _bump(node, np.einsum(grad_spec, g, *(nodes[m].value for m in others)))

        return self._emit(np.einsum(spec, *(node.value for node in nodes)), backward)

    def linear_map(self, m, x):
        """Apply matrix m (p, q) to the last axis of x: (..., q) -> (..., p)."""
        if m.value.ndim != 2:
            raise ShapeError(f"linear_map matrix must be 2-D, got {m.value.shape}")
        p, q = m.value.shape
        if x.value.ndim == 0 or x.value.shape[-1] != q:
            raise ShapeError(f"linear_map shapes: {m.value.shape}, {x.value.shape}")

        def backward(g):
            _bump(x, _last_axis_product(g, m.value))
            _bump(m, g.reshape(-1, p).T @ x.value.reshape(-1, q))

        return self._emit(_last_axis_product(x.value, m.value.T), backward)

    def matmul(self, x, w):
        """Matrix product x @ w of operands of rank >= 2, numpy style.

        The last two axes multiply as matrices, (p, q) @ (q, r) -> (p, r);
        leading axes broadcast, so (B, p, q) @ (q, r) and
        (B, p, q) @ (B, q, r) both give (B, p, r).
        """
        xs, ws = x.value.shape, w.value.shape
        if len(xs) < 2 or len(ws) < 2 or xs[-1] != ws[-2]:
            raise ShapeError(f"matmul shapes: {xs}, {ws}")
        try:
            np.broadcast_shapes(xs[:-2], ws[:-2])
        except ValueError:
            raise ShapeError(f"matmul batch shapes: {xs}, {ws}") from None

        if len(ws) == 2:
            # one shared matrix: fold every leading axis into one 2-D product
            def backward(g):
                if _needs_grad(x):
                    _bump(x, _last_axis_product(g, w.value.T))
                if _needs_grad(w):
                    _bump(w, x.value.reshape(-1, xs[-1]).T @ g.reshape(-1, ws[-1]))

            return self._emit(_last_axis_product(x.value, w.value), backward)

        def backward(g):
            if _needs_grad(x):
                _bump(x, _unbroadcast(g @ np.swapaxes(w.value, -1, -2), xs))
            if _needs_grad(w):
                _bump(w, _unbroadcast(np.swapaxes(x.value, -1, -2) @ g, ws))

        return self._emit(x.value @ w.value, backward)

    # -- nonlinearities ----------------------------------------------------

    def relu(self, x):
        mask = x.value > 0

        def backward(g):
            _bump(x, g * mask)

        return self._emit(np.maximum(x.value, 0.0), backward)

    def sigmoid(self, x):
        out = sigmoid(x.value)
        out = np.asarray(out)

        def backward(g):
            _bump(x, g * out * (1.0 - out))

        return self._emit(out, backward)

    def log(self, x):
        if np.any(x.value <= 0):
            raise NumericError("log of a non-positive tape value")

        def backward(g):
            _bump(x, g / x.value)

        return self._emit(np.log(x.value), backward)

    def clip(self, x, lo, hi):
        """Clamp to [lo, hi]; gradient passes through strictly inside the range."""
        inside = (x.value > lo) & (x.value < hi)

        def backward(g):
            _bump(x, g * inside)

        return self._emit(np.clip(x.value, lo, hi), backward)

    def softmax(self, x, axis=-1, mask=None):
        """Softmax over `axis` (an int, or a tuple of axes normalized jointly).

        `mask` is an optional boolean array that broadcasts against x;
        entries where it is False get exactly zero weight, however large
        their score. Every slice being normalized must keep at least one
        entry.
        """
        v = x.value
        if v.ndim == 0:
            raise ShapeError("softmax of a 0-d node")
        axes = _axes(axis, v.ndim)
        if any(v.shape[a] == 0 for a in axes):
            raise DomainError("softmax over an empty axis")
        if mask is None:
            e = np.exp(v - v.max(axis=axes, keepdims=True))
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.ndim != v.ndim:
                raise ShapeError(f"softmax mask {mask.shape} does not match {v.shape}")
            if not np.all(np.any(mask, axis=axes)):
                raise DomainError("softmax over a slice whose entries are all masked")
            top = np.max(v, axis=axes, keepdims=True, where=mask, initial=-np.inf)
            e = np.exp(np.where(mask, v - top, -np.inf))
        p = e / e.sum(axis=axes, keepdims=True)

        def backward(g):
            dot = np.sum(g * p, axis=axes, keepdims=True)
            _bump(x, p * (g - dot))

        return self._emit(p, backward)

    def dropout(self, x, rate, rng):
        """Inverted dropout: zero with probability `rate`, scale kept by 1/(1-rate)."""
        if not 0.0 <= rate < 1.0:
            raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
        if rate == 0.0:
            return x
        mask = (rng.random(x.value.shape) >= rate) / (1.0 - rate)

        def backward(g):
            _bump(x, g * mask)

        return self._emit(x.value * mask, backward)

    # -- shape plumbing ----------------------------------------------------

    def reshape(self, x, shape):
        """Same entries in a new shape (C order)."""
        try:
            value = x.value.reshape(shape)
        except ValueError:
            raise ShapeError(f"cannot reshape {x.value.shape} to {shape}") from None

        def backward(g):
            _bump(x, g.reshape(x.value.shape))

        return self._emit(value, backward, moved=True)

    def transpose(self, x, axes):
        """Permute the axes of x; `axes` lists them in their new order."""
        axes = tuple(int(a) for a in axes)
        if sorted(axes) != list(range(x.value.ndim)):
            raise ShapeError(f"transpose axes {axes} do not permute a {x.value.ndim}-D node")
        inverse = tuple(np.argsort(axes))

        def backward(g):
            _bump(x, np.transpose(g, inverse))

        return self._emit(np.transpose(x.value, axes), backward, moved=True)

    def take(self, x, indices, axis):
        """Entries `indices` along `axis`, as `np.take`; repeats accumulate gradient."""
        idx = np.array(indices, dtype=np.int64)
        (axis,) = _axes(axis, x.value.ndim)
        size = x.value.shape[axis]
        if idx.size and (idx.min() < -size or idx.max() >= size):
            raise DomainError(f"take index out of range for an axis of {size}")
        idx %= max(size, 1)
        where = (slice(None),) * axis + (idx,)
        unique = np.unique(idx).size == idx.size
        picked = tuple(range(axis, axis + idx.ndim))

        def backward(g):
            if unique:
                gx = np.zeros_like(x.value)
                gx[where] = g
            else:
                # the picked axes first, flattened into one row axis
                g = np.moveaxis(g, picked, tuple(range(idx.ndim)))
                g = g.reshape((idx.size,) + g.shape[idx.ndim :])
                gx = np.moveaxis(_scatter_rows(idx.reshape(-1), g, size), 0, axis)
            _bump(x, gx)

        return self._emit(np.take(x.value, idx, axis=axis), backward, moved=True)

    def sum_axis(self, x, axis):
        """Sum over `axis` (an int or a tuple of axes), dropping it."""
        axes = _axes(axis, x.value.ndim)

        def backward(g):
            _bump(x, np.broadcast_to(np.expand_dims(g, axes), x.value.shape))

        return self._emit(x.value.sum(axis=axes), backward)

    def mean_all(self, x):
        size = x.value.size
        if size == 0:
            raise DomainError("mean of an empty node")

        def backward(g):
            _bump(x, np.broadcast_to(g / size, x.value.shape))

        return self._emit(np.asarray(x.value.mean()), backward)

    # -- reverse sweep -----------------------------------------------------

    def backward(self, root):
        """Accumulate d(root)/d(slot) into every store gradient buffer.

        `root` must be a 0-d node on this tape. Node-local gradients are
        reset here; store buffers are not (accumulation is the caller's
        contract, cleared via `ParameterStore.zero_grads`).
        """
        if root.value.shape != ():
            raise ContractError(f"backward root must be scalar, got shape {root.value.shape}")
        for node in self._nodes:
            node.grad = None
        root.grad = np.ones((), dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_check(f, store, eps=1e-5):
    """Compare store gradient buffers against central differences of `f`.

    `f` is a deterministic zero-argument callable returning the scalar being
    differentiated, re-reading current store values on every call. The caller
    is expected to have populated the gradient buffers (zero_grads, forward,
    backward) before invoking this. Returns the maximum over all slot
    entries of |analytic - central| / max(1, |central|).
    """
    if eps <= 0:
        raise DomainError(f"finite difference step must be positive, got {eps}")
    worst = 0.0
    for slot in store.slots():
        flat = slot.value.reshape(-1)
        gflat = slot.grad.reshape(-1)
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + eps
            f_plus = float(f())
            flat[k] = saved - eps
            f_minus = float(f())
            flat[k] = saved
            central = (f_plus - f_minus) / (2.0 * eps)
            err = abs(gflat[k] - central) / max(1.0, abs(central))
            if err > worst:
                worst = err
    return worst
