"""Feature-interaction layer: pairwise terms, neighborhoods, model catalog.

Every model here scores a record by combining per-field embedding vectors
through the same two-slot pattern: a similarity S(f_i, f_j) scaling a
utility U(f_i, f_j), summed over a neighborhood of fields. Choosing S, U,
and the neighborhood reproduces the classical architectures; `fi_catalog`
holds those choices and `fi_forward` evaluates any of them on a tape.

Conventions: "others" neighborhoods sum over ordered pairs j != i, so
symmetric similarities count each unordered pair twice (the model layer
compensates where the classical form sums i < j). Grid configurations
produce one vector per ordered pair, including i == j. Softmax-normalized
similarities renormalize per target field; attention-pooled ones (AFM)
renormalize jointly over all ordered pairs.

`fi_forward` evaluates a row on the whole (B, n, d) field tensor: the
similarity is one (B, n, n) matrix, each neighborhood a constant (n, n)
mask, and the utility one contraction with the weights, so the tape
records a fixed number of nodes whatever n is.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import CatalogError, ContractError, DomainError

MODEL_NAMES = (
    "LR",
    "FM",
    "FFM",
    "FwFM",
    "IPNN",
    "DCN",
    "DeepFM-deep",
    "CIN2",
    "AFM",
    "AutoInt",
    "SAM1",
    "SAM2_A",
    "SAM2_E",
    "SAM3_A",
    "SAM3_E",
)


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class FIConfig:
    """Which similarity, utility, and neighborhood a model's FI layer uses."""

    model: str
    similarity: str
    utility: str
    neighborhood: str  # "self" | "others" | "all" | "grid"
    softmax: bool = False
    pair_softmax: bool = False
    field_aware: bool = False
    self_product: bool = False  # grid hadamard reads f_i * f_i instead of f_i * f_j

    def without_softmax(self):
        return replace(self, softmax=False)


_CATALOG = {
    "LR": FIConfig("LR", "one", "identity", "self"),
    "FM": FIConfig("FM", "inner", "one", "others"),
    "FFM": FIConfig("FFM", "inner", "one", "others", field_aware=True),
    "FwFM": FIConfig("FwFM", "inner", "scalar_pair_sym", "others"),
    "IPNN": FIConfig("IPNN", "inner", "scalar_inner", "all"),
    "DCN": FIConfig("DCN", "one", "scaled_identity", "self"),
    "DeepFM-deep": FIConfig("DeepFM-deep", "one", "identity", "self"),
    "CIN2": FIConfig("CIN2", "inner", "scalar_pair", "all"),
    "AFM": FIConfig("AFM", "afm", "projected_inner", "others", pair_softmax=True),
    "AutoInt": FIConfig("AutoInt", "proj_qk", "linear_map", "all", softmax=True),
    "SAM1": FIConfig("SAM1", "one", "identity", "self"),
    "SAM2_A": FIConfig("SAM2_A", "inner", "vector_pair", "grid"),
    "SAM2_E": FIConfig("SAM2_E", "inner", "hadamard", "grid"),
    "SAM3_A": FIConfig("SAM3_A", "proj_k", "vector_pair", "all", softmax=True),
    "SAM3_E": FIConfig("SAM3_E", "proj_k", "hadamard", "all", softmax=True),
}


def fi_catalog(name):
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(MODEL_NAMES)
        raise CatalogError(f"unknown model {name!r}; catalog has: {known}") from None


def sym_pair_index(i, j, n):
    """Position of unordered pair {i, j} in the flattened upper triangle."""
    if i == j:
        raise DomainError("no symmetric pair index for i == j")
    i, j = min(i, j), max(i, j)
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def ordered_pairs(n, upper_only=False):
    if upper_only:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i in range(n) for j in range(n)]


# ---------------------------------------------------------------------------
# slot binding


class SlotNodes:
    """Memoizing view of store slots as tape nodes (one leaf per slot and tape)."""

    def __init__(self, tape, store):
        self.tape = tape
        self.store = store
        self._whole = {}

    def whole(self, name):
        if name not in self._whole:
            self._whole[name] = self.tape.parameter(self.store, name)
        return self._whole[name]


# ---------------------------------------------------------------------------
# constant index tensors, built once per field count


def _frozen(arr):
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _neighborhood_mask(kind, n):
    """(1, n, n) boolean mask: entry [0, i, j] is True when field j is in field i's neighborhood."""
    if kind == "self":
        mask = np.eye(n, dtype=bool)
    elif kind == "others":
        if n < 2:
            raise DomainError("an 'others' neighborhood needs at least two fields")
        mask = ~np.eye(n, dtype=bool)
    elif kind == "all":
        mask = np.ones((n, n), dtype=bool)
    else:
        raise CatalogError(f"unknown neighborhood {kind!r}")
    return _frozen(mask[None])


@lru_cache(maxsize=None)
def _sym_pair_table(n):
    """(n, n) positions into the flattened upper triangle (diagonal reads entry 0)."""
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                table[i, j] = sym_pair_index(i, j, n)
    return _frozen(table)


@lru_cache(maxsize=None)
def _unordered_pairs(n):
    """Selectors for the m = n(n+1)/2 pairs i <= j: one-hot (m, n) rows picking
    i and j, and the (m, n*n) map spreading a pair value over (i, j) and (j, i)."""
    first, second = np.triu_indices(n)
    m = len(first)
    pick_first, pick_second = np.zeros((m, n)), np.zeros((m, n))
    pick_first[np.arange(m), first] = 1.0
    pick_second[np.arange(m), second] = 1.0
    spread = np.zeros((m, n * n))
    spread[np.arange(m), first * n + second] = 1.0
    spread[np.arange(m), second * n + first] = 1.0
    return _frozen(pick_first), _frozen(pick_second), _frozen(spread)


# ---------------------------------------------------------------------------
# forward evaluation


def fi_forward(tape, cfg, fields, slots, *, prefix="fi.", grid_pairs=None):
    """Evaluate one FI layer on a whole batch: sum_j N_ij S(f_i, f_j) U(f_i, f_j).

    `fields` is one stacked node: (B, n, d) field embeddings or, for
    field-aware configs, (B, n, n, d) whose entry [:, i, j] is the vector
    field i keeps for partner j (the diagonal is never read). The
    similarity is a (B, n, n) matrix, the neighborhood N a constant
    (n, n) mask, the optional softmax runs per target field (or jointly
    over every pair for `pair_softmax`), and the utility is contracted
    against the weights. Only the SAM2 grid and AFM's attention network
    hold one vector per pair.

    Returns (B, n, d) for per-field vector utilities, (B, n) for scalar
    utilities, and (B, P, d) for grid configs, with row p holding pair
    `grid_pairs[p]` (default all ordered pairs, pair (i, j) in row i*n + j).
    """
    if fields is None:
        raise ContractError(f"{cfg.model}: fi_forward needs the stacked field embeddings")
    ndim = 4 if cfg.field_aware else 3
    if fields.value.ndim != ndim:
        raise ContractError(
            f"{cfg.model}: fi_forward expects {ndim}-D field embeddings, got {fields.value.shape}"
        )
    if cfg.field_aware and cfg.similarity != "inner":
        raise CatalogError(f"{cfg.model}: field-aware embeddings only support the inner similarity")

    def param(name):
        return slots.whole(prefix + name)

    if cfg.neighborhood == "grid":
        return _grid(tape, cfg, fields, param, grid_pairs)

    scores = _similarity(tape, cfg, fields, param)
    n = fields.value.shape[1]
    mask = _neighborhood_mask(cfg.neighborhood, n)
    if scores is None:
        if cfg.neighborhood != "self":
            raise CatalogError(f"{cfg.model}: the unit similarity needs the 'self' neighborhood")
        weights = None
    elif cfg.pair_softmax:
        weights = tape.softmax(scores, axis=(1, 2), mask=mask)
    elif cfg.softmax:
        weights = tape.softmax(scores, axis=-1, mask=mask)
    elif mask.all():
        weights = scores
    else:
        weights = tape.mul(scores, tape.constant(mask))
    return _utility(tape, cfg, fields, weights, param)


def _similarity(tape, cfg, E, param):
    """S[b, i, j] = S(f_i, f_j) as one (B, n, n) node; None for the unit similarity."""
    kind = cfg.similarity
    if kind == "one":
        return None
    if kind == "inner":
        if cfg.field_aware:
            # <e_i^(j), e_j^(i)>: each field's vector for the partner, both ways
            return tape.inner(E, tape.transpose(E, (0, 2, 1, 3)))
        gram = tape.matmul(E, tape.transpose(E, (0, 2, 1)))
        # a matrix product does not promise S_ij == S_ji to the last bit; the
        # symmetric part does, which keeps symmetric grids exactly symmetric
        return tape.scale_const(tape.add(gram, tape.transpose(gram, (0, 2, 1))), 0.5)
    if kind == "proj_k":
        return tape.matmul(E, tape.transpose(tape.linear_map(param("k"), E), (0, 2, 1)))
    if kind == "proj_qk":
        q = tape.linear_map(param("q"), E)
        k = tape.linear_map(param("k"), E)
        return tape.matmul(q, tape.transpose(k, (0, 2, 1)))
    if kind == "afm":
        # h . relu(W (f_i * f_j) + b) is symmetric in the pair: run the
        # attention network once per pair i <= j, then spread the scores
        B, n = E.value.shape[:2]
        first, second, spread = (tape.constant(c) for c in _unordered_pairs(n))
        pairs = tape.mul(tape.matmul(first, E), tape.matmul(second, E))
        hidden = tape.relu(tape.add_bias(tape.linear_map(param("attn_w"), pairs), param("attn_b")))
        scores = tape.matmul(tape.inner(hidden, param("attn_h")), spread)
        return tape.reshape(scores, (B, n, n))
    raise CatalogError(f"unknown similarity kind {kind!r}")


def _pair_scalars(tape, cfg, param, n):
    """(1, n, n) node of the per-pair scalar utility, or None if it is not one."""
    kind = cfg.utility
    if kind == "scalar_pair":
        table = param("pairw")
    elif kind == "scalar_pair_sym":
        table = tape.take(param("pairw"), _sym_pair_table(n), axis=0)
    elif kind == "scalar_inner":
        theta = param("theta")
        table = tape.matmul(theta, tape.transpose(theta, (1, 0)))
    else:
        return None
    return tape.reshape(table, (1, n, n))


def _utility(tape, cfg, E, W, param):
    """sum_j W[b, i, j] U(f_i, f_j) for every field.

    W is the masked (and possibly normalized) similarity; None stands for
    the identity, i.e. the unit similarity over the self neighborhood.
    """
    kind = cfg.utility
    B, n = E.value.shape[:2]
    if kind == "one":
        if W is None:
            raise ContractError("similarity 'one' with utility 'one' leaves nothing to emit")
        return tape.sum_axis(W, -1)
    if W is None and kind not in ("identity", "scaled_identity", "linear_map", "hadamard"):
        W = tape.constant(np.broadcast_to(np.eye(n), (B, n, n)))
    table = _pair_scalars(tape, cfg, param, n)
    if table is not None:
        return tape.sum_axis(tape.mul(W, table), -1)
    if kind == "projected_inner":
        # <p, f_i * f_j> for every pair as (E * p) @ E^T
        d = E.value.shape[-1]
        scaled = tape.mul(E, tape.reshape(param("proj_p"), (1, 1, d)))
        util = tape.matmul(scaled, tape.transpose(E, (0, 2, 1)))
        return tape.sum_axis(tape.mul(W, util), -1)
    if kind == "vector_pair":
        d = E.value.shape[-1]
        vecs = tape.reshape(param("pairvec"), (n, n, d))
        # per target field i: weights W[:, i, :] (B, n) times its vectors (n, d)
        out = tape.matmul(tape.transpose(W, (1, 0, 2)), vecs)
        return tape.transpose(out, (1, 0, 2))

    def mixed(x):
        return x if W is None else tape.matmul(W, x)

    if kind == "identity":
        return mixed(E)
    if kind == "scaled_identity":
        return tape.mul(mixed(E), tape.reshape(param("fieldw"), (1, n, 1)))
    if kind == "linear_map":
        return mixed(tape.linear_map(param("v"), E))
    if kind == "hadamard":
        if cfg.self_product:
            square = tape.mul(E, E)
            if W is None:
                return square
            return tape.mul(square, tape.reshape(tape.sum_axis(W, -1), (B, n, 1)))
        return tape.mul(E, mixed(E))
    raise CatalogError(f"unknown utility kind {kind!r}")


def _grid(tape, cfg, E, param, grid_pairs):
    """One vector per listed pair: S(f_i, f_j) U(f_i, f_j) as (B, P, d)."""
    B, n, d = E.value.shape
    pairs = ordered_pairs(n) if grid_pairs is None else list(grid_pairs)
    rows = np.array([i * n + j for i, j in pairs], dtype=np.int64)
    full = len(rows) == n * n and np.array_equal(rows, np.arange(n * n))

    def pick(x):
        return x if full else tape.take(x, rows, axis=1)

    scores = _similarity(tape, cfg, E, param)
    if scores is None:
        raise CatalogError(f"{cfg.model}: a grid needs a similarity")
    if cfg.utility == "hadamard":
        left = tape.reshape(E, (B, n, 1, d))
        if cfg.self_product:
            # f_i * f_i is the same for every partner j: broadcast it
            out = tape.mul(tape.reshape(scores, (B, n, n, 1)), tape.mul(left, left))
        else:
            out = tape.scale_rows(scores, tape.mul(left, tape.reshape(E, (B, 1, n, d))))
        return pick(tape.reshape(out, (B, n * n, d)))
    if cfg.utility == "vector_pair":
        weights = pick(tape.reshape(scores, (B, n * n, 1)))
        vecs = param("pairvec")  # row p belongs to pair p
        if vecs.value.shape[0] != len(rows):
            vecs = tape.take(vecs, np.arange(len(rows)), axis=0)
        return tape.mul(weights, tape.reshape(vecs, (1, len(rows), d)))
    raise CatalogError(f"{cfg.model}: grid utility {cfg.utility!r} is not supported")
