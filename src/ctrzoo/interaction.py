"""Feature-interaction layer: pairwise terms, neighborhoods, model catalog.

Every model here scores a record by combining per-field embedding vectors
through the same two-slot pattern: a similarity S(f_i, f_j) scaling a
utility U(f_i, f_j), summed over a neighborhood of fields. Choosing S, U,
and the neighborhood reproduces the classical architectures; `fi_catalog`
holds those choices and `fi_forward` evaluates any of them on a tape.

Conventions: "others" neighborhoods sum over ordered pairs j != i, so
symmetric similarities count each unordered pair twice (the model layer
compensates where the classical form sums i < j). A similarity that costs
work per pair, FFM's field-aware inner product and AFM's attention
network, is computed once per pair i < j and mirrored onto (j, i).
Softmax-normalized similarities renormalize per target field;
attention-pooled ones (AFM) renormalize jointly over all ordered pairs.
Grid configurations (SAM2) weigh one vector per listed pair, i == j
included in the full grid, and are only ever read through the affine head
that follows them, so `fi_forward` returns the grid already contracted
with the head weights and never forms a vector per pair.

`fi_forward` evaluates a row on the whole (B, n, d) field tensor: the
similarity is one (B, n, n) matrix, each neighborhood a constant (n, n)
mask, and the utility one contraction with the weights, so the tape
records a fixed number of nodes whatever n is.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CatalogError, ContractError, DomainError, ShapeError

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
def _field_pairs(n):
    """Constants for the m = n(n-1)/2 pairs i < j: one-hot (m, n) rows picking
    i and j, and the (m, n*n) map spreading a pair value over (i, j) and (j, i)."""
    first, second = np.triu_indices(n, 1)
    m = len(first)
    pick_first, pick_second = np.zeros((m, n)), np.zeros((m, n))
    pick_first[np.arange(m), first] = 1.0
    pick_second[np.arange(m), second] = 1.0
    spread = np.zeros((m, n * n))
    spread[np.arange(m), first * n + second] = 1.0
    spread[np.arange(m), second * n + first] = 1.0
    return _frozen(pick_first), _frozen(pick_second), _frozen(spread)


@lru_cache(maxsize=None)
def _grid_placement(pairs, n):
    """(n*n, P) one-hot map putting listed pair p = (i, j) at grid entry i*n + j."""
    place = np.zeros((n * n, len(pairs)))
    for p, (i, j) in enumerate(pairs):
        place[i * n + j, p] = 1.0
    return _frozen(place)


def _fields_of_pairs(m):
    """The field count n with n(n-1)/2 == m."""
    n = int(round((1.0 + np.sqrt(1.0 + 8.0 * m)) / 2.0))
    if n * (n - 1) // 2 != m:
        raise ContractError(f"{m} pairs are not the pairs i < j of any field count")
    return n


# ---------------------------------------------------------------------------
# forward evaluation


def fi_forward(tape, cfg, fields, store, *, prefix="fi.", grid_pairs=None, head=None):
    """Evaluate one FI layer on a whole batch: sum_j N_ij S(f_i, f_j) U(f_i, f_j).

    `fields` is one stacked (B, n, d) node of field embeddings or, for
    field-aware configs, the two (B, m, d) nodes `lookup_field_aware` gives
    for the m = n(n-1)/2 pairs i < j: column p = (i, j) of the first holds
    field i's vector for partner j, of the second field j's for partner i,
    so each pair's similarity is computed once. The similarity is a
    (B, n, n) matrix, the neighborhood N a constant (n, n) mask, the
    optional softmax runs per target field (or jointly over every pair for
    `pair_softmax`), and the utility is contracted against the weights.
    The weights are the `store` slots named `prefix` + their role, bound
    through `tape.parameter`.

    Returns (B, n, d) for per-field vector utilities and (B, n) for scalar
    utilities. A grid config returns its logit contribution (B,): the sum
    over the pairs p = (i, j) in `grid_pairs` (default all ordered pairs) of
    w_p . S(f_i, f_j) U(f_i, f_j), where `head` names the (P*d, 1) slot of
    the affine head that reads the grid, row p*d + k weighing coordinate k
    of pair p; the `pairvec` slot of a vector-pair grid has one row per pair.
    """
    if cfg.field_aware:
        pair = isinstance(fields, tuple) and len(fields) == 2
        if not (pair and fields[0].value.ndim == 3 and fields[0].value.shape == fields[1].value.shape):
            raise ContractError(f"{cfg.model}: fi_forward needs the two (B, m, d) pair embeddings")
        n = _fields_of_pairs(fields[0].value.shape[1])
    elif fields is None or fields.value.ndim != 3:
        raise ContractError(f"{cfg.model}: fi_forward needs the stacked (B, n, d) field embeddings")
    else:
        n = fields.value.shape[1]
    if cfg.field_aware and cfg.similarity != "inner":
        raise CatalogError(f"{cfg.model}: field-aware embeddings only support the inner similarity")

    def param(name):
        return tape.parameter(store, prefix + name)

    if cfg.neighborhood == "grid":
        if head is None:
            raise ContractError(f"{cfg.model}: a grid is read through its head weights")
        return _grid(tape, cfg, fields, param, grid_pairs, tape.parameter(store, head))

    mask = _neighborhood_mask(cfg.neighborhood, n)
    scores = _similarity(tape, cfg, fields, param)
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


def _spread_pairs(tape, values, n):
    """(B, m) values of the pairs i < j as the symmetric (B, n, n) matrix, zero diagonal."""
    spread = tape.constant(_field_pairs(n)[2])
    return tape.reshape(tape.matmul(values, spread), (values.value.shape[0], n, n))


def _similarity(tape, cfg, E, param):
    """S[b, i, j] = S(f_i, f_j) as one (B, n, n) node; None for the unit similarity."""
    kind = cfg.similarity
    if kind == "one":
        return None
    if kind == "inner":
        if cfg.field_aware:
            # <e_i^(j), e_j^(i)>, once per pair i < j
            mine, theirs = E
            return _spread_pairs(tape, tape.inner(mine, theirs), _fields_of_pairs(mine.value.shape[1]))
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
        # h . relu(W (f_i * f_j) + b) is symmetric in the pair and the
        # diagonal is masked out: run the attention network once per pair i < j
        n = E.value.shape[1]
        first, second, _ = (tape.constant(c) for c in _field_pairs(n))
        pairs = tape.mul(tape.matmul(first, E), tape.matmul(second, E))
        hidden = tape.relu(tape.add(tape.linear_map(param("attn_w"), pairs), param("attn_b")))
        return _spread_pairs(tape, tape.inner(hidden, param("attn_h")), n)
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
    if kind == "one":
        if W is None:
            raise ContractError("similarity 'one' with utility 'one' leaves nothing to emit")
        return tape.sum_axis(W, -1)
    B, n = E.value.shape[:2]
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


def _grid(tape, cfg, E, param, grid_pairs, head):
    """sum_p w_p . S(f_i, f_j) U(f_i, f_j) over the listed pairs p = (i, j), as (B,).

    The head rows (and pair vectors) are placed on the (n, n) grid, zero at
    unlisted pairs, so full and partial pair lists share one path and no
    per-pair vector is ever formed.
    """
    B, n, d = E.value.shape
    pairs = tuple(ordered_pairs(n) if grid_pairs is None else grid_pairs)
    if head.value.shape != (len(pairs) * d, 1):
        raise ShapeError(f"{cfg.model}: head weights {head.value.shape} do not read {len(pairs)} pairs of {d}")
    scores = _similarity(tape, cfg, E, param)
    if scores is None:
        raise CatalogError(f"{cfg.model}: a grid needs a similarity")
    place = tape.constant(_grid_placement(pairs, n))
    w = tape.reshape(head, (len(pairs), d))
    if cfg.utility == "hadamard":
        weights = tape.reshape(tape.matmul(place, w), (n, n, d))
        # sum_k w_ijk f_ik f_jk for every pair; the self product reads f_i twice
        spec = "bik,ijk,bik->bij" if cfg.self_product else "bik,ijk,bjk->bij"
        return tape.einsum("bij,bij->b", scores, tape.einsum(spec, E, weights, E))
    if cfg.utility == "vector_pair":
        # the head reads pair vector p through the scalar sum_k pairvec_pk w_pk
        coeff = tape.inner(place, tape.inner(param("pairvec"), w))
        return tape.inner(tape.reshape(scores, (B, n * n)), coeff)
    raise CatalogError(f"{cfg.model}: grid utility {cfg.utility!r} is not supported")
