"""Feature-interaction layer: pairwise terms, neighborhoods, model catalog.

Every model here scores a record by combining per-field embedding vectors
through the same two-slot pattern: a similarity S(f_i, f_j) scaling a
utility U(f_i, f_j), summed over a neighborhood of fields. Choosing S, U,
and the neighborhood reproduces the classical architectures. A model's
`fi_catalog` row holds those choices, how the zoo turns the FI output into
a logit (aggregation, transform, layers, residual maps) and its extras
(first-order table, bias); `ModelSpec.fi_config` folds the spec's FI
switches into it. `add_fi_slots` creates the weights a row reads, and
`fi_forward` evaluates the row on a tape.

Conventions: the "pairs" neighborhood is the m = n(n-1)/2 pairs i < j, in
`np.triu_indices` order: FM, FFM, FwFM and AFM, whose classical forms sum
over them, compute each pair's similarity once and return one value per
pair, AFM's attention softmax running over the pairs. Softmax-normalized
similarities on the "all" neighborhood renormalize per target field.
Grid configurations (SAM2) weigh one vector per ordered pair, i == j
included (per pair i < j with `upper_only`), and are only ever read through
the affine head that follows them, so `fi_forward` returns the grid already
contracted with the head weights and never forms a vector per pair; an
index map places the head rows on the (n, n) grid.

`fi_forward` evaluates a row on the whole (B, n, d) field tensor: the
similarity is one (B, n, n) matrix and the utility one contraction with
the weights, or on the (B, m) pairs, so the tape records a fixed number of
nodes whatever n is. A `residual` row adds a linear map of the layer's
input to the utility.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CatalogError, ConfigError, ContractError, DomainError, ShapeError

# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class FIConfig:
    """One catalog row: a model's FI choices, how its output becomes a logit, and its extras.

    `ModelSpec.fi_config` sets the spec's switches, which the catalog leaves at their defaults."""

    model: str
    similarity: str
    utility: str
    neighborhood: str  # "self" | "all" | "pairs" | "grid"
    aggregation: str  # "sum" | "concat" | "field_combination"
    transform: str  # "none" | "affine" | "mlp"
    softmax: bool = False  # over the last axis: per target field, or over the pairs
    field_aware: bool = False
    self_product: bool = False  # the grid hadamard reads f_i * f_i instead of f_i * f_j
    upper_only: bool = False  # a grid reads the pairs i < j only
    attention_width: int | None = None  # AFM's attention network width; None is d
    layered: bool = False  # one FI layer per `ModelSpec.layers`
    residual: bool = False  # each layer adds a linear map of its input, slot `res`
    linear_default: bool = False  # first-order table unless the spec says otherwise
    bias_default: bool = False  # global bias unless the spec says otherwise
    d_fixed: int | None = None  # embedding width, whatever the spec asks

    def __post_init__(self):
        if self.neighborhood not in ("self", "all", "pairs", "grid"):
            raise CatalogError(f"{self.model}: unknown neighborhood {self.neighborhood!r}")
        # `fi_forward` reads a unit similarity as the identity weights, and any other over all fields
        if (self.similarity == "one") != (self.neighborhood == "self"):
            raise CatalogError(f"{self.model}: the unit similarity goes with the 'self' neighborhood, and only with it")
        if self.self_product and (self.utility, self.neighborhood) != ("hadamard", "grid"):
            raise ConfigError(f"self_product only applies to the element-wise grid of SAM2_E, not {self.model}")
        if self.field_aware and (self.similarity, self.neighborhood) != ("inner", "pairs"):
            raise ConfigError(f"{self.model}: field-aware embeddings are read by the inner similarity on the pairs i < j alone")
        if self.softmax and self.neighborhood not in ("all", "pairs"):
            raise ConfigError(f"{self.model}: a softmax needs the 'all' or 'pairs' neighborhood, not {self.neighborhood!r}")


_CATALOG = {
    row.model: row
    for row in (
        FIConfig("LR", "one", "identity", "self", "sum", "none", bias_default=True, d_fixed=1),
        FIConfig("FM", "inner", "one", "pairs", "sum", "none", linear_default=True, bias_default=True),
        FIConfig("FFM", "inner", "one", "pairs", "sum", "none", field_aware=True),
        FIConfig("FwFM", "inner", "scalar_pair", "pairs", "sum", "none"),
        FIConfig("IPNN", "inner", "scalar_inner", "all", "concat", "mlp"),
        FIConfig("DCN", "one", "scaled_identity", "self", "concat", "affine"),
        FIConfig("DeepFM-deep", "one", "identity", "self", "concat", "mlp"),
        FIConfig("CIN2", "inner", "scalar_pair", "all", "concat", "affine"),
        FIConfig("AFM", "afm", "projected_inner", "pairs", "sum", "none", softmax=True),
        FIConfig("AutoInt", "proj_qk", "linear_map", "all", "concat", "affine", softmax=True, layered=True),
        FIConfig("SAM1", "one", "identity", "self", "concat", "affine"),
        FIConfig("SAM2_A", "inner", "vector_pair", "grid", "concat", "affine"),
        FIConfig("SAM2_E", "inner", "hadamard", "grid", "concat", "affine"),
        FIConfig("SAM3_A", "proj_k", "vector_pair", "all", "field_combination", "affine",
                 softmax=True, layered=True, residual=True),
        FIConfig("SAM3_E", "proj_k", "hadamard", "all", "field_combination", "affine",
                 softmax=True, layered=True, residual=True),
    )
}
MODEL_NAMES = tuple(_CATALOG)


def fi_catalog(name):
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(MODEL_NAMES)
        raise CatalogError(f"unknown model {name!r}; catalog has: {known}") from None


def grid_size(cfg, n):
    """The pairs a grid reads on n fields: all n*n ordered ones, or the n(n-1)/2 with i < j."""
    return n * (n - 1) // 2 if cfg.upper_only else n * n


# ---------------------------------------------------------------------------
# constant index tensors, built once per field count


def _frozen(arr):
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _upper_pairs(n):
    """Position i*n + j of each pair i < j, in `np.triu_indices` order, in a row-major (n, n) grid."""
    return _frozen(np.ravel_multi_index(np.triu_indices(n, 1), (n, n)))


@lru_cache(maxsize=None)
def _field_pairs(n):
    """One-hot (m, n) rows picking field i, and field j, of the m = n(n-1)/2 pairs i < j: AFM's pair sides.

    Their product's backward is one BLAS call; two lookups of the pair rows ran slower at n=10 and n=40."""
    return tuple(_frozen(np.eye(n)[fields]) for fields in np.triu_indices(n, 1))


@lru_cache(maxsize=None)
def _pair_index(n, upper_only):
    """(n, n) map from entry (i, j) to the position of pair p = (i, j) for `Tape.take`: row-major over
    all n*n pairs or, `upper_only`, the P pairs i < j; every entry left out reads position P, the zero
    `take` appends."""
    first, second = np.triu_indices(n, 1) if upper_only else np.indices((n, n)).reshape(2, -1)
    index = np.full((n, n), len(first))
    index[first, second] = np.arange(len(first))
    return _frozen(index)


# ---------------------------------------------------------------------------
# forward evaluation


def fi_forward(tape, cfg, fields, store, *, prefix="fi.", head=None):
    """Evaluate one FI layer on a whole batch: S(f_i, f_j) U(f_i, f_j) summed over a neighborhood.

    `fields` is one stacked (B, n, d) node of field embeddings or, for
    field-aware configs, the two (B, m, d) nodes `lookup_field_aware` gives
    for the m = n(n-1)/2 pairs i < j: column p = (i, j) of the first holds
    field i's vector for partner j, of the second field j's for partner i.
    The similarity is a (B, n, n) matrix over all fields, or the identity
    on the "self" neighborhood, the optional softmax runs per target field,
    and the utility is contracted against the weights. A `residual` row then adds
    `res` @ f_i to each field's output. The weights are the `store` slots
    named `prefix` + their role, bound through `tape.parameter`.

    Returns (B, n, d) for per-field vector utilities and (B, n) for scalar
    utilities. A "pairs" config returns (B, m), one S(f_i, f_j) U(f_i, f_j)
    per pair p = (i, j) in `np.triu_indices` order: the inner similarity is
    read off one Gram matrix or, field-aware, the two nodes, AFM's two
    (B, m, d) sides are one-hot picks of fields i and j, each pair's
    similarity is computed once, and the optional softmax runs over the
    pairs. A grid config returns its logit
    contribution (B,): the sum over its P = `grid_size(cfg, n)` pairs
    p = (i, j), in row-major order, of w_p . S(f_i, f_j) U(f_i, f_j), where
    `head` names the (P*d, 1) slot of the affine head that reads the grid,
    row p*d + k weighing coordinate k of pair p; the `pairvec` slot of a
    vector-pair grid has one row per pair.
    """
    if cfg.field_aware:
        pair = isinstance(fields, tuple) and len(fields) == 2
        if not (pair and fields[0].value.ndim == 3 and fields[0].value.shape == fields[1].value.shape):
            raise ContractError(f"{cfg.model}: fi_forward needs the two (B, m, d) pair embeddings")
    elif fields is None or fields.value.ndim != 3:
        raise ContractError(f"{cfg.model}: fi_forward needs the stacked (B, n, d) field embeddings")

    def param(name):
        return tape.parameter(store, prefix + name)

    if cfg.neighborhood == "pairs":
        return _pairs(tape, cfg, fields, param)
    if cfg.neighborhood == "grid":
        if head is None:
            raise ContractError(f"{cfg.model}: a grid is read through its head weights")
        return _grid(tape, cfg, fields, param, tape.parameter(store, head))

    scores = _similarity(tape, cfg, fields, param)
    weights = tape.softmax(scores) if cfg.softmax else scores
    out = _utility(tape, cfg, fields, weights, param)
    return tape.add(out, tape.contract("bid,ed->bie", fields, param("res"))) if cfg.residual else out


def add_fi_slots(store, cfg, prefix, n, d):
    """Create under `prefix` the weights `fi_forward` reads for `cfg` on n fields of width d.

    A grid's `pairvec` has `grid_size(cfg, n)` rows, AFM's attention network
    `cfg.attention_width` (default d), and a residual row's zero (d, d) map
    `res` comes last.
    """
    if cfg.similarity == "proj_k":
        store.add_xavier(prefix + "k", (d, d), fans=(d, d))
    elif cfg.similarity == "proj_qk":
        store.add_xavier(prefix + "q", (d, d), fans=(d, d))
        store.add_xavier(prefix + "k", (d, d), fans=(d, d))
    elif cfg.similarity == "afm":
        t = cfg.attention_width or d
        store.add_xavier(prefix + "attn_w", (t, d), fans=(d, t))
        store.add_xavier(prefix + "attn_h", (t,), fans=(t, 1))
        store.add_zeros(prefix + "attn_b", (t,))

    util = cfg.utility
    if util == "scaled_identity":
        store.add_xavier(prefix + "fieldw", (n,), fans=(n, 1))
    elif util == "scalar_pair":
        # one weight per pair i < j, or per ordered pair
        shape = (n * (n - 1) // 2,) if cfg.neighborhood == "pairs" else (n, n)
        store.add_xavier(prefix + "pairw", shape, fans=(int(np.prod(shape)), 1))
    elif util == "scalar_inner":
        store.add_xavier(prefix + "theta", (n, d), fans=(n, d))
    elif util == "vector_pair":
        # one vector per grid pair, or per ordered pair for attention
        pairs = grid_size(cfg, n) if cfg.neighborhood == "grid" else n * n
        store.add_xavier(prefix + "pairvec", (pairs, d), fans=(pairs, d))
    elif util == "linear_map":
        store.add_xavier(prefix + "v", (d, d), fans=(d, d))
    elif util == "projected_inner":
        store.add_xavier(prefix + "proj_p", (d,), fans=(d, 1))
    if cfg.residual:
        store.add_zeros(prefix + "res", (d, d))


def fi_output_width(cfg, n, d):
    """Entries per record the transform reads from the FI output: d after a
    field combination, P*d for a grid of P pairs (the rows of its head), and
    else n for scalar utilities and n*d for vector ones."""
    if cfg.aggregation == "field_combination":
        return d
    if cfg.neighborhood == "grid":
        return grid_size(cfg, n) * d
    scalar = cfg.utility in ("one", "scalar_pair", "scalar_inner", "projected_inner")
    return n if scalar else n * d


def _similarity(tape, cfg, E, param):
    """S[b, i, j] = S(f_i, f_j) as one (B, n, n) node; None for the unit similarity."""
    kind = cfg.similarity
    if kind == "one":
        return None
    if kind == "inner":
        # S_ij == S_ji to the last bit, as the SAM2 grids need, with no symmetrizing (tape.py says why)
        return tape.contract("bid,bjd->bij", E, E)
    if kind == "proj_k":
        return tape.contract("bid,bjd->bij", E, tape.contract("bid,ed->bie", E, param("k")))
    if kind == "proj_qk":
        q = tape.contract("bid,ed->bie", E, param("q"))
        k = tape.contract("bid,ed->bie", E, param("k"))
        return tape.contract("bid,bjd->bij", q, k)
    raise CatalogError(f"unknown similarity kind {kind!r}")


def _utility(tape, cfg, E, W, param):
    """sum_j W[b, i, j] U(f_i, f_j) for every field.

    W is the similarity, or its softmax; None stands for
    the identity, i.e. the unit similarity over the self neighborhood,
    which only the per-field utilities read.
    """
    kind = cfg.utility
    if kind == "one":
        if W is None:
            raise ContractError("similarity 'one' with utility 'one' leaves nothing to emit")
        return tape.sum_axis(W, -1)
    if W is None and kind not in ("identity", "scaled_identity", "linear_map", "hadamard"):
        raise CatalogError(f"{cfg.model}: the unit similarity needs a per-field utility, not {kind!r}")
    if kind == "scalar_pair":
        return tape.contract("bij,ij->bi", W, param("pairw"))
    if kind == "scalar_inner":
        theta = param("theta")
        return tape.contract("bij,ij->bi", W, tape.contract("id,jd->ij", theta, theta))
    n = E.value.shape[1]
    if kind == "vector_pair":
        vecs = tape.reshape(param("pairvec"), (n, n, E.value.shape[-1]))
        return tape.contract("bij,ijd->bid", W, vecs)

    def mixed(x):
        return x if W is None else tape.contract("bij,bjd->bid", W, x)

    if kind == "identity":
        return mixed(E)
    if kind == "scaled_identity":
        return tape.contract("bid,i->bid", mixed(E), param("fieldw"))
    if kind == "linear_map":
        return mixed(tape.contract("bid,ed->bie", E, param("v")))
    if kind == "hadamard":
        return tape.contract("bid,bid->bid", E, mixed(E))
    raise CatalogError(f"unknown utility kind {kind!r}")


def _pairs(tape, cfg, fields, param):
    """S(f_i, f_j) U(f_i, f_j) for every pair p = (i, j), i < j, as (B, m), normalized over the pairs
    with `cfg.softmax`: FM's <f_i, f_j>, weighed by w_p in FwFM; FFM's <e_i^(j), e_j^(i)>; or AFM's
    h . relu(W (f_i * f_j) + b) weighing <p, f_i * f_j>."""
    if cfg.field_aware:
        mine, theirs = fields
        m = mine.value.shape[1]
    else:
        b, n, _ = fields.value.shape
        m = n * (n - 1) // 2
    if m == 0:
        raise DomainError(f"{cfg.model}: the pairs i < j need at least two fields")
    if cfg.field_aware:
        scores = tape.contract("bpd,bpd->bp", mine, theirs)
    elif cfg.similarity == "inner":
        scores = tape.take(tape.reshape(_similarity(tape, cfg, fields, param), (b, n * n)), _upper_pairs(n), axis=1)
    elif cfg.similarity == "afm":
        mine, theirs = (tape.contract("pi,bid->bpd", tape.constant(c), fields) for c in _field_pairs(n))
        prod = tape.contract("bpd,bpd->bpd", mine, theirs)
        hidden = tape.relu(tape.add(tape.contract("bpd,td->bpt", prod, param("attn_w")), param("attn_b")))
        scores = tape.contract("bpt,t->bp", hidden, param("attn_h"))
    else:
        raise CatalogError(f"{cfg.model}: similarity {cfg.similarity!r} is not supported on pairs")
    weights = tape.softmax(scores) if cfg.softmax else scores
    if cfg.utility == "one":
        return weights
    if cfg.utility == "scalar_pair":
        return tape.contract("bp,p->bp", weights, param("pairw"))
    if (cfg.similarity, cfg.utility) == ("afm", "projected_inner"):
        return tape.contract("bp,bp->bp", weights, tape.contract("bpd,d->bp", prod, param("proj_p")))
    raise CatalogError(f"{cfg.model}: utility {cfg.utility!r} is not supported on pairs")


def _grid(tape, cfg, E, param, head):
    """sum_p w_p . S(f_i, f_j) U(f_i, f_j) over the grid pairs p = (i, j), as (B,).

    The head rows (and pair vectors) are placed on the (n, n) grid by one
    `Tape.take` of an index map, zero at the pairs it leaves out, so the full
    and the upper-only grid share one path and no per-pair vector is formed.
    """
    _, n, d = E.value.shape
    pairs = grid_size(cfg, n)
    if head.value.shape != (pairs * d, 1):
        raise ShapeError(f"{cfg.model}: head weights {head.value.shape} do not read {pairs} pairs of {d}")
    scores = _similarity(tape, cfg, E, param)
    place = _pair_index(n, cfg.upper_only)
    w = tape.reshape(head, (pairs, d))
    if cfg.utility == "hadamard":
        weights = tape.take(w, place)
        # sum_k w_ijk f_ik f_jk for every pair; the self product reads f_i twice
        spec = "bik,ijk,bik->bij" if cfg.self_product else "bik,ijk,bjk->bij"
        return tape.contract("bij,bij->b", scores, tape.contract(spec, E, weights, E))
    if cfg.utility == "vector_pair":
        # the head reads pair vector p through the scalar sum_k pairvec_pk w_pk
        coeff = tape.take(tape.contract("pk,pk->p", param("pairvec"), w), place)
        return tape.contract("bij,ij->b", scores, coeff)
    raise CatalogError(f"{cfg.model}: grid utility {cfg.utility!r} is not supported")
