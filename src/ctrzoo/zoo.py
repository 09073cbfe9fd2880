"""The model zoo: build any cataloged model and run its forward pass.

A model is embedding tables plus an FI configuration from the catalog, an
aggregation, and a transform stack, with two optional extras shared across
the zoo: a first-order table (d=1 embeddings summed into the logit) and a
global bias. LR and FM carry the extras by default, matching their
classical definitions; the attention-style models leave them off.

"Others"-neighborhood models with a symmetric similarity (FM, FFM, FwFM)
sum every unordered pair twice, so their aggregated output is halved to
recover the classical sum over i < j. AFM needs no halving: its attention
weights are normalized over the same ordered pairs, which absorbs the
factor. The SAM2 grid comes back from `fi_forward` already read by the
weights of its affine head (`st.l0.w`), so the model only adds the head's
bias; the head's slots are the same as for any other affine head.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import embedding
from .data import FieldSchema
from .errors import CatalogError, ConfigError, ContractError, DataError, ShapeError
from .interaction import MODEL_NAMES, fi_catalog, fi_forward, ordered_pairs
from .layers import MLPSpec, add_mlp_slots, combine_fields_nodes, mlp_nodes, sum_nodes
from .metrics import PROB_FLOOR
from .tape import ParameterStore, Tape, finite_diff_check, sigmoid

_SCALAR_UTILITIES = {"one", "scalar_pair", "scalar_pair_sym", "scalar_inner", "projected_inner"}

# the JSON values model.json may hold for each declared ModelSpec field type
_JSON_TYPES = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "tuple[int, ...]": lambda v: isinstance(v, list) and all(_JSON_TYPES["int"](h) for h in v),
}


@dataclass(frozen=True)
class Recipe:
    """How a model assembles FI outputs into a logit."""

    aggregation: str  # "sum" | "concat" | "field_combination"
    transform: str  # "none" | "affine" | "mlp"
    halve_pairs: bool = False
    layered: bool = False
    linear_default: bool = False
    bias_default: bool = False
    d_fixed: int | None = None


RECIPES = {
    "LR": Recipe("sum", "none", bias_default=True, d_fixed=1),
    "FM": Recipe("sum", "none", halve_pairs=True, linear_default=True, bias_default=True),
    "FFM": Recipe("sum", "none", halve_pairs=True),
    "FwFM": Recipe("sum", "none", halve_pairs=True),
    "IPNN": Recipe("concat", "mlp"),
    "DCN": Recipe("concat", "affine"),
    "DeepFM-deep": Recipe("concat", "mlp"),
    "CIN2": Recipe("concat", "affine"),
    "AFM": Recipe("sum", "none"),
    "AutoInt": Recipe("concat", "affine", layered=True),
    "SAM1": Recipe("concat", "affine"),
    "SAM2_A": Recipe("concat", "affine"),
    "SAM2_E": Recipe("concat", "affine"),
    "SAM3_A": Recipe("field_combination", "affine", layered=True),
    "SAM3_E": Recipe("field_combination", "affine", layered=True),
}


@dataclass
class ModelSpec:
    """Everything needed to build a model, minus the seed.

    `dropout` and the linear/bias toggles default per model family when
    left as None. `softmax_enabled` turns similarity normalization off for
    the SAM3 variants (raw similarity mode); `self_product` switches
    SAM2_E to the literal f_i*f_i utility; `sam2_upper_only` restricts the
    SAM2 grid to pairs with i < j.
    """

    name: str
    schema: FieldSchema
    d: int = 16
    layers: int = 1
    mlp_hidden: tuple[int, ...] = (32, 32, 32)
    dropout: float | None = None
    include_linear: bool | None = None
    include_bias: bool | None = None
    sam2_upper_only: bool = False
    softmax_enabled: bool = True
    self_product: bool = False
    afm_width: int | None = None

    def __post_init__(self):
        if self.name not in RECIPES:
            known = ", ".join(MODEL_NAMES)
            raise CatalogError(f"unknown model {self.name!r}; catalog has: {known}")
        if self.d < 1:
            raise ConfigError(f"embedding dimension must be positive, got {self.d}")
        if self.layers < 1:
            raise ConfigError(f"layer count must be positive, got {self.layers}")
        self.mlp_hidden = tuple(int(h) for h in self.mlp_hidden)
        if any(h < 1 for h in self.mlp_hidden):
            raise ConfigError(f"mlp widths must be positive, got {self.mlp_hidden}")
        if self.dropout is not None and not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.afm_width is not None and self.afm_width < 1:
            raise ConfigError(f"attention width must be positive, got {self.afm_width}")
        if self.name == "LR" and self.include_linear:
            raise ConfigError("LR is the first-order model; include_linear does not apply")
        if fi_catalog(self.name).neighborhood == "others" and self.n < 2:
            raise ConfigError(f"{self.name} sums over pairs of fields and needs at least two, got {self.n}")
        if self.sam2_upper_only and self.grid() == []:
            raise ConfigError(
                f"{self.name} with sam2_upper_only reads the pairs i < j and needs at least two fields, got {self.n}"
            )

    @property
    def recipe(self):
        return RECIPES[self.name]

    @property
    def dim(self):
        return self.recipe.d_fixed or self.d

    @property
    def n(self):
        return self.schema.n

    @property
    def use_linear(self):
        if self.include_linear is None:
            return self.recipe.linear_default
        return bool(self.include_linear)

    @property
    def use_bias(self):
        if self.include_bias is None:
            return self.recipe.bias_default
        return bool(self.include_bias)

    @property
    def drop_rate(self):
        if self.dropout is None:
            return 0.5 if self.recipe.transform == "mlp" else 0.0
        return float(self.dropout)

    @property
    def attention_width(self):
        return self.afm_width or self.dim

    def fi_config(self):
        cfg = fi_catalog(self.name)
        if self.self_product:
            if cfg.utility != "hadamard":
                raise ConfigError(f"self_product only applies to element-wise models, not {self.name}")
            cfg = replace(cfg, self_product=True)
        if not self.softmax_enabled:
            cfg = replace(cfg, softmax=False)
        return cfg

    @property
    def n_layers(self):
        return self.layers if self.recipe.layered else 1

    def grid(self):
        if fi_catalog(self.name).neighborhood != "grid":
            return None
        return ordered_pairs(self.n, upper_only=self.sam2_upper_only)

    def to_dict(self):
        return {**asdict(self), "mlp_hidden": list(self.mlp_hidden)}

    @classmethod
    def from_dict(cls, payload):
        """Read a spec written by `to_dict`, each entry by its declared type.

        Switches take a JSON boolean; `d`, `layers`, `afm_width` and the
        `mlp_hidden` widths a JSON integer; `dropout` a number. null is
        accepted only for the optional fields, and an absent entry keeps
        its default. Anything else raises ConfigError.
        """
        if not isinstance(payload, dict):
            raise ConfigError(f"malformed model config: expected an object, got {type(payload).__name__}")
        for key in ("name", "schema"):
            if key not in payload:
                raise ConfigError(f"model config missing key {key!r}")
        values = {"schema": FieldSchema.from_dict(payload["schema"])}
        for f in fields(cls):
            if f.name in values or f.name not in payload:
                continue
            value = payload[f.name]
            kind, *optional = f.type.split(" | ")
            if not (bool(optional) if value is None else _JSON_TYPES[kind](value)):
                raise ConfigError(f"model config {f.name!r} must be {f.type}, got {json.dumps(value)}")
            values[f.name] = tuple(value) if isinstance(value, list) else value
        return cls(**values)


# ---------------------------------------------------------------------------
# build


def _layer_prefixes(spec):
    return [f"fi.l{l}." for l in range(spec.n_layers)]


def _add_fi_slots(store, spec, cfg, prefix):
    n, d = spec.n, spec.dim
    if cfg.similarity == "proj_k":
        store.add_xavier(prefix + "k", (d, d), fans=(d, d))
    elif cfg.similarity == "proj_qk":
        store.add_xavier(prefix + "q", (d, d), fans=(d, d))
        store.add_xavier(prefix + "k", (d, d), fans=(d, d))
    elif cfg.similarity == "afm":
        t = spec.attention_width
        store.add_xavier(prefix + "attn_w", (t, d), fans=(d, t))
        store.add_xavier(prefix + "attn_h", (t,), fans=(t, 1))
        store.add_zeros(prefix + "attn_b", (t,))

    util = cfg.utility
    if util == "scaled_identity":
        store.add_xavier(prefix + "fieldw", (n,), fans=(n, 1))
    elif util == "scalar_pair":
        store.add_xavier(prefix + "pairw", (n, n), fans=(n * n, 1))
    elif util == "scalar_pair_sym":
        m = n * (n - 1) // 2
        store.add_xavier(prefix + "pairw", (m,), fans=(m, 1))
    elif util == "scalar_inner":
        store.add_xavier(prefix + "theta", (n, d), fans=(n, d))
    elif util == "vector_pair":
        # one vector per grid pair, or per ordered pair for attention
        pairs = len(spec.grid()) if cfg.neighborhood == "grid" else n * n
        store.add_xavier(prefix + "pairvec", (pairs, d), fans=(pairs, d))
    elif util == "linear_map":
        store.add_xavier(prefix + "v", (d, d), fans=(d, d))
    elif util == "projected_inner":
        store.add_xavier(prefix + "proj_p", (d,), fans=(d, 1))


def _st_input_dim(spec, cfg):
    n, d = spec.n, spec.dim
    if spec.recipe.aggregation == "field_combination":
        return d
    if cfg.neighborhood == "grid":
        return len(spec.grid()) * d
    if cfg.utility in _SCALAR_UTILITIES:
        return n
    return n * d


def build_model(spec, seed=0):
    """Instantiate parameters for `spec` under `seed` and wrap them."""
    model = Model(spec, ParameterStore(seed))
    store, cfg = model.store, model.cfg
    embedding.add_embedding_tables(store, spec.schema, spec.dim, field_aware=cfg.field_aware)
    if spec.use_linear:
        embedding.add_linear_table(store, spec.schema)
    if spec.use_bias:
        store.add_zeros("bias", ())
    for prefix in _layer_prefixes(spec):
        _add_fi_slots(store, spec, cfg, prefix)
        if spec.name.startswith("SAM3"):
            store.add_zeros(prefix + "res", (spec.dim, spec.dim))
    if spec.recipe.aggregation == "field_combination":
        store.add_value("al.w", np.full(spec.n, 1.0 / spec.n))
    if model.st_spec is not None:
        add_mlp_slots(store, model.st_spec, prefix="st.")
    return model


class Model:
    """A zoo member: spec, parameters, and the forward pass.

    The FI configuration `cfg` and the head's MLPSpec `st_spec` (None
    without a transform) follow from the spec; `store` holds the slots
    `build_model` creates for it.
    """

    def __init__(self, spec, store):
        self.spec = spec
        self.store = store
        self.cfg = spec.fi_config()
        self.st_spec = None
        if spec.recipe.transform != "none":
            hidden = spec.mlp_hidden if spec.recipe.transform == "mlp" else ()
            self.st_spec = MLPSpec(_st_input_dim(spec, self.cfg), hidden, 1, dropout=spec.drop_rate)

    @property
    def name(self):
        return self.spec.name

    @property
    def schema(self):
        return self.spec.schema

    # -- forward -----------------------------------------------------------

    def _check_batch(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] != self.schema.n:
            raise ShapeError(
                f"batch must be (B, {self.schema.n}) indices, got {indices.shape}"
            )
        return indices

    def _fi_outputs(self, tape, indices):
        lookup = embedding.lookup_field_aware if self.cfg.field_aware else embedding.lookup_fields
        g = lookup(tape, self.store, indices)
        for prefix in _layer_prefixes(self.spec):
            z = fi_forward(
                tape, self.cfg, g, self.store, prefix=prefix, grid_pairs=self.spec.grid(), head="st.l0.w"
            )
            if self.name.startswith("SAM3"):
                z = tape.add(z, tape.linear_map(tape.parameter(self.store, prefix + "res"), g))
            g = z
        return g

    def logit_node(self, tape, indices, training=False, drop_rng=None):
        indices = self._check_batch(indices)
        z = self._fi_outputs(tape, indices)
        agg_kind = self.spec.recipe.aggregation

        if self.cfg.neighborhood == "grid":
            # the grid comes back already read by the affine head's weights
            core = tape.add(z, tape.parameter(self.store, "st.l0.b"))
        elif agg_kind == "sum":
            total = sum_nodes(tape, z)
            if self.spec.recipe.halve_pairs:
                total = tape.scale_const(total, 0.5)
            core = tape.reshape(total, (len(indices),)) if total.value.ndim == 2 else total
        else:
            if agg_kind == "field_combination":
                x = combine_fields_nodes(tape, z, tape.parameter(self.store, "al.w"))
            else:
                # concat: field-major rows with d innermost, as the st.* head reads them
                x = tape.reshape(z, (len(indices), int(np.prod(z.value.shape[1:]))))
            logit = mlp_nodes(
                tape, self.st_spec, self.store, x, prefix="st.", training=training, drop_rng=drop_rng
            )
            core = tape.reshape(logit, (len(indices),))

        if self.spec.use_linear:
            first_order = embedding.lookup_fields(tape, self.store, indices, embedding.linear_slot)
            core = tape.add(core, tape.reshape(sum_nodes(tape, first_order), (len(indices),)))
        if self.spec.use_bias:
            core = tape.add(core, tape.parameter(self.store, "bias"))
        return core

    def forward(self, indices, chunk=4096):
        """Logits for a batch (evaluation mode), evaluated in chunks to bound memory."""
        indices = self._check_batch(indices)
        out = []
        for start in range(0, len(indices), chunk):
            node = self.logit_node(Tape(), indices[start : start + chunk])
            out.append(node.value.copy())
        return np.concatenate(out) if out else np.empty(0)

    def predict(self, indices):
        """Click probabilities (evaluation mode)."""
        return sigmoid(self.forward(indices))

    def loss_node(self, tape, indices, labels, training=False, drop_rng=None):
        """Mean log-loss of the batch as a 0-d node on `tape`."""
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != (len(indices),):
            raise ShapeError("labels must be (B,)")
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise DataError("labels must be 0 or 1")
        logit = self.logit_node(tape, indices, training=training, drop_rng=drop_rng)
        p = tape.clip(tape.sigmoid(logit), PROB_FLOOR, 1.0 - PROB_FLOOR)
        y = tape.constant(labels)
        y_off = tape.constant(1.0 - labels)
        ones = tape.constant(np.ones_like(labels))
        ll = tape.add(
            tape.mul(y, tape.log(p)), tape.mul(y_off, tape.log(tape.sub(ones, p)))
        )
        return tape.scale_const(tape.mean_all(ll), -1.0)

    def loss(self, indices, labels):
        tape = Tape()
        return float(self.loss_node(tape, indices, labels).value)


# ---------------------------------------------------------------------------
# gradient checking


def random_batch(schema, batch_size, seed=0):
    """Uniform random index rows and labels for a schema (reserved rows included)."""
    rng = np.random.default_rng([int(seed), 17])
    indices = np.stack(
        [rng.integers(0, v, size=batch_size) for v in schema.vocab_sizes], axis=1
    )
    labels = rng.integers(0, 2, size=batch_size).astype(np.float64)
    return indices, labels


def gradient_check(model, indices, labels, eps=1e-5, training=False, dropout_seed=0, corrupt=0.0):
    """Max relative error between tape gradients and central differences.

    With `training` set, dropout masks are redrawn identically on every
    evaluation (fixed seed), so the checked function stays deterministic.
    A nonzero `corrupt` is added to one analytic gradient entry before the
    comparison; the checker must then report at least that much error
    (sensitivity self-test).
    """

    def loss(tape):
        rng = np.random.default_rng([int(dropout_seed), 13]) if training else None
        return model.loss_node(tape, indices, labels, training=training, drop_rng=rng)

    model.store.zero_grads()
    tape = Tape()
    tape.backward(loss(tape))
    if corrupt:
        model.store.slots()[0].grad.reshape(-1)[0] += corrupt
    return finite_diff_check(lambda: float(loss(Tape()).value), model.store, eps)


# ---------------------------------------------------------------------------
# complexity accounting


@dataclass
class ComplexityReport:
    """Parameter and multiply-add counts for one configuration.

    Component counts use a fixed accounting convention: one active row per
    embedding table (d parameters per field, n(n-1) tables for the
    field-aware case), dense weight matrices in full, bias vectors /
    residual maps / field-combination weights excluded, and the SAM3 head
    counted per field (d*n). `time_ops` is the leading-order multiply-add
    estimate for one record. `trainable_params` is the exact store size
    when a built model is given, with none of the exclusions.
    """

    model: str
    n: int
    d: int
    layers: int
    el: int
    fi: int
    al: int
    st: int
    time_ops: int
    trainable_params: int | None = None

    @property
    def total(self):
        return self.el + self.fi + self.al + self.st

    def to_dict(self):
        return {
            "model": self.model,
            "n": self.n,
            "d": self.d,
            "layers": self.layers,
            "space": {
                "embedding": self.el,
                "interaction": self.fi,
                "aggregation": self.al,
                "transform": self.st,
                "total": self.total,
            },
            "time_ops": self.time_ops,
            "trainable_params": self.trainable_params,
        }


def count_complexity(target):
    """Complexity report for a `Model` or a `ModelSpec`."""
    model = target if isinstance(target, Model) else None
    spec = model.spec if model else target
    if not isinstance(spec, ModelSpec):
        raise ContractError("count_complexity takes a Model or ModelSpec")
    name, n, d = spec.name, spec.n, spec.dim
    layers = spec.n_layers
    cfg = fi_catalog(name)
    pairs = len(spec.grid() or []) if cfg.neighborhood == "grid" else 0
    t = spec.attention_width
    mlp = MLPSpec(_st_input_dim(spec, cfg), spec.mlp_hidden).weight_count()

    el = d * n * (n - 1) if cfg.field_aware else d * n
    if spec.use_linear:
        el += n

    fi = 0
    if name == "FwFM":
        fi = n * (n - 1) // 2
    elif name == "DCN":
        fi = n
    elif name == "CIN2":
        fi = n * n
    elif name == "IPNN":
        fi = d * n
    elif name == "AFM":
        fi = t * d + t + d
    elif name == "AutoInt":
        fi = 3 * layers * d * d
    elif name == "SAM2_A":
        fi = pairs * d
    elif name == "SAM3_A":
        fi = layers * (d * d + d * n * n)
    elif name == "SAM3_E":
        fi = layers * d * d

    if spec.recipe.transform == "none":
        st = 0
    elif name.startswith("SAM3"):
        st = d * n
    elif spec.recipe.transform == "affine":
        st = _st_input_dim(spec, cfg)
    else:
        st = mlp

    time_ops = {
        "LR": n,
        "SAM1": d * n,
        "FM": d * n,
        "FFM": d * n * n,
        "FwFM": d * n * n,
        "IPNN": d * n * n + mlp,
        "DCN": 2 * d * n,
        "DeepFM-deep": mlp,
        "CIN2": d * n * n,
        "AFM": n * n * (t * d + 2 * d),
        "AutoInt": layers * (3 * d * d * n + 2 * d * n * n) + d * n,
        "SAM2_A": 2 * d * pairs,
        "SAM2_E": 2 * d * pairs,
        "SAM3_A": layers * (d * d * n + 2 * d * n * n) + d * n,
        "SAM3_E": layers * (d * d * n + 2 * d * n * n) + d * n,
    }[name]

    return ComplexityReport(
        model=name,
        n=n,
        d=d,
        layers=layers,
        el=el,
        fi=fi,
        al=0,
        st=st,
        time_ops=time_ops,
        trainable_params=model.store.param_count() if model else None,
    )
