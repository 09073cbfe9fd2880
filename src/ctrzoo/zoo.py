"""The model zoo: build any cataloged model and run its forward pass.

A model is its `fi_catalog` row, with the spec's FI switches folded in by
`ModelSpec.fi_config`, made concrete: embedding tables, the FI layers
(their slots, residual maps included, from `add_fi_slots`), an aggregation
and a transform stack, with two optional extras shared across the zoo: a
first-order table (d=1 embeddings summed into the logit) and a global
bias. The row sets the defaults: LR and FM carry the extras, matching
their classical definitions, and the attention-style models leave them off.

FM, FFM, FwFM and AFM sum over their "pairs" neighborhood, the pairs
i < j of their classical forms, over which AFM's attention weights are
normalized. The SAM2 grid comes back from `fi_forward`
already read by the weights of its affine head (`st.l0.w`), so the model
only adds the head's bias; the head's slots are the same as for any other
affine head.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import embedding
from .data import FieldSchema
from .errors import ConfigError, ContractError, ShapeError
from .interaction import MODEL_NAMES, add_fi_slots, fi_catalog, fi_forward, fi_output_width, grid_size
from .layers import MLPSpec, add_mlp_slots, combine_fields_nodes, mlp_nodes, sum_nodes
from .tape import ParameterStore, Tape, finite_diff_check, sigmoid

# the JSON values model.json may hold for each declared ModelSpec field type
_JSON_TYPES = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "tuple[int, ...]": lambda v: isinstance(v, list) and all(_JSON_TYPES["int"](h) for h in v),
}


@dataclass
class ModelSpec:
    """Everything needed to build a model, minus the seed.

    `dropout` and the linear/bias toggles default per model family when
    left as None. `softmax_enabled` turns the softmax off where the row
    has one (AutoInt, AFM and the SAM3 variants), so the raw similarity
    weighs the utilities: AFM then gives sum_p s_p u_p over its pairs
    i < j. `self_product` switches the SAM2_E grid to the literal f_i*f_i
    utility and raises ConfigError for any other model; `sam2_upper_only`
    restricts the SAM2 grid to pairs with i < j.
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
        cfg = self.fi_config()  # rejects unknown names, and a self product outside the SAM2_E grid
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
        if cfg.neighborhood == "pairs" and self.n < 2:
            raise ConfigError(f"{self.name} sums over pairs of fields and needs at least two, got {self.n}")
        if cfg.upper_only and self.n < 2:
            raise ConfigError(f"{self.name} with sam2_upper_only needs two fields for a pair i < j, got {self.n}")

    @property
    def row(self):
        """The model's catalog row, before `fi_config` folds in the spec's switches."""
        return fi_catalog(self.name)

    @property
    def dim(self):
        return self.row.d_fixed or self.d

    @property
    def n(self):
        return self.schema.n

    @property
    def use_linear(self):
        if self.include_linear is None:
            return self.row.linear_default
        return bool(self.include_linear)

    @property
    def use_bias(self):
        if self.include_bias is None:
            return self.row.bias_default
        return bool(self.include_bias)

    @property
    def drop_rate(self):
        if self.dropout is None:
            return 0.5 if self.row.transform == "mlp" else 0.0
        return float(self.dropout)

    def fi_config(self):
        """The catalog row with the spec's FI switches folded in; `upper_only` is set on grid rows only."""
        row = self.row
        softmax = row.softmax and self.softmax_enabled
        upper_only = self.sam2_upper_only and row.neighborhood == "grid"
        return replace(row, softmax=softmax, self_product=self.self_product,
                       upper_only=upper_only, attention_width=self.afm_width)

    @property
    def n_layers(self):
        return self.layers if self.row.layered else 1

    def to_dict(self):
        return {**asdict(self), "mlp_hidden": list(self.mlp_hidden)}

    @classmethod
    def from_dict(cls, payload):
        """Read a spec written by `to_dict`, each entry by its declared type.

        Switches take a JSON boolean; `d`, `layers`, `afm_width` and the
        `mlp_hidden` widths a JSON integer; `dropout` a number. null is
        accepted only for the optional fields, and an absent entry keeps
        its default. Anything else, an unknown key too, raises ConfigError.
        """
        if not isinstance(payload, dict):
            raise ConfigError(f"malformed model config: expected an object, got {type(payload).__name__}")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"model config has unknown keys: {', '.join(map(repr, unknown))}")
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
    return (f"fi.l{l}." for l in range(spec.n_layers))


def _add_slots(store, model):
    """Create in `store`, in order, every slot `model` reads."""
    spec, cfg = model.spec, model.cfg
    embedding.add_embedding_tables(store, spec.schema, spec.dim, field_aware=cfg.field_aware)
    if spec.use_linear:
        embedding.add_linear_table(store, spec.schema)
    if spec.use_bias:
        store.add_zeros("bias", ())
    for prefix in _layer_prefixes(spec):
        add_fi_slots(store, cfg, prefix, spec.n, spec.dim)
    if cfg.aggregation == "field_combination":
        store.add_value("al.w", np.full(spec.n, 1.0 / spec.n))
    if model.st_spec is not None:
        add_mlp_slots(store, model.st_spec)


def build_model(spec, seed=0):
    """Instantiate parameters for `spec` under `seed` and wrap them."""
    model = Model(spec, ParameterStore(seed))
    _add_slots(model.store, model)
    return model


class _SlotCheck:
    """Takes a store's slot-creating calls and records each slot's shape, allocating nothing;
    given a `store`, each slot is checked against the one there."""

    def __init__(self, store=None):
        self.store, self.shapes = store, {}

    def add_zeros(self, name, shape):
        shape = tuple(shape)
        if self.store is not None and name not in self.store:
            raise ShapeError(f"the checkpoint has no slot {name!r}")
        have = shape if self.store is None else self.store.slot(name).shape
        if have != shape:
            raise ShapeError(f"slot {name!r} has shape {have}, the model config needs {shape}")
        self.shapes[name] = shape

    def add_xavier(self, name, shape, fans=None):
        self.add_zeros(name, shape)

    def add_value(self, name, value):
        self.add_zeros(name, np.shape(value))


def model_on_store(spec, store):
    """The model `spec` describes, reading its parameters from the slots of `store`.

    `store` (a loaded checkpoint) must hold exactly the slots `build_model`
    creates for `spec`, shape for shape, or ShapeError names the first that
    differs. The spec's slots are compared one at a time, as `build_model`
    would create them, and none is allocated, so a spec far larger than the
    checkpoint fails at the first slot the checkpoint lacks.
    """
    model = Model(spec, store)
    check = _SlotCheck(store)
    _add_slots(check, model)
    extra = sorted(set(store.names()) - check.shapes.keys())
    if extra:
        raise ShapeError(f"the checkpoint has slots the model config does not: {', '.join(extra)}")
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
        if self.cfg.transform != "none":
            hidden = spec.mlp_hidden if self.cfg.transform == "mlp" else ()
            width = fi_output_width(self.cfg, spec.n, spec.dim)
            self.st_spec = MLPSpec(width, hidden, dropout=spec.drop_rate)

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
            g = fi_forward(tape, self.cfg, g, self.store, prefix=prefix, head="st.l0.w")
        return g

    def logit_node(self, tape, indices, drop_rng=None):
        """The batch's logits as a (B,) node; dropout runs exactly when `drop_rng` is given."""
        indices = self._check_batch(indices)
        z = self._fi_outputs(tape, indices)
        agg_kind = self.cfg.aggregation

        if self.cfg.neighborhood == "grid":
            # the grid comes back already read by the affine head's weights
            core = tape.add(z, tape.reshape(tape.parameter(self.store, "st.l0.b"), ()))
        elif agg_kind == "sum":
            total = sum_nodes(tape, z)
            core = tape.reshape(total, (len(indices),)) if total.value.ndim == 2 else total
        else:
            if agg_kind == "field_combination":
                x = combine_fields_nodes(tape, z, tape.parameter(self.store, "al.w"))
            else:
                # concat: field-major rows with d innermost, as the st.* head reads them
                x = tape.reshape(z, (len(indices), int(np.prod(z.value.shape[1:]))))
            logit = mlp_nodes(tape, self.st_spec, self.store, x, drop_rng=drop_rng)
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
        out = [
            self.logit_node(Tape(record=False), indices[start : start + chunk]).value
            for start in range(0, len(indices), chunk)
        ]
        return np.concatenate(out) if out else np.empty(0)

    def predict(self, indices):
        """Click probabilities (evaluation mode)."""
        return sigmoid(self.forward(indices))

    def loss_node(self, tape, indices, labels, drop_rng=None):
        """Mean log-loss of the batch as a 0-d node on `tape`."""
        logit = self.logit_node(tape, indices, drop_rng=drop_rng)
        return tape.logloss(logit, labels)


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


def gradient_check(model, indices, labels, eps=1e-5, dropout_seed=None, corrupt=0.0):
    """Max relative error between tape gradients and central differences.

    With a `dropout_seed`, dropout masks are redrawn identically on every
    evaluation, so the checked function stays deterministic.
    A nonzero `corrupt` is added to one analytic gradient entry before the
    comparison; the checker must then report at least that much error
    (sensitivity self-test).
    """

    def loss(tape):
        rng = None if dropout_seed is None else np.random.default_rng([int(dropout_seed), 13])
        return model.loss_node(tape, indices, labels, drop_rng=rng)

    model.store.zero_grads()
    tape = Tape()
    tape.backward(loss(tape))
    if corrupt:
        model.store.grads[0] += corrupt
    return finite_diff_check(lambda: float(loss(Tape(record=False)).value), model.store, eps)


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
    cfg = spec.fi_config()
    pairs = grid_size(cfg, n)
    t = cfg.attention_width or d
    width = fi_output_width(cfg, n, d)
    mlp = MLPSpec(width, spec.mlp_hidden).weight_count()

    el = d * n * (n - 1) if cfg.field_aware else d * n
    if spec.use_linear:
        el += n

    # the FI weights as `add_fi_slots` creates them, less the zero-initialised ones
    fi_slots = _SlotCheck()
    for prefix in _layer_prefixes(spec):
        add_fi_slots(fi_slots, cfg, prefix, n, d)
    fi = sum(math.prod(s) for name, s in fi_slots.shapes.items() if not name.endswith(("attn_b", "res")))

    if cfg.transform == "none":
        st = 0
    elif cfg.aggregation == "field_combination":
        st = d * n
    elif cfg.transform == "affine":
        st = width
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
