"""Dataset handling: raw text to encoded index rows, splits, synthetic draws.

Raw input is delimiter-separated text (tab or comma), label in the first
column as 0/1, remaining columns in schema order, empty string meaning
missing. Numeric columns are binned to integer keys before vocabulary
building, so after encoding every field is categorical. Index 0 of every
field is reserved for missing values and index 1 for out-of-vocabulary
values; real values start at 2.

The synthetic generator draws records from a discrete choice model: each
record has a latent utility H(X), and the click probability is
sigmoid((H(X) - theta) / k). Labels are Bernoulli draws from that
probability; the probability itself is kept alongside as the oracle.
"""
from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError, DomainError, ShapeError, read_json, reading
from .tape import sigmoid

MISSING_INDEX = 0
OOV_INDEX = 1
N_RESERVED = 2

_DELIMITERS = {"tab": "\t", "comma": ","}


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class Field:
    name: str
    kind: str = "categorical"  # or "numeric"

    def __post_init__(self):
        if self.kind not in ("categorical", "numeric"):
            raise ConfigError(f"field {self.name!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class SchemaField:
    name: str
    kind: str
    vocab_size: int  # includes the two reserved indices


@dataclass
class FieldSchema:
    """Per-field vocabulary sizes for encoded data."""

    fields: list[SchemaField]

    def __post_init__(self):
        if not self.fields:
            raise ConfigError("schema needs at least one field")
        for f in self.fields:
            if f.vocab_size < N_RESERVED:
                raise ConfigError(
                    f"field {f.name!r}: vocab_size {f.vocab_size} is below the "
                    f"{N_RESERVED} reserved indices"
                )

    @property
    def n(self):
        return len(self.fields)

    @property
    def vocab_sizes(self):
        return [f.vocab_size for f in self.fields]

    @classmethod
    def of_sizes(cls, sizes, names=None, kind="categorical"):
        names = names or [f"f{i}" for i in range(len(sizes))]
        return cls([SchemaField(nm, kind, int(v)) for nm, v in zip(names, sizes)])

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, payload):
        try:
            return cls(
                [
                    # a JSON integer: a float or a string is not truncated or parsed
                    SchemaField(f["name"], f["kind"], operator.index(f["vocab_size"]))
                    for f in payload["fields"]
                ]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed schema payload: {exc}") from exc


# ---------------------------------------------------------------------------
# encoded records


@dataclass
class Dataset:
    """Column store of encoded rows: integer indices (N, n), labels (N,)."""

    indices: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.indices.ndim != 2:
            raise ShapeError(f"dataset indices must be (N, n), got {self.indices.shape}")
        if self.labels.shape != (self.indices.shape[0],):
            raise ShapeError("dataset labels length must match rows")
        if not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise DataError("labels must be 0 or 1")

    def __len__(self):
        return self.indices.shape[0]

    @property
    def n_fields(self):
        return self.indices.shape[1]

    def subset(self, rows):
        return Dataset(self.indices[rows], self.labels[rows])

    def check_schema(self, schema):
        if self.n_fields != schema.n:
            raise DataError(f"dataset has {self.n_fields} fields, schema has {schema.n}")
        for i, size in enumerate(schema.vocab_sizes):
            col = self.indices[:, i]
            if len(col) and (col.min() < 0 or col.max() >= size):
                raise DataError(f"field {i}: index outside vocabulary of size {size}")


# ---------------------------------------------------------------------------
# raw text handling


def discretize_numeric(x):
    """Bin a numeric value to an integer key.

    floor(2 * ln(x)) above 2, truncation of (x - 2) toward zero otherwise:
    coarse log-scale bins for large values, unit bins near and below zero.
    Both branches are monotone non-decreasing.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"cannot discretize non-finite value {x!r}")
    if x > 2.0:
        return int(math.floor(2.0 * math.log(x)))
    return int(x - 2.0)


def tokenize(raw, kind):
    """Raw cell -> vocabulary token, or None when missing."""
    if raw == "" or raw is None:
        return None
    if kind == "numeric":
        try:
            value = float(raw)
        except ValueError as exc:
            raise DataError(f"bad numeric value {raw!r}") from exc
        return str(discretize_numeric(value))
    return raw


@dataclass
class RawTable:
    """Tokenized rows: labels plus per-field tokens (None = missing)."""

    fields: list[Field]
    labels: list[int]
    rows: list[list]

    def __len__(self):
        return len(self.labels)


def read_raw(path, fields, delimiter="tab"):
    sep = _DELIMITERS.get(delimiter, delimiter)
    if sep not in _DELIMITERS.values():
        raise ConfigError(f"unsupported delimiter {delimiter!r} (use tab or comma)")
    labels, rows = [], []
    with reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(sep)
            if len(cells) != len(fields) + 1:
                raise DataError(
                    f"{path}:{lineno}: expected {len(fields) + 1} columns, got {len(cells)}"
                )
            if cells[0] not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {cells[0]!r}")
            try:
                rows.append([tokenize(c, f.kind) for c, f in zip(cells[1:], fields)])
            except (DataError, DomainError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            labels.append(int(cells[0]))
    if not labels:
        raise DataError(f"{path}: no records")
    return RawTable(list(fields), labels, rows)


# ---------------------------------------------------------------------------
# vocabulary


@dataclass
class Vocabulary:
    """Per-field token-to-index maps. Indices start after the reserved pair."""

    fields: list[Field]
    maps: list[dict]
    min_count: int

    def schema(self):
        return FieldSchema(
            [
                SchemaField(f.name, f.kind, N_RESERVED + len(m))
                for f, m in zip(self.fields, self.maps)
            ]
        )

    def encode_token(self, i, token):
        if token is None:
            return MISSING_INDEX
        return self.maps[i].get(token, OOV_INDEX)

    def to_dict(self):
        return {
            "min_count": self.min_count,
            "fields": [
                {"name": f.name, "kind": f.kind, "values": dict(m)}
                for f, m in zip(self.fields, self.maps)
            ],
        }

    @classmethod
    def from_dict(cls, payload):
        try:
            fields = [Field(f["name"], f["kind"]) for f in payload["fields"]]
            maps = [{k: int(v) for k, v in f["values"].items()} for f in payload["fields"]]
            return cls(fields, maps, int(payload["min_count"]))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed vocabulary payload: {exc}") from exc

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_json(path))


def build_vocab(table, min_count=10):
    """Count tokens per field and keep those seen at least `min_count` times.

    Kept tokens get dense indices in order of first appearance, starting at
    2; everything else encodes to the OOV index later.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be at least 1, got {min_count}")
    if not len(table):
        raise DataError("cannot build a vocabulary from zero records")
    counts = [Counter() for _ in table.fields]
    orders = [{} for _ in table.fields]
    for row in table.rows:
        for i, token in enumerate(row):
            if token is None:
                continue
            counts[i][token] += 1
            if token not in orders[i]:
                orders[i][token] = len(orders[i])
    maps = []
    for cnt, order in zip(counts, orders):
        kept = [t for t in order if cnt[t] >= min_count]
        maps.append({t: N_RESERVED + k for k, t in enumerate(kept)})
    return Vocabulary(list(table.fields), maps, min_count)


def encode(table, vocab):
    """Encode every tokenized row; unseen tokens go to OOV, None to missing."""
    indices = np.empty((len(table), len(table.fields)), dtype=np.int64)
    for r, row in enumerate(table.rows):
        for i, token in enumerate(row):
            indices[r, i] = vocab.encode_token(i, token)
    return Dataset(indices, np.asarray(table.labels, dtype=np.float64))


# ---------------------------------------------------------------------------
# splitting


@dataclass
class DatasetSplit:
    train: Dataset
    valid: Dataset
    test: Dataset
    seed: int
    ratios: tuple


def split_dataset(dataset, ratios=(0.8, 0.1, 0.1), seed=0):
    """Shuffle under the seed and cut into train/valid/test slices.

    Split sizes are cumulative floors of the ratios, so each is within one
    record of the exact proportion and the three parts partition the input.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ConfigError(f"need three positive split ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")
    n = len(dataset)
    if n < 3:
        raise DataError(f"cannot split {n} records three ways")
    rng = np.random.default_rng([int(seed), 5])
    perm = rng.permutation(n)
    cut1 = int(math.floor(ratios[0] * n))
    cut2 = int(math.floor((ratios[0] + ratios[1]) * n))
    return DatasetSplit(
        train=dataset.subset(perm[:cut1]),
        valid=dataset.subset(perm[cut1:cut2]),
        test=dataset.subset(perm[cut2:]),
        seed=seed,
        ratios=ratios,
    )


# ---------------------------------------------------------------------------
# synthetic discrete-choice data


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground truth for a synthetic click dataset.

    `family` picks the utility: "linear" uses per-category weights only,
    "fm" adds pairwise inner products of true category embeddings. `theta`
    is the utility threshold; None calibrates it to the mean utility of a
    probe sample so clicks come out roughly balanced. `noise` is the choice
    temperature k.
    """

    n_fields: int = 10
    categories: int = 12
    family: str = "fm"
    d_true: int = 8
    linear_scale: float = 0.15
    embed_scale: float = 0.2
    theta: float | None = None
    noise: float = 0.3
    count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.family not in ("linear", "fm"):
            raise ConfigError(f"unknown synthetic family {self.family!r}")
        if self.n_fields < 1 or self.categories < 1 or self.count < 1:
            raise ConfigError("n_fields, categories, and count must be positive")
        if self.noise <= 0:
            raise ConfigError(f"noise temperature must be positive, got {self.noise}")
        if self.family == "fm" and self.d_true < 1:
            raise ConfigError("fm family needs d_true >= 1")

    def to_dict(self):
        return asdict(self)


@dataclass
class SyntheticData:
    spec: SyntheticSpec
    schema: FieldSchema
    dataset: Dataset
    probs: np.ndarray  # oracle click probability per record
    theta: float
    truth: dict


def _utility(cats, linear, embed):
    cols = np.arange(cats.shape[1])[None, :]
    h = linear[cols, cats].sum(axis=1)
    if embed is not None:
        vecs = embed[cols, cats]  # (N, n, d)
        total = vecs.sum(axis=1)
        h = h + 0.5 * ((total * total).sum(axis=1) - (vecs * vecs).sum(axis=(1, 2)))
    return h


def generate_dcm(spec):
    """Draw records from the choice model defined by `spec`.

    Categories are uniform per field; utilities come from the ground-truth
    family; labels are Bernoulli draws of sigmoid((H - theta) / noise).
    Encoded indices shift categories by the reserved offset, so the schema
    matches real prepared data.
    """
    n, v = spec.n_fields, spec.categories
    rng = np.random.default_rng([int(spec.seed), 7])
    linear = rng.normal(0.0, spec.linear_scale, size=(n, v))
    embed = (
        rng.normal(0.0, spec.embed_scale, size=(n, v, spec.d_true))
        if spec.family == "fm"
        else None
    )
    if spec.theta is None:
        probe_rng = np.random.default_rng([int(spec.seed), 8])
        probe = probe_rng.integers(0, v, size=(4096, n))
        theta = float(_utility(probe, linear, embed).mean())
    else:
        theta = float(spec.theta)
    cats = rng.integers(0, v, size=(spec.count, n))
    h = _utility(cats, linear, embed)
    probs = sigmoid((h - theta) / spec.noise)
    labels = (rng.random(spec.count) < probs).astype(np.float64)
    schema = FieldSchema.of_sizes([v + N_RESERVED] * n, names=[f"f{i}" for i in range(n)])
    dataset = Dataset(cats + N_RESERVED, labels)
    truth = {"linear": linear}
    if embed is not None:
        truth["embed"] = embed
    return SyntheticData(spec, schema, dataset, probs, theta, truth)


# ---------------------------------------------------------------------------
# file formats


def save_schema(schema, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema.to_dict(), fh, sort_keys=True, indent=2)


def load_schema(path):
    try:
        return FieldSchema.from_dict(read_json(path))
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_fields(path):
    """Field descriptors (name, kind) for raw data, label column implicit."""
    payload = read_json(path, ConfigError)
    try:
        return [Field(f["name"], f.get("kind", "categorical")) for f in payload["fields"]]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed field list: {exc}") from exc


def save_encoded(dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(dataset.labels, dataset.indices):
            fh.write("\t".join([str(int(label))] + [str(int(k)) for k in row]) + "\n")


def load_encoded(path, schema=None):
    labels, rows = [], []
    with reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split("\t")
            try:
                labels.append(int(cells[0]))
                rows.append([int(c) for c in cells[1:]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not labels:
        raise DataError(f"{path}: no records")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: inconsistent column counts {sorted(widths)}")
    dataset = Dataset(np.array(rows, dtype=np.int64), np.array(labels, dtype=np.float64))
    if schema is not None:
        dataset.check_schema(schema)
    return dataset
