"""Dataset handling: raw text to encoded index rows, splits, synthetic draws.

Raw input is delimiter-separated text (tab or comma), label in the first
column as 0/1, remaining columns in schema order, empty string meaning
missing. Numeric columns are binned to integer keys before vocabulary
building, so after encoding every field is categorical. Index 0 of every
field is reserved for missing values and index 1 for out-of-vocabulary
values; real values start at 2.

`prepare`'s text pass works by field column: `read_raw` checks lines in file
order and transposes the rows once into the `RawTable`'s columns, each column
is counted with one Counter and encoded through one dict, and each distinct
value is formatted once. Its files are byte-identical to a cell-by-cell pass.

The synthetic generator draws records from a discrete choice model: each
record has a latent utility H(X), and the click probability is
sigmoid((H(X) - theta) / k). Labels are Bernoulli draws from that
probability; the probability itself is kept alongside as the oracle.
"""
from __future__ import annotations

import io
import itertools
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError, DomainError, ShapeError, read_json, reading, write_json, write_text
from .tape import sigmoid

MISSING_INDEX = 0
OOV_INDEX = 1
N_RESERVED = 2

_DELIMITERS = {"tab": "\t", "comma": ","}
_DELETE_RECORD_CHARS = str.maketrans("", "", "0123456789-\t\n")  # `str.translate` leaves what is not record text


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
    def of_sizes(cls, sizes, names=None):
        names = names or [f"f{i}" for i in range(len(sizes))]
        return cls([SchemaField(nm, "categorical", int(v)) for nm, v in zip(names, sizes)])

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
        bad = (self.labels != 0.0) & (self.labels != 1.0)
        if bad.any():
            row = int(np.argmax(bad))
            raise DataError(f"label must be 0 or 1, got '{self.labels[row]:g}'", row=row)

    def __len__(self):
        return self.indices.shape[0]

    @property
    def n_fields(self):
        return self.indices.shape[1]

    def subset(self, rows):
        return Dataset(self.indices[rows], self.labels[rows])

    def check_schema(self, schema):
        """DataError for a field count other than the schema's, or for the first
        record (its `row`) holding an index outside its field's vocabulary."""
        if self.n_fields != schema.n:
            raise DataError(f"dataset has {self.n_fields} fields, schema has {schema.n}")
        sizes = schema.vocab_sizes
        bad = np.column_stack([(col < 0) | (col >= size) for col, size in zip(self.indices.T, sizes)])
        if bad.any():
            row, i = np.argwhere(bad)[0]
            field = schema.fields[i]
            raise DataError(
                f"field {i} ({field.name!r}): index {self.indices[row, i]} "
                f"outside its vocabulary of size {field.vocab_size}",
                row=int(row),
            )


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
    """Tokenized records by field: labels plus one tuple of tokens per field (None = missing)."""

    fields: list[Field]
    labels: list[int]
    columns: list[tuple]

    def __len__(self):
        return len(self.labels)


def read_raw(path, fields, delimiter="tab"):
    sep = _DELIMITERS.get(delimiter, delimiter)
    if sep not in _DELIMITERS.values():
        raise ConfigError(f"unsupported delimiter {delimiter!r} (use tab or comma)")
    cats = [f.kind == "categorical" for f in fields]
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
            try:  # a categorical cell is its own token
                rows.append([c or None if cat else tokenize(c, "numeric") for c, cat in zip(cells[1:], cats)])
            except (DataError, DomainError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            labels.append(int(cells[0]))
    if not labels:
        raise DataError(f"{path}: no records")
    return RawTable(list(fields), labels, list(zip(*rows)))


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
            # JSON integers: a float or a string is not truncated or parsed
            maps = [{k: operator.index(v) for k, v in f["values"].items()} for f in payload["fields"]]
            return cls(fields, maps, operator.index(payload["min_count"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed vocabulary payload: {exc}") from exc

    def save(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        try:
            return cls.from_dict(read_json(path))
        except ConfigError as exc:
            raise DataError(f"{path}: {exc}") from exc


def build_vocab(table, min_count=10):
    """Count tokens per field and keep those seen at least `min_count` times.

    Kept tokens get dense indices in order of first appearance, starting at
    2; everything else encodes to the OOV index later.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be at least 1, got {min_count}")
    if not len(table):
        raise DataError("cannot build a vocabulary from zero records")
    maps = []
    for column in table.columns:
        # kept in first-appearance order; None, a missing cell, is counted and left out
        kept = [t for t, c in Counter(column).items() if c >= min_count and t is not None]
        maps.append({t: N_RESERVED + k for k, t in enumerate(kept)})
    return Vocabulary(list(table.fields), maps, min_count)


def encode(table, vocab):
    """Encode every tokenized record; unseen tokens go to OOV, None to missing."""
    indices = np.empty((len(table), len(table.fields)), dtype=np.int64)
    for i, column in enumerate(table.columns):
        lookup = {**vocab.maps[i], None: MISSING_INDEX}.get
        indices[:, i] = list(map(lookup, column, itertools.repeat(OOV_INDEX)))
    return Dataset(indices, np.asarray(table.labels, dtype=np.float64))


# ---------------------------------------------------------------------------
# splitting


@dataclass
class DatasetSplit:
    train: Dataset
    valid: Dataset
    test: Dataset


def split_dataset(dataset, ratios=(0.8, 0.1, 0.1), seed=0):
    """Shuffle under the seed and cut into train/valid/test slices.

    Split sizes are cumulative floors of the ratios, so each is within one
    record of the exact proportion and the three parts partition the input.
    A part that would be empty raises DataError naming it.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ConfigError(f"need three positive split ratios, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # NaN fails this too
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")
    n = len(dataset)
    cut1 = int(math.floor(ratios[0] * n))
    cut2 = int(math.floor((ratios[0] + ratios[1]) * n))
    sizes = {"train": cut1, "valid": cut2 - cut1, "test": n - cut2}
    empty = [part for part, size in sizes.items() if not size]
    if empty:
        raise DataError(f"splitting {n} records by {ratios} leaves these parts empty: {', '.join(empty)}")
    perm = np.random.default_rng([int(seed), 5]).permutation(n)
    return DatasetSplit(*map(dataset.subset, np.split(perm, [cut1, cut2])))


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
        if not 0.0 < self.noise < math.inf:
            raise ConfigError(f"noise temperature must be positive and finite, got {self.noise}")
        for name in ("linear_scale", "embed_scale"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ConfigError(f"theta must be finite, got {self.theta}")
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
    schema = FieldSchema.of_sizes([v + N_RESERVED] * n)
    dataset = Dataset(cats + N_RESERVED, labels)
    truth = {"linear": linear}
    if embed is not None:
        truth["embed"] = embed
    return SyntheticData(spec, schema, dataset, probs, theta, truth)


# ---------------------------------------------------------------------------
# file formats


def save_schema(schema, path):
    write_json(path, schema.to_dict())


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
    r"""One line per record, `"\t".join(map(str, record)) + "\n"`, label first; each distinct value
    is formatted once, and the text is joined 4,096 records at a time."""
    table = np.column_stack([dataset.labels.astype(np.int64), dataset.indices])
    values, inverse = np.unique(table, return_inverse=True)
    texts = np.array([f"{v}{end}" for end in "\t\n" for v in values.tolist()], dtype=object)
    inverse = inverse.reshape(table.shape)
    inverse[:, -1] += len(values)  # a record's last value ends its line
    blocks = range(0, len(table), 4096)
    write_text(path, ("".join(texts[inverse[s : s + 4096]].ravel().tolist()) for s in blocks))


def load_encoded(path, schema=None):
    """Read the records `save_encoded` writes: a 0/1 label, then one index per field.

    Every problem raises DataError naming `path` and, where one line is
    at fault, its number: a cell that is not an integer, a record whose
    width differs from the first, a value beyond int64, a label other
    than 0 or 1, and, given `schema`, a record of another width or an
    index outside its field's vocabulary.
    """
    with reading(path) as fh:
        text = fh.read()
    table = _parse_vectorized(text)
    if table is None:
        table = _parse_lines(path, text)
    try:
        dataset = Dataset(np.ascontiguousarray(table[:, 1:]), table[:, 0])
        if schema is not None:
            dataset.check_schema(schema)
    except DataError as exc:
        where = path if exc.row is None else f"{path}:{_line_of(text, exc.row)}"
        raise DataError(f"{where}: {exc}") from exc
    return dataset


def _parse_vectorized(text):
    """The (N, 1 + n) int64 table of `text` in one `np.loadtxt` pass, or None.

    Only text made of ASCII digits, '-', tabs and newlines is tried: there
    the parse reads exactly what `_parse_lines` reads, or raises. Other
    text, empty text and text the parse rejects give None.
    """
    if not text.strip("\t\n") or text.translate(_DELETE_RECORD_CHARS):
        return None
    try:
        return np.loadtxt(io.StringIO(text), dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return None


def _records(text):
    """(line number, stripped line) of each line of `text` that is not blank."""
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if line:
            yield lineno, line


def _line_of(text, row):
    """The line number of record `row` (0-based) of `text`."""
    return next(itertools.islice(_records(text), row, None))[0]


def record_line(path, row):
    """The line number of record `row` (0-based) of the encoded records at `path`."""
    with reading(path) as fh:
        return _line_of(fh.read(), row)


def _parse_lines(path, text):
    """The (N, 1 + n) int64 table of `text`, one line at a time with Python `int`."""
    rows = []
    for lineno, line in _records(text):
        try:
            row = [int(c) for c in line.split("\t")]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if rows and len(row) != len(rows[0]):
            raise DataError(f"{path}:{lineno}: inconsistent column counts: {len(row)}, first record {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no records")
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        row = next(r for r, cells in enumerate(rows) if min(cells) < -(2**63) or max(cells) >= 2**63)
        raise DataError(f"{path}:{_line_of(text, row)}: a value is out of the int64 range") from None
