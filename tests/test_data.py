"""Data pipeline tests: binning, vocabularies, splits, and the click simulator."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrzoo import data
from ctrzoo.data import (
    Dataset,
    Field,
    FieldSchema,
    N_RESERVED,
    OOV_INDEX,
    RawTable,
    SyntheticSpec,
    Vocabulary,
    build_vocab,
    discretize_numeric,
    encode,
    generate_dcm,
    load_encoded,
    load_schema,
    read_raw,
    save_encoded,
    save_schema,
    split_dataset,
    tokenize,
)
from ctrzoo.errors import ConfigError, DataError, DomainError, ShapeError
from ctrzoo.tape import sigmoid


# ---------------------------------------------------------------------------
# numeric binning and tokenization


def test_discretize_hand_values():
    assert discretize_numeric(2.0) == 0
    assert discretize_numeric(math.e) == 2
    assert discretize_numeric(1.0) == -1
    assert discretize_numeric(0.0) == -2
    assert discretize_numeric(10.0) == 4  # floor(2 ln 10) = floor(4.605...)
    assert discretize_numeric(-3.5) == -5


def test_discretize_is_monotone():
    xs = np.arange(-10.0, 100.0, 0.01)
    bins = [discretize_numeric(x) for x in xs]
    assert all(b2 >= b1 for b1, b2 in zip(bins, bins[1:]))


def test_discretize_rejects_nonfinite():
    with pytest.raises(DomainError):
        discretize_numeric(float("nan"))
    with pytest.raises(DomainError):
        discretize_numeric(float("inf"))


def test_tokenize_missing_and_passthrough():
    assert tokenize("", "categorical") is None
    assert tokenize(None, "numeric") is None
    assert tokenize("adid_17", "categorical") == "adid_17"


def test_tokenize_numeric_bins_to_string():
    assert tokenize("2.5", "numeric") == str(discretize_numeric(2.5))
    assert tokenize("0", "numeric") == "-2"


def test_tokenize_bad_numeric_rejected():
    with pytest.raises(DataError):
        tokenize("not-a-number", "numeric")


# ---------------------------------------------------------------------------
# vocabulary building


def _table(rows, labels=None, kinds=None):
    """A RawTable of `rows`, one token per field each, stored as its columns."""
    n = len(rows[0])
    kinds = kinds or ["categorical"] * n
    fields = [Field(f"f{i}", k) for i, k in enumerate(kinds)]
    labels = labels if labels is not None else [0] * len(rows)
    return RawTable(fields, labels, list(zip(*rows)))


def _encoded(vocab, token):
    """The index `vocab` gives `token` in its one field, as `encode` writes it."""
    return int(encode(_table([[token]]), vocab).indices[0, 0])


def test_vocab_single_value_gets_size_three():
    table = _table([["x"], ["x"], ["x"]])
    vocab = build_vocab(table, min_count=1)
    assert vocab.schema().vocab_sizes == [3]
    assert _encoded(vocab, "x") == 2


def test_vocab_first_appearance_order():
    table = _table([["c"], ["a"], ["b"], ["a"]])
    vocab = build_vocab(table, min_count=1)
    assert vocab.maps[0] == {"c": 2, "a": 3, "b": 4}


def test_vocab_min_count_drops_rare_tokens():
    rows = [["A"]] * 12 + [["B"]] * 3
    vocab = build_vocab(_table(rows), min_count=10)
    assert "A" in vocab.maps[0]
    assert "B" not in vocab.maps[0]
    assert _encoded(vocab, "B") == OOV_INDEX


def test_vocab_missing_encodes_to_reserved_zero():
    vocab = build_vocab(_table([["x"], [None]]), min_count=1)
    assert _encoded(vocab, None) == 0


def test_vocab_rejects_bad_min_count_and_empty_table():
    with pytest.raises(ConfigError):
        build_vocab(_table([["x"]]), min_count=0)
    empty = RawTable([Field("f0")], [], [()])
    with pytest.raises(DataError):
        build_vocab(empty, min_count=1)


def test_encode_round_trip_through_vocab():
    table = _table([["a", "p"], ["b", None], ["a", "q"]], labels=[1, 0, 1])
    vocab = build_vocab(table, min_count=1)
    ds = encode(table, vocab)
    assert ds.indices.tolist() == [[2, 2], [3, 0], [2, 3]]
    assert ds.labels.tolist() == [1.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# raw file reading


def test_read_raw_parses_and_skips_blank_lines(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("1\ta\t3.0\n\n0\tb\t\n")
    fields = [Field("cat"), Field("num", "numeric")]
    table = read_raw(path, fields)
    assert table.labels == [1, 0]
    assert table.columns == [("a", "b"), (str(discretize_numeric(3.0)), None)]


def test_read_raw_reports_line_numbers(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("1\ta\n0\ta\textra\n")
    with pytest.raises(DataError, match=":2:"):
        read_raw(path, [Field("cat")])


def test_read_raw_rejects_bad_label(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("2\ta\n")
    with pytest.raises(DataError, match="label"):
        read_raw(path, [Field("cat")])


def test_read_raw_rejects_bad_numeric_with_position(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("1\t5.0\n1\toops\n")
    with pytest.raises(DataError, match=":2:"):
        read_raw(path, [Field("num", "numeric")])


def test_read_raw_rejects_empty_file(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("\n\n")
    with pytest.raises(DataError, match="no records"):
        read_raw(path, [Field("cat")])


def test_read_raw_rejects_unknown_delimiter(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("1\ta\n")
    with pytest.raises(ConfigError):
        read_raw(path, [Field("cat")], delimiter="pipe")


def test_read_raw_comma_delimiter(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("1,a,b\n0,c,d\n")
    table = read_raw(path, [Field("x"), Field("y")], delimiter="comma")
    assert table.columns == [("a", "c"), ("b", "d")]


# ---------------------------------------------------------------------------
# dataset container and splits


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 3), dtype=np.int64), np.array([0.0, 2.0]))
    with pytest.raises(ShapeError):
        Dataset(np.zeros(4, dtype=np.int64), np.zeros(4))
    with pytest.raises(ShapeError):
        Dataset(np.zeros((2, 3), dtype=np.int64), np.zeros(3))


def test_dataset_schema_check():
    ds = Dataset(np.array([[0, 5]]), np.array([1.0]))
    schema = FieldSchema.of_sizes([4, 4])
    with pytest.raises(DataError):
        ds.check_schema(schema)
    ds.check_schema(FieldSchema.of_sizes([4, 6]))


def test_split_ten_records_eight_one_one():
    ds = Dataset(np.arange(20).reshape(10, 2) % 3, np.zeros(10))
    split = split_dataset(ds, (0.8, 0.1, 0.1), seed=4)
    assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)


def test_split_sizes_are_cumulative_floors():
    ds = Dataset(np.zeros((10, 1), dtype=np.int64), np.zeros(10))
    split = split_dataset(ds, (0.5, 0.25, 0.25), seed=0)
    # boundaries floor(5.0) = 5 and floor(7.5) = 7
    assert (len(split.train), len(split.valid), len(split.test)) == (5, 2, 3)


def test_split_partitions_without_loss():
    ds = Dataset(np.arange(37)[:, None] % 5, np.zeros(37))
    split = split_dataset(ds, (0.6, 0.2, 0.2), seed=9)
    seen = np.concatenate(
        [split.train.indices[:, 0], split.valid.indices[:, 0], split.test.indices[:, 0]]
    )
    np.testing.assert_array_equal(np.sort(seen), np.sort(ds.indices[:, 0]))


def test_split_same_seed_is_identical():
    ds = Dataset(np.arange(30)[:, None], np.zeros(30))
    a = split_dataset(ds, seed=7)
    b = split_dataset(ds, seed=7)
    np.testing.assert_array_equal(a.train.indices, b.train.indices)
    np.testing.assert_array_equal(a.test.indices, b.test.indices)


def test_split_rejects_bad_ratios_and_tiny_data():
    ds = Dataset(np.arange(10)[:, None], np.zeros(10))
    with pytest.raises(ConfigError):
        split_dataset(ds, (1.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        split_dataset(ds, (0.5, 0.3, 0.3))
    with pytest.raises(ConfigError):
        split_dataset(ds, (0.5, 0.5))
    tiny = Dataset(np.zeros((2, 1), dtype=np.int64), np.zeros(2))
    with pytest.raises(DataError):
        split_dataset(tiny)


# ---------------------------------------------------------------------------
# synthetic click model


def oracle_probs_pair_loop(data):
    """Recompute click probabilities record by record with explicit loops."""
    spec = data.spec
    linear = data.truth["linear"]
    embed = data.truth.get("embed")
    out = np.empty(len(data.dataset))
    for r in range(len(data.dataset)):
        cats = data.dataset.indices[r] - N_RESERVED
        h = 0.0
        for i in range(spec.n_fields):
            h += linear[i, cats[i]]
        if embed is not None:
            for i in range(spec.n_fields):
                for j in range(i + 1, spec.n_fields):
                    h += float(np.dot(embed[i, cats[i]], embed[j, cats[j]]))
        out[r] = sigmoid((h - data.theta) / spec.noise)
    return out


def test_generated_probs_match_pair_loop_oracle():
    data = generate_dcm(SyntheticSpec(n_fields=4, categories=5, d_true=3, count=200, seed=2))
    np.testing.assert_allclose(data.probs, oracle_probs_pair_loop(data), rtol=0, atol=1e-12)


def test_linear_family_probs_match_oracle():
    spec = SyntheticSpec(n_fields=3, categories=4, family="linear", count=150, seed=6)
    data = generate_dcm(spec)
    assert "embed" not in data.truth
    np.testing.assert_allclose(data.probs, oracle_probs_pair_loop(data), rtol=0, atol=1e-12)


def test_flat_utility_gives_coin_flip_probs():
    spec = SyntheticSpec(
        n_fields=3, categories=4, linear_scale=0.0, embed_scale=0.0, count=100, seed=1
    )
    data = generate_dcm(spec)
    np.testing.assert_allclose(data.probs, np.full(100, 0.5), rtol=0, atol=1e-15)


def test_tiny_noise_makes_labels_deterministic():
    spec = SyntheticSpec(n_fields=4, categories=5, noise=1e-9, count=300, seed=3)
    data = generate_dcm(spec)
    np.testing.assert_array_equal(data.dataset.labels, (data.probs > 0.5).astype(np.float64))


def test_generation_is_bitwise_reproducible():
    spec = SyntheticSpec(n_fields=4, categories=6, count=200, seed=11)
    a = generate_dcm(spec)
    b = generate_dcm(spec)
    np.testing.assert_array_equal(a.dataset.indices, b.dataset.indices)
    np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)
    np.testing.assert_array_equal(a.probs, b.probs)
    assert a.theta == b.theta


def test_click_rate_tracks_mean_probability():
    data = generate_dcm(SyntheticSpec(count=5000, seed=4))
    p = data.probs
    three_sigma = 3.0 * math.sqrt(float(np.sum(p * (1.0 - p)))) / len(p)
    assert abs(data.dataset.labels.mean() - p.mean()) < three_sigma


def test_theta_override_is_respected():
    data = generate_dcm(SyntheticSpec(n_fields=3, categories=4, theta=1.5, count=50, seed=0))
    assert data.theta == 1.5


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(family="cubic")
    with pytest.raises(ConfigError):
        SyntheticSpec(noise=0.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(d_true=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(count=0)


def gumbel_sample(rng, size):
    """Standard Gumbel draws via the inverse CDF, -ln(-ln U)."""
    u = np.clip(rng.random(size), 1e-300, 1.0 - 1e-16)
    return -np.log(-np.log(u))


def simulate_clicks_gumbel(h, theta, noise, rng):
    """Click decisions from explicit two-sided Gumbel utility noise.

    A click happens when H - theta + k*g1 beats the outside option k*g2.
    The difference of two Gumbels is logistic, so click rates converge to
    sigmoid((H - theta) / k): an independent check on the closed form
    `generate_dcm` draws labels from.
    """
    h = np.asarray(h, dtype=np.float64)
    g1 = gumbel_sample(rng, h.shape)
    g2 = gumbel_sample(rng, h.shape)
    return (h - theta + noise * g1 > noise * g2).astype(np.float64)


def test_gumbel_sample_mean_near_euler_gamma():
    draws = gumbel_sample(np.random.default_rng(0), 50000)
    assert abs(draws.mean() - 0.5772156649) < 0.02


def test_gumbel_click_rates_converge_to_logistic():
    # difference of two standard Gumbels is logistic, so empirical click
    # rates at fixed utility approach sigmoid(h / k)
    levels = np.array([-1.0, 0.0, 1.2])
    reps = 20000
    h = np.repeat(levels, reps)
    clicks = simulate_clicks_gumbel(h, 0.0, 1.0, np.random.default_rng(5))
    for k, lvl in enumerate(levels):
        rate = clicks[k * reps : (k + 1) * reps].mean()
        target = sigmoid(lvl)
        assert abs(rate - target) < 3.0 * math.sqrt(target * (1.0 - target) / reps)


# ---------------------------------------------------------------------------
# file round-trips


def test_schema_file_round_trip(tmp_path):
    schema = FieldSchema.of_sizes([5, 9], names=["user", "item"])
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    loaded = load_schema(path)
    assert loaded.to_dict() == schema.to_dict()


def test_encoded_file_round_trip(tmp_path):
    ds = Dataset(np.array([[2, 3, 0], [1, 0, 4]]), np.array([1.0, 0.0]))
    path = tmp_path / "encoded.tsv"
    save_encoded(ds, path)
    loaded = load_encoded(path)
    np.testing.assert_array_equal(loaded.indices, ds.indices)
    np.testing.assert_array_equal(loaded.labels, ds.labels)


def test_load_encoded_validates(tmp_path):
    path = tmp_path / "encoded.tsv"
    path.write_text("1\t2\tx\n")
    with pytest.raises(DataError, match=":1:"):
        load_encoded(path)
    path.write_text("1\t2\t3\n0\t1\n")
    with pytest.raises(DataError, match="inconsistent"):
        load_encoded(path)


def test_load_encoded_rejects_an_index_beyond_int64(tmp_path):
    path = tmp_path / "encoded.tsv"
    path.write_text("1\t2\t3\n0\t123456789012345678901234\t2\n")
    with pytest.raises(DataError, match="encoded.tsv"):
        load_encoded(path)


def test_load_encoded_reads_saved_records_in_one_vectorized_pass(tmp_path):
    rng = np.random.default_rng(2)
    ds = Dataset(rng.integers(0, 50, size=(300, 4)), rng.integers(0, 2, size=300))
    path = tmp_path / "encoded.tsv"
    save_encoded(ds, path)
    with mock.patch.object(data, "_parse_lines", side_effect=AssertionError("line loop used")):
        loaded = load_encoded(path, FieldSchema.of_sizes([50] * 4))
    assert loaded.indices.tolist() == ds.indices.tolist() and loaded.labels.tolist() == ds.labels.tolist()


def _load_outcome(path, schema):
    """The dataset `load_encoded` returns, as lists, or the message of its DataError."""
    try:
        ds = load_encoded(path, schema)
    except DataError as exc:
        return str(exc)
    return ds.indices.shape, ds.indices.tolist(), ds.labels.tolist()


_CELLS = st.sampled_from(
    ["0", "1", "2", "-", "--3", "3-", "-0", "007", "", " 1", "1\x0c", "0\x0c1", "\u0663",
     "9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809"]
) | st.integers(-3, 5).map(str) | st.text("0123456789-", max_size=3)
_RECORD_TEXT = st.lists(st.lists(_CELLS, min_size=1, max_size=4), max_size=5).map(
    lambda lines: "".join("\t".join(cells) + "\n" for cells in lines)
)


@settings(max_examples=300, deadline=None, database=None)
@given(
    text=st.text("0123456789-\t\n \x0c\u0663", max_size=30) | _RECORD_TEXT | _RECORD_TEXT.map(str.rstrip),
    with_schema=st.booleans(),
)
@example(text="0\x0c1\n1\n", with_schema=False)  # one record to Python, two to `str.splitlines`
@example(text="1\t2\n\n\t0\t3\t\n", with_schema=True)
@example(text="1\t9223372036854775808\n", with_schema=False)
def test_load_encoded_vectorized_pass_agrees_with_the_line_loop(tmp_path_factory, text, with_schema):
    # blank lines, leading and trailing tabs, signs, zero padding, one-column
    # and ragged records, int64 overflow, and characters only Python reads
    path = tmp_path_factory.mktemp("encoded") / "encoded.tsv"
    path.write_bytes(text.encode("utf-8"))
    schema = FieldSchema.of_sizes([3, 3]) if with_schema else None
    with mock.patch.object(data, "_parse_vectorized", return_value=None):
        by_lines = _load_outcome(path, schema)
    assert _load_outcome(path, schema) == by_lines
    # and both read what Python reads line by line from the file
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [[int(c) for c in line.strip().split("\t")] for line in fh if line.strip()]
    except ValueError:
        rows = []
    valid = (
        rows
        and len({len(r) for r in rows}) == 1
        and all(-(2**63) <= v < 2**63 for r in rows for v in r)
        and all(r[0] in (0, 1) for r in rows)
        and (schema is None or all(len(r) == 3 and 0 <= min(r[1:]) and max(r[1:]) < 3 for r in rows))
    )
    if valid:
        assert by_lines == ((len(rows), len(rows[0]) - 1), [r[1:] for r in rows], [r[0] for r in rows])
    else:
        assert isinstance(by_lines, str) and by_lines.startswith(f"{path}")


def test_vocab_file_round_trip(tmp_path):
    vocab = build_vocab(_table([["a", "x"], ["b", "x"]]), min_count=1)
    path = tmp_path / "vocab.json"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.maps == vocab.maps
    assert loaded.min_count == vocab.min_count


@pytest.mark.parametrize(
    "values, min_count",
    [({"x": "two"}, 1), ({"x": 2.7}, 1), ({"x": 2}, "abc")],
    ids=["index-string", "index-float", "min-count-string"],
)
def test_vocab_load_rejects_a_malformed_file_naming_it(tmp_path, values, min_count):
    path = tmp_path / "vocab.json"
    fields = [{"name": "f0", "kind": "categorical", "values": values}]
    path.write_text(json.dumps({"min_count": min_count, "fields": fields}), encoding="utf-8")
    with pytest.raises(DataError, match="vocab.json: malformed vocabulary payload"):
        Vocabulary.load(path)


def test_write_raw_read_raw_round_trip(tmp_path):
    table = _table([["a", "p"], ["b", None]], labels=[1, 0])
    path = tmp_path / "raw.tsv"
    lines = [
        "\t".join([str(y)] + ["" if t is None else t for t in row])
        for y, row in zip(table.labels, zip(*table.columns))
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    back = read_raw(path, table.fields)
    assert back.labels == table.labels
    assert back.columns == table.columns


# ---------------------------------------------------------------------------
# prepare's column pass against a row-by-row reference


def _reference_prepare(labels, cell_rows, kinds, min_count):
    """Tokens, vocabulary maps, indices and record text of `prepare`, one cell at a time."""
    rows = [[tokenize(c, k) for c, k in zip(cells, kinds)] for cells in cell_rows]
    maps = []
    for i in range(len(kinds)):
        counts = {}
        for row in rows:
            if row[i] is not None:
                counts[row[i]] = counts.get(row[i], 0) + 1
        kept = [t for t, c in counts.items() if c >= min_count]
        maps.append({t: N_RESERVED + k for k, t in enumerate(kept)})
    indices = []
    for row in rows:
        record = []
        for i, token in enumerate(row):
            record.append(data.MISSING_INDEX if token is None else maps[i].get(token, OOV_INDEX))
        indices.append(record)
    text = ""
    for label, record in zip(labels, indices):
        text += "\t".join(str(v) for v in [label] + record) + "\n"
    return rows, maps, indices, text


_CATEGORICAL_CELLS = st.sampled_from(["", "a", "b", "0", "-1", "a b", " a", "b "]) | st.text("xyz", min_size=1, max_size=3)
_NUMERIC_CELLS = (
    st.sampled_from(["", "0", "2", "-2", "1e3", "-0.0", repr(math.exp(1.5)), repr(math.exp(2.0)), "3.0000000001"])
    | st.floats(-1e9, 1e9).map(repr)
)


@st.composite
def _raw_tables(draw):
    kinds = draw(st.lists(st.sampled_from(["categorical", "numeric"]), min_size=1, max_size=4))
    n_records = draw(st.integers(1, 12))
    cell_rows = [
        [draw(_CATEGORICAL_CELLS if k == "categorical" else _NUMERIC_CELLS) for k in kinds]
        for _ in range(n_records)
    ]
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n_records, max_size=n_records))
    return labels, cell_rows, kinds


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(table=_raw_tables(), min_count=st.integers(1, 3))
@example(table=([1], [["a"]], ["categorical"]), min_count=1)  # one field, one record
@example(table=([0, 1], [[""], [""]], ["numeric"]), min_count=1)  # every cell missing
def test_prepare_by_columns_agrees_with_a_row_by_row_reference(tmp_path_factory, table, min_count):
    labels, cell_rows, kinds = table
    rows, maps, indices, text = _reference_prepare(labels, cell_rows, kinds, min_count)
    root = tmp_path_factory.mktemp("prepare")
    raw = root / "raw.tsv"
    raw.write_text("".join("\t".join([str(y), *cells]) + "\n" for y, cells in zip(labels, cell_rows)))
    fields = [Field(f"f{i}", k) for i, k in enumerate(kinds)]
    parsed = read_raw(raw, fields)
    assert parsed.labels == labels and parsed.columns == list(zip(*rows))
    vocab = build_vocab(parsed, min_count=min_count)
    assert [list(m.items()) for m in vocab.maps] == [list(m.items()) for m in maps]  # the order too
    ds = encode(parsed, vocab)
    assert ds.indices.shape == (len(labels), len(kinds)) and ds.indices.tolist() == indices
    assert ds.labels.tolist() == labels
    save_encoded(ds, root / "encoded.tsv")
    assert (root / "encoded.tsv").read_bytes() == text.encode("ascii")


# ---------------------------------------------------------------------------
# raw faults are reported at the first bad line in file order


@pytest.mark.parametrize(
    "lines, message",
    [
        (["1\ta\t5", "0\tb\toops", "1\tc"], "2: bad numeric value 'oops'"),
        (["1\ta\t5", "0\tb", "1\tc\toops"], "2: expected 3 columns, got 2"),
        (["1\ta\t5", "2\tb\t4", "1\tc\toops"], "2: label must be 0 or 1, got '2'"),
        (["1\ta\t5", "1\tb\tinf", "x\tc\t4"], "2: cannot discretize non-finite value inf"),
        (["1\ta\t5", "0\t\tnan", "1\tc"], "2: cannot discretize non-finite value nan"),
        (["1\ta\toops", "2\tb\t4"], "1: bad numeric value 'oops'"),
        (["2\ta\toops"], "1: label must be 0 or 1, got '2'"),
    ],
    ids=["numeric-then-width", "width-then-numeric", "label-then-numeric", "domain-then-label",
         "domain-then-width", "numeric-then-label", "label-and-numeric-on-one-line"],
)
def test_read_raw_reports_the_first_bad_line_in_file_order(tmp_path, lines, message):
    path = tmp_path / "raw.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        read_raw(path, [Field("cat"), Field("num", "numeric")])
    assert str(err.value) == f"{path}:{message}"
    assert err.value.exit_code == 3


# ---------------------------------------------------------------------------
# encoded record text at the edges of int64


def test_save_encoded_writes_each_record_as_its_joined_values(tmp_path):
    indices = np.array(
        [[-(2**63), 2**63 - 1, -1], [0, -7, 2**63 - 1], [-(2**63), -(2**63), 12], [5, 5, 5]], dtype=np.int64
    )
    rng = np.random.default_rng(3)
    many = Dataset(rng.integers(-4, 40, size=(2 * 4096 + 5, 3)), rng.integers(0, 2, size=2 * 4096 + 5))  # several blocks
    cases = [
        Dataset(indices, np.array([1.0, 0.0, 0.0, 1.0])),  # values far apart: each distinct value formatted once
        Dataset(indices[:1, :1], np.array([0.0])),
        Dataset(np.array([[-3, 0, 2], [-1, 5, -3]]), np.array([0.0, 1.0])),  # a few values, some below zero
        many,
    ]
    for ds in cases:
        path = tmp_path / "encoded.tsv"
        save_encoded(ds, path)
        table = np.column_stack([ds.labels.astype(np.int64), ds.indices])
        expected = "".join("\t".join(map(str, row)) + "\n" for row in table.tolist())
        assert path.read_bytes() == expected.encode("ascii")
        back = load_encoded(path)
        assert back.indices.tolist() == ds.indices.tolist() and back.labels.tolist() == ds.labels.tolist()


def test_save_encoded_writes_an_empty_file_for_zero_records(tmp_path):
    path = tmp_path / "encoded.tsv"
    save_encoded(Dataset(np.empty((0, 3), dtype=np.int64), np.empty(0)), path)
    assert path.read_bytes() == b""
    with pytest.raises(DataError) as err:
        load_encoded(path)
    assert str(err.value) == f"{path}: no records"
