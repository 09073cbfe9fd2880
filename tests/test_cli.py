"""End-to-end tests for the command-line interface.

Almost every test drives the installed entry point in a subprocess, so
exit codes, stdout contracts, and written artifacts are checked exactly as
a shell user would see them; the spec-builder guard calls `cli.main` in
process to watch which flags each spec is built from, and the --out guard
to see that no fit starts before the output directory is made.
"""

import ast
import base64
import dataclasses
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrzoo import cli
from ctrzoo.data import SyntheticSpec, generate_dcm


def run_cli(*argv, max_bytes=None):
    """Run the CLI in a subprocess; `max_bytes` caps its address space, so an
    allocation of that size or more fails at once instead of taking the memory."""
    limit = None if max_bytes is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))
    return subprocess.run(
        [sys.executable, "-m", "ctrzoo.cli", *[str(a) for a in argv]],
        capture_output=True,
        text=True,
        preexec_fn=limit,
    )


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def synth_dir(ws):
    out = ws / "synth"
    proc = run_cli(
        "synth", "--out", out, "--fields", 4, "--categories", 5,
        "--count", 400, "--seed", 3,
    )
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def wide_dir(ws):
    out = ws / "synth_wide"
    proc = run_cli("synth", "--out", out, "--fields", 120, "--categories", 2, "--count", 60)
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def run_dir(ws, synth_dir):
    out = ws / "run"
    proc = run_cli(
        "train", "--data", synth_dir, "--out", out, "--model", "FM", "--d", 3,
        "--lr", 0.01, "--batch", 128, "--epochs", 3, "--patience", 3, "--seed", 1,
    )
    assert proc.returncode == 0, proc.stderr
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_dataset_and_manifest(synth_dir):
    for name in ("schema.json", "encoded.tsv", "oracle.tsv", "truth.json", "manifest.json"):
        assert (synth_dir / name).is_file()
    lines = (synth_dir / "encoded.tsv").read_text().strip().split("\n")
    assert len(lines) == 400
    assert all(len(line.split("\t")) == 5 for line in lines)  # label + 4 fields


def test_synth_reports_click_rate_and_threshold(ws):
    out = ws / "synth_report"
    proc = run_cli("synth", "--out", out, "--count", 200, "--fields", 3, "--seed", 1)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["records"] == 200
    assert 0.0 < payload["click_rate"] < 1.0
    assert isinstance(payload["theta"], float)


def test_synth_is_deterministic_across_reruns(ws, synth_dir):
    again = ws / "synth_again"
    proc = run_cli(
        "synth", "--out", again, "--fields", 4, "--categories", 5,
        "--count", 400, "--seed", 3,
    )
    assert proc.returncode == 0
    for name in ("encoded.tsv", "oracle.tsv", "schema.json"):
        assert (again / name).read_bytes() == (synth_dir / name).read_bytes()


def test_synth_oracle_holds_the_generated_probabilities(ws):
    out = ws / "synth_oracle"
    proc = run_cli("synth", "--out", out, "--count", 5, "--fields", 3)
    assert proc.returncode == 0, proc.stderr
    probs = [float(line) for line in (out / "oracle.tsv").read_text().splitlines()]
    expected = generate_dcm(SyntheticSpec(n_fields=3, count=5)).probs
    assert np.array(probs).tobytes() == expected.tobytes()


def test_synth_rejects_unknown_family(ws):
    proc = run_cli("synth", "--out", ws / "bad", "--family", "cubic")
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# prepare


def test_prepare_encodes_splits_and_folds_rare_tokens(ws):
    raw = ws / "raw.tsv"
    rows = [("1", "a", "x"), ("0", "a", "x"), ("1", "b", "x"), ("0", "a", "x"),
            ("1", "rare", "x"), ("0", "b", "x"), ("1", "a", "x"), ("0", "b", "x"),
            ("1", "a", "x"), ("0", "a", "x")]
    raw.write_text("\n".join("\t".join(r) for r in rows) + "\n")
    fields = ws / "fields.json"
    fields.write_text(json.dumps({"fields": [{"name": "city"}, {"name": "dev"}]}))
    out = ws / "prepared"
    proc = run_cli(
        "prepare", "--raw", raw, "--fields", fields, "--out", out,
        "--min-count", 2, "--split", "0.8,0.1,0.1", "--seed", 0,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload == {"records": 10, "fields": 2, "split_sizes": [8, 1, 1]}
    for name in ("vocab.json", "schema.json", "encoded.tsv", "train.tsv", "valid.tsv", "test.tsv"):
        assert (out / name).is_file()
    encoded = [line.split("\t") for line in (out / "encoded.tsv").read_text().strip().split("\n")]
    # first-appearance ids: a -> 2, b -> 3; "rare" misses min-count and
    # lands on the out-of-vocabulary row
    assert encoded[0] == ["1", "2", "2"]
    assert encoded[2] == ["1", "3", "2"]
    assert encoded[4] == ["1", "1", "2"]


PREPARE_INPUTS = {
    "raw.tsv": b"1\ta\n0\tb\n",
    "fields.json": b'{"fields": [{"name": "city"}]}',
    "config.json": b"{}",
}


@pytest.mark.parametrize(
    "name, content, code",
    [
        pytest.param("raw.tsv", None, 3, id="raw-missing"),
        pytest.param("raw.tsv", b"1\t\xff\xfe\n", 3, id="raw-not-utf8"),
        pytest.param("fields.json", None, 2, id="fields-missing"),
        pytest.param("fields.json", b"{", 2, id="fields-not-json"),
        pytest.param("config.json", b"\xff\xfe{}", 2, id="config-not-utf8"),
    ],
)
def test_prepare_rejects_an_unreadable_input_file(tmp_path, name, content, code):
    # every other input is valid; `content` None leaves the file missing
    for fname, good in PREPARE_INPUTS.items():
        data = content if fname == name else good
        if data is not None:
            (tmp_path / fname).write_bytes(data)
    proc = run_cli(
        "prepare", "--config", tmp_path / "config.json", "--raw", tmp_path / "raw.tsv",
        "--fields", tmp_path / "fields.json", "--out", tmp_path / "out",
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ") and name in proc.stderr
    assert "Traceback" not in proc.stderr


def test_prepare_surfaces_malformed_rows_as_data_errors(ws):
    raw = ws / "raw_bad.tsv"
    raw.write_text("1\ta\nnope\tb\n")
    fields = ws / "fields_one.json"
    fields.write_text(json.dumps({"fields": [{"name": "city"}]}))
    proc = run_cli("prepare", "--raw", raw, "--fields", fields, "--out", ws / "prep_bad")
    assert proc.returncode == 3
    assert "raw_bad.tsv:2:" in proc.stderr


# ---------------------------------------------------------------------------
# train and eval


def test_train_writes_run_artifacts(run_dir):
    for name in ("params.json", "history.csv", "model.json", "metrics.json", "manifest.json"):
        assert (run_dir / name).is_file()
    history = (run_dir / "history.csv").read_text().strip().split("\n")
    assert history[0] == "epoch,train_loss,val_loss,val_auc"
    assert len(history) == 4  # header plus three epochs
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert set(metrics) == {"history", "test"}
    assert 0.0 <= metrics["test"]["auc"] <= 1.0


def test_train_rerun_is_byte_identical(ws, synth_dir, run_dir):
    again = ws / "run_again"
    proc = run_cli(
        "train", "--data", synth_dir, "--out", again, "--model", "FM", "--d", 3,
        "--lr", 0.01, "--batch", 128, "--epochs", 3, "--patience", 3, "--seed", 1,
    )
    assert proc.returncode == 0
    for name in ("history.csv", "params.json", "metrics.json", "model.json"):
        assert (again / name).read_bytes() == (run_dir / name).read_bytes()


def test_eval_agrees_with_training_metrics(synth_dir, run_dir):
    proc = run_cli("eval", "--run", run_dir, "--data", synth_dir, "--split", "test")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    stored = json.loads((run_dir / "metrics.json").read_text())["test"]
    assert payload["auc"] == stored["auc"]
    assert payload["logloss"] == stored["logloss"]


def test_eval_on_the_whole_dataset(synth_dir, run_dir):
    proc = run_cli("eval", "--run", run_dir, "--data", synth_dir, "--split", "all")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["records"] == 400


def broken_run(ws, run_dir, name, edit, target="params.json"):
    """Copy of the trained run whose `target` file is rewritten by `edit(text)`."""
    out = ws / name
    shutil.copytree(run_dir, out)
    path = out / target
    path.write_text(edit(path.read_text()))
    return out


def edit_json(change):
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)

    return edit


def assert_data_error(proc):
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_eval_rejects_a_checkpoint_that_is_not_json(ws, synth_dir, run_dir):
    run = broken_run(ws, run_dir, "run_not_json", lambda text: text[: len(text) // 2])
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "params.json" in proc.stderr


def test_eval_rejects_a_checkpoint_of_another_format(ws, synth_dir, run_dir):
    run = broken_run(ws, run_dir, "run_v0", edit_json(lambda p: p.update(format="ctrzoo-params-v0")))
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "params.json" in proc.stderr


@pytest.mark.parametrize(
    "target, edit",
    [
        pytest.param("schema.json", lambda raw: b"{", id="schema-not-json"),
        pytest.param("schema.json", lambda raw: b"\xff\xfe" + raw, id="schema-not-utf8"),
        pytest.param("schema.json", lambda raw: b"[]", id="schema-not-a-field-list"),
        pytest.param(
            "schema.json",
            lambda raw: b'{"fields": [{"name": "f0", "kind": "categorical", "vocab_size": "many"}]}',
            id="schema-vocab-not-a-number",
        ),
        pytest.param(
            "schema.json",
            lambda raw: b'{"fields": [{"name": "f0", "kind": "categorical", "vocab_size": 5.7}]}',
            id="schema-vocab-float",
        ),
        pytest.param("encoded.tsv", lambda raw: raw + b"\xff\xfe\n", id="encoded-not-utf8"),
    ],
)
def test_train_rejects_an_unreadable_data_file(tmp_path, synth_dir, target, edit):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    (data / target).write_bytes(edit((data / target).read_bytes()))
    proc = run_cli("train", "--data", data, "--out", tmp_path / "run", "--model", "LR", "--epochs", 1)
    assert_data_error(proc)
    assert target in proc.stderr


def test_train_rejects_an_index_beyond_int64(tmp_path, synth_dir):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    encoded = data / "encoded.tsv"
    encoded.write_text(encoded.read_text() + "1\t123456789012345678901234\t2\t2\t2\n")
    proc = run_cli("train", "--data", data, "--out", tmp_path / "run", "--model", "LR", "--epochs", 1)
    assert_data_error(proc)
    assert "encoded.tsv" in proc.stderr


@pytest.mark.parametrize(
    "record, message",
    [
        pytest.param("2\t2\t2\t2\t2", "encoded.tsv:401: label must be 0 or 1, got '2'", id="label"),
        pytest.param("1\t2\t99\t2\t2", "encoded.tsv:401: field 1 ('f1'): index 99 outside", id="index"),
    ],
)
def test_train_names_the_file_and_line_of_a_bad_record(tmp_path, synth_dir, record, message):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    encoded = data / "encoded.tsv"
    encoded.write_text(encoded.read_text() + record + "\n")
    proc = run_cli("train", "--data", data, "--out", tmp_path / "run", "--model", "LR", "--epochs", 1)
    assert_data_error(proc)
    assert message in proc.stderr


@pytest.mark.parametrize("key", ["format", "slots", "shape", "values"])
def test_eval_rejects_a_checkpoint_missing_an_entry(ws, synth_dir, run_dir, key):
    def drop(payload):
        if key in payload:
            del payload[key]
        else:
            del payload["slots"]["emb.0"][key]

    run = broken_run(ws, run_dir, f"run_no_{key}", edit_json(drop))
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "params.json" in proc.stderr and repr(key) in proc.stderr


def set_v2_values(slot, floats):
    """Give a v2 checkpoint slot the float64 entries `floats`, with their crc32."""
    raw = np.asarray(floats, "<f8").tobytes()
    slot.update(values=base64.b64encode(raw).decode("ascii"), crc32=zlib.crc32(raw))


def as_v1(text):
    """A v2 checkpoint's text rewritten as the v1 payload, each slot's values a list of floats."""
    payload = json.loads(text)
    payload["format"] = "ctrzoo-params-v1"
    for slot in payload["slots"].values():
        del slot["crc32"]
        slot["values"] = np.frombuffer(base64.b64decode(slot["values"]), "<f8").tolist()
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def v1_run_dir(ws, run_dir):
    """The trained run with its checkpoint in the v1 format, as runs trained before v2 hold it."""
    return broken_run(ws, run_dir, "run_v1", as_v1)


def test_eval_reads_a_v1_checkpoint_to_the_same_scores(synth_dir, run_dir, v1_run_dir):
    assert json.loads((v1_run_dir / "params.json").read_text())["format"] == "ctrzoo-params-v1"
    scores = []
    for run in (run_dir, v1_run_dir):
        proc = run_cli("eval", "--run", run, "--data", synth_dir, "--split", "test")
        assert proc.returncode == 0, proc.stderr
        scores.append(json.loads(proc.stdout))
    assert scores[0] == scores[1]


def test_eval_rejects_checkpoint_values_that_do_not_fit_their_shape(ws, synth_dir, v1_run_dir):
    def truncate(payload):
        payload["slots"]["emb.0"]["values"].pop()

    run = broken_run(ws, v1_run_dir, "run_short_values", edit_json(truncate))
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "params.json" in proc.stderr and "emb.0" in proc.stderr


def test_eval_rejects_v2_checkpoint_values_that_do_not_fit_their_shape(ws, synth_dir, run_dir):
    def truncate(payload):
        slot = payload["slots"]["emb.0"]
        set_v2_values(slot, np.frombuffer(base64.b64decode(slot["values"]), "<f8")[:-1])

    run = broken_run(ws, run_dir, "run_short_values_v2", edit_json(truncate))
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "params.json" in proc.stderr and "emb.0" in proc.stderr


def test_eval_rejects_a_checkpoint_slot_of_the_wrong_shape(ws, synth_dir, v1_run_dir):
    def widen(payload):
        slot = payload["slots"]["emb.0"]
        rows, d = slot["shape"]
        slot["shape"] = [rows, d + 1]
        slot["values"] = [0.1] * (rows * (d + 1))

    run = broken_run(ws, v1_run_dir, "run_wide_slot", edit_json(widen))
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "'emb.0' has shape" in proc.stderr


def test_eval_rejects_a_v2_checkpoint_slot_of_the_wrong_shape(ws, synth_dir, run_dir):
    def widen(payload):
        slot = payload["slots"]["emb.0"]
        rows, d = slot["shape"]
        slot["shape"] = [rows, d + 1]
        set_v2_values(slot, [0.1] * (rows * (d + 1)))

    run = broken_run(ws, run_dir, "run_wide_slot_v2", edit_json(widen))
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "'emb.0' has shape" in proc.stderr


def test_eval_checks_the_model_config_against_the_checkpoint_before_allocating(ws, synth_dir, run_dir):
    def huge(config):
        config["model"]["schema"]["fields"][2]["vocab_size"] = 10**15

    run = broken_run(ws, run_dir, "run_huge_vocab", edit_json(huge), target="model.json")
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "model.json does not match" in proc.stderr and "params.json" in proc.stderr
    assert "'emb.2' has shape" in proc.stderr


@pytest.fixture(scope="module")
def model_runs(ws, synth_dir, run_dir):
    """Short runs of FM, a model with an MLP head, AFM and a two-layer SAM3_A."""
    runs = {"FM": run_dir}
    for name, extra in [("DeepFM-deep", ("--mlp-hidden", "8,8")), ("AFM", ()), ("SAM3_A", ("--layers", 2))]:
        out = runs[name] = ws / f"run_{name}"
        proc = run_cli(
            "train", "--data", synth_dir, "--out", out, "--model", name, "--d", 3,
            "--batch", 128, "--epochs", 1, "--seed", 1, *extra,
        )
        assert proc.returncode == 0, proc.stderr
    return runs


@pytest.mark.parametrize(
    "model, change, message",
    [
        pytest.param(
            "DeepFM-deep", {"mlp_hidden": [10**6, 10**6, 32]},
            "slot 'st.l0.w' has shape (12, 8), the model config needs (12, 1000000)", id="mlp-hidden",
        ),
        pytest.param(
            "AFM", {"afm_width": 10**9},
            "slot 'fi.l0.attn_w' has shape (3, 3), the model config needs (1000000000, 3)", id="afm-width",
        ),
        pytest.param("SAM3_A", {"layers": 10**9}, "the checkpoint has no slot 'fi.l2.k'", id="layers"),
        pytest.param(
            "FM", {"include_bias": False}, "the checkpoint has slots the model config does not: bias",
            id="include-bias",
        ),
    ],
)
def test_eval_checks_every_slot_of_the_model_config_before_allocating(
    ws, synth_dir, model_runs, model, change, message
):
    run = broken_run(
        ws, model_runs[model], f"run_{model}_{'_'.join(change)}",
        edit_json(lambda config: config["model"].update(change)), target="model.json",
    )
    proc = run_cli("eval", "--run", run, "--data", synth_dir, max_bytes=1 << 30)
    assert_data_error(proc)
    assert f"model.json does not match {run / 'params.json'}: {message}" in proc.stderr


def test_eval_names_the_file_and_line_of_an_index_outside_the_models_vocabulary(ws):
    narrow, wide = ws / "synth_categories_4", ws / "synth_categories_9"
    for out, categories in ((narrow, 4), (wide, 9)):
        proc = run_cli("synth", "--out", out, "--fields", 4, "--categories", categories, "--count", 300, "--seed", 2)
        assert proc.returncode == 0, proc.stderr
    run = ws / "run_categories_4"
    proc = run_cli("train", "--data", narrow, "--out", run, "--model", "LR", "--epochs", 1, "--seed", 2)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("eval", "--run", run, "--data", wide)
    assert_data_error(proc)
    sizes = [f["vocab_size"] for f in json.loads((run / "model.json").read_text())["model"]["schema"]["fields"]]
    records = np.loadtxt(wide / "encoded.tsv", dtype=np.int64, ndmin=2)[:, 1:]
    row, field = np.argwhere(records >= sizes)[0]
    assert (
        f"error: {wide / 'encoded.tsv'}:{row + 1}: field {field} ('f{field}'): index {records[row, field]} "
        f"outside its vocabulary of size {sizes[field]}, as {run / 'model.json'} records it"
    ) in proc.stderr


def test_eval_rejects_a_run_config_without_its_split(ws, synth_dir, run_dir):
    run = broken_run(
        ws, run_dir, "run_no_split", edit_json(lambda c: c.pop("split")), target="model.json"
    )
    proc = run_cli("eval", "--run", run, "--data", synth_dir, "--split", "test")
    assert_data_error(proc)
    assert "'split'" in proc.stderr
    # the whole dataset needs no split
    assert run_cli("eval", "--run", run, "--data", synth_dir, "--split", "all").returncode == 0


def test_eval_rejects_a_run_config_that_is_not_json(ws, synth_dir, run_dir):
    run = broken_run(ws, run_dir, "run_model_not_json", lambda text: "{", target="model.json")
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "model.json" in proc.stderr


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda c: c["model"].pop("schema"), id="no-schema"),
        pytest.param(lambda c: c["model"].update(d=0), id="zero-d"),
        pytest.param(lambda c: c["model"].update(d="wide"), id="d-not-a-number"),
        pytest.param(lambda c: c["model"].update(softmax_enabled="false"), id="switch-string"),
        pytest.param(lambda c: c["model"].update(d=3.9), id="d-3.9"),
        pytest.param(lambda c: c["model"].update(layers=1.5), id="layers-1.5"),
        pytest.param(lambda c: c["model"].update(afm_width=2.5), id="afm-width-2.5"),
        pytest.param(lambda c: c["model"].update(mlp_hidden=[32.7, 32, 32]), id="mlp-width-float"),
        pytest.param(lambda c: c["model"].update(d=True), id="d-bool"),
        pytest.param(lambda c: c["model"].update(dropout="0.5"), id="dropout-string"),
        pytest.param(lambda c: c["model"].update(include_bias="no"), id="optional-switch-string"),
        pytest.param(lambda c: c["model"].update(self_product=None), id="switch-null"),
        pytest.param(
            lambda c: c["model"]["schema"]["fields"][0].update(vocab_size=5.7), id="schema-vocab-float"
        ),
        pytest.param(lambda c: c["split"].update(ratios=[0.8, 0.2]), id="split-two-ratios"),
        pytest.param(lambda c: c["split"].update(ratios="abc"), id="split-ratios-not-numbers"),
        pytest.param(lambda c: c["split"].update(seed="x"), id="split-seed-not-a-number"),
        pytest.param(lambda c: c["model"].update(softmax_enable=False), id="misspelt-key"),
        pytest.param(lambda c: c["split"].update(seed="1"), id="split-seed-string"),
        pytest.param(lambda c: c["split"].update(seed=True), id="split-seed-bool"),
        pytest.param(lambda c: c["split"].update(seed=1.0), id="split-seed-float"),
        pytest.param(lambda c: c["split"].update(ratios=["0.8", "0.1", "0.1"]), id="split-ratios-strings"),
        pytest.param(lambda c: c["split"].update(ratios=[10**400, 0.1, 0.1]), id="split-ratio-beyond-float"),
    ],
)
def test_eval_rejects_a_malformed_model_config(tmp_path, synth_dir, run_dir, change):
    run = broken_run(tmp_path, run_dir, "run", edit_json(change), target="model.json")
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "model.json" in proc.stderr


@settings(max_examples=16, deadline=None, database=None)
@given(
    target=st.sampled_from(["params.json", "model.json", "encoded.tsv", "schema.json"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    flip=st.integers(1, 255),
)
def test_eval_survives_any_corrupted_artifact_byte(ws, synth_dir, run_dir, target, where, flip):
    # a flip can leave a valid file (another digit in a value), which may
    # evaluate; every other outcome is a typed configuration or data error
    with tempfile.TemporaryDirectory(dir=ws) as tmp:
        run, data = Path(tmp) / "run", Path(tmp) / "data"
        shutil.copytree(run_dir, run)
        shutil.copytree(synth_dir, data)
        path = (run if target in ("params.json", "model.json") else data) / target
        raw = bytearray(path.read_bytes())
        raw[int(where * len(raw))] ^= flip
        path.write_bytes(bytes(raw))
        proc = run_cli("eval", "--run", run, "--data", data, "--split", "test")
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode:
        assert proc.stderr.startswith("error: ")


def test_a_diverging_train_is_one_error_line_naming_its_epoch(tmp_path, synth_dir):
    # one batch an epoch, so the first Adam step sends every weight to about 1e300 and the
    # validation pass overflows; numpy's overflow warning does not reach stderr
    proc = run_cli("train", "--data", synth_dir, "--out", tmp_path / "run", "--model", "FM", "--lr", "1e300")
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: epoch 0"), proc.stderr


@pytest.mark.parametrize("name", ["FM", "FFM", "FwFM", "AFM"])
def test_pair_models_on_one_field_are_a_config_error(name):
    proc = run_cli("gradcheck", "--models", name, "--fields", 1)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"error: {name} " in proc.stderr and "got 1" in proc.stderr


def test_zero_embedding_width_flag_stays_a_config_error(ws, synth_dir):
    proc = run_cli("train", "--data", synth_dir, "--out", ws / "zero_d", "--model", "FM", "--d", 0)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "model",
    [["FFM"], ["AFM"], ["FwFM"], ["SAM2_A"], ["SAM2_E"], ["SAM2_E", "--upper-only"]],
    ids=["FFM", "AFM", "FwFM", "SAM2_A", "SAM2_E", "SAM2_E-upper-only"],
)
def test_pair_models_train_on_a_wide_schema_in_bounded_memory(ws, wide_dir, model):
    # at 120 fields a one-hot pair constant would take 98 MiB to 1.5 GiB
    proc = run_cli(
        "train", "--data", wide_dir, "--out", ws / f"run_wide_{'_'.join(model)}", "--model", *model,
        "--d", 2, "--epochs", 1, "--batch", 32, "--mlp-hidden", 4, max_bytes=1 << 30,
    )
    assert proc.returncode == 0, proc.stderr


def test_affine_model_learns_a_linear_signal_end_to_end(ws):
    data = ws / "synth_linear"
    proc = run_cli(
        "synth", "--out", data, "--family", "linear", "--noise", 0.05,
        "--fields", 4, "--categories", 5, "--count", 2000, "--seed", 3,
    )
    assert proc.returncode == 0
    out = ws / "run_sam1"
    proc = run_cli(
        "train", "--data", data, "--out", out, "--model", "SAM1", "--d", 4,
        "--lr", 0.05, "--batch", 256, "--epochs", 30, "--patience", 30,
        "--l2", 0, "--seed", 1,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["test"]["auc"] > 0.9


# ---------------------------------------------------------------------------
# verification commands


def test_gradcheck_passes_for_selected_models():
    proc = run_cli(
        "gradcheck", "--models", "LR,FM,AFM", "--fields", 3, "--vocab", 5,
        "--d", 3, "--batch", 4,
    )
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 3
    assert all(line.startswith("PASS ") for line in lines)


def test_gradcheck_detects_a_corrupted_gradient():
    for corrupt in (0.1, "nan"):
        proc = run_cli(
            "gradcheck", "--models", "LR", "--fields", 3, "--vocab", 5,
            "--batch", 4, "--corrupt", corrupt,
        )
        assert proc.returncode == 5, corrupt
        assert proc.stdout.startswith("FAIL LR"), corrupt


def test_equivalence_checks_all_pass():
    proc = run_cli("equivalence")
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines)


def test_equivalence_unreachable_tolerance_fails():
    proc = run_cli("equivalence", "--checks", "lr-sam1", "--tol=-1")
    assert proc.returncode == 5
    assert proc.stdout.startswith("FAIL ")


def test_equivalence_samples_a_grid_too_large_for_a_float_count():
    proc = run_cli("equivalence", "--checks", "lr-sam1", "--fields", 400, "--vocab", 10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS lr-sam1")
    assert json.loads(proc.stdout.split(" ", 2)[2])["n_points"] == 1024


def test_equivalence_unknown_check_is_a_config_error():
    proc = run_cli("equivalence", "--checks", "fm-dcn")
    assert proc.returncode == 2
    assert "unknown equivalence check" in proc.stderr


# ---------------------------------------------------------------------------
# complexity and ablation


def test_complexity_csv_lists_every_model():
    proc = run_cli("complexity", "--fields", 6, "--d", 4)
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0].startswith("model,n,d,layers,")
    assert len(lines) == 16
    names = {line.split(",")[0] for line in lines[1:]}
    assert {"LR", "FM", "AutoInt", "SAM3_E"} <= names


def test_complexity_counts_a_wide_schema_without_allocating_its_slots():
    # SAM2_A's pair vectors alone would take about 3 GiB at 5000 fields
    proc = run_cli("complexity", "--fields", 5000, max_bytes=1 << 30)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split(",")[0]: line.split(",") for line in proc.stdout.strip().split("\n")[1:]}
    assert rows["SAM2_A"][1:3] == ["5000", "16"]


def test_complexity_json_carries_space_and_time(capfd):
    proc = run_cli("complexity", "--format", "json", "--layers", 2)
    assert proc.returncode == 0
    assert "--layers 2 applies to" in proc.stderr
    rows = json.loads(proc.stdout)
    assert len(rows) == 15
    by_name = {r["model"]: r for r in rows}
    assert by_name["AutoInt"]["layers"] == 2
    assert by_name["FM"]["layers"] == 1
    assert all("space" in r and "time_ops" in r for r in rows)


def test_ablation_sweeps_layer_counts(ws, synth_dir):
    out = ws / "ablation"
    proc = run_cli(
        "ablation", "--data", synth_dir, "--out", out, "--model", "SAM3_A",
        "--d", 3, "--layers-list", "1,2", "--epochs", 2, "--batch", 256,
        "--seed", 1,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert lines[0] == "model,layers,trainable_params,space_total,best_val_auc,test_auc,test_logloss"
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["SAM3_A", "SAM3_A"]
    assert [int(r[1]) for r in rows] == [1, 2]
    # deeper stacks add parameters; every metric cell must parse as a float
    assert int(rows[1][2]) > int(rows[0][2])
    for r in rows:
        for cell in r[4:]:
            float(cell)


# ---------------------------------------------------------------------------
# failure modes and config files


def test_missing_data_directory_is_a_data_error(ws):
    proc = run_cli("train", "--data", ws / "nowhere", "--out", ws / "x", "--model", "LR")
    assert proc.returncode == 3


def test_bad_split_ratios_are_a_config_error(ws, synth_dir):
    proc = run_cli(
        "train", "--data", synth_dir, "--out", ws / "y", "--model", "LR",
        "--split", "0.5,0.5",
    )
    assert proc.returncode == 2


def test_too_few_records_to_split_is_a_data_error(tmp_path):
    data = tmp_path / "tiny"
    assert run_cli("synth", "--out", data, "--count", 3, "--fields", 2).returncode == 0
    proc = run_cli("train", "--data", data, "--out", tmp_path / "run", "--model", "FM", "--epochs", 1)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and "parts empty: valid" in proc.stderr


def _out_argv(tmp_path, synth_dir, command):
    """Every flag but --out that `command` needs, on small valid inputs."""
    (tmp_path / "raw.tsv").write_text("1\ta\n0\tb\n")
    (tmp_path / "fields.json").write_text(json.dumps({"fields": [{"name": "x"}]}))
    return {
        "synth": ["--count", 20, "--fields", 2],
        "prepare": ["--raw", tmp_path / "raw.tsv", "--fields", tmp_path / "fields.json"],
        "train": ["--data", synth_dir, "--model", "LR", "--epochs", 1],
        "ablation": ["--data", synth_dir, "--model", "LR", "--epochs", 1, "--layers-list", 1],
    }[command]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["synth", "prepare", "train", "ablation"])
def test_an_out_path_that_names_a_file_is_a_config_error(tmp_path, synth_dir, command, below):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if below else taken
    proc = run_cli(command, "--out", out, *_out_argv(tmp_path, synth_dir, command))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: --out {out}: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "ablation"])
def test_a_bad_out_path_fails_before_fitting(tmp_path, synth_dir, monkeypatch, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(cli, "_fit", lambda *args: pytest.fail(f"{command} fitted before checking --out"))
    argv = [command, "--out", taken, *_out_argv(tmp_path, synth_dir, command)]
    assert cli.main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {taken}: ")


def test_an_artifact_path_that_is_a_directory_is_a_data_error(tmp_path, synth_dir):
    (tmp_path / "run" / "params.json").mkdir(parents=True)
    proc = run_cli("train", "--out", tmp_path / "run", *_out_argv(tmp_path, synth_dir, "train"))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {tmp_path / 'run' / 'params.json'}: cannot write")


_BAD_FLOATS = [
    *(
        ("synth", flag, value)
        for flag in ("--linear-scale", "--embed-scale", "--noise")
        for value in ("nan", "inf", "-1")
    ),
    *(("synth", "--theta", value) for value in ("nan", "inf")),
    *(("train", flag, value) for flag in ("--lr", "--l2", "--dropout") for value in ("nan", "inf", "-1")),
    ("train", "--split", "nan,0.1,0.1"),
    *(("gradcheck", "--eps", value) for value in ("nan", "inf", "-1", "0")),
    *((command, "--tol", value) for command in ("gradcheck", "equivalence") for value in ("nan", "inf")),
    *(("gradcheck", "--batch", value) for value in ("0", "-1")),
    *((command, "--seed", "-1") for command in ("synth", "prepare", "train", "gradcheck", "equivalence", "ablation")),
]


@pytest.mark.parametrize("command, flag, value", _BAD_FLOATS)
def test_float_flags_reject_non_finite_and_negative_values(tmp_path, synth_dir, command, flag, value):
    (tmp_path / "raw.tsv").write_text("1\ta\n0\tb\n")
    (tmp_path / "fields.json").write_text(json.dumps({"fields": [{"name": "x"}]}))
    argv = {
        "synth": ["--out", tmp_path / "out"],
        "prepare": ["--out", tmp_path / "out", "--raw", tmp_path / "raw.tsv", "--fields", tmp_path / "fields.json"],
        "train": ["--out", tmp_path / "out", "--data", synth_dir, "--model", "LR", "--epochs", 1],
        "ablation": ["--out", tmp_path / "out", "--data", synth_dir, "--model", "LR", "--epochs", 1],
        "gradcheck": ["--models", "LR"],
        "equivalence": ["--checks", "lr-sam1"],
    }[command]
    proc = run_cli(command, f"{flag}={value}", *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_unknown_model_name_is_rejected(ws, synth_dir):
    proc = run_cli("train", "--data", synth_dir, "--out", ws / "z", "--model", "GBDT")
    assert proc.returncode == 2


def test_config_file_supplies_defaults_and_flags_override(ws):
    config = ws / "synth.json"
    config.write_text(json.dumps({"count": 50, "fields": 3, "seed": 9}))
    out = ws / "from_config"
    proc = run_cli("synth", "--config", config, "--out", out)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["records"] == 50
    out2 = ws / "from_config_override"
    proc = run_cli("synth", "--config", config, "--out", out2, "--count", 30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["records"] == 30


@pytest.mark.parametrize("command", ["synth", "gradcheck"])
def test_config_file_negative_seed_is_a_configuration_error(tmp_path, command):
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": -1}))
    argv = ["--out", tmp_path / "out"] if command == "synth" else ["--models", "LR"]
    proc = run_cli(command, "--config", config, *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_config_file_rejects_unknown_settings(ws):
    config = ws / "bad.json"
    config.write_text(json.dumps({"records": 50}))
    proc = run_cli("synth", "--config", config, "--out", ws / "unused")
    assert proc.returncode == 2
    assert "unknown settings: records" in proc.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("epochs", 2.5),
        ("batch_size", 64.5),
        ("d", 3.5),
        ("mlp_hidden", [32, 32]),
        ("upper_only", "yes"),
        ("include_linear", 1),
    ],
    ids=["epochs-2.5", "batch-64.5", "d-3.5", "mlp-list", "switch-string", "switch-number"],
)
def test_config_file_values_go_through_each_flags_type(ws, synth_dir, key, value):
    config = ws / f"typed_{key}.json"
    config.write_text(json.dumps({key: value}))
    proc = run_cli(
        "train", "--config", config, "--data", synth_dir, "--out", ws / f"typed_{key}",
        "--model", "FM",
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert config.name in proc.stderr and repr(key) in proc.stderr


def _prepare_inputs(where):
    raw, fields = where / "req_raw.tsv", where / "req_fields.json"
    raw.write_text("1\ta\n0\tb\n" * 10)
    fields.write_text(json.dumps({"fields": [{"name": "city"}]}))
    return {"raw": str(raw), "fields": str(fields)}


def test_a_config_file_may_hold_the_required_flags(ws, synth_dir):
    runs = {
        "train": {"model": "FM", "data": str(synth_dir), "d": 3, "epochs": 1},
        "prepare": _prepare_inputs(ws),
    }
    for command, settings_ in runs.items():
        config, out = ws / f"required_{command}.json", ws / f"required_{command}"
        config.write_text(json.dumps({**settings_, "out": str(out)}))
        proc = run_cli(command, "--config", config)
        assert proc.returncode == 0, proc.stderr
        assert (out / ("params.json" if command == "train" else "schema.json")).is_file()


@pytest.mark.parametrize("command, flag", [("train", "model"), ("train", "out"), ("prepare", "raw")])
def test_a_null_config_value_leaves_its_flag_required(tmp_path, synth_dir, command, flag):
    settings_ = {"model": "FM", "data": str(synth_dir)} if command == "train" else _prepare_inputs(tmp_path)
    config = tmp_path / "null.json"
    config.write_text(json.dumps({**settings_, "out": str(tmp_path / "out"), flag: None}))
    proc = run_cli(command, "--config", config)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"the following arguments are required: --{flag}" in proc.stderr


@pytest.mark.parametrize("command", ["synth", "train", "ablation"])
def test_every_spec_field_read_from_flags_has_a_flag(tmp_path, synth_dir, monkeypatch, command):
    # a new SyntheticSpec, TrainConfig or ModelSpec field without a flag fails here, not at run time
    _, parsers = cli.build_parser()
    dests = {action.dest for action in parsers[command]._actions}
    built = set()
    from_args = cli._from_args

    def checked(cls, args, **given):
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in given and f.name not in dests]
        assert not missing, f"{command}: {cls.__name__} fields without a flag: {missing}"
        built.add(cls.__name__)
        return from_args(cls, args, **given)

    monkeypatch.setattr(cli, "_from_args", checked)
    argv = {
        "synth": ["--count", 20, "--fields", 2],
        "train": ["--data", synth_dir, "--model", "LR", "--epochs", 1],
        "ablation": ["--data", synth_dir, "--model", "LR", "--epochs", 1, "--layers-list", 1],
    }[command]
    assert cli.main([command, "--out", str(tmp_path / "out"), *map(str, argv)]) == 0
    assert built == ({"SyntheticSpec"} if command == "synth" else {"TrainConfig", "ModelSpec"})


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--models", "SAM1", "--fields", 3, "--d", 100_000_000],
        ["synth", "--count", 1_000_000_000],
    ],
    ids=["gradcheck", "synth"],
)
def test_running_out_of_memory_is_one_error_line(tmp_path, argv):
    if argv[0] == "synth":
        argv = [*argv, "--out", tmp_path / "data"]
    proc = run_cli(*argv, max_bytes=1 << 30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_main_releases_memory_after_every_command(monkeypatch, capsys):
    released = []
    monkeypatch.setattr(cli, "release_memory", lambda: released.append(True))
    assert cli.main(["complexity", "--fields", "3"]) == 0
    assert len(released) == 1
    assert cli.main(["gradcheck", "--models", "LR", "--batch", "0"]) == 2  # a ConfigError's exit code
    assert len(released) == 2
    assert "error: --batch must be at least 1" in capsys.readouterr().err


def test_an_interrupt_is_one_error_line_and_exit_130(monkeypatch, capsys):
    released = []
    monkeypatch.setattr(cli, "release_memory", lambda: released.append(True))

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_complexity", interrupted)
    assert cli.main(["complexity", "--fields", "3"]) == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n" and captured.out == ""
    assert released == [True]


# ---------------------------------------------------------------------------
# dependencies


def test_numpy_is_the_only_dependency_outside_the_standard_library():
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import ctrzoo, ctrzoo.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["ctrzoo", "numpy"]


def test_only_the_errors_module_opens_files():
    package = Path(cli.__file__).parent
    openers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open":
                    openers.append(f"{path.name}:{node.lineno}")
    assert openers and all(site.startswith("errors.py:") for site in openers), openers
