"""End-to-end tests for the command-line interface.

Every test drives the installed entry point in a subprocess, so exit
codes, stdout contracts, and written artifacts are checked exactly as a
shell user would see them.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ctrzoo.cli", *[str(a) for a in argv]],
        capture_output=True,
        text=True,
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


def test_eval_rejects_checkpoint_values_that_do_not_fit_their_shape(ws, synth_dir, run_dir):
    def truncate(payload):
        payload["slots"]["emb.0"]["values"].pop()

    run = broken_run(ws, run_dir, "run_short_values", edit_json(truncate))
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "params.json" in proc.stderr and "emb.0" in proc.stderr


def test_eval_rejects_a_checkpoint_slot_of_the_wrong_shape(ws, synth_dir, run_dir):
    def widen(payload):
        slot = payload["slots"]["emb.0"]
        rows, d = slot["shape"]
        slot["shape"] = [rows, d + 1]
        slot["values"] = [0.1] * (rows * (d + 1))

    run = broken_run(ws, run_dir, "run_wide_slot", edit_json(widen))
    proc = run_cli("eval", "--run", run, "--data", synth_dir)
    assert_data_error(proc)
    assert "'emb.0' has shape" in proc.stderr


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
    proc = run_cli(
        "gradcheck", "--models", "LR", "--fields", 3, "--vocab", 5,
        "--batch", 4, "--corrupt", 0.1,
    )
    assert proc.returncode == 5
    assert proc.stdout.startswith("FAIL LR")


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
