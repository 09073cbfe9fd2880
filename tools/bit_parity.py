"""Print sha256 fingerprints of every zoo model's numbers, to compare two checkouts bit for bit.

For the `ctrzoo` found on `sys.path`, each configuration line gives the
model, its switches, the field count n, width d, batch B, layer count, the
recorded tape's length, and one sha256 over the store's initial values,
`Model.forward`, the training loss and every gradient (dropout drawn from a
fixed generator). The configurations are the 15 models and 8 variants at
three sizes, then the 15 models at the middle size once more on a store
that went through `ParameterStore.save` and `load`, whose slots lie in
sorted order, so lookups read their tables at other offsets. Then one line
per model gives the sha256 of the parameters a short `ctrzoo train` on a
fixed synthetic set leaves in `params.json`, as `ParameterStore.load` reads
them (names, shapes and values, so it does not depend on the checkpoint
format), and of its `history.csv`. One more line gives the sha256 of the
six files `ctrzoo prepare` writes (all but `manifest.json`, which holds a
timestamp) from a fixed raw TSV the tool writes itself: categorical and
numeric fields, missing cells, tokens below the minimum count and a blank
line. A last `TOTAL` line hashes every fingerprint above it. Tape lengths
are printed but left out of `TOTAL`, so a change that only adds or removes
nodes keeps it.

Run it from the repository root on two checkouts and compare:

    PYTHONPATH=src python tools/bit_parity.py > change.txt
    PYTHONPATH=../parent/src python tools/bit_parity.py > parent.txt
    diff parent.txt change.txt

Needs only the standard library and numpy. A run takes a few seconds on a 2-CPU machine.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import ctrzoo
from ctrzoo.cli import main as cli_main
from ctrzoo.data import FieldSchema
from ctrzoo.tape import ParameterStore, Tape
from ctrzoo.zoo import MODEL_NAMES, ModelSpec, build_model, model_on_store, random_batch

SIZES = ((5, 4, 8, 2), (10, 16, 1024, 2), (4, 5, 37, 3))  # (n, d, B, layers)
VARIANTS = (
    ("SAM2_E", {"self_product": True}),
    ("SAM2_A", {"sam2_upper_only": True}),
    ("SAM2_E", {"sam2_upper_only": True}),
    ("SAM3_A", {"softmax_enabled": False}),
    ("AFM", {"afm_width": 3}),
    ("AFM", {"softmax_enabled": False}),
    ("FM", {"include_linear": False}),
    ("AutoInt", {"layers": 3}),
)
SEED = 7
PREPARED = ("vocab.json", "schema.json", "encoded.tsv", "train.tsv", "valid.tsv", "test.tsv")


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def fingerprint(name, switches, n, d, b, layers, checkpoint=None):
    """(tape length, sha256) of one configuration's values, forward, loss and gradients;
    with a `checkpoint` path, of the model on its store saved there and loaded back."""
    schema = FieldSchema.of_sizes([5 + i % 4 for i in range(n)])
    spec = ModelSpec(name, schema, d=d, **{"layers": layers, **switches})
    model = build_model(spec, seed=SEED)
    if checkpoint is not None:
        model.store.save(checkpoint)
        model = model_on_store(spec, ParameterStore.load(checkpoint))
    indices, labels = random_batch(schema, b, seed=SEED)
    start = model.store.values.copy()
    forward = model.forward(indices)
    model.store.zero_grads()
    tape = Tape()
    loss = model.loss_node(tape, indices, labels, drop_rng=np.random.default_rng([SEED, 13]))
    tape.backward(loss)
    return len(tape), _digest(start, forward, loss.value, model.store.grads)


def trained(name, data, out):
    """sha256 of the loaded parameters and the history.csv of a short `ctrzoo train` of `name`."""
    argv = ["train", "--data", data, "--out", out, "--model", name, "--d", "4", "--layers", "2",
            "--mlp-hidden", "8,8", "--epochs", "2", "--batch", "64", "--seed", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(argv) != 0:
            raise SystemExit(f"ctrzoo train --model {name} failed")
    store = ParameterStore.load(Path(out) / "params.json")
    h = hashlib.sha256()
    for slot in sorted(store.names()):
        h.update(f"{slot} {store.value(slot).shape}".encode())
        h.update(np.ascontiguousarray(store.value(slot), "<f8").tobytes())
    h.update((Path(out) / "history.csv").read_bytes())
    return h.hexdigest()


def raw_records():
    """The raw TSV lines `prepared` encodes: a label, two categorical fields and two numeric ones."""
    for r in range(300):
        cells = [
            "" if r % 11 == 0 else f"c{r * r % 13}",
            f"rare{r}" if r % 17 == 0 else f"k{r % 5}",  # seen once each: out of vocabulary
            "" if r % 9 == 0 else repr((r * 37 % 101 - 20) / 3.0),
            "" if r % 7 == 3 else f"{r * 1.5e3:g}",
        ]
        yield "\t".join([str(r * 7 % 3 % 2), *cells]) + "\n"
        if r == 150:
            yield "\n"


def prepared(tmp):
    """sha256 of the six files a `ctrzoo prepare` of `raw_records` writes, names and bytes in order."""
    root = Path(tmp) / "prepared"
    root.mkdir()
    (root / "raw.tsv").write_text("".join(raw_records()), encoding="utf-8")
    kinds = ("categorical", "categorical", "numeric", "numeric")
    fields = {"fields": [{"name": f"f{i}", "kind": kind} for i, kind in enumerate(kinds)]}
    (root / "fields.json").write_text(json.dumps(fields), encoding="utf-8")
    argv = ["prepare", "--raw", str(root / "raw.tsv"), "--fields", str(root / "fields.json"),
            "--out", str(root / "out"), "--min-count", "2", "--seed", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(argv) != 0:
            raise SystemExit("ctrzoo prepare failed")
    h = hashlib.sha256()
    for name in PREPARED:
        h.update(name.encode())
        h.update((root / "out" / name).read_bytes())
    return h.hexdigest()


def main():
    print(f"ctrzoo from {Path(ctrzoo.__file__).parent}", file=sys.stderr)
    total = hashlib.sha256()
    configs = [(name, {}) for name in MODEL_NAMES] + list(VARIANTS)
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(name, switches, size, None) for size in SIZES for name, switches in configs]
        runs += [(name, {}, SIZES[1], Path(tmp) / f"{name}.json") for name in MODEL_NAMES]
        for name, switches, (n, d, b, layers), checkpoint in runs:
            nodes, sha = fingerprint(name, switches, n, d, b, layers, checkpoint)
            label = ",".join(f"{k}={v}" for k, v in switches.items()) or ("loaded" if checkpoint else "-")
            print(f"{name:<12} {label:<22} n={n:<3} d={d:<3} B={b:<5} layers={layers} nodes={nodes:<4} {sha}")
            total.update(sha.encode())
        data = str(Path(tmp) / "data")
        argv = ["synth", "--out", data, "--fields", "5", "--categories", "6", "--count", "400", "--seed", "3"]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(argv) != 0:
                raise SystemExit("ctrzoo synth failed")
        for name in MODEL_NAMES:
            sha = trained(name, data, str(Path(tmp) / name))
            print(f"{name:<12} train params.json+history.csv {sha}")
            total.update(sha.encode())
        sha = prepared(tmp)
        print(f"{'prepare':<12} {'+'.join(PREPARED)} {sha}")
        total.update(sha.encode())
    print(f"TOTAL {total.hexdigest()}")


if __name__ == "__main__":
    main()
