"""Acceptance gate: one test per release criterion, one verdict line each.

Each test recomputes its expected values independently of the library
internals (one-hot algebra, closed-form counts, recomputed generating
probabilities) and prints a single PASS/FAIL line with the measured
numbers. Run with -s to see the verdict lines on success.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ctrzoo.data import (
    N_RESERVED,
    FieldSchema,
    SyntheticSpec,
    generate_dcm,
    split_dataset,
)
from ctrzoo.embedding import emb_slot, linear_slot
from ctrzoo.equivalence import (
    lift_fm_to_sam2a,
    lift_lr_to_sam1,
    lift_sam2a_to_sam3a,
    reduce_sam1_to_lr,
    verify_equivalence,
)
from ctrzoo.metrics import auc, logloss
from ctrzoo.tape import sigmoid
from ctrzoo.training import TrainConfig, train
from ctrzoo.zoo import (
    MODEL_NAMES,
    ModelSpec,
    build_model,
    count_complexity,
    gradient_check,
    random_batch,
)

LAYERED = ("AutoInt", "SAM3_A", "SAM3_E")


def gate(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ctrzoo.cli", *[str(a) for a in argv]],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    """Small synthetic benchmark shared by the harness-level criteria."""
    out = tmp_path_factory.mktemp("acceptance") / "bench"
    proc = run_cli(
        "synth", "--out", out, "--fields", 10, "--categories", 6,
        "--count", 2000, "--seed", 5,
    )
    assert proc.returncode == 0, proc.stderr
    return out


# ---------------------------------------------------------------------------
# 1. analytic gradients agree with central finite differences


def test_gradient_suite_all_models_match_finite_differences():
    schema = FieldSchema.of_sizes([7] * 5)
    indices, labels = random_batch(schema, 8, seed=0)
    start = time.perf_counter()
    errs = {}
    for name in MODEL_NAMES:
        layers = 2 if name in LAYERED else 1
        model = build_model(ModelSpec(name, schema, d=4, layers=layers), seed=0)
        errs[name] = gradient_check(model, indices, labels)
    elapsed = time.perf_counter() - start
    worst_name = max(errs, key=errs.get)
    ok = max(errs.values()) < 1e-6 and elapsed < 60.0
    gate(
        "gradient suite (15 models, n=5, vocab=7, d=4, batch=8)",
        ok,
        f"worst {worst_name} rel_err {errs[worst_name]:.2e} (tol 1e-6), {elapsed:.1f}s (limit 60s)",
    )


# ---------------------------------------------------------------------------
# 2. forward logits match brute-force one-hot oracles


def _onehot(size, k):
    v = np.zeros(size)
    v[k] = 1.0
    return v


def _oracle_lr(model, row, sizes):
    total = float(model.store.value("bias"))
    for i, size in enumerate(sizes):
        total += float(_onehot(size, row[i]) @ model.store.value(emb_slot(i))[:, 0])
    return total


def _oracle_fm(model, row, sizes):
    total = float(model.store.value("bias"))
    embeds = []
    for i, size in enumerate(sizes):
        hot = _onehot(size, row[i])
        total += float(hot @ model.store.value(linear_slot(i))[:, 0])
        embeds.append(hot @ model.store.value(emb_slot(i)))
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            total += float(embeds[i] @ embeds[j])
    return total


def _oracle_ipnn(model, row, sizes):
    n = len(sizes)
    embeds = [_onehot(size, row[i]) @ model.store.value(emb_slot(i)) for i, size in enumerate(sizes)]
    theta = model.store.value("fi.l0.theta")
    z = np.array(
        [
            sum(float(embeds[i] @ embeds[j]) * float(theta[i] @ theta[j]) for j in range(n))
            for i in range(n)
        ]
    )
    h = z
    depth = len(model.st_spec.widths) - 1
    for k in range(depth):
        h = h @ model.store.value(f"st.l{k}.w") + model.store.value(f"st.l{k}.b")
        if k < depth - 1:
            h = np.maximum(h, 0.0)
    return float(h[0])


def test_forward_logits_match_brute_force_oracles():
    schema = FieldSchema.of_sizes([6, 9, 5, 7, 8])
    sizes = schema.vocab_sizes
    indices, _ = random_batch(schema, 1000, seed=1)
    worst = {}
    for name, oracle in (("LR", _oracle_lr), ("FM", _oracle_fm), ("IPNN", _oracle_ipnn)):
        model = build_model(ModelSpec(name, schema, d=4), seed=2)
        logits = model.forward(indices)
        expected = np.array([oracle(model, row, sizes) for row in indices])
        worst[name] = float(np.abs(logits - expected).max())
    ok = max(worst.values()) < 1e-10
    gate(
        "oracle equivalence (LR/FM/IPNN, 1000 records)",
        ok,
        ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + " (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# 3. containment lifts hold exhaustively; different families stay apart


def test_containment_lifts_agree_exhaustively():
    schema = FieldSchema.of_sizes([4] * 5)  # 1024 joint combinations
    lr = build_model(ModelSpec("LR", schema), seed=3)
    sam1 = build_model(ModelSpec("SAM1", schema, d=3), seed=4)
    fm = build_model(ModelSpec("FM", schema, d=3), seed=5)
    sam2a = build_model(ModelSpec("SAM2_A", schema, d=3), seed=6)
    pairs = {
        "first-order into affine": (lr, lift_lr_to_sam1(lr, d=4)),
        "affine onto first-order": (sam1, reduce_sam1_to_lr(sam1)),
        "pairwise into pair-matrix": (fm, lift_fm_to_sam2a(fm)),
        "pair-matrix into attention": (sam2a, lift_sam2a_to_sam3a(sam2a)),
    }
    diffs = {}
    exhaustive = True
    for label, (src, dst) in pairs.items():
        report = verify_equivalence(src, dst, tol=1e-8)
        exhaustive = exhaustive and report.exhaustive
        diffs[label] = report.max_abs_diff
    control = verify_equivalence(lr, fm, tol=1e-8).max_abs_diff
    ok = exhaustive and max(diffs.values()) < 1e-8 and control > 1e-3
    gate(
        "containment lifts (exhaustive on 1024 records)",
        ok,
        ", ".join(f"{k} {v:.2e}" for k, v in diffs.items())
        + f" (tol 1e-8); negative control {control:.2e} (> 1e-3)",
    )


# ---------------------------------------------------------------------------
# 4. parameter and work counts match the closed forms


SPACE_FORMS = {
    "LR": lambda n, d, L: n,
    "FM": lambda n, d, L: n + d * n,
    # the (32, 32, 32) head of IPNN and DeepFM-deep reads its input with 32
    # weights per entry, then 32*32 + 32*32 + 32 = 2080 more
    "FFM": lambda n, d, L: d * n * (n - 1),
    "FwFM": lambda n, d, L: d * n + n * (n - 1) // 2,
    "IPNN": lambda n, d, L: 2 * d * n + 32 * n + 2080,
    "DCN": lambda n, d, L: 2 * d * n + n,
    "DeepFM-deep": lambda n, d, L: 33 * d * n + 2080,
    "CIN2": lambda n, d, L: d * n + n * n + n,
    "AFM": lambda n, d, L: d * n + d * d + 2 * d,
    "AutoInt": lambda n, d, L: 2 * d * n + 3 * L * d * d,
    "SAM1": lambda n, d, L: 2 * d * n,
    "SAM2_A": lambda n, d, L: 2 * d * n * n + d * n,
    "SAM2_E": lambda n, d, L: d * n * n + d * n,
    "SAM3_A": lambda n, d, L: L * (d * d + d * n * n) + 2 * d * n,
    "SAM3_E": lambda n, d, L: L * d * d + 2 * d * n,
}

TIME_FORMS = {
    "LR": lambda n, d, L: n,
    "FM": lambda n, d, L: d * n,
    "FFM": lambda n, d, L: d * n * n,
    "FwFM": lambda n, d, L: d * n * n,
    "IPNN": lambda n, d, L: d * n * n + 32 * n + 2080,
    "DCN": lambda n, d, L: 2 * d * n,
    "DeepFM-deep": lambda n, d, L: 32 * d * n + 2080,
    "CIN2": lambda n, d, L: d * n * n,
    "AFM": lambda n, d, L: n * n * (d * d + 2 * d),
    "AutoInt": lambda n, d, L: L * (3 * d * d * n + 2 * d * n * n) + d * n,
    "SAM1": lambda n, d, L: d * n,
    "SAM2_A": lambda n, d, L: 2 * d * n * n,
    "SAM2_E": lambda n, d, L: 2 * d * n * n,
    "SAM3_A": lambda n, d, L: L * (d * d * n + 2 * d * n * n) + d * n,
    "SAM3_E": lambda n, d, L: L * (d * d * n + 2 * d * n * n) + d * n,
}


def test_parameter_and_work_counts_match_closed_forms():
    checked = 0
    mismatches = []
    for n in range(2, 9):
        schema = FieldSchema.of_sizes([3] * n)
        for d in range(1, 9):
            for L in range(1, 4):
                for name in SPACE_FORMS:
                    layers = L if name in LAYERED else 1
                    report = count_complexity(ModelSpec(name, schema, d=d, layers=layers))
                    want_space = SPACE_FORMS[name](n, d, L)
                    want_time = TIME_FORMS[name](n, d, L)
                    if report.total != want_space or report.time_ops != want_time:
                        mismatches.append(
                            f"{name} n={n} d={d} L={L}: "
                            f"space {report.total}!={want_space} or time {report.time_ops}!={want_time}"
                        )
                    checked += 1
    ok = not mismatches
    gate(
        "complexity counts (15 models, n 2..8, d 1..8, L 1..3)",
        ok,
        f"{checked} combinations exact" if ok else "; ".join(mismatches[:3]),
    )


# ---------------------------------------------------------------------------
# 5. trained models approach the generating-model ceiling


def _generating_probs(synth, part):
    """Recompute click probabilities for a partition straight from the truth."""
    cats = part.indices - N_RESERVED
    cols = np.arange(cats.shape[1])[None, :]
    h = synth.truth["linear"][cols, cats].sum(axis=1)
    vecs = synth.truth["embed"][cols, cats]
    total = vecs.sum(axis=1)
    h = h + 0.5 * ((total * total).sum(axis=1) - (vecs * vecs).sum(axis=(1, 2)))
    return sigmoid((h - synth.theta) / synth.spec.noise)


def test_trained_models_approach_the_bayes_oracle_on_synthetic_clicks():
    start = time.perf_counter()
    spec = SyntheticSpec(
        n_fields=10, categories=6, family="fm", d_true=8, noise=0.3, count=125000, seed=5
    )
    synth = generate_dcm(spec)
    split = split_dataset(synth.dataset, (0.8, 0.12, 0.08), seed=5)
    sizes = (len(split.train), len(split.valid), len(split.test))
    assert sizes == (100000, 15000, 10000)
    oracle = auc(_generating_probs(synth, split.test), split.test.labels)
    scores = {}
    settings = (
        ("LR", 1, 1e-2, 1024, 20, 5),
        ("FM", 8, 2e-3, 1024, 40, 8),
        ("SAM2_E", 16, 4e-3, 2048, 100, 15),
    )
    for name, d, lr, batch, epochs, patience in settings:
        model = build_model(ModelSpec(name, synth.schema, d=d), seed=5)
        config = TrainConfig(
            lr=lr, batch_size=batch, epochs=epochs, l2=1e-5, seed=5, patience=patience
        )
        train(model, split.train, split.valid, config)
        scores[name] = auc(model.predict(split.test.indices), split.test.labels)
    elapsed = time.perf_counter() - start
    ok = (
        oracle - scores["FM"] <= 0.02
        and oracle - scores["SAM2_E"] <= 0.02
        and scores["FM"] - scores["LR"] >= 0.01
        and scores["SAM2_E"] - scores["LR"] >= 0.01
        and elapsed < 600.0
    )
    gate(
        "synthetic click recovery (10 fields, rank-8 truth, 100k/10k)",
        ok,
        f"oracle {oracle:.4f}, FM {scores['FM']:.4f}, SAM2_E {scores['SAM2_E']:.4f}, "
        f"LR {scores['LR']:.4f}; gaps <= 0.02, margins >= 0.01, {elapsed:.0f}s (limit 600s)",
    )


# ---------------------------------------------------------------------------
# 6. metric units


def test_metric_unit_values():
    half = logloss(np.full(4, 0.5), np.array([0.0, 1.0, 1.0, 0.0]))
    perfect = auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0.0, 0.0, 1.0, 1.0]))
    ties = auc(np.full(6, 0.3), np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0]))
    hand = auc(np.array([0.9, 0.8, 0.7, 0.6]), np.array([1.0, 0.0, 1.0, 0.0]))
    rng = np.random.default_rng(7)
    raw = rng.normal(size=40)
    labels = (rng.random(40) < 0.5).astype(float)
    labels[0], labels[1] = 0.0, 1.0  # keep both classes present
    invariant = auc(sigmoid(raw), labels) == auc(raw, labels)
    ok = (
        abs(half - math.log(2.0)) < 1e-12
        and perfect == 1.0
        and ties == 0.5
        and hand == 0.75
        and invariant
    )
    gate(
        "metric units",
        ok,
        f"logloss(0.5) err {abs(half - math.log(2.0)):.1e}, perfect {perfect}, "
        f"ties {ties}, hand case {hand}, monotone-invariant {invariant}",
    )


# ---------------------------------------------------------------------------
# 7. depth ablation harness emits a well-formed table


def test_depth_ablation_emits_well_formed_csv(bench_dir, tmp_path):
    out = tmp_path / "ablation"
    proc = run_cli(
        "ablation", "--data", bench_dir, "--out", out, "--model", "SAM3_A",
        "--d", 4, "--layers-list", "1,2,3,4", "--epochs", 2, "--batch", 512,
        "--seed", 5,
    )
    lines = (out / "ablation.csv").read_text().strip().split("\n") if proc.returncode == 0 else []
    rows = [line.split(",") for line in lines[1:]]
    ok = (
        proc.returncode == 0
        and len(lines) == 5
        and lines[0] == "model,layers,trainable_params,space_total,best_val_auc,test_auc,test_logloss"
        and [r[0] for r in rows] == ["SAM3_A"] * 4
        and [int(r[1]) for r in rows] == [1, 2, 3, 4]
        and all(0.0 <= float(r[5]) <= 1.0 and float(r[6]) > 0.0 for r in rows)
    )
    # deliberately no assertion on which depth scores best
    gate(
        "depth ablation harness (attention model, 1..4 layers)",
        ok,
        f"{len(rows)} rows, header and cells well-formed" if ok else proc.stderr.strip()[:200],
    )


# ---------------------------------------------------------------------------
# 8. training reruns are byte-identical


def test_training_rerun_reproduces_history_byte_for_byte(bench_dir, tmp_path):
    outputs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        proc = run_cli(
            "train", "--data", bench_dir, "--out", out, "--model", "FM", "--d", 4,
            "--lr", 0.01, "--batch", 256, "--epochs", 3, "--patience", 3, "--seed", 5,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "history.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    gate(
        "training determinism (rerun history identical)",
        ok,
        f"history.csv {len(outputs[0])} bytes, byte-identical {outputs[0] == outputs[1]}",
    )
