"""The benchmark's three workloads.

Each workload is a closed loop driven by one client in one process: every
training call, prediction, CLI command or check starts after the previous
one returns. A workload's `round` runs one fixed unit of work and times its
parts; `run.py` repeats rounds until the run's time is up. Checks run after
each round, outside its timing.

zoo-reference  all 15 catalog models trained in-process on FM-family
               synthetic data (n=10 fields, 6 categories, d=16, B=1024),
               then `Model.predict` on a held-out split. Tape nodes grow as
               n^2 per FI layer, so FI and tape changes show here.
wide-vocab     `ctrzoo prepare` -> `train` -> `eval` through `ctrzoo.cli.main`
               on a raw TSV with heavy-tailed tokens. Embedding tables are
               thousands of rows per field, touched sparsely, and FI work is
               negligible; text parsing, Adam over big tables and the JSON
               checkpoint dominate.
verify         `gradient_check` on all 15 models at the acceptance referee
               configuration (n=5, vocabulary 7, d=4, B=8, layered 2, seed
               0), and `verify_equivalence` for the four lifts built from
               the run's seed, exhaustive on 1024 records. Thousands of
               tiny forward passes: fixed cost per call dominates, not
               arithmetic.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import rawgen

LAYERED = ("AutoInt", "SAM3_A", "SAM3_E")
GRADCHECK_TOL = 1e-6  # `ctrzoo gradcheck` default
# `ctrzoo gradcheck` default seed. Other draws can put a ReLU pre-activation
# within eps of zero, where central differences straddle the kink (seed 109:
# DeepFM-deep has one 1.1e-7 from zero; error 2.9e-3 at eps 1e-5, 1e-9 at 1e-7).
GRADCHECK_SEED = 0
EQUIVALENCE_TOL = 1e-8  # `ctrzoo equivalence` default
# A trained model may beat the Bayes oracle on a finite test split only by
# sampling noise; the mean over models must clear chance by a margin.
ORACLE_SLACK = 0.03
MIN_MEAN_AUC = 0.53
PROBE_GAP_S = 0.1


class Round:
    """Timings of one round: its wall time and samples per timed operation.

    `ops` maps an operation (such as "train FM") to its kind ("grad" for
    gradient work, "score" for forward-only scoring), the records one call
    processes, and the seconds of each call. The speed probe (speed.py)
    runs at the start, between operations at most once per PROBE_GAP_S, and
    at the end, so its samples spread over the round; `kernel` holds them.
    Probe time is left out of the wall time.
    """

    def __init__(self, probe):
        self.wall = 0.0
        self.ops = {}
        self.kernel = []
        self._probe = probe
        self._sample()
        self._start = perf_counter()

    def _sample(self):
        self.kernel.append(self._probe())
        self._last = perf_counter()

    def add(self, kind, key, records, seconds):
        self.ops.setdefault(key, (kind, records, []))[2].append(seconds)
        if perf_counter() - self._last >= PROBE_GAP_S:
            self._sample()

    def finish(self):
        self.wall = perf_counter() - self._start - sum(self.kernel[1:])
        self._sample()
        return self


class Tally:
    """Operations and checks attempted and failed in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {what}", file=sys.stderr)
        return ok

    def attempt(self, what, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failure and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the run goes on and reports the failure
            self.failed += 1
            print(f"FAIL {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


class Workload:
    """Plumbing shared by the workloads; each defines SIZES and its round."""

    SIZES = {}

    def __init__(self, seed, size, workdir, tally, probe):
        self.seed = seed
        self.size = self.SIZES[size]
        self.batch_size = self.size.batch
        self.dir = Path(workdir)
        self.tally = tally
        self.probe = probe

    def make_inputs(self):
        """Write the benchmark's own input files; most workloads have none."""

    def install_checks(self):
        """Hook output checks into the program once it is set up; most need none."""


def rank_auc(scores, labels):
    """Mann-Whitney AUC with average ranks for ties (independent of ctrzoo.metrics)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    order = np.argsort(scores, kind="mergesort")
    _, inverse, counts = np.unique(scores[order], return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = np.empty(scores.size)
    ranks[order] = ((ends - counts + 1 + ends) / 2.0)[inverse]
    pos = labels == 1.0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _valid_probs(p):
    p = np.asarray(p, dtype=np.float64)
    return p.ndim == 1 and bool(np.all(np.isfinite(p)) and np.all((p > 0.0) & (p < 1.0)))


def _test_rows(n_rows, labels, ratios, seed):
    """Row numbers of the test part, as `ctrzoo.data.split_dataset` cuts it."""
    from ctrzoo import data

    ids = data.Dataset(np.arange(n_rows, dtype=np.int64)[:, None], labels)
    return data.split_dataset(ids, ratios, seed=seed).test.indices[:, 0]


def _auc_summary(tally, aucs, oracle_auc):
    for name, value in aucs.items():
        tally.check(
            value <= oracle_auc + ORACLE_SLACK,
            f"{name}: test AUC {value:.4f} beats the oracle's {oracle_auc:.4f}",
        )
    mean_auc = float(np.mean(list(aucs.values())))
    tally.check(mean_auc >= MIN_MEAN_AUC, f"mean test AUC {mean_auc:.4f} is near chance")
    return {"oracle_auc": oracle_auc, "auc_gap": oracle_auc - mean_auc, "test_auc": aucs}


# ---------------------------------------------------------------------------
# zoo-reference


@dataclass(frozen=True)
class ZooSize:
    count: int
    ratios: tuple
    d: int
    layers: int
    batch: int
    epochs: int
    lr: float


ZOO_SIZES = {
    "full": ZooSize(count=10000, ratios=(0.6, 0.2, 0.2), d=16, layers=2, batch=1024, epochs=1, lr=0.02),
    "smoke": ZooSize(count=1000, ratios=(0.6, 0.2, 0.2), d=4, layers=2, batch=64, epochs=2, lr=0.05),
}


class ZooReference(Workload):
    SIZES = ZOO_SIZES
    first_preds = None

    def setup(self):
        from ctrzoo import data, zoo

        s = self.size
        spec = data.SyntheticSpec(
            n_fields=10, categories=6, family="fm", d_true=8, count=s.count, seed=self.seed
        )
        self.synth = data.generate_dcm(spec)
        self.split = data.split_dataset(self.synth.dataset, s.ratios, seed=self.seed)
        self.models = [
            zoo.build_model(
                zoo.ModelSpec(
                    name, self.synth.schema, d=s.d, layers=s.layers if name in LAYERED else 1
                ),
                seed=self.seed,
            )
            for name in zoo.MODEL_NAMES
        ]
        self.initial = [m.store.snapshot() for m in self.models]

    def round(self):
        from ctrzoo import training

        s, split = self.size, self.split
        config = training.TrainConfig(
            lr=s.lr, batch_size=s.batch, epochs=s.epochs, patience=s.epochs, seed=self.seed
        )
        rnd, preds = Round(self.probe), {}
        for model, initial in zip(self.models, self.initial):
            model.store.restore(initial)
            t = perf_counter()
            history = self.tally.attempt(
                f"train {model.name}", training.train, model, split.train, split.valid, config
            )
            elapsed = perf_counter() - t
            if history is None:
                continue
            rnd.add("grad", f"train {model.name}", len(split.train) * len(history.epochs), elapsed)
            t = perf_counter()
            p = self.tally.attempt(f"predict {model.name}", model.predict, split.test.indices)
            elapsed = perf_counter() - t
            if p is not None:
                rnd.add("score", f"predict {model.name}", len(split.test), elapsed)
                preds[model.name] = p
        self.last_preds = preds
        return rnd.finish()

    def check_round(self):
        tally, preds = self.tally, self.last_preds
        if self.first_preds is None:
            self.first_preds = preds
            for name, p in preds.items():
                tally.check(_valid_probs(p), f"{name}: prediction outside (0, 1) or not finite")
            return
        same = preds.keys() == self.first_preds.keys() and all(
            np.array_equal(preds[k], self.first_preds[k]) for k in preds
        )
        tally.check(same, "rerun of the same round changed the predictions")

    def summary(self):
        split, synth = self.split, self.synth
        rows = _test_rows(len(synth.dataset), synth.dataset.labels, self.size.ratios, self.seed)
        labels = split.test.labels
        if not self.tally.check(
            np.array_equal(synth.dataset.labels[rows], labels), "oracle rows do not match the test split"
        ):
            return {}
        aucs = {k: rank_auc(p, labels) for k, p in (self.first_preds or {}).items()}
        if not aucs:
            return {}
        return _auc_summary(self.tally, aucs, rank_auc(synth.probs[rows], labels))


# ---------------------------------------------------------------------------
# wide-vocab


@dataclass(frozen=True)
class WideSize:
    count: int
    support: int
    exponent: float
    min_count: int
    d: int
    batch: int
    epochs: int
    lr: float


WIDE_SIZES = {
    "full": WideSize(
        count=20000, support=20000, exponent=0.8, min_count=2, d=16, batch=1024, epochs=1, lr=0.02
    ),
    "smoke": WideSize(
        count=2000, support=100, exponent=0.8, min_count=2, d=4, batch=64, epochs=3, lr=0.05
    ),
}
WIDE_MODELS = ("LR", "SAM1", "DCN", "DeepFM-deep")
WIDE_SPLIT = (0.8, 0.1, 0.1)  # `ctrzoo prepare`/`train` default --split


class WideVocab(Workload):
    SIZES = WIDE_SIZES
    first_aucs = None

    def __init__(self, *args):
        super().__init__(*args)
        self.eval_probs_ok = []

    def make_inputs(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        s = self.size
        self.raw, self.fields = self.dir / "raw.tsv", self.dir / "fields.json"
        self.oracle, self.labels = rawgen.write_raw_clicks(
            self.raw, self.fields, s.count, s.support, s.exponent, self.seed
        )

    def setup(self):
        from ctrzoo import cli

        self.cli = cli

    def install_checks(self):
        """Check every probability vector the CLI scores, where `cli.evaluate` receives it."""
        original = self.cli.evaluate
        seen = self.eval_probs_ok

        def evaluate(probs, labels):
            seen.append(_valid_probs(probs))
            return original(probs, labels)

        self.cli.evaluate = evaluate

    def _command(self, argv):
        """Run one CLI command in-process: (its JSON output, or None on failure; seconds)."""
        buf = io.StringIO()
        t = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.tally.attempt(f"ctrzoo {argv[0]}", self.cli.main, argv)
        elapsed = perf_counter() - t
        if code is not None:
            self.tally.check(code == 0, f"ctrzoo {' '.join(argv)} exited {code}")
        lines = buf.getvalue().strip().splitlines()
        payload = json.loads(lines[-1]) if code == 0 and lines else None
        return payload, elapsed

    def round(self):
        s, seed = self.size, str(self.seed)
        data_dir = self.dir / "data"
        rnd, aucs = Round(self.probe), {}
        prepared, prep_s = self._command(
            ["prepare", "--raw", str(self.raw), "--fields", str(self.fields),
             "--out", str(data_dir), "--min-count", str(s.min_count), "--seed", seed]
        )
        self.prepare = (prep_s, prepared)
        n_train = prepared["split_sizes"][0] if prepared else 0
        for name in WIDE_MODELS:
            run_dir = self.dir / f"run-{name}"
            trained, t_train = self._command(
                ["train", "--data", str(data_dir), "--out", str(run_dir), "--model", name,
                 "--d", str(s.d), "--batch", str(s.batch), "--epochs", str(s.epochs),
                 "--patience", str(s.epochs), "--lr", str(s.lr), "--seed", seed]
            )
            if trained is None:
                continue
            rnd.add("grad", f"train {name}", n_train * trained["history"]["epochs_run"], t_train)
            evaluated, t_eval = self._command(
                ["eval", "--run", str(run_dir), "--data", str(data_dir)]
            )
            if evaluated is None:
                continue
            rnd.add("score", f"eval {name}", evaluated["records"], t_eval)
            aucs[name] = (trained["test"], evaluated)
        self.last_aucs = aucs
        return rnd.finish()

    def check_round(self):
        tally = self.tally
        tally.check(all(self.eval_probs_ok), "a scored prediction is outside (0, 1) or not finite")
        self.eval_probs_ok.clear()
        for name, (at_train, evaluated) in self.last_aucs.items():
            tally.check(
                at_train["auc"] == evaluated["auc"],
                f"{name}: test AUC after the checkpoint round trip differs",
            )
        aucs = {k: v[1]["auc"] for k, v in self.last_aucs.items()}
        if self.first_aucs is None:
            self.first_aucs = self.last_aucs
        else:
            first = {k: v[1]["auc"] for k, v in self.first_aucs.items()}
            tally.check(aucs == first, "rerun of the same round changed the test AUCs")

    def summary(self):
        rows = _test_rows(len(self.labels), self.labels.astype(np.float64), WIDE_SPLIT, self.seed)
        labels = self.labels[rows]
        aucs = {}
        for name, (_, evaluated) in (self.first_aucs or {}).items():
            self.tally.check(
                evaluated["positives"] == int(labels.sum()),
                f"{name}: eval's test split does not match the oracle rows",
            )
            aucs[name] = evaluated["auc"]
        if not aucs:
            return {}
        out = _auc_summary(self.tally, aucs, rank_auc(self.oracle[rows], labels))
        prep_s, prepared = self.prepare
        if prepared:
            out["prepare_records_per_s"] = prepared["records"] / prep_s
            with open(self.dir / "data" / "schema.json", encoding="utf-8") as fh:
                sizes = [f["vocab_size"] for f in json.load(fh)["fields"]]
            out["vocab_sizes"] = sizes
        return out


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class VerifySize:
    mlp_hidden: tuple
    fields: int
    vocab: int
    d: int
    batch: int
    layers: int
    eq_vocab: int
    eq_d: int
    eq_repeat: int


VERIFY_SIZES = {
    # `ctrzoo gradcheck` and `ctrzoo equivalence` defaults; 4**5 = 1024 records
    "full": VerifySize(
        mlp_hidden=(32, 32, 32), fields=5, vocab=7, d=4, batch=8, layers=2, eq_vocab=4, eq_d=3,
        eq_repeat=10,
    ),
    "smoke": VerifySize(
        mlp_hidden=(4,), fields=3, vocab=3, d=2, batch=2, layers=2, eq_vocab=3, eq_d=2, eq_repeat=2
    ),
}


class Verify(Workload):
    SIZES = VERIFY_SIZES

    def setup(self):
        from ctrzoo import data, zoo

        s = self.size
        self.schema = data.FieldSchema.of_sizes([s.vocab] * s.fields)
        self.eq_schema = data.FieldSchema.of_sizes([s.eq_vocab] * s.fields)
        self.batch = zoo.random_batch(self.schema, s.batch, seed=GRADCHECK_SEED)

    def _lifts(self):
        from ctrzoo import equivalence as eq, zoo

        schema, d, seed = self.eq_schema, self.size.eq_d, self.seed
        lr = zoo.build_model(zoo.ModelSpec("LR", schema), seed=seed)
        yield "lr-sam1", lr, eq.lift_lr_to_sam1(lr, d=d)
        sam1 = zoo.build_model(zoo.ModelSpec("SAM1", schema, d=d), seed=seed)
        yield "sam1-lr", sam1, eq.reduce_sam1_to_lr(sam1)
        fm = zoo.build_model(zoo.ModelSpec("FM", schema, d=d), seed=seed)
        yield "fm-sam2a", fm, eq.lift_fm_to_sam2a(fm)
        sam2a = zoo.build_model(zoo.ModelSpec("SAM2_A", schema, d=d), seed=seed)
        yield "sam2a-sam3a", sam2a, eq.lift_sam2a_to_sam3a(sam2a)

    def round(self):
        from ctrzoo import equivalence as eq, zoo

        s, (indices, labels) = self.size, self.batch
        rnd = Round(self.probe)
        self.errors, self.reports = {}, {}
        lifts = self.tally.attempt("build lifts", list, self._lifts()) or []
        # The lift checks are short; spread them between the gradient checks
        # so their timings sample the whole round, not one moment of it.
        checks = [lift for _ in range(s.eq_repeat) for lift in lifts]
        per_slot = -(-len(checks) // len(zoo.MODEL_NAMES))
        for slot, name in enumerate(zoo.MODEL_NAMES):
            spec = zoo.ModelSpec(
                name,
                self.schema,
                d=s.d,
                layers=s.layers if name in LAYERED else 1,
                mlp_hidden=s.mlp_hidden,
            )
            model = zoo.build_model(spec, seed=GRADCHECK_SEED)
            t = perf_counter()
            err = self.tally.attempt(
                f"gradient_check {name}", zoo.gradient_check, model, indices, labels, eps=1e-5
            )
            elapsed = perf_counter() - t
            if err is not None:
                # one analytic pass plus two loss evaluations per trainable entry
                forwards = 1 + 2 * model.store.param_count()
                rnd.add("grad", f"gradient_check {name}", s.batch * forwards, elapsed)
            self.errors[name] = err
            for which, src, dst in checks[slot * per_slot : (slot + 1) * per_slot]:
                t = perf_counter()
                report = self.tally.attempt(
                    f"verify_equivalence {which}",
                    eq.verify_equivalence, dst, src, tol=EQUIVALENCE_TOL, seed=self.seed,
                )
                elapsed = perf_counter() - t
                if report is not None:
                    rnd.add("score", f"verify_equivalence {which}", 2 * report.n_points, elapsed)
                    self.reports[which] = report
        return rnd.finish()

    def check_round(self):
        tally = self.tally
        for name, err in self.errors.items():
            if err is not None:
                tally.check(err < GRADCHECK_TOL, f"gradient_check {name}: max rel err {err:.3e}")
        for which, rep in self.reports.items():
            tally.check(
                rep.exhaustive and rep.n_points == self.size.eq_vocab ** self.size.fields,
                f"{which}: comparison not exhaustive",
            )
            tally.check(rep.max_abs_diff <= EQUIVALENCE_TOL, f"{which}: max |diff| {rep.max_abs_diff:.3e}")
        tally.check(len(self.reports) == 4, "not all four lifts were verified")

    def summary(self):
        return {
            "gradcheck_max_rel_err": max((e for e in self.errors.values() if e is not None), default=None),
            "lift_max_abs_diff": {k: r.max_abs_diff for k, r in self.reports.items()},
        }


WORKLOADS = {"zoo-reference": ZooReference, "wide-vocab": WideVocab, "verify": Verify}
