"""Span tracing installed around ctrzoo's public calls from outside the package.

A `Tracer` replaces functions and methods with wrappers that record one
span per call: name, start, end, parent span and run id, plus an optional
tag (the model being trained or checked). Spans stay in memory and are
written out when the run ends. A layer's self time is its span durations
minus the time covered by their child spans; the run is single-threaded,
so children nest inside their parent and never overlap each other.

Functions are patched where they are looked up: `ctrzoo.zoo` and
`ctrzoo.training` import `fi_forward`, `adam_step`, `auc` and friends by
name, so the wrapper goes on that module's attribute, not on the home
module's. A target the package no longer has is skipped and reported, so
the benchmark keeps running across refactors of the package.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _tape_len(args):
    return len(args[0])


def _rows(args):
    indices = args[2]
    return indices.shape[0] * indices.shape[1]


def _rows_field_aware(args):
    indices = args[2]
    n = indices.shape[1]
    return indices.shape[0] * n * (n - 1)


# (span name, module, attribute path, what to count) for every traced call.
# Counters: "nodes" = tape nodes a call emits, "tape_len" = tape length when
# the call starts, "rows"/"rows_aware" = embedding rows gathered.
TARGETS = [
    ("interaction.fi_forward", "ctrzoo.zoo", "fi_forward", "nodes"),
    ("embedding.lookup", "ctrzoo.embedding", "lookup_fields", "rows"),
    ("embedding.lookup", "ctrzoo.embedding", "lookup_field_aware", "rows_aware"),
    ("embedding.lookup", "ctrzoo.embedding", "lookup_linear", "rows"),
    ("layers.mlp", "ctrzoo.zoo", "mlp_nodes", None),
    ("layers.aggregate", "ctrzoo.zoo", "sum_nodes", None),
    ("layers.aggregate", "ctrzoo.zoo", "combine_fields_nodes", None),
    ("tape.backward", "ctrzoo.tape", "Tape.backward", "tape_len"),
    ("tape.zero_grads", "ctrzoo.tape", "ParameterStore.zero_grads", None),
    ("tape.params_save", "ctrzoo.tape", "ParameterStore.save", None),
    ("tape.params_load", "ctrzoo.tape", "ParameterStore.load", None),
    ("zoo.forward", "ctrzoo.zoo", "Model.forward", None),
    ("zoo.predict", "ctrzoo.zoo", "Model.predict", None),
    ("zoo.loss_node", "ctrzoo.zoo", "Model.loss_node", None),
    ("zoo.gradient_check", "ctrzoo.zoo", "gradient_check", None),
    ("training.train", "ctrzoo.training", "train", None),
    ("training.train", "ctrzoo.cli", "train", None),
    ("training.adam", "ctrzoo.training", "adam_step", None),
    ("metrics.auc", "ctrzoo.training", "auc", None),
    ("metrics.logloss", "ctrzoo.training", "logloss", None),
    ("metrics.auc", "ctrzoo.metrics", "auc", None),
    ("metrics.logloss", "ctrzoo.metrics", "logloss", None),
    ("metrics.evaluate", "ctrzoo.cli", "evaluate", None),
    ("data.generate", "ctrzoo.data", "generate_dcm", None),
    ("data.split", "ctrzoo.data", "split_dataset", None),
    ("data.read_raw", "ctrzoo.data", "read_raw", None),
    ("data.build_vocab", "ctrzoo.data", "build_vocab", None),
    ("data.encode", "ctrzoo.data", "encode", None),
    ("data.save_encoded", "ctrzoo.data", "save_encoded", None),
    ("data.load_encoded", "ctrzoo.data", "load_encoded", None),
    ("cli.prepare", "ctrzoo.cli", "cmd_prepare", None),
    ("cli.train", "ctrzoo.cli", "cmd_train", None),
    ("cli.eval", "ctrzoo.cli", "cmd_eval", None),
    ("equivalence.verify", "ctrzoo.equivalence", "verify_equivalence", None),
]

_COUNTERS = {"nodes": _tape_len, "tape_len": _tape_len, "rows": _rows, "rows_aware": _rows_field_aware}
# calls whose first argument names the model the span belongs to
_TAGGED = {"training.train", "zoo.gradient_check"}


class Tracer:
    """Records spans while installed and `active`; `segment` labels where they fall."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [id, parent, name, start, end, segment, tag, count]
        self.segment = "setup"
        self.active = False
        self._stack = []
        self._saved = []
        self.missing = []

    # -- patching ----------------------------------------------------------

    def install(self):
        for name, module_name, path, counter in TARGETS:
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, counter, offset=1))
            else:
                wrapped = self._wrap(raw, name, counter)
            setattr(owner, attr, wrapped)
        if self.missing:
            print(f"trace: not in this version, skipped: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []
        self.missing = []

    def _wrap(self, fn, name, counter, offset=0):
        count_of = _COUNTERS.get(counter)
        tagged = name in _TAGGED
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, self.segment, None, None]
            if tagged:
                rec[6] = args[offset].spec
            before = count_of(args[offset:]) if count_of else None
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
                if counter == "nodes":
                    rec[7] = len(args[0]) - before
                elif before is not None:
                    rec[7] = before

        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, segment, tag, count in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "run": self.run_id,
                            "segment": segment,
                            "tag": tag.name if tag is not None else None,
                            "count": count,
                        }
                    )
                    + "\n"
                )


def self_times(spans):
    """Self time per (segment, span name): duration minus direct children's durations."""
    child = defaultdict(float)
    for rec in spans:
        if rec[1] >= 0:
            child[rec[1]] += rec[4] - rec[3]
    out = defaultdict(float)
    for rec in spans:
        out[(rec[5], rec[2])] += (rec[4] - rec[3]) - child[rec[0]]
    return out


# metric name -> span names whose self time it sums
LAYER_SECONDS = [
    ("interaction.fi_forward_s", ("interaction.fi_forward",)),
    ("tape.backward_s", ("tape.backward",)),
    ("embedding.lookup_s", ("embedding.lookup",)),
    ("tape.zero_grads_s", ("tape.zero_grads",)),
    ("training.adam_s", ("training.adam",)),
    ("training.loop_s", ("training.train",)),
    ("data.generate_s", ("data.generate",)),
    ("data.split_s", ("data.split",)),
    ("data.read_raw_s", ("data.read_raw",)),
    ("data.build_vocab_s", ("data.build_vocab",)),
    ("data.encode_s", ("data.encode",)),
    ("data.save_encoded_s", ("data.save_encoded",)),
    ("data.load_encoded_s", ("data.load_encoded",)),
    ("tape.params_save_s", ("tape.params_save",)),
    ("tape.params_load_s", ("tape.params_load",)),
    ("cli.prepare_s", ("cli.prepare",)),
    ("cli.train_s", ("cli.train",)),
    ("cli.eval_s", ("cli.eval",)),
    ("layers.mlp_s", ("layers.mlp",)),
    ("layers.aggregate_s", ("layers.aggregate",)),
    ("metrics.auc_s", ("metrics.auc",)),
    ("metrics.logloss_s", ("metrics.logloss",)),
    ("zoo.forward_s", ("zoo.forward", "zoo.predict")),
    ("zoo.loss_node_s", ("zoo.loss_node",)),
    ("zoo.gradcheck_s", ("zoo.gradient_check",)),
    ("equivalence.verify_s", ("equivalence.verify",)),
]


def layer_metrics(spans, n_rounds, batch, time_ops, model_names):
    """Per-layer metrics as {name: (value, unit)}, for one set-up plus one round.

    Spans from the set-up segment count once; spans from the `n_rounds`
    traced rounds are averaged. Step time per model is the median gap
    between consecutive Adam steps inside one `train` call, and ns per op
    divides it by the batch and by the model's closed-form `time_ops`.
    """
    totals = defaultdict(float)
    for (segment, name), value in self_times(spans).items():
        totals[name] += value if segment == "setup" else value / n_rounds
    out = {metric: (sum(totals[n] for n in names), "s") for metric, names in LAYER_SECONDS}

    def parent_name(rec):
        return spans[rec[1]][2] if rec[1] >= 0 else None

    in_rounds = [r for r in spans if r[5] != "setup"]
    fi = [r[7] for r in spans if r[2] == "interaction.fi_forward"]
    out["interaction.nodes_per_call"] = (sum(fi) / len(fi) if fi else 0.0, "count")
    steps = [r[7] for r in spans if r[2] == "tape.backward"]
    out["tape.nodes_per_step"] = (sum(steps) / len(steps) if steps else 0.0, "count")
    rows = sum(r[7] for r in in_rounds if r[2] == "embedding.lookup")
    out["embedding.rows_gathered"] = (rows / n_rounds, "count")
    adam = [r for r in in_rounds if r[2] == "training.adam"]
    out["training.steps"] = (len(adam) / n_rounds, "count")
    validation = sum(
        r[4] - r[3]
        for r in in_rounds
        if r[2] in ("zoo.forward", "metrics.auc", "metrics.logloss")
        and parent_name(r) == "training.train"
    )
    out["training.validation_s"] = (validation / n_rounds, "s")

    step_ends = defaultdict(list)
    for r in adam:
        if parent_name(r) == "training.train":
            step_ends[r[1]].append(r[4])
    gaps, specs = defaultdict(list), {}
    for train_id, ends in step_ends.items():
        spec = spans[train_id][6]
        specs[spec.name] = spec
        gaps[spec.name].extend(b - a for a, b in zip(ends, ends[1:]))
    for model in model_names:
        step_ms = statistics.median(gaps[model]) * 1e3 if gaps.get(model) else 0.0
        out[f"zoo.step_ms.{model}"] = (step_ms, "ms")
        ns = step_ms * 1e6 / (batch * time_ops(specs[model])) if step_ms else 0.0
        out[f"zoo.ns_per_op.{model}"] = (ns, "ns")

    forwards = sum(
        1 for r in in_rounds if r[2] == "zoo.loss_node" and parent_name(r) == "zoo.gradient_check"
    )
    checking = sum(r[4] - r[3] for r in in_rounds if r[2] == "zoo.gradient_check")
    out["zoo.gradcheck_forwards"] = (forwards / n_rounds, "count")
    out["zoo.gradcheck_us_per_forward"] = (checking / forwards * 1e6 if forwards else 0.0, "us")
    return out
