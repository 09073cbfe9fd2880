"""Command-line entry points: data preparation, training, and verification.

Every command takes its settings from flags, optionally seeded by a JSON
config file (flags override the file, the file overrides built-in
defaults). Commands that produce files write them into an output
directory together with a manifest.json recording the resolved settings;
the manifest is the only artifact carrying a timestamp, so checkpoints
and history files are byte-identical across reruns with equal settings.

Exit codes: 0 success, 2 configuration problem, 3 data problem, 4 numeric
failure during training, 5 a verification check exceeded its tolerance.
"""
from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import data as datamod
from . import equivalence as eqmod
from .errors import (
    ConfigError,
    CtrZooError,
    DataError,
    NumericError,
    ShapeError,
    TrainingError,
    read_json,
)
from .metrics import evaluate
from .tape import ParameterStore
from .training import TrainConfig, train
from .zoo import (
    MODEL_NAMES,
    RECIPES,
    ModelSpec,
    build_model,
    count_complexity,
    gradient_check,
    random_batch,
)

PASS = "PASS"
FAIL = "FAIL"


# ---------------------------------------------------------------------------
# shared plumbing


def _write_manifest(out_dir, command, settings, outputs):
    payload = {
        "command": command,
        "created": datetime.now(timezone.utc).isoformat(),
        "settings": settings,
        "outputs": sorted(outputs),
    }
    with open(Path(out_dir) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _ensure_dir(path):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_ratios(text):
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad split ratios {text!r}") from exc
    if len(parts) != 3:
        raise ConfigError(f"split needs three ratios, got {text!r}")
    return parts


def _parse_int_list(text):
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def _load_data_dir(path):
    root = Path(path)
    schema_path = root / "schema.json"
    encoded_path = root / "encoded.tsv"
    if not schema_path.is_file() or not encoded_path.is_file():
        raise DataError(f"{path}: expected schema.json and encoded.tsv")
    schema = datamod.load_schema(schema_path)
    dataset = datamod.load_encoded(encoded_path, schema=schema)
    return schema, dataset


def _model_spec_from_args(args, schema):
    return ModelSpec(
        name=args.model,
        schema=schema,
        d=args.d,
        layers=args.layers,
        mlp_hidden=_parse_int_list(args.mlp_hidden),
        dropout=args.dropout,
        include_linear=args.include_linear,
        include_bias=args.include_bias,
        sam2_upper_only=args.upper_only,
        softmax_enabled=not args.no_softmax,
        self_product=args.self_product,
        afm_width=args.afm_width,
    )


def _add_model_flags(parser):
    parser.add_argument("--model", required=True, choices=MODEL_NAMES)
    parser.add_argument("--d", type=int, default=16, help="embedding width")
    parser.add_argument("--layers", type=int, default=1)
    parser.add_argument("--mlp-hidden", default="32,32,32")
    parser.add_argument("--dropout", type=float, default=None)
    parser.add_argument("--afm-width", type=int, default=None)
    parser.add_argument(
        "--include-linear", action=argparse.BooleanOptionalAction, default=None
    )
    parser.add_argument(
        "--include-bias", action=argparse.BooleanOptionalAction, default=None
    )
    parser.add_argument("--upper-only", action="store_true")
    parser.add_argument("--no-softmax", action="store_true")
    parser.add_argument("--self-product", action="store_true")


def _add_train_flags(parser):
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--batch", type=int, default=1024, dest="batch_size")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--l2", type=float, default=1e-5)
    parser.add_argument("--patience", type=int, default=3)
    parser.add_argument("--split", default="0.8,0.1,0.1")
    parser.add_argument("--seed", type=int, default=0)


def _train_config_from_args(args):
    return TrainConfig(
        lr=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        l2=args.l2,
        seed=args.seed,
        patience=args.patience,
    )


def _fit(schema, dataset, args):
    """Shared split-build-train-evaluate path for train and ablation."""
    ratios = _parse_ratios(args.split)
    split = datamod.split_dataset(dataset, ratios, seed=args.seed)
    spec = _model_spec_from_args(args, schema)
    model = build_model(spec, seed=args.seed)
    history = train(model, split.train, split.valid, _train_config_from_args(args))
    report = evaluate(model.predict(split.test.indices), split.test.labels)
    return spec, model, history, report, ratios


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args):
    spec = datamod.SyntheticSpec(
        n_fields=args.fields,
        categories=args.categories,
        family=args.family,
        d_true=args.d_true,
        linear_scale=args.linear_scale,
        embed_scale=args.embed_scale,
        theta=args.theta,
        noise=args.noise,
        count=args.count,
        seed=args.seed,
    )
    synth = datamod.generate_dcm(spec)
    out = _ensure_dir(args.out)
    datamod.save_schema(synth.schema, out / "schema.json")
    datamod.save_encoded(synth.dataset, out / "encoded.tsv")
    with open(out / "oracle.tsv", "w", encoding="utf-8") as fh:
        for p in synth.probs:
            fh.write(f"{p!r}\n")
    truth = {"theta": synth.theta, "spec": spec.to_dict()}
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    _write_manifest(
        out, "synth", spec.to_dict(), ["schema.json", "encoded.tsv", "oracle.tsv", "truth.json"]
    )
    base_rate = float(synth.dataset.labels.mean())
    print(json.dumps({"records": len(synth.dataset), "click_rate": base_rate, "theta": synth.theta}))
    return 0


def cmd_prepare(args):
    fields = datamod.load_fields(args.fields)
    table = datamod.read_raw(args.raw, fields, delimiter=args.delimiter)
    vocab = datamod.build_vocab(table, min_count=args.min_count)
    dataset = datamod.encode(table, vocab)
    ratios = _parse_ratios(args.split)
    split = datamod.split_dataset(dataset, ratios, seed=args.seed)
    out = _ensure_dir(args.out)
    vocab.save(out / "vocab.json")
    datamod.save_schema(vocab.schema(), out / "schema.json")
    datamod.save_encoded(dataset, out / "encoded.tsv")
    for part in ("train", "valid", "test"):
        datamod.save_encoded(getattr(split, part), out / f"{part}.tsv")
    settings = {
        "raw": str(args.raw),
        "delimiter": args.delimiter,
        "min_count": args.min_count,
        "split": list(ratios),
        "seed": args.seed,
    }
    outputs = ["vocab.json", "schema.json", "encoded.tsv", "train.tsv", "valid.tsv", "test.tsv"]
    _write_manifest(out, "prepare", settings, outputs)
    print(
        json.dumps(
            {
                "records": len(dataset),
                "fields": vocab.schema().n,
                "split_sizes": [len(split.train), len(split.valid), len(split.test)],
            }
        )
    )
    return 0


def cmd_train(args):
    schema, dataset = _load_data_dir(args.data)
    spec, model, history, report, ratios = _fit(schema, dataset, args)
    out = _ensure_dir(args.out)
    model.store.save(out / "params.json")
    history.save_csv(out / "history.csv")
    run_config = {
        "model": spec.to_dict(),
        "train": _train_config_from_args(args).to_dict(),
        "split": {"ratios": list(ratios), "seed": args.seed},
        "data": str(args.data),
    }
    with open(out / "model.json", "w", encoding="utf-8") as fh:
        json.dump(run_config, fh, indent=2, sort_keys=True)
    result = {"history": history.summary(), "test": report.to_dict()}
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    _write_manifest(
        out, "train", run_config, ["params.json", "history.csv", "model.json", "metrics.json"]
    )
    print(json.dumps(result))
    return 0


def _rebuild_run(run_dir):
    root = Path(run_dir)
    model_path = root / "model.json"
    params_path = root / "params.json"
    if not model_path.is_file() or not params_path.is_file():
        raise DataError(f"{run_dir}: expected model.json and params.json")
    run_config = read_json(model_path)
    if not isinstance(run_config, dict) or "model" not in run_config:
        raise DataError(f"{model_path}: no 'model' entry")
    try:
        spec = ModelSpec.from_dict(run_config["model"])
    except ConfigError as exc:
        raise DataError(f"{model_path}: {exc}") from exc
    loaded = ParameterStore.load(params_path)
    model = build_model(spec, seed=loaded.seed)
    if sorted(loaded.names()) != sorted(model.store.names()):
        raise DataError(f"{run_dir}: checkpoint slots do not match the model config")
    for name in model.store.names():
        try:
            model.store.set_value(name, loaded.value(name))
        except ShapeError as exc:
            got, want = loaded.value(name).shape, model.store.value(name).shape
            raise DataError(
                f"{run_dir}: checkpoint slot {name!r} has shape {got}, the model config needs {want}"
            ) from exc
    return model, run_config


def cmd_eval(args):
    model, run_config = _rebuild_run(args.run)
    schema, dataset = _load_data_dir(args.data)
    dataset.check_schema(model.schema)
    if args.split == "all":
        part = dataset
    else:
        recorded = run_config.get("split")
        if not isinstance(recorded, dict) or not {"ratios", "seed"} <= set(recorded):
            raise DataError(f"{args.run}: model.json has no 'split' entry with ratios and seed")
        try:
            split = datamod.split_dataset(dataset, tuple(recorded["ratios"]), seed=recorded["seed"])
        except (ConfigError, TypeError, ValueError) as exc:
            raise DataError(f"{args.run}: model.json 'split' entry is unusable: {exc}") from exc
        part = getattr(split, args.split)
    report = evaluate(model.predict(part.indices), part.labels)
    print(json.dumps({"split": args.split, "records": len(part), **report.to_dict()}))
    return 0


def cmd_gradcheck(args):
    names = MODEL_NAMES if args.models == "all" else tuple(args.models.split(","))
    schema = datamod.FieldSchema.of_sizes([args.vocab] * args.fields)
    indices, labels = random_batch(schema, args.batch, seed=args.seed)
    failures = 0
    for name in names:
        spec = ModelSpec(name, schema, d=args.d, layers=args.layers)
        model = build_model(spec, seed=args.seed)
        err = gradient_check(model, indices, labels, eps=args.eps, corrupt=args.corrupt)
        verdict = PASS if err < args.tol else FAIL
        failures += verdict == FAIL
        print(f"{verdict} {name} max_rel_err={err:.3e} tol={args.tol:.0e}")
    return 5 if failures else 0


_EQUIVALENCE_CHECKS = ("lr-sam1", "sam1-lr", "fm-sam2a", "sam2a-sam3a")


def _equivalence_pair(which, schema, d, seed):
    if which == "lr-sam1":
        src = build_model(ModelSpec("LR", schema), seed=seed)
        return src, eqmod.lift_lr_to_sam1(src, d=d)
    if which == "sam1-lr":
        src = build_model(ModelSpec("SAM1", schema, d=d), seed=seed)
        return src, eqmod.reduce_sam1_to_lr(src)
    if which == "fm-sam2a":
        src = build_model(ModelSpec("FM", schema, d=d), seed=seed)
        return src, eqmod.lift_fm_to_sam2a(src)
    if which == "sam2a-sam3a":
        src = build_model(ModelSpec("SAM2_A", schema, d=d), seed=seed)
        return src, eqmod.lift_sam2a_to_sam3a(src)
    raise ConfigError(f"unknown equivalence check {which!r}; know: {', '.join(_EQUIVALENCE_CHECKS)}")


def cmd_equivalence(args):
    checks = _EQUIVALENCE_CHECKS if args.checks == "all" else tuple(args.checks.split(","))
    schema = datamod.FieldSchema.of_sizes([args.vocab] * args.fields)
    failures = 0
    for which in checks:
        src, dst = _equivalence_pair(which, schema, args.d, args.seed)
        report = eqmod.verify_equivalence(dst, src, tol=args.tol, seed=args.seed)
        verdict = PASS if report.passed else FAIL
        failures += verdict == FAIL
        print(f"{verdict} {which} {json.dumps(report.to_dict())}")
    return 5 if failures else 0


def cmd_complexity(args):
    schema = datamod.FieldSchema.of_sizes([3] * args.fields)
    if args.layers > 1:
        layered = ", ".join(name for name in MODEL_NAMES if RECIPES[name].layered)
        print(f"note: --layers {args.layers} applies to {layered} only", file=sys.stderr)
    rows = []
    for name in MODEL_NAMES:
        spec = ModelSpec(name, schema, d=args.d, layers=args.layers)
        rows.append(count_complexity(spec).to_dict())
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        print("model,n,d,layers,embedding,interaction,aggregation,transform,total,time_ops")
        for r in rows:
            s = r["space"]
            print(
                f"{r['model']},{r['n']},{r['d']},{r['layers']},{s['embedding']},"
                f"{s['interaction']},{s['aggregation']},{s['transform']},{s['total']},{r['time_ops']}"
            )
    return 0


def cmd_ablation(args):
    schema, dataset = _load_data_dir(args.data)
    out = _ensure_dir(args.out)
    layer_counts = _parse_int_list(args.layers_list)
    if not layer_counts:
        raise ConfigError("ablation needs at least one layer count")
    lines = ["model,layers,trainable_params,space_total,best_val_auc,test_auc,test_logloss"]
    for layers in layer_counts:
        args.layers = layers
        spec, model, history, report, _ = _fit(schema, dataset, args)
        comp = count_complexity(model)
        lines.append(
            f"{spec.name},{layers},{comp.trainable_params},{comp.total},"
            f"{history.best_val_auc!r},{report.auc!r},{report.logloss!r}"
        )
        print(lines[-1])
    csv_text = "\n".join(lines) + "\n"
    with open(out / "ablation.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text)
    settings = {
        "model": args.model,
        "layers_list": list(layer_counts),
        "data": str(args.data),
        "seed": args.seed,
    }
    _write_manifest(out, "ablation", settings, ["ablation.csv"])
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctrzoo", description="Feature-interaction model zoo for click prediction."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}

    def register(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON file of flag defaults")
        p.set_defaults(fn=fn)
        parsers[name] = p
        return p

    p = register("synth", cmd_synth, "generate a synthetic click dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--fields", type=int, default=10)
    p.add_argument("--categories", type=int, default=12)
    p.add_argument("--family", choices=("linear", "fm"), default="fm")
    p.add_argument("--d-true", type=int, default=8)
    p.add_argument("--linear-scale", type=float, default=0.15)
    p.add_argument("--embed-scale", type=float, default=0.2)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = register("prepare", cmd_prepare, "tokenize and encode a raw delimited file")
    p.add_argument("--raw", required=True)
    p.add_argument("--fields", required=True, help="JSON field list (name, kind)")
    p.add_argument("--out", required=True)
    p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--split", default="0.8,0.1,0.1", help="train,valid,test ratios")
    p.add_argument("--seed", type=int, default=0)

    p = register("train", cmd_train, "train one model on an encoded dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    _add_train_flags(p)

    p = register("eval", cmd_eval, "evaluate a trained run on a dataset")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "valid", "test", "all"), default="test")

    p = register("gradcheck", cmd_gradcheck, "compare tape gradients with finite differences")
    p.add_argument("--models", default="all")
    p.add_argument("--fields", type=int, default=5)
    p.add_argument("--vocab", type=int, default=7)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        help="perturb one analytic gradient entry by this much (checker self-test)",
    )

    p = register("equivalence", cmd_equivalence, "verify the family containment maps")
    p.add_argument("--checks", default="all")
    p.add_argument("--fields", type=int, default=5)
    p.add_argument("--vocab", type=int, default=4)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)

    p = register("complexity", cmd_complexity, "parameter and work counts per model")
    p.add_argument("--fields", type=int, default=10)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = register("ablation", cmd_ablation, "sweep attention depth for one model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layers-list", default="1,2,3,4")
    _add_model_flags(p)
    _add_train_flags(p)

    return parser, parsers


def _config_value(path, action, value):
    """A config file's `value` for a flag, read as the flag reads its text.

    Switches take a JSON boolean; other flags take a string or a number,
    converted through the flag's own type and checked against its choices.
    A null leaves the flag's built-in default.
    """
    if value is None:
        return action.default
    if action.nargs == 0:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, (str, int, float)) and not isinstance(value, bool)
        if ok:
            try:
                value = (action.type or str)(str(value))
            except (TypeError, ValueError):
                ok = False
    if not ok or (action.choices is not None and value not in action.choices):
        raise ConfigError(f"{path}: invalid value for {action.dest!r}: {json.dumps(value)}")
    return value


def _apply_config(parser, parsers, argv):
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv[1:] if argv and argv[0] in parsers else argv)
    if known.config is None:
        return
    command = argv[0] if argv and argv[0] in parsers else None
    if command is None:
        raise ConfigError("--config needs a subcommand")
    payload = read_json(known.config, ConfigError)
    if not isinstance(payload, dict):
        raise ConfigError(f"{known.config}: config must be a JSON object")
    target = parsers[command]
    actions = {a.dest: a for a in target._actions}
    unknown = sorted(set(payload) - set(actions))
    if unknown:
        raise ConfigError(f"{known.config}: unknown settings: {', '.join(unknown)}")
    target.set_defaults(
        **{key: _config_value(known.config, actions[key], value) for key, value in payload.items()}
    )


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = build_parser()
    try:
        _apply_config(parser, parsers, argv)
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CtrZooError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
