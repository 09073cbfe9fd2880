"""Command-line entry points: data preparation, training, and verification.

Every command takes its settings from flags, optionally seeded by a JSON
config file (flags override the file, the file overrides built-in
defaults). Commands that produce files write them into an output
directory together with a manifest.json recording the resolved settings;
the manifest is the only artifact carrying a timestamp, so checkpoints
and history files are byte-identical across reruns with equal settings.

Exit codes: 0 success, 5 a verification check exceeded its tolerance;
an error exits with the `exit_code` of its class in `errors.py` (2
configuration problem, 3 data problem, 4 numeric failure during training,
1 any other error).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data as datamod
from . import equivalence as eqmod
from .errors import (
    ConfigError,
    CtrZooError,
    DataError,
    ShapeError,
    read_json,
    write_json,
    write_text,
)
from .metrics import evaluate
from .tape import ParameterStore, release_memory
from .training import TrainConfig, train
from .zoo import (
    MODEL_NAMES,
    ModelSpec,
    build_model,
    count_complexity,
    fi_catalog,
    gradient_check,
    model_on_store,
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
    write_json(Path(out_dir) / "manifest.json", payload)


def _ensure_dir(path):
    """The output directory `path`, made if missing; ConfigError naming it if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: cannot make the output directory: {exc.strerror or exc}") from exc
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


def _from_args(cls, args, **given):
    """A `cls` dataclass from `given`, every other field from the flag dest of its name."""
    names = (f.name for f in dataclasses.fields(cls) if f.name not in given)
    return cls(**given, **{name: getattr(args, name) for name in names})


def _model_spec_from_args(args, schema):
    return _from_args(
        ModelSpec,
        args,
        name=args.model,
        schema=schema,
        mlp_hidden=_parse_int_list(args.mlp_hidden),
        sam2_upper_only=args.upper_only,
        softmax_enabled=not args.no_softmax,
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


def _fit(schema, dataset, args):
    """Shared split-build-train-evaluate path for train and ablation."""
    ratios = _parse_ratios(args.split)
    split = datamod.split_dataset(dataset, ratios, seed=args.seed)
    spec = _model_spec_from_args(args, schema)
    model = build_model(spec, seed=args.seed)
    history = train(model, split.train, split.valid, _from_args(TrainConfig, args))
    report = evaluate(model.predict(split.test.indices), split.test.labels)
    return spec, model, history, report, ratios


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args):
    out = _ensure_dir(args.out)
    spec = _from_args(datamod.SyntheticSpec, args, n_fields=args.fields)
    synth = datamod.generate_dcm(spec)
    datamod.save_schema(synth.schema, out / "schema.json")
    datamod.save_encoded(synth.dataset, out / "encoded.tsv")
    write_text(out / "oracle.tsv", (f"{p!r}\n" for p in synth.probs.tolist()))
    write_json(out / "truth.json", {"theta": synth.theta, "spec": spec.to_dict()})
    _write_manifest(
        out, "synth", spec.to_dict(), ["schema.json", "encoded.tsv", "oracle.tsv", "truth.json"]
    )
    base_rate = float(synth.dataset.labels.mean())
    print(json.dumps({"records": len(synth.dataset), "click_rate": base_rate, "theta": synth.theta}))
    return 0


def cmd_prepare(args):
    fields = datamod.load_fields(args.fields)
    out = _ensure_dir(args.out)
    table = datamod.read_raw(args.raw, fields, delimiter=args.delimiter)
    vocab = datamod.build_vocab(table, min_count=args.min_count)
    dataset = datamod.encode(table, vocab)
    ratios = _parse_ratios(args.split)
    split = datamod.split_dataset(dataset, ratios, seed=args.seed)
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
    out = _ensure_dir(args.out)
    schema, dataset = _load_data_dir(args.data)
    spec, model, history, report, ratios = _fit(schema, dataset, args)
    model.store.save(out / "params.json")
    history.save_csv(out / "history.csv")
    run_config = {
        "model": spec.to_dict(),
        "train": _from_args(TrainConfig, args).to_dict(),
        "split": {"ratios": list(ratios), "seed": args.seed},
        "data": str(args.data),
    }
    write_json(out / "model.json", run_config)
    result = {"history": history.summary(), "test": report.to_dict()}
    write_json(out / "metrics.json", result)
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
    try:
        model = model_on_store(spec, ParameterStore.load(params_path))
    except ShapeError as exc:
        raise DataError(f"{model_path} does not match {params_path}: {exc}") from exc
    return model, run_config


def cmd_eval(args):
    model, run_config = _rebuild_run(args.run)
    schema, dataset = _load_data_dir(args.data)
    try:
        dataset.check_schema(model.schema)
    except DataError as exc:
        encoded = Path(args.data) / "encoded.tsv"
        where = encoded if exc.row is None else f"{encoded}:{datamod.record_line(encoded, exc.row)}"
        raise DataError(f"{where}: {exc}, as {Path(args.run) / 'model.json'} records it") from exc
    if args.split == "all":
        part = dataset
    else:
        recorded = run_config.get("split")
        if not isinstance(recorded, dict) or not {"ratios", "seed"} <= set(recorded):
            raise DataError(f"{args.run}: model.json has no 'split' entry with ratios and seed")
        ratios, seed = recorded["ratios"], recorded["seed"]  # JSON numbers, as `train` writes them
        if not (isinstance(ratios, list) and all(type(r) in (int, float) for r in ratios)):
            raise DataError(f"{args.run}: model.json 'split' ratios must be a list of numbers, got {json.dumps(ratios)}")
        if type(seed) is not int or seed < 0:
            raise DataError(f"{args.run}: model.json 'split' seed must be a non-negative integer, got {json.dumps(seed)}")
        try:
            split = datamod.split_dataset(dataset, ratios, seed=seed)
        except (ConfigError, OverflowError) as exc:
            raise DataError(f"{args.run}: model.json 'split' entry is unusable: {exc}") from exc
        part = getattr(split, args.split)
    report = evaluate(model.predict(part.indices), part.labels)
    print(json.dumps({"split": args.split, "records": len(part), **report.to_dict()}))
    return 0


def _check_tol(tol):
    if not math.isfinite(tol):
        raise ConfigError(f"--tol must be finite, got {tol}")


def cmd_gradcheck(args):
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise ConfigError(f"--eps must be a finite step > 0, got {args.eps}")
    if args.batch < 1:
        raise ConfigError(f"--batch must be at least 1, got {args.batch}")
    _check_tol(args.tol)
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


def cmd_equivalence(args):
    _check_tol(args.tol)
    checks = tuple(eqmod.CHECKS) if args.checks == "all" else tuple(args.checks.split(","))
    schema = datamod.FieldSchema.of_sizes([args.vocab] * args.fields)
    failures = 0
    for which in checks:
        if which not in eqmod.CHECKS:
            raise ConfigError(f"unknown equivalence check {which!r}; know: {', '.join(eqmod.CHECKS)}")
        source, lift = eqmod.CHECKS[which]
        src = build_model(ModelSpec(source, schema, d=args.d), seed=args.seed)
        report = eqmod.verify_equivalence(lift(src), src, tol=args.tol, seed=args.seed)
        verdict = PASS if report.passed else FAIL
        failures += verdict == FAIL
        print(f"{verdict} {which} {json.dumps(report.to_dict())}")
    return 5 if failures else 0


def cmd_complexity(args):
    schema = datamod.FieldSchema.of_sizes([3] * args.fields)
    if args.layers > 1:
        layered = ", ".join(name for name in MODEL_NAMES if fi_catalog(name).layered)
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
    out = _ensure_dir(args.out)
    schema, dataset = _load_data_dir(args.data)
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
    write_text(out / "ablation.csv", ["\n".join(lines) + "\n"])
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


def _apply_config(parsers, argv):
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
    for key in [key for key, value in payload.items() if value is not None]:  # a null leaves the flag required
        actions[key].required = False


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = build_parser()
    try:
        _apply_config(parsers, argv)
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        with np.errstate(all="ignore"):  # an overflow shows as the tape's NumericError, not as a warning
            return args.fn(args)
    except CtrZooError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # an array larger than the memory the process may take
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C: 130, the shell's code for SIGINT
        print("error: interrupted", file=sys.stderr)
        return 130
    finally:
        release_memory()  # what the command's steps kept for reuse goes back to the kernel


if __name__ == "__main__":
    sys.exit(main())
