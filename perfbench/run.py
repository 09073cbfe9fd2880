"""Benchmark for ctrzoo: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload zoo-reference --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): zoo-reference, wide-vocab, verify. The seed
fixes every input. A run measures the program's set-up time in fresh
interpreters, then repeats the workload's round until `--seconds` are used
(at least one round), checking outputs after each round.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds and reports per-layer metrics from spans recorded around
ctrzoo's public calls, plus the tracing overhead. Every metric is printed
as `metric <name> <value> <unit>`; the last line of standard output is one
JSON object {correct, attempted, failed, metrics}. The run exits 1 when an
operation or a check failed, and 2 when the ctrzoo sources are missing.

Times are restated at a reference machine speed (see speed.py): a fixed
kernel is timed between operations, and the times of each round are scaled
by the kernel's nominal duration over its median duration in that round,
so that drift in a shared host's speed cancels. A record of each run
(machine, versions, thread caps, commit, seed, rounds, kernel samples, raw
and restated metrics) is written under `.perfbench-out/results/`, with the
spans of a traced run next to it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("zoo-reference", "wide-vocab", "verify")
SETUP_PROBES = {"full": 5, "smoke": 1}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SETUP_PROBES), default="full",
                   help="smoke: tiny inputs for the benchmark's own test")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use; numpy must not be loaded yet."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ctrzoo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def environment(nproc, seed):
    import numpy as np

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(args, count, probe):
    """Seconds of `count` fresh interpreters doing the workload's set-up, and kernel samples.

    One extra interpreter runs first and is not counted: it writes the
    bytecode caches of a fresh checkout, which later runs do not pay for.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    seconds, kernel = [], []
    for i in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        kernel.append(probe.sample())
        if i:
            seconds.append(elapsed)
    return seconds, kernel


@contextlib.contextmanager
def traced(tracer, segment):
    if tracer is None:
        yield
        return
    tracer.segment = segment
    tracer.install()
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False
        tracer.uninstall()


def run_rounds(workload, seconds, tracer):
    """Rounds until the time is up; with a tracer, untraced and traced rounds alternate."""
    rounds, flags = [], []
    start = time.perf_counter()
    while True:
        is_traced = tracer is not None and len(rounds) % 2 == 1
        with traced(tracer if is_traced else None, len(rounds)):
            rounds.append(workload.round())
        flags.append(is_traced)
        workload.check_round()
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= (2 if tracer else 1) and elapsed + typical > seconds:
            return rounds, flags


def as_measured(kernel_samples):
    return 1.0


def throughput(rounds, kind, scale):
    """Records per second over one typical call of each operation of `kind`.

    Each operation's time is the median of its calls over all rounds, so a
    call slowed by other load on the machine does not enter every total.
    """
    records = seconds = 0.0
    samples = {}
    for rnd in rounds:
        for key, (op_kind, n, calls) in rnd.ops.items():
            if op_kind == kind:
                samples.setdefault(key, (n, []))[1].extend(t * scale(rnd.kernel) for t in calls)
    for n, times in samples.values():
        records += n
        seconds += statistics.median(times)
    return records / seconds if seconds else 0.0


def end_to_end(rounds, setup, scale):
    """End-to-end metrics; `scale(kernel samples)` converts the seconds measured with them."""
    setup_s, setup_kernel = setup
    return {
        "setup_s": (statistics.median(setup_s) * scale(setup_kernel), "s"),
        "run_s": (statistics.median(r.wall * scale(r.kernel) for r in rounds), "s"),
        "grad_records_per_s": (throughput(rounds, "grad", scale), "records/s"),
        "score_records_per_s": (throughput(rounds, "score", scale), "records/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


TIME_UNITS = {"s", "ms", "us", "ns"}


def scale_times(metrics, scale):
    """Times multiplied by `scale`; counts and shares as they are."""
    return {
        name: (value * scale if unit in TIME_UNITS else value, unit)
        for name, (value, unit) in metrics.items()
    }


def per_layer(tracer, batch, traced_rounds, untraced_rounds):
    from ctrzoo import zoo

    metrics = tracing.layer_metrics(
        tracer.spans,
        len(traced_rounds),
        batch,
        lambda spec: zoo.count_complexity(spec).time_ops,
        zoo.MODEL_NAMES,
    )
    traced_s = statistics.median(r.wall for r in traced_rounds)
    plain_s = statistics.median(r.wall for r in untraced_rounds)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    return metrics


def premises(layers):
    """The traced figures each workload's reason for existing rests on."""
    seconds = {k: v for k, (v, unit) in layers.items() if unit == "s" and not k.startswith("trace.")}
    seconds.pop("training.validation_s")  # inclusive, overlaps the layers below it
    fi_bw = seconds.pop("interaction.fi_forward_s") + seconds.pop("tape.backward_s")
    largest = max(seconds, key=seconds.get)
    run_s = layers["trace.run_s"][0]
    checking = layers["zoo.gradcheck_us_per_forward"][0] * layers["zoo.gradcheck_forwards"][0] * 1e-6
    return {
        "fi_plus_backward_share": fi_bw / run_s,
        "largest_other_layer": [largest, seconds[largest] / run_s],
        "fi_plus_backward_is_largest": fi_bw > seconds[largest],
        "fi_forward_share": layers["interaction.fi_forward_s"][0] / run_s,
        "gradcheck_share": checking / run_s,
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    nproc = cap_threads()
    src = ROOT / "src"
    if not (src / "ctrzoo" / "__init__.py").is_file():
        print(f"error: no ctrzoo sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ctrzoo

    if Path(ctrzoo.__file__).resolve().parent != (src / "ctrzoo").resolve():
        print(f"error: imported ctrzoo from {ctrzoo.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / run_id
    import speed

    tally = workloads.Tally()
    probe = speed.SpeedProbe()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.size, workdir, tally, probe.sample
    )
    if args.probe_setup:
        workload.setup()
        return 0
    try:
        return measure(args, workload, tally, nproc, run_id, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, tally, nproc, run_id, probe):
    setup = measure_setup(args, SETUP_PROBES[args.size], probe)
    workload.make_inputs()
    tracer = tracing.Tracer(run_id) if args.trace else None
    with traced(tracer, "setup"):
        workload.setup()
    workload.install_checks()
    rounds, flags = run_rounds(workload, args.seconds, tracer)
    info = workload.summary()

    plain = [r for r, t in zip(rounds, flags) if not t]
    if tracer:
        raw = per_layer(tracer, workload.batch_size, [r for r, t in zip(rounds, flags) if t], plain)
        info["premises"] = premises(raw)
        metrics = scale_times(raw, probe.scale())
    else:
        raw = end_to_end(plain, setup, as_measured)
        metrics = end_to_end(plain, setup, probe.scale)
    info["error_rate"] = tally.failed / tally.attempted
    info["rounds"] = len(rounds)
    info["speed_scale"] = probe.scale()
    info["raw"] = {name: value for name, (value, _) in raw.items()}

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "env": environment(nproc, args.seed),
        "setup_s": setup[0],
        "setup_kernel_s": setup[1],
        "rounds": [
            {"wall": r.wall, "traced": t, "kernel_s": r.kernel, "ops": r.ops}
            for r, t in zip(rounds, flags)
        ],
        "info": info,
    }
    if tracer:
        spans_path = results / f"{run_id}.spans.jsonl"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    with open(results / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(record["env"]))
    print("info " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric error_rate {info['error_rate']!r} ratio")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
