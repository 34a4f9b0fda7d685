"""distill-lab benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload offpolicy_grid --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ./src, never
from an installed copy; without ./src the benchmark exits with code 2 and
prints no result.

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
alternates untraced and traced passes of the same cells and reports the
per-layer metrics of the traced ones; spans are saved under .bench_out/.
The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the environment header.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from tracing import MODULES, LayerTotals, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
# host_speed() iterations/s, a round number: every timing is reported as if
# the host ran the probe at this speed
REFERENCE_SPEED = 200_000.0

# (name, unit) of each end-to-end metric, reported with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("train_tok_per_s", "tokens/s"),
    ("peak_rss_mb", "MiB"),
    ("kl_fwd_final", "nats"),
    ("kl_rev_final", "nats"),
)

CLI_COMMANDS = ("gen-source", "gen-corpus", "train-teacher", "distill", "eval")
WEIGHT_SPANS = ("objectives.hpd_weights", "objectives.weight_fkld_token",
                "objectives.weight_rkld_off", "objectives.weight_jsd_off")
LOOP_SPANS = ("training.distill_offpolicy", "training.distill_onpolicy_opd")


def import_package():
    """Import distill_lab from ./src; exit 2 when the source tree is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "distill_lab", "__init__.py")):
        print(f"error: no distill_lab source under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import distill_lab

    return distill_lab


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "distill_lab_threads_set": "DISTILL_LAB_THREADS" in os.environ,
    }


def host_speed() -> float:
    """Iterations per second of a fixed loop of small numpy operations.

    The loop runs no distill_lab code, so no change to the program moves it;
    only the host does. On a shared machine the speed of the same Python
    code drifts by up to 2x over tens of seconds, and this probe drifts with
    it.
    """
    n = 1500
    z = np.zeros(16)
    rows = {}
    t0 = time.perf_counter()
    for i in range(n):
        e = np.exp(z - z.max())
        rows[(i % 7, i % 5)] = float((e / e.sum())[i % 16])
    return n / (time.perf_counter() - t0)


def probed(block):
    """Run block() between two host-speed probes.

    Returns its result, its wall seconds and its reference seconds: the wall
    time scaled to a host running at REFERENCE_SPEED.
    """
    before = host_speed()
    t0 = time.perf_counter()
    result = block()
    wall = time.perf_counter() - t0
    return result, wall, wall * (before + host_speed()) / (2 * REFERENCE_SPEED)


def try_cell(workload, cell, ops):
    """Run one cell; a cell that raises is a failed operation and returns None."""
    try:
        return workload.run_cell(cell)
    except Exception:  # record and keep measuring the other cells
        traceback.print_exc(file=sys.stderr)
        ops.check(False, f"{workload.name} {cell}: raised")
        return None


def measure(workload, seconds: float, ops, tracer=None) -> dict:
    """Set up, then run passes until `seconds` of run phase have elapsed.

    A pass runs every cell once; each cell and each set-up is timed between
    host-speed probes. Untraced, the inputs are set up again between passes,
    about every seconds / SETUP_REPEATS, so the set-up times sample the
    whole run rather than one moment of it. With a tracer, the one set-up
    and every second pass are traced; at least one untraced and one traced
    pass run.
    """
    setups = []

    def set_up(traced: bool) -> None:
        def block():
            with tracer.segment("setup") if traced else contextlib.nullcontext():
                workload.setup()

        _, wall, ref = probed(block)
        setups.append({"wall_s": wall, "ref_s": ref})
        workload.check_setup(ops)

    set_up(traced=tracer is not None)
    passes, kls, first = [], None, None
    start = last_setup = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        runs, wall, ref = [], 0.0, 0.0
        with tracer.segment("pass") if traced else contextlib.nullcontext():
            for cell in workload.cells():
                run, cell_wall, cell_ref = probed(lambda: try_cell(workload, cell, ops))
                wall, ref = wall + cell_wall, ref + cell_ref
                if run is not None:
                    runs.append((cell, run))
        passes.append({"traced": traced, "wall_s": wall, "ref_s": ref,
                       "tokens": sum(run.tokens for _, run in runs)})
        pass_kls = [workload.check(cell, run, ops) for cell, run in runs]
        if first is None:
            kls, first = [k for k in pass_kls if k is not None], runs
        now = time.perf_counter()
        if now - start >= seconds and (tracer is None or len(passes) >= 2):
            break
        if (tracer is None and len(setups) < SETUP_REPEATS
                and now - last_setup >= seconds / SETUP_REPEATS):
            set_up(traced=False)
            last_setup = time.perf_counter()

    if first:
        workload.check_determinism(*first[0], ops)
    workload.finish(ops)
    return {"setups": setups, "passes": passes, "kls": kls}


def end_to_end_metrics(record: dict) -> dict:
    """End-to-end metrics; the two timings use reference seconds.

    The medians of the unscaled timings are added to the record as `raw`.
    """
    untraced = [p for p in record["passes"] if not p["traced"]]
    kls = record["kls"]
    values = {
        "setup_s": statistics.median(s["ref_s"] for s in record["setups"]),
        "train_tok_per_s": statistics.median(p["tokens"] / p["ref_s"] for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kl_fwd_final": statistics.fmean(k[0] for k in kls) if kls else math.nan,
        "kl_rev_final": statistics.fmean(k[1] for k in kls) if kls else math.nan,
    }
    record["raw"] = {
        "setup_s": statistics.median(s["wall_s"] for s in record["setups"]),
        "train_tok_per_s": statistics.median(p["tokens"] / p["wall_s"] for p in untraced),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(spans, segments, record: dict) -> dict:
    """Per-layer metrics from the traced passes (and the traced setup).

    `*.us_per_tok` is self time per trained token of the traced passes,
    except for the generators and the MLE fit, which are per token they
    produce or fit. `*.ms_per_call`, `*.ms` and `.share` use inclusive time.
    Times are scaled to REFERENCE_SPEED by the ratio of reference seconds
    to wall seconds over the traced set-up and passes.
    """
    run = LayerTotals.of(spans, [s for s in segments if s[0] == "pass"])
    every = LayerTotals.of(spans)
    traced = [p for p in record["passes"] if p["traced"]]
    untraced = [p for p in record["passes"] if not p["traced"]]
    tokens = sum(p["tokens"] for p in traced)
    wall = sum(p["wall_s"] for p in traced)
    n_passes = len(traced)
    timed = traced + record["setups"][:1]
    scale = sum(x["ref_s"] for x in timed) / sum(x["wall_s"] for x in timed)
    us, ms = 1e6 * scale, 1e3 * scale

    def ratio(x, base):
        return x / base if base else 0.0

    def per_tok(*names):
        return us * ratio(run.total("self_s", names), tokens)

    def ms_per_call(totals, *names):
        return ms * ratio(totals.total("incl_s", names), totals.total("calls", names))

    def per_unit(totals, field, *names):
        return us * ratio(totals.total(field, names), totals.total("units", names))

    sgd = "model.sgd_step"
    m = {
        "numerics.softmax.us_per_tok": (per_tok("numerics.softmax"), "us/tok"),
        "numerics.entropy.us_per_tok": (per_tok("numerics.entropy"), "us/tok"),
        "numerics.kl_exact.calls": (ratio(run.total("calls", ["numerics.kl_exact"]),
                                          n_passes), "calls/pass"),
        "model.predict.calls_per_tok": (ratio(run.total("calls", ["model.predict"]), tokens),
                                        "calls/tok"),
        "model.predict.us_per_tok": (per_tok("model.predict"), "us/tok"),
        "model.accumulate_token_grad.us_per_tok": (per_tok("model.accumulate_token_grad"),
                                                   "us/tok"),
        "model.sgd_step.us_per_step": (us * ratio(run.total("self_s", [sgd]),
                                                   run.total("calls", [sgd])), "us/step"),
        "model.sgd_step.rows_per_step": (ratio(run.total("units", [sgd]),
                                               run.total("calls", [sgd])), "rows/step"),
        "model.rollout.us_per_tok": (per_unit(run, "self_s", "model.rollout"),
                                     "us/tok"),
        "model.checkpoint.ms": (ms_per_call(every, "model.checkpoint_save",
                                            "model.checkpoint_load"), "ms/call"),
        "objectives.weights.us_per_tok": (per_tok(*WEIGHT_SPANS), "us/tok"),
        "objectives.weights.calls_per_tok": (ratio(run.total("calls", WEIGHT_SPANS), tokens),
                                             "calls/tok"),
        "data.conditional.us_per_tok": (per_tok("data.conditional_for_prefix"), "us/tok"),
        "data.sample_sequence.us_per_tok": (per_unit(run, "self_s",
                                                     "data.sample_sequence"), "us/tok"),
        "data.sample_corpus.us_per_tok": (per_unit(every, "incl_s",
                                                   "data.sample_corpus"), "us/tok"),
        "data.corpus_io.ms": (ms_per_call(every, "data.corpus_write", "data.corpus_read"),
                              "ms/call"),
        "training.loop.us_per_tok": (per_tok(*LOOP_SPANS), "us/tok"),
        "training.evaluate_divergences.ms_per_call": (
            ms_per_call(run, "training.evaluate_divergences"), "ms/call"),
        "training.evaluate_divergences.share": (
            ratio(run.total("incl_s", ["training.evaluate_divergences"]), wall), "frac"),
        "training.train_teacher_mle.us_per_tok": (
            per_unit(every, "incl_s", "training.train_teacher_mle"), "us/tok"),
        "evaluation.completion_accuracy.ms_per_call": (
            ms_per_call(run, "evaluation.completion_accuracy"), "ms/call"),
        "evaluation.divergence_audit.ms_per_call": (
            ms_per_call(run, "evaluation.divergence_audit"), "ms/call"),
        "evaluation.make_completion_tasks.ms": (
            ms_per_call(every, "evaluation.make_completion_tasks"), "ms/call"),
    }
    for command in CLI_COMMANDS:
        name = f"cli.{command}"
        m[f"cli.command.{command}.self_ms"] = (
            ms * ratio(every.total("self_s", [name]), every.total("calls", [name])), "ms/call")
    for module in MODULES:
        names = [n for n in spans.names if n.startswith(module + ".")]
        m[f"{module}.errors"] = (every.total("errors", names), "count")
    m["trace.overhead_frac"] = (
        statistics.median(p["ref_s"] for p in traced)
        / statistics.median(p["ref_s"] for p in untraced) - 1.0, "frac")
    m["trace.unattributed_frac"] = (1.0 - ratio(run.root_s, wall), "frac")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    pkg = import_package()
    from workloads import WORKLOADS, Ops

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    ops = Ops()
    tracer = Tracer(pkg) if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        record = measure(workload, args.seconds, ops, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        spans = tracer.spans()
        spans.save(os.path.join(OUT_DIR, f"spans-{tag}.npz"))
        metrics = layer_metrics(spans, tracer.segments, record)
    else:
        metrics = end_to_end_metrics(record)
    for msg in ops.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": _json_number(v["value"]), "unit": v["unit"]}
                    for k, v in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "record": record, "result": result}, f, indent=1)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def _json_number(x):
    return x if math.isfinite(x) else None


if __name__ == "__main__":
    sys.exit(main())
