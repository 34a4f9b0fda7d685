"""Command-line surface for reproducible, config-driven runs.

Commands: gen-source, gen-corpus, train-teacher, distill, opd, eval,
gradcheck, sweep. Every command takes a JSON config (--config) plus
optional dotted-key overrides (--set train.lr=0.5). Overrides win; the
effective config is echoed to a sidecar file, and every output file
embeds {format_version, config_hash, seed}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import data as data_mod
from .errors import (
    ConfigError,
    DivergenceInfiniteError,
    InvalidInputError,
    InvalidParameterError,
    LogOfZeroError,
    NumericOverflowError,
    ParseError,
    PipelineError,
    boolean,
    config_field,
)
from .evaluation import CompletionTasks, EvalPlan, gradcheck, make_completion_tasks
from .model import MAX_TABLE_ENTRIES, TabularLM, Vocab, checkpoint_load, checkpoint_save
from .numerics import CategoricalDist, entropy, softmax, softmax_rows
from .objectives import ALL_TAGS, ObjectiveKind
from .training import (
    Stage,
    TrainConfig,
    distill_offpolicy,
    distill_onpolicy_opd,
    metrics_write,
    run_experiment,
    train_teacher_mle,
)

CONFIG_FORMAT_VERSION = 1


@dataclass(frozen=True)
class _OneOf:
    """The allowed values of an enumerated key; `what` names it in the error."""

    what: str
    values: tuple


# every config key: a section's keys, each with its type or its allowed values,
# or a top-level value's type; None marks a value that is not a number, checked
# where it is read (the sweep lists by validate_config itself). validate_config
# checks every typed or enumerated value a config sets, whichever command runs
_SCHEMA = {
    "seed": None,
    "out_dir": None,
    "source": {"name": None, "vocab_size": int, "order": int, "seed": int,
               "concentration": float, "eps": float},
    "source_path": None,
    "corpus_path": None,
    "corpus": {"num_seqs": int, "length": int,
               "regime": _OneOf("corpus regime", ("ground_truth", "teacher_generated")),
               "temperature": float},
    "student_order": int,
    "teacher": {"mode": _OneOf("teacher.mode", ("oracle_source", "mle_fit")), "order": int,
                "smoothing": float},
    "init_checkpoint": None,
    "train": {
        "objective": _OneOf("objective tag", ALL_TAGS), "beta": float,
        "sign_fidelity": boolean, "lr": float, "steps": int, "batch_size": int,
        "eval_every": int,
        "opd_reward_mode": _OneOf("opd_reward_mode", ("per_token", "trajectory")),
        "hpd_samples": int, "opd_baseline": boolean, "horizon": int, "n_eval_seqs": int,
        "eval_len": int, "eval_from": _OneOf("eval_from", ("teacher", "student")),
    },
    "tasks": {"num_tasks": int, "cont_len": int, "min_conf": float},
    "stages": None,
    "sweep": {"objectives": None, "seeds": None},
    "gradcheck": {"n_tokens": int, "eps": float, "vocab_size": int, "order": int,
                  "model_seed": int},
}

# errors a command reports as `error: ...` with exit code 2; a MemoryError is a
# size the configuration asked for that cannot be allocated
_USER_ERRORS = (
    ConfigError, ParseError, PipelineError, InvalidInputError, InvalidParameterError,
    DivergenceInfiniteError, LogOfZeroError, NumericOverflowError, OSError, MemoryError,
)


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key, val in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if isinstance(allowed, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{key!r} must be an object, got {val!r}")
            extra = set(val) - set(allowed)
            if extra:
                raise ConfigError(f"unknown keys in {key!r}: {sorted(extra)}")
    if "seed" not in cfg:
        raise ConfigError("config must set 'seed'")
    if not isinstance(cfg["seed"], int) or isinstance(cfg["seed"], bool):
        raise ConfigError("'seed' must be an integer")
    if "stages" in cfg:
        if not isinstance(cfg["stages"], list) or not cfg["stages"]:
            raise ConfigError("'stages' must be a non-empty list")
        names = set()
        for i, st in enumerate(cfg["stages"]):
            if not isinstance(st, dict):
                raise ConfigError(f"stages[{i}] must be an object")
            extra = set(st) - {"name"} - set(_SCHEMA["train"])
            if extra:
                raise ConfigError(f"unknown keys in stages[{i}]: {sorted(extra)}")
            # a stage's name is part of its metrics file name: it must be one
            # file name, and no other stage's
            name = _stage_name(i, st)
            if not isinstance(name, str) or not name:
                raise ConfigError(f"stages[{i}].name must be a non-empty string, got {name!r}")
            if "/" in name or "\\" in name:
                raise ConfigError(f"stages[{i}].name {name!r} contains a path separator")
            if name in names:
                raise ConfigError(f"stages[{i}].name {name!r} is already an earlier "
                                  f"stage's name")
            names.add(name)
    # every typed value the config sets, whichever command reads it
    for key, kind in _SCHEMA.items():
        if isinstance(kind, dict) and key in cfg:
            _check_types(cfg[key], key, kind)
        elif kind is not None and key in cfg:
            config_field(cfg, key, kind, None)
    for i, st in enumerate(cfg.get("stages", [])):
        _check_types(st, f"stages[{i}]", _SCHEMA["train"])
    objectives = cfg.get("sweep", {}).get("objectives", [])
    seeds = cfg.get("sweep", {}).get("seeds", [])
    if not isinstance(objectives, list):
        raise ConfigError(f"sweep.objectives: expected a list, got {objectives!r}")
    if not (isinstance(seeds, list)
            and all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)):
        raise ConfigError(f"sweep.seeds: expected a list of integers, got {seeds!r}")
    for tag in objectives:
        if tag not in ALL_TAGS:
            raise ConfigError(f"unknown objective tag {tag!r} in sweep")
    # a cell's objective and seed name its output files: a repeat would overwrite one
    for key, values in (("objectives", objectives), ("seeds", seeds)):
        for i, x in enumerate(values):
            if x in values[:i]:
                raise ConfigError(f"sweep.{key}[{i}] {x!r} is already an earlier entry")


def _check_types(node: dict, section: str, types: dict) -> None:
    """ConfigError at the first typed or enumerated key of node whose value it rejects."""
    for key, cast in types.items():
        if key not in node or cast is None:
            continue
        if not isinstance(cast, _OneOf):
            config_field(node, f"{section}.{key}", cast, None)
        elif node[key] not in cast.values:
            raise ConfigError(f"unknown {cast.what} {node[key]!r}")


def _stage_name(i: int, stage: dict):
    """The name of stage i: its 'name', or stage{i} when it sets none."""
    return stage.get("name", f"stage{i}")


def apply_overrides(cfg: dict, sets: list[str]) -> dict:
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} clashes with a scalar")
        node[parts[-1]] = value
    return cfg


def config_hash(cfg: dict) -> str:
    """The first 12 hex digits of the sha256 of the config without out_dir.

    Where a run writes does not change what it writes, so two runs that differ
    only in out_dir write byte-identical files.
    """
    kept = {k: v for k, v in cfg.items() if k != "out_dir"}
    canon = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path: str | None, sets: list[str]) -> dict:
    if path is not None:
        with open(path, encoding="utf-8") as f:
            try:
                cfg = json.load(f)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from e
    else:
        cfg = {}
    cfg = apply_overrides(cfg, sets)
    validate_config(cfg)
    return cfg


def _meta(cfg: dict) -> dict:
    return {
        "format_version": CONFIG_FORMAT_VERSION,
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
    }


def _outdir(cfg: dict) -> str:
    out = cfg.get("out_dir", "out")
    os.makedirs(out, exist_ok=True)
    return out


def _echo_effective(cfg: dict, out: str, command: str) -> None:
    path = os.path.join(out, f"{command}_effective_config.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


class _Inputs:
    """A command's source, corpora and teacher; each is built at most once, on first use.

    The ground truth is the corpus_path file, or else the corpus that gen-corpus
    samples in the ground_truth regime. The MLE teacher is fitted on it, and the
    teacher_generated regime samples from that teacher.
    """

    def __init__(self, cfg: dict):
        if "source_path" in cfg:
            self.source = data_mod.source_load(cfg["source_path"])
        elif "source" in cfg:
            self.source = data_mod.build_source(cfg["source"])
        else:
            raise ConfigError("config needs 'source' or 'source_path'")
        self.cfg = cfg
        c = cfg.get("corpus", {})
        self.num_seqs = config_field(c, "corpus.num_seqs", int, 2000)
        self.length = config_field(c, "corpus.length", int, 64)
        # draws the ground truth, then the teacher_generated corpus after it
        self._rng = np.random.default_rng(cfg["seed"])

    @cached_property
    def ground_truth(self) -> data_mod.Corpus:
        if "corpus_path" in self.cfg:
            return data_mod.corpus_read(self.cfg["corpus_path"])
        return data_mod.sample_corpus(self.source, self.num_seqs, self.length, self._rng,
                                      seed=self.cfg["seed"])

    @cached_property
    def teacher_model(self) -> TabularLM:
        t = self.cfg.get("teacher", {})
        return train_teacher_mle(
            self.ground_truth,
            config_field(t, "teacher.order", int, self.source.order),
            config_field(t, "teacher.smoothing", float, 0.1),
        )

    @cached_property
    def corpus(self) -> data_mod.Corpus:
        c = self.cfg.get("corpus", {})
        if "corpus_path" in self.cfg or c.get("regime", "ground_truth") == "ground_truth":
            return self.ground_truth
        prompts = [[] for _ in range(self.num_seqs)]  # the teacher_generated regime
        return data_mod.generate_seqkd_corpus(
            self.teacher_model, prompts, self.length, self._rng,
            temperature=config_field(c, "corpus.temperature", float, 1.0),
            seed=self.cfg["seed"],
        )

    @cached_property
    def teacher(self) -> data_mod.MarkovSource:
        """The source, or in mle_fit mode the MLE model's softmax table as a source."""
        if self.cfg.get("teacher", {}).get("mode", "oracle_source") == "mle_fit":
            m = self.teacher_model
            return data_mod.MarkovSource("mle_fit", m.order, m.vocab, softmax(m.table))
        return self.source


def _get_student(cfg: dict, source) -> TabularLM:
    if "init_checkpoint" in cfg:
        return checkpoint_load(cfg["init_checkpoint"])
    order = config_field(cfg, "student_order", int, 1)
    return TabularLM(order=order, vocab=Vocab.default(source.vocab.size))


def _get_tasks(cfg: dict, source):
    t = cfg.get("tasks")
    if t is None:
        return None
    rng = np.random.default_rng(cfg["seed"] + 2)
    return make_completion_tasks(
        source,
        num_tasks=config_field(t, "tasks.num_tasks", int, 200),
        cont_len=config_field(t, "tasks.cont_len", int, 2),
        rng=rng,
        min_conf=config_field(t, "tasks.min_conf", float, 0.9),
    )


def _train_config(cfg: dict, overrides: dict | None = None) -> TrainConfig:
    t = dict(cfg.get("train", {}))
    if overrides:
        t.update(overrides)
    if "objective" not in t:
        raise ConfigError("train config needs an 'objective' tag")
    kind = ObjectiveKind(
        tag=t["objective"],
        beta=config_field(t, "train.beta", float, 0.5),
        sign_fidelity=config_field(t, "train.sign_fidelity", boolean, False),
    )
    return TrainConfig(
        objective=kind,
        steps=config_field(t, "train.steps", int, 1000),
        seed=cfg["seed"],
        lr=config_field(t, "train.lr", float, 0.1),
        batch_size=config_field(t, "train.batch_size", int, 32),
        eval_every=config_field(t, "train.eval_every", int, 100),
        opd_reward_mode=t.get("opd_reward_mode", "per_token"),
        hpd_samples=config_field(t, "train.hpd_samples", int, 1),
        opd_baseline=config_field(t, "train.opd_baseline", boolean, False),
        horizon=config_field(t, "train.horizon", int, 16),
        **_eval_keys(t),
    )


def _eval_keys(t: dict) -> dict:
    """The train keys that say how divergences are evaluated; eval reads only these.

    train.n_eval_seqs is still accepted, and has no effect: evaluation is exact.
    Configs written for sampled evaluation, the benchmark's among them, set it.
    """
    eval_len = config_field(t, "train.eval_len", int, 16)
    if eval_len < 1:
        raise ConfigError(f"train.eval_len must be >= 1, got {eval_len}")
    return dict(eval_len=eval_len, eval_from=t.get("eval_from", "teacher"))


def cmd_gen_source(cfg: dict) -> int:
    out = _outdir(cfg)
    _echo_effective(cfg, out, "gen-source")
    data_mod.source_save(_Inputs(cfg).source, os.path.join(out, "source.json"),
                         header_extra=_meta(cfg))
    print(f"wrote {os.path.join(out, 'source.json')}")
    return 0


def cmd_gen_corpus(cfg: dict) -> int:
    out = _outdir(cfg)
    _echo_effective(cfg, out, "gen-corpus")
    corpus = _Inputs(cfg).corpus
    data_mod.corpus_write(corpus, os.path.join(out, "corpus.txt"),
                          header_extra=_meta(cfg))
    print(f"wrote {os.path.join(out, 'corpus.txt')} "
          f"({corpus.lengths.size} sequences, {corpus.num_tokens()} tokens)")
    return 0


def cmd_train_teacher(cfg: dict) -> int:
    out = _outdir(cfg)
    _echo_effective(cfg, out, "train-teacher")
    model = _Inputs(cfg).teacher_model
    path = os.path.join(out, "teacher.json")
    checkpoint_save(model, path, header_extra=_meta(cfg))
    print(f"wrote {path} ({int(model.touched.sum())} contexts)")
    return 0


def _run_single(cfg: dict, on_policy: bool, csv_name="metrics.csv",
                ckpt_name="student.json") -> int:
    out = _outdir(cfg)
    # a stage names or inherits its objective, so a staged run needs no train.objective
    stages = [
        Stage(name=_stage_name(i, st),
              cfg=_train_config(cfg, {k: v for k, v in st.items() if k != "name"}))
        for i, st in enumerate(cfg["stages"])
    ] if "stages" in cfg else None
    tc = None if stages else _train_config(cfg)
    inputs = _Inputs(cfg)
    teacher = inputs.teacher
    student = _get_student(cfg, inputs.source)
    tasks = _get_tasks(cfg, inputs.source)

    if stages:
        corpus = inputs.corpus if any(
            not s.cfg.objective.on_policy for s in stages) else None
        student, _rows = run_experiment(stages, teacher, student, corpus=corpus,
                                        eval_tasks=tasks, out_dir=out, meta=_meta(cfg))
        checkpoint_save(student, os.path.join(out, ckpt_name), header_extra=_meta(cfg))
        print(f"ran {len(stages)} stages -> {out}")
        return 0

    if on_policy or tc.objective.on_policy:
        if not tc.objective.on_policy:
            raise ConfigError(
                f"'opd' needs an on-policy objective, got {tc.objective.tag!r}")
        student, rows = distill_onpolicy_opd(tc, teacher, student, eval_tasks=tasks)
    else:
        student, rows = distill_offpolicy(tc, teacher, inputs.corpus, student,
                                          eval_tasks=tasks)
    meta = _meta(cfg)
    metrics_write(rows, os.path.join(out, csv_name), meta=meta)
    checkpoint_save(student, os.path.join(out, ckpt_name), header_extra=meta)
    print(f"wrote {os.path.join(out, csv_name)}")
    return 0


def cmd_distill(cfg: dict) -> int:
    _echo_effective(cfg, _outdir(cfg), "distill")
    return _run_single(cfg, on_policy=False)


def cmd_opd(cfg: dict) -> int:
    _echo_effective(cfg, _outdir(cfg), "opd")
    return _run_single(cfg, on_policy=True)


def cmd_eval(cfg: dict) -> int:
    out = _outdir(cfg)
    _echo_effective(cfg, out, "eval")
    ev = _eval_keys(cfg.get("train", {}))
    inputs = _Inputs(cfg)
    teacher = inputs.teacher
    student = _get_student(cfg, inputs.source)
    tasks = _get_tasks(cfg, inputs.source)
    plan = EvalPlan(teacher, student, ev["eval_len"], ev["eval_from"])
    # the student's predictive table: its own logits, which every table writer keeps finite
    probs, logprobs = softmax_rows(student.table)
    occ = plan.occupancy(probs)
    kl_fwd, kl_rev = plan.divergences(probs, logprobs, occ)
    # the student's entropy at every context, weighted by the context's occupancy
    ids = plan.student_ids
    ent = occ @ entropy(CategoricalDist(probs[ids], logprobs[ids]))
    acc = CompletionTasks(tasks, student).accuracy(student.table) if tasks else None
    path = os.path.join(out, "audit.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("# " + json.dumps(_meta(cfg), sort_keys=True) + "\n")
        f.write("kl_fwd,kl_rev,mean_entropy,accuracy\n")
        f.write(",".join([
            repr(kl_fwd), repr(kl_rev), repr(float(ent)),
            "" if acc is None else repr(acc),
        ]) + "\n")
    print(f"wrote {path}: kl_fwd={kl_fwd:.6f} kl_rev={kl_rev:.6f}")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    g = cfg.get("gradcheck", {})
    v = config_field(g, "gradcheck.vocab_size", int, 8)
    order = config_field(g, "gradcheck.order", int, 1)
    n_tokens = config_field(g, "gradcheck.n_tokens", int, 64)
    if n_tokens < 1:
        raise ConfigError(f"gradcheck.n_tokens must be >= 1, got {n_tokens}")
    if n_tokens > MAX_TABLE_ENTRIES:  # each token costs a set_row: bound the run's time
        raise ConfigError(f"gradcheck.n_tokens must be <= {MAX_TABLE_ENTRIES}, got {n_tokens}")
    eps = config_field(g, "gradcheck.eps", float, 1e-5)
    rng = np.random.default_rng(config_field(g, "gradcheck.model_seed", int, cfg["seed"]))
    model = TabularLM(order=order, vocab=Vocab.default(v))
    items = []
    for _ in range(n_tokens):
        ctx = tuple(int(x) for x in rng.integers(v, size=order))
        model.set_row(ctx, rng.normal(size=v))
        items.append((ctx, int(rng.integers(v)), float(rng.uniform(-2.0, 2.0))))
    err = gradcheck(model, items, eps=eps)
    print(f"gradcheck max relative error: {err:.3e} ({n_tokens} tokens, eps={eps})")
    return 0 if err < 1e-5 else 1


def cmd_sweep(cfg: dict) -> int:
    out = _outdir(cfg)
    _echo_effective(cfg, out, "sweep")
    sw = cfg.get("sweep")
    if not sw or "objectives" not in sw or "seeds" not in sw:
        raise ConfigError("sweep needs 'sweep.objectives' and 'sweep.seeds'")
    objectives, seeds = sw["objectives"], sw["seeds"]
    for tag in objectives:
        for seed in seeds:
            cell = {k: v for k, v in cfg.items() if k not in ("sweep", "stages")}
            cell["seed"] = seed
            cell["train"] = dict(cfg.get("train", {}), objective=tag)
            _run_single(cell, on_policy=False, csv_name=f"metrics_{tag}_seed{seed}.csv",
                        ckpt_name=f"student_{tag}_seed{seed}.json")
    print(f"wrote {len(objectives) * len(seeds)} metrics files under {out}")
    return 0


_COMMANDS = {
    "gen-source": cmd_gen_source,
    "gen-corpus": cmd_gen_corpus,
    "train-teacher": cmd_train_teacher,
    "distill": cmd_distill,
    "opd": cmd_opd,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "sweep": cmd_sweep,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="distill-lab",
        description="Desk-scale distillation laboratory with exactly known teachers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], dest="sets",
                       metavar="KEY=VALUE", help="dotted-key override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.sets)
        return _COMMANDS[args.command](cfg)
    except _USER_ERRORS as e:
        # a MemoryError that Python itself raises carries no message
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
