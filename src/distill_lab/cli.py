"""Command-line surface for reproducible, config-driven runs.

Commands: gen-source, gen-corpus, train-teacher, distill, opd, eval,
gradcheck, sweep. Every command takes a JSON config (--config) plus
optional dotted-key overrides (--set train.lr=0.5). Overrides win, and every
output file embeds {format_version, config_hash, seed}. A command makes out_dir
and echoes the effective config to <command>_effective_config.json when it
writes its first output file, so a command refused before then writes nothing.
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
    string,
)
from .evaluation import CompletionTasks, EvalPlan, gradcheck, make_completion_tasks
from .model import MAX_TABLE_ENTRIES, TabularLM, Vocab, checkpoint_load, checkpoint_save
from .numerics import CategoricalDist, entropy, softmax, softmax_rows
from .objectives import ALL_TAGS, OFF_POLICY_TAGS, ObjectiveKind
from .training import (Stage, TrainConfig, check_regime, metrics_write, run_experiment,
                       train_teacher_mle)

CONFIG_FORMAT_VERSION = 1


@dataclass(frozen=True)
class _OneOf:
    """The allowed values of an enumerated key; `what` names it in the error."""

    what: str
    values: tuple


# every config key: a section's keys, each with its type or its allowed values,
# or a top-level value's type; None marks a value checked where it is read (seed,
# the stages and the sweep lists by validate_config itself). validate_config
# checks every typed or enumerated value a config sets, whichever command runs
_SCHEMA = {
    "seed": None,
    "out_dir": string,
    "source": {"name": None, "vocab_size": int, "order": int, "seed": int,
               "concentration": float, "eps": float},
    "source_path": string,
    "corpus_path": string,
    "corpus": {"num_seqs": int, "length": int,
               "regime": _OneOf("corpus regime", ("ground_truth", "teacher_generated")),
               "temperature": float},
    "student_order": int,
    "teacher": {"mode": _OneOf("teacher.mode", ("oracle_source", "mle_fit")), "order": int,
                "smoothing": float},
    "init_checkpoint": string,
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
            # a string key names a file or directory, which the empty string does not
            if not config_field(cfg, key, kind, None) and kind is string:
                raise ConfigError(f"{key}: expected a non-empty path, got ''")
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
    # numpy seeds a generator with a non-negative integer only
    seeded = [("seed", cfg["seed"])] + [(f"sweep.seeds[{i}]", s) for i, s in enumerate(seeds)]
    seeded += [(path, config_field(cfg.get(path.partition(".")[0], {}), path, int, 0))
               for path in ("source.seed", "gradcheck.model_seed")]
    for path, seed in seeded:
        if seed < 0:
            raise ConfigError(f"{path} must be >= 0, got {seed}")


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


class _Out:
    """Where a command writes. Its first output path makes out_dir and echoes the
    effective config to <command>_effective_config.json there."""

    def __init__(self, cfg: dict, command: str):
        self.cfg, self.command = cfg, command

    @cached_property
    def dir(self) -> str:
        out = self.cfg.get("out_dir", "out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"{self.command}_effective_config.json"), "w",
                  encoding="utf-8") as f:
            json.dump(self.cfg, f, indent=2, sort_keys=True)
            f.write("\n")
        return out

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


class _Inputs:
    """A command's source, corpora, teacher and completion tasks; each is built at most
    once, on first use.

    The ground truth is the corpus_path file, or else the corpus that gen-corpus
    samples in the ground_truth regime. The MLE teacher is fitted on it, and the
    teacher_generated regime samples from that teacher. None of them reads the
    train section, so the cells of one sweep seed share one _Inputs.
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
        # the teacher_generated regime. The teacher's fit samples the num_seqs-sequence
        # ground truth, about length times the memory of the empty prompts, so an
        # unallocatable num_seqs fails there first, with numpy's sized error
        teacher = self.teacher_model
        return data_mod.generate_seqkd_corpus(
            teacher, [[]] * self.num_seqs, self.length, self._rng,
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

    @cached_property
    def tasks(self):
        """The source's completion tasks, drawn from a generator of seed + 2; None
        without a tasks section."""
        t = self.cfg.get("tasks")
        if t is None:
            return None
        return make_completion_tasks(
            self.source,
            num_tasks=config_field(t, "tasks.num_tasks", int, 200),
            cont_len=config_field(t, "tasks.cont_len", int, 2),
            rng=np.random.default_rng(self.cfg["seed"] + 2),
            min_conf=config_field(t, "tasks.min_conf", float, 0.9),
        )


def _get_student(cfg: dict, source) -> TabularLM:
    if "init_checkpoint" in cfg:
        return checkpoint_load(cfg["init_checkpoint"])
    order = config_field(cfg, "student_order", int, 1)
    return TabularLM(order=order, vocab=Vocab.default(source.vocab.size))


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


def cmd_gen_source(cfg: dict, out: _Out) -> int:
    source = _Inputs(cfg).source
    path = out.path("source.json")
    data_mod.source_save(source, path, header_extra=_meta(cfg))
    print(f"wrote {path}")
    return 0


def cmd_gen_corpus(cfg: dict, out: _Out) -> int:
    corpus = _Inputs(cfg).corpus
    path = out.path("corpus.txt")
    data_mod.corpus_write(corpus, path, header_extra=_meta(cfg))
    print(f"wrote {path} ({corpus.lengths.size} sequences, {corpus.num_tokens()} tokens)")
    return 0


def cmd_train_teacher(cfg: dict, out: _Out) -> int:
    model = _Inputs(cfg).teacher_model
    path = out.path("teacher.json")
    checkpoint_save(model, path, header_extra=_meta(cfg))
    print(f"wrote {path} ({int(model.touched.sum())} contexts)")
    return 0


def _run_single(cfg: dict, out: _Out, csv_name="metrics.csv", ckpt_name="student.json",
                inputs: _Inputs | None = None) -> int:
    """distill, opd or a sweep's cell: one run_experiment call, then every file of the
    run. A run without stages is one unnamed stage, whose metrics go to csv_name; a
    named stage's go to metrics_<name>.csv. inputs, when given, are cfg's own."""
    # a stage names or inherits its objective, so a staged run needs no train.objective
    staged = "stages" in cfg
    stages = [
        Stage(name=_stage_name(i, st),
              cfg=_train_config(cfg, {k: v for k, v in st.items() if k != "name"}))
        for i, st in enumerate(cfg["stages"])
    ] if staged else [Stage(name=None, cfg=_train_config(cfg))]
    if out.command == "opd":
        for stage in stages:
            kind = stage.cfg.objective
            if not kind.on_policy:
                where = "" if stage.name is None else f" in stage {stage.name!r}"
                raise ConfigError(f"'opd' needs an on-policy objective, got {kind.tag!r}{where}")
    inputs = inputs or _Inputs(cfg)
    teacher = inputs.teacher
    student = _get_student(cfg, inputs.source)
    tasks = inputs.tasks
    corpus = inputs.corpus if any(not s.cfg.objective.on_policy for s in stages) else None
    student, rows = run_experiment(stages, teacher, student, corpus=corpus, eval_tasks=tasks)
    meta = _meta(cfg)
    for name, stage_rows in rows.items():
        path = out.path(csv_name if name is None else f"metrics_{name}.csv")
        metrics_write(stage_rows, path, meta=meta if name is None else dict(meta, stage=name))
    checkpoint_save(student, out.path(ckpt_name), header_extra=meta)
    print(f"ran {len(stages)} stages -> {out.dir}" if staged else f"wrote {out.path(csv_name)}")
    return 0


def cmd_eval(cfg: dict, out: _Out) -> int:
    ev = _eval_keys(cfg.get("train", {}))
    inputs = _Inputs(cfg)
    teacher = inputs.teacher
    student = _get_student(cfg, inputs.source)
    tasks = inputs.tasks
    plan = EvalPlan(teacher, student, ev["eval_len"], ev["eval_from"])
    # the student's predictive table: its own logits, which every table writer keeps finite
    probs, logprobs = softmax_rows(student.table)
    occ = plan.occupancy(probs)
    kl_fwd, kl_rev = plan.divergences(probs, logprobs, occ)
    # the student's entropy at every context, weighted by the context's occupancy
    ids = plan.student_ids
    ent = occ @ entropy(CategoricalDist(probs[ids], logprobs[ids]))
    acc = CompletionTasks(tasks, student).accuracy(student.table) if tasks else None
    path = out.path("audit.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("# " + json.dumps(_meta(cfg), sort_keys=True) + "\n")
        f.write("kl_fwd,kl_rev,mean_entropy,accuracy\n")
        f.write(",".join([
            repr(kl_fwd), repr(kl_rev), repr(float(ent)),
            "" if acc is None else repr(acc),
        ]) + "\n")
    print(f"wrote {path}: kl_fwd={kl_fwd:.6f} kl_rev={kl_rev:.6f}")
    return 0


def cmd_gradcheck(cfg: dict, _out: _Out) -> int:
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


def cmd_sweep(cfg: dict, out: _Out) -> int:
    sw = cfg.get("sweep", {})
    objectives, seeds = sw.get("objectives"), sw.get("seeds")
    if not (objectives and seeds):
        raise ConfigError("sweep needs 'sweep.objectives' and 'sweep.seeds', each non-empty")
    base = {k: v for k, v in cfg.items() if k not in ("sweep", "stages")}
    first = _Inputs(dict(base, seed=seeds[0]))
    # every seed's corpus has one provenance: refuse a cell before the first runs
    for tag in objectives:
        if tag in OFF_POLICY_TAGS:
            check_regime(tag, first.corpus)
    # seed by seed: a seed's cells share its source, corpus, teacher and tasks
    for seed in seeds:
        inputs = first if seed == seeds[0] else _Inputs(dict(base, seed=seed))
        for tag in objectives:
            cell = dict(base, seed=seed, train=dict(cfg.get("train", {}), objective=tag))
            _run_single(cell, out, csv_name=f"metrics_{tag}_seed{seed}.csv",
                        ckpt_name=f"student_{tag}_seed{seed}.json", inputs=inputs)
    print(f"wrote {len(objectives) * len(seeds)} metrics files under {out.dir}")
    return 0


_COMMANDS = {
    "gen-source": cmd_gen_source,
    "gen-corpus": cmd_gen_corpus,
    "train-teacher": cmd_train_teacher,
    "distill": _run_single,
    "opd": _run_single,
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
        return _COMMANDS[args.command](cfg, _Out(cfg, args.command))
    except _USER_ERRORS as e:
        # a MemoryError that Python itself raises carries no message
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
