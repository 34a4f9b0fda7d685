"""The benchmark's three workloads, driven through distill_lab's public API.

A workload builds its inputs from the benchmark seed in `setup()`, then
runs a fixed list of cells (training runs or CLI pipelines) once per pass.
Cells are deterministic, so every pass repeats the same work and the same
outputs. Every library call goes through a `dl.<name>` attribute lookup at
call time, so the tracer's wrappers see the calls the benchmark makes.

Why these three:
  offpolicy_grid  per-token off-policy training on a 6-context student:
                  weights, gradient accumulation and the SGD step dominate,
                  data and evaluation sit idle.
  opd_rollout     on-policy rollouts on a 256-context student: sampling and
                  TabularLM.predict dominate, the objectives layer is idle.
  cli_pipeline    the CLI end to end: corpus sampling, file round trips, the
                  MLE fit, frequent evaluation; training is a minor share.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import distill_lab as dl
import distill_lab.cli  # noqa: F401  (binds dl.cli)


def sub_seeds(seed: int, n: int) -> list[int]:
    """n library seeds derived from the benchmark seed."""
    return [int(x) % 2**31 for x in np.random.SeedSequence(seed).generate_state(n)]


class Ops:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


@dataclass
class Run:
    """Outcome of one cell: trained token positions plus what checks need."""

    tokens: int
    student: object = None
    rows: list | None = None
    codes: dict | None = None


def finite_model(model) -> bool:
    """Every context's logit row is finite (read through the public API)."""
    contexts = itertools.product(range(model.vocab.size), repeat=model.order)
    return all(np.all(np.isfinite(model.logits(ctx))) for ctx in contexts)


def finite_kl(rows) -> bool:
    return bool(rows) and all(math.isfinite(r.kl_fwd) and math.isfinite(r.kl_rev)
                              for r in rows)


def checkpoint_bytes(model, path) -> bytes:
    dl.checkpoint_save(model, path)
    with open(path, "rb") as f:
        return f.read()


class Workload:
    """Hooks a workload may leave empty."""

    name = ""

    def check_setup(self, ops: Ops) -> None:
        pass

    def finish(self, ops: Ops) -> None:
        pass


class TrainingWorkload(Workload):
    """Shared checks for workloads whose cells return a student and metrics."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def check(self, cell, run: Run, ops: Ops):
        ok = ops.check(finite_model(run.student) and finite_kl(run.rows),
                       f"{self.name} {cell}: non-finite logits or kl")
        return (run.rows[-1].kl_fwd, run.rows[-1].kl_rev) if ok else None

    def check_determinism(self, cell, first: Run, ops: Ops) -> None:
        again = self.run_cell(cell)
        a = checkpoint_bytes(first.student, os.path.join(self.workdir, "first.json"))
        b = checkpoint_bytes(again.student, os.path.join(self.workdir, "again.json"))
        ops.check(a == b, f"{self.name} {cell}: same-seed checkpoints differ")


OFFPOLICY_OBJECTIVES = ("sft", "fkld_token", "fkld_dense", "rkld_off", "jsd_off",
                        "hpd", "hpd_no_reinforce", "hpd_no_sample")


class OffpolicyGrid(TrainingWorkload):
    """Objective x seed grid of distill_offpolicy on bimodal_gap, oracle teacher."""

    name = "offpolicy_grid"

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        super().__init__(workdir)
        self.seeds = sub_seeds(seed, 1 if smoke else 2)
        self.steps = 5 if smoke else 150
        self.corpus_shape = (10, 16) if smoke else (200, 64)

    def setup(self) -> None:
        source = dl.build_source({"name": "bimodal_gap"})
        self.teacher = dl.OracleTeacher(source)
        self.corpora = [dl.sample_corpus(source, *self.corpus_shape,
                                         np.random.default_rng(s), seed=s)
                        for s in self.seeds]

    def cells(self):
        return [(tag, i) for i in range(len(self.seeds)) for tag in OFFPOLICY_OBJECTIVES]

    def run_cell(self, cell) -> Run:
        tag, i = cell
        cfg = dl.TrainConfig(objective=dl.ObjectiveKind(tag), steps=self.steps,
                             seed=self.seeds[i], lr=0.5, batch_size=32,
                             eval_every=self.steps)
        student = dl.TabularLM(order=1, vocab=dl.Vocab.default(6))
        student, rows = dl.distill_offpolicy(cfg, self.teacher, self.corpora[i], student)
        return Run(tokens=cfg.steps * cfg.batch_size, student=student, rows=rows)

    def finish(self, ops: Ops) -> None:
        """Matched-order dense forward KL reaches its fixed point (criterion 5)."""
        s = self.seeds[0]
        source = dl.build_source({"name": "random_dirichlet", "seed": s, "vocab_size": 8,
                                  "order": 1, "concentration": 3.0})
        corpus = dl.sample_corpus(source, 100, 64, np.random.default_rng(s), seed=s)
        steps = 400
        cfg = dl.TrainConfig(objective=dl.ObjectiveKind("fkld_dense"), steps=steps, seed=s,
                             lr=4.0, batch_size=32, eval_every=steps)
        student = dl.TabularLM(order=1, vocab=dl.Vocab.default(8))
        _, rows = dl.distill_offpolicy(cfg, dl.OracleTeacher(source), corpus, student)
        ops.check(rows[-1].kl_fwd < 1e-3,
                  f"fkld_dense fixed point not reached: kl_fwd {rows[-1].kl_fwd!r}")


OPD_MODES = (("per_token", False), ("trajectory", True))


class OpdRollout(TrainingWorkload):
    """distill_onpolicy_opd with opd_k1 on random_dirichlet (V=16, order 2) teachers."""

    name = "opd_rollout"

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        super().__init__(workdir)
        self.seeds = sub_seeds(seed, 1 if smoke else 2)
        self.steps = 2 if smoke else 10
        self.batch_size = 4 if smoke else 32
        self.horizon = 4 if smoke else 16

    def setup(self) -> None:
        self.teachers = [
            dl.OracleTeacher(dl.build_source({"name": "random_dirichlet", "seed": s,
                                              "vocab_size": 16, "order": 2}))
            for s in self.seeds
        ]

    def cells(self):
        return [(mode, i) for i in range(len(self.seeds)) for mode in OPD_MODES]

    def run_cell(self, cell) -> Run:
        (reward_mode, baseline), i = cell
        cfg = dl.TrainConfig(objective=dl.ObjectiveKind("opd_k1"), steps=self.steps,
                             seed=self.seeds[i], lr=0.1, batch_size=self.batch_size,
                             eval_every=self.steps, horizon=self.horizon,
                             opd_reward_mode=reward_mode, opd_baseline=baseline)
        student = dl.TabularLM(order=2, vocab=dl.Vocab.default(16))
        student, rows = dl.distill_onpolicy_opd(cfg, self.teachers[i], student)
        return Run(tokens=cfg.steps * cfg.batch_size * cfg.horizon,
                   student=student, rows=rows)


class CliPipeline(Workload):
    """Per seed: gen-source, gen-corpus, train-teacher (setup); distill, eval (run)."""

    name = "cli_pipeline"

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.workdir = workdir
        self.seeds = sub_seeds(seed, 1 if smoke else 2)
        corpus = (20, 16) if smoke else (200, 64)
        warmup = (5 if smoke else 100, 8 if smoke else 32)
        polish = (2 if smoke else 20, 4 if smoke else 8, 4 if smoke else 8)
        self.base = {
            "source": {"name": "bimodal_gap"},
            "corpus": {"num_seqs": corpus[0], "length": corpus[1]},
            "student_order": 1,
            "teacher": {"smoothing": 0.1},
            "tasks": {"num_tasks": 10 if smoke else 50, "cont_len": 2},
            "train": {"objective": "hpd", "lr": 0.5, "n_eval_seqs": 4 if smoke else 20,
                      "eval_len": 16},
            "stages": [
                {"name": "warmup", "objective": "hpd", "steps": warmup[0],
                 "batch_size": warmup[1], "eval_every": 10},
                {"name": "polish", "objective": "opd_k1", "steps": polish[0],
                 "batch_size": polish[1], "horizon": polish[2], "lr": 0.1,
                 "eval_every": 10},
            ],
        }
        self.tokens = warmup[0] * warmup[1] + polish[0] * polish[1] * polish[2]

    def _dir(self, i: int) -> str:
        return os.path.join(self.workdir, f"seed{i}")

    def _file(self, i: int, name: str) -> str:
        return os.path.join(self._dir(i), name)

    def _cli(self, i: int, command: str, *sets: str) -> int:
        argv = [command, "--config", self._file(i, "run.json")]
        for s in sets:
            argv += ["--set", s]
        with contextlib.redirect_stdout(io.StringIO()):
            return dl.cli.main(argv)

    def setup(self) -> None:
        self.codes = []
        for i, s in enumerate(self.seeds):
            os.makedirs(self._dir(i), exist_ok=True)
            with open(self._file(i, "run.json"), "w", encoding="utf-8") as f:
                json.dump(dict(self.base, seed=s, out_dir=self._dir(i)), f)
            source = "source_path=" + json.dumps(self._file(i, "source.json"))
            corpus = "corpus_path=" + json.dumps(self._file(i, "corpus.txt"))
            self.codes.append({
                "gen-source": self._cli(i, "gen-source"),
                "gen-corpus": self._cli(i, "gen-corpus", source),
                "train-teacher": self._cli(i, "train-teacher", source, corpus),
            })

    def check_setup(self, ops: Ops) -> None:
        for i, codes in enumerate(self.codes):
            for command, rc in codes.items():
                ops.check(rc == 0, f"cli seed{i} {command} returned {rc}")
            try:
                corpus = dl.corpus_read(self._file(i, "corpus.txt"))
                ok = len(corpus.sequences) == self.base["corpus"]["num_seqs"]
            except (ValueError, ArithmeticError, OSError):
                ok = False
            ops.check(ok, f"cli seed{i}: corpus.txt does not load back")
            ops.check(self._loads(self._file(i, "teacher.json")),
                      f"cli seed{i}: teacher.json does not load back")

    def _loads(self, path: str) -> bool:
        try:
            return finite_model(dl.checkpoint_load(path))
        except (ValueError, ArithmeticError, OSError):
            return False

    def cells(self):
        return list(range(len(self.seeds)))

    def run_cell(self, i) -> Run:
        source = "source_path=" + json.dumps(self._file(i, "source.json"))
        corpus = "corpus_path=" + json.dumps(self._file(i, "corpus.txt"))
        student = "init_checkpoint=" + json.dumps(self._file(i, "student.json"))
        codes = {"distill": self._cli(i, "distill", source, corpus)}
        codes["eval"] = self._cli(i, "eval", source, student)
        return Run(tokens=self.tokens, codes=codes)

    def check(self, i, run: Run, ops: Ops):
        for command, rc in run.codes.items():
            ops.check(rc == 0, f"cli seed{i} {command} returned {rc}")
        ops.check(self._loads(self._file(i, "student.json")),
                  f"cli seed{i}: student.json does not load back or is non-finite")
        try:
            kl = _csv_last_kl(self._file(i, "metrics_polish.csv"), 4)
            audit = _csv_last_kl(self._file(i, "audit.csv"), 0)
        except (OSError, ValueError, IndexError):
            kl = audit = (math.nan, math.nan)
        ok = ops.check(all(math.isfinite(x) for x in kl + audit),
                       f"cli seed{i}: metrics or audit kl missing or non-finite")
        return kl if ok else None

    def check_determinism(self, i, first: Run, ops: Ops) -> None:
        path = self._file(i, "student.json")
        with open(path, "rb") as f:
            first_bytes = f.read()
        self.run_cell(i)
        with open(path, "rb") as f:
            ops.check(f.read() == first_bytes, f"cli seed{i}: same-seed checkpoints differ")


def _csv_last_kl(path: str, col: int) -> tuple[float, float]:
    with open(path, encoding="utf-8") as f:
        line = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")][-1]
    parts = line.split(",")
    return float(parts[col]), float(parts[col + 1])


WORKLOADS = {w.name: w for w in (OffpolicyGrid, OpdRollout, CliPipeline)}
