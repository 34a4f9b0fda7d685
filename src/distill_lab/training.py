"""Teacher fitting, off-policy distillation, and on-policy distillation.

A teacher provider exposes exact conditionals given a raw token prefix:
either the ground-truth MarkovSource (oracle mode) or a fitted TabularLM.
All loops are deterministic given the config seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .data import Corpus, MarkovSource
from .errors import ConfigError, DivergenceInfiniteError, InvalidInputError, PipelineError
from .evaluation import completion_accuracy, context_occupancy, occupancy_divergences
from .model import (
    GradAccumulator,
    TabularLM,
    Vocab,
    accumulate_token_grads,
    context_ids,
    context_key,
    pad_context,
    prefix_id,
    sgd_step,
)
from .numerics import CategoricalDist, cdf_draw, cdf_rows, entropy, softmax
from .objectives import (
    HPD_VARIANTS,
    ObjectiveKind,
    hpd_weights,
    weight_fkld_token,
    weight_jsd_off,
    weight_rkld_off,
)

METRICS_HEADER = (
    "step,objective,seed,train_entropy,kl_fwd,kl_rev,accuracy,mean_reward,wallclock_ms"
)

# ln of a zero count underflows to prob 0 through softmax at this floor
LOGIT_FLOOR = -1000.0


class OracleTeacher:
    """Exact conditionals straight from a MarkovSource."""

    def __init__(self, source: MarkovSource):
        self.source = source
        self.order = source.order
        self.vocab = source.vocab

    def dist(self, prefix) -> CategoricalDist:
        return self.source.conditional_for_prefix(prefix)

    def dists(self) -> CategoricalDist:
        """Every context's conditional: row i is context id i's."""
        return self.source.table


class ModelTeacher:
    """Conditionals from a fitted TabularLM.

    The teacher reads its model as it was at construction: one softmax of the
    whole table, whose rows both dist and dists return.
    """

    def __init__(self, model: TabularLM):
        self.model = model
        self.order = model.order
        self.vocab = model.vocab
        self._table = softmax(model.table)

    def dist(self, prefix) -> CategoricalDist:
        return self._table.rows(prefix_id(prefix, self.order, self.vocab))

    def dists(self) -> CategoricalDist:
        """Every context's conditional: row i is context id i's."""
        return self._table


def _flatten(corpus: Corpus, v: int):
    """(tokens, offsets, lengths, starts) of the corpus's sequences laid end to end.

    offsets[j] is token j's index within its sequence; lengths and starts are
    intp arrays. A token id outside a vocabulary of v is an InvalidInputError.
    """
    lengths = np.fromiter(map(len, corpus.sequences), dtype=np.intp,
                          count=len(corpus.sequences))
    starts = np.cumsum(lengths) - lengths
    tokens = np.fromiter(itertools.chain.from_iterable(corpus.sequences), dtype=np.int64,
                         count=int(lengths.sum()))
    outside = (tokens < 0) | (tokens >= v)
    if outside.any():
        raise InvalidInputError(f"corpus token id {tokens[np.argmax(outside)]} is out of "
                                f"range for the vocabulary of {v}")
    offsets = np.arange(tokens.size) - np.repeat(starts, lengths)
    return tokens, offsets, lengths, starts


def train_teacher_mle(corpus: Corpus, order: int, lam: float) -> TabularLM:
    """Tabular MLE: logits are ln of add-lam-smoothed conditional frequencies.

    Only contexts that occur in the corpus get a row.
    """
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    if lam < 0.0:
        raise InvalidInputError("smoothing must be >= 0")
    v = corpus.vocab_size
    model = TabularLM(order=order, vocab=Vocab.default(v))
    tokens, offsets, _, _ = _flatten(corpus, v)
    counts = np.zeros(model.table.shape, dtype=np.int64)
    np.add.at(counts, (context_ids(tokens, offsets, order, model.vocab.bos_id, v), tokens), 1)
    seen = counts.any(axis=1)
    row = counts[seen].astype(np.float64)
    probs = (row + lam) / (row.sum(axis=1, keepdims=True) + lam * v)
    with np.errstate(divide="ignore"):
        logits = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), LOGIT_FLOOR)
    model.table[seen] = logits
    model.touched[seen] = True
    return model


@dataclass(frozen=True)
class TrainConfig:
    objective: ObjectiveKind
    steps: int
    seed: int
    lr: float = 0.1
    batch_size: int = 32
    eval_every: int = 100
    opd_reward_mode: str = "per_token"
    hpd_samples: int = 1
    opd_baseline: bool = False
    horizon: int = 16
    eval_len: int = 16
    eval_from: str = "teacher"

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr <= 0.0:
            raise ConfigError("lr must be > 0")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.opd_reward_mode not in ("per_token", "trajectory"):
            raise ConfigError(f"unknown opd_reward_mode {self.opd_reward_mode!r}")
        if self.eval_len < 1:
            raise ConfigError("eval_len must be >= 1")
        if self.eval_from not in ("teacher", "student"):
            raise ConfigError(f"unknown eval_from {self.eval_from!r}")
        if self.hpd_samples < 1:
            raise ConfigError("hpd_samples must be >= 1")


@dataclass
class MetricsRow:
    step: int
    objective: str
    seed: int
    train_entropy: float
    kl_fwd: float
    kl_rev: float
    accuracy: float | None = None
    mean_reward: float | None = None
    wallclock_ms: float | None = None

    def to_csv_line(self) -> str:
        def fmt(x):
            return "" if x is None else repr(float(x))

        return ",".join(
            [
                str(self.step),
                self.objective,
                str(self.seed),
                fmt(self.train_entropy),
                fmt(self.kl_fwd),
                fmt(self.kl_rev),
                fmt(self.accuracy),
                fmt(self.mean_reward),
                fmt(self.wallclock_ms),
            ]
        )


def evaluate_divergences(student: TabularLM, teacher, cfg: TrainConfig) -> tuple[float, float]:
    """Exact KL(p||q) and KL(q||p), weighted by the contexts' occupancy over
    positions 0 .. cfg.eval_len - 1 of sequences drawn as cfg.eval_from says."""
    occ = context_occupancy(student, teacher, cfg.eval_len, cfg.eval_from)
    return occupancy_divergences(student, teacher, occ)


class PredictiveTable:
    """The student's softmax at every context, row i for context id i.

    probs and logprobs are one checked softmax(student.table); cdf holds each
    row's numerics.cdf_rows when the objective samples from the student, else
    None. refresh(ids) recomputes rows an SGD step moved, so every row stays
    bit for bit what predict_batch would give.
    """

    def __init__(self, student: TabularLM, with_cdf: bool):
        self.student = student
        d = softmax(student.table)
        # writable copies: refresh overwrites rows in place
        self.probs, self.logprobs = np.array(d.probs), np.array(d.logprobs)
        self.cdf = cdf_rows(d.probs) if with_cdf else None

    def rows(self, ids) -> CategoricalDist:
        """The student's predictive batch at the context ids: row j for ids[j]."""
        return CategoricalDist(probs=self.probs[ids], logprobs=self.logprobs[ids])

    def refresh(self, ids) -> None:
        d = softmax(self.student.table[ids])
        self.probs[ids], self.logprobs[ids] = d.probs, d.logprobs
        if self.cdf is not None:
            self.cdf[ids] = cdf_rows(d.probs)


def _train_loop(cfg: TrainConfig, teacher, student: TabularLM, eval_tasks,
                minibatch) -> tuple[TabularLM, list[MetricsRow]]:
    """SGD on a copy of student; minibatch(student, pred, acc, rng) accumulates one batch.

    pred is the copy's PredictiveTable, with CDF rows for the objectives that
    sample from the student (OPD and HPD). It is built once per run; after
    each step exactly the rows sgd_step reports moved are refreshed, and a
    step that moved none refreshes nothing. minibatch returns the batch's
    student rows q and its rewards (None off-policy); q's mean entropy is
    computed only for a metrics row.
    """
    rng = np.random.default_rng(cfg.seed)
    student = student.copy()
    acc = GradAccumulator(student.order, student.vocab.size)
    kind = cfg.objective
    pred = PredictiveTable(student, with_cdf=kind.on_policy or kind.tag in HPD_VARIANTS)
    rows: list[MetricsRow] = []

    for step in range(1, cfg.steps + 1):
        q, batch_rewards = minibatch(student, pred, acc, rng)
        moved = sgd_step(student, acc, cfg.lr)
        if moved.size:
            pred.refresh(moved)

        if step % cfg.eval_every == 0 or step == cfg.steps:
            kl_fwd, kl_rev = evaluate_divergences(student, teacher, cfg)
            accuracy = completion_accuracy(student, eval_tasks) if eval_tasks else None
            rows.append(
                MetricsRow(
                    step=step,
                    objective=cfg.objective.tag,
                    seed=cfg.seed,
                    train_entropy=float(np.mean(entropy(q))),
                    kl_fwd=kl_fwd,
                    kl_rev=kl_rev,
                    accuracy=accuracy,
                    mean_reward=(None if batch_rewards is None
                                 else float(np.mean(batch_rewards))),
                )
            )
    return student, rows


def distill_offpolicy(
    cfg: TrainConfig,
    teacher,
    corpus: Corpus,
    student: TabularLM,
    eval_tasks=None,
) -> tuple[TabularLM, list[MetricsRow]]:
    """Minibatch reweighted-likelihood distillation on a fixed corpus.

    The corpus's context ids are computed once per call; each minibatch is one
    gather of teacher rows and of the student's cached predictive rows, one
    weight-rule call and one ordered accumulate. HPD samples its tokens from
    the cached CDF rows.
    """
    kind = cfg.objective
    if kind.on_policy:
        raise ConfigError(f"objective {kind.tag!r} is on-policy; use distill_onpolicy_opd")
    if kind.tag == "seqkd" and corpus.provenance != "teacher_generated":
        raise ConfigError("seqkd expects a teacher_generated corpus")
    if not corpus.sequences:
        raise InvalidInputError("corpus is empty")
    v = student.vocab.size
    tokens, offsets, lengths, starts = _flatten(corpus, v)
    if not lengths.all():
        raise InvalidInputError(f"corpus sequence {int(np.argmin(lengths))} is empty")
    p_table = _teacher_table(teacher, v)
    s_ids = context_ids(tokens, offsets, student.order, student.vocab.bos_id, v)
    t_ids = context_ids(tokens, offsets, teacher.order, teacher.vocab.bos_id, v)
    n_seqs, n = len(lengths), cfg.batch_size
    tag = kind.tag
    k = cfg.hpd_samples if tag in HPD_VARIANTS else 0
    unit_weights, unit_counts = np.ones(n), np.ones(n, dtype=np.int64)
    # draw i of position b is entry b * k + i; each draw updates the expert
    # token, then the sampled one, and the position counts once
    draw, pair = np.repeat(np.arange(n), k), np.repeat(np.arange(n * k), 2)
    counts = np.zeros((n, k, 2), dtype=np.int64)
    counts[:, :1, 0] = 1
    counts = counts.ravel()

    def minibatch(student, pred, acc, rng):
        # one array draw per quantity: the sequences, their offsets, the HPD uniforms
        si = rng.integers(n_seqs, size=n)
        pos = starts[si] + rng.integers(0, lengths[si])
        uniforms = rng.random(n * k)
        ids = s_ids[pos]
        q = pred.rows(ids)
        p = p_table.rows(t_ids[pos])
        expert = tokens[pos]

        if tag == "fkld_dense":
            # sum over v of p_v * (onehot(v) - q) collapses to p - q
            acc.add_rows(ids, p.probs - q.probs, count=n)
        elif tag in HPD_VARIANTS:
            # sampled ~ q by inverse CDF; the position's update is the mean over its draws
            qd, expert_d = q.rows(draw), expert[draw]
            hw = hpd_weights(p.rows(draw), qd, expert_d,
                             cdf_draw(pred.cdf[ids[draw]], uniforms), variant=tag)
            accumulate_token_grads(
                acc, np.repeat(ids, 2 * k),
                np.stack([expert_d, hw.sampled_token], axis=1).ravel(),
                np.stack([hw.w_star / k, hw.w_sampled / k], axis=1).ravel(),
                counts, qd.rows(pair))
        else:
            if tag in ("sft", "seqkd"):
                w = unit_weights
            elif tag == "fkld_token":
                w = weight_fkld_token(p, expert)
            elif tag == "rkld_off":
                w = weight_rkld_off(p, q, expert, sign_fidelity=kind.sign_fidelity)
            else:
                w = weight_jsd_off(p, q, expert, beta=kind.beta,
                                   sign_fidelity=kind.sign_fidelity)
            accumulate_token_grads(acc, ids, expert, w, unit_counts, q)
        return q, None

    return _train_loop(cfg, teacher, student, eval_tasks, minibatch)


def distill_onpolicy_opd(
    cfg: TrainConfig,
    teacher,
    student: TabularLM,
    prompts=None,
    eval_tasks=None,
) -> tuple[TabularLM, list[MetricsRow]]:
    """Score-function on-policy distillation with per-token K1 rewards.

    A minibatch's rollouts advance in lockstep, one position per step: one
    gather of the student's cached CDF rows at every rollout's context, then
    one inverse-CDF draw. Only the student's context ids are carried along.
    The teacher cannot steer the rollouts, so its context ids are computed
    after them, and only the sampled entries of the teacher and student
    tables are read for the support check and the rewards.
    """
    kind = cfg.objective
    if not kind.on_policy:
        raise ConfigError(f"objective {kind.tag!r} is off-policy; use distill_offpolicy")
    reward_mode = "per_token" if kind.tag == "rkld_on" else cfg.opd_reward_mode
    if cfg.horizon < 1:
        raise ConfigError("horizon must be >= 1")
    prompts = [list(p) for p in prompts] if prompts else [[]]
    v, k = student.vocab.size, student.order
    for prompt in prompts:
        for tok in prompt:
            if not 0 <= tok < v:
                raise InvalidInputError(f"prompt token id {tok} is out of range for the "
                                        f"student's vocabulary of {v}")
    p_table = _teacher_table(teacher, v)
    s_start = np.array([prefix_id(p, k, student.vocab) for p in prompts], dtype=np.intp)
    # each prompt's teacher context as its base-V digits, oldest first
    t_start = np.array([pad_context(p, teacher.order, teacher.vocab.bos_id) for p in prompts],
                       dtype=np.intp).reshape(len(prompts), teacher.order)
    n, h = cfg.batch_size, cfg.horizon
    # context id i followed by token t is shifted[i] + t, as (i * v + t) % v**k
    shifted = np.arange(v ** k) * v % v ** k
    unit_counts = np.ones(n * h, dtype=np.int64)

    def minibatch(student, pred, acc, rng):
        # every rollout's prompt, then its uniforms, row b for rollout b; one
        # prompt consumes no state, so u is what rollout-by-rollout draws give
        pick = rng.integers(len(prompts), size=n)
        u = rng.random((n, h))
        s_ids, tokens = np.empty((n, h), dtype=np.intp), np.empty((n, h), dtype=np.intp)
        s_id = s_start[pick]
        for t in range(h):  # every rollout advances one position
            s_ids[:, t] = s_id
            tokens[:, t] = tok = cdf_draw(pred.cdf[s_id], u[:, t])
            s_id = shifted[s_id] + tok
        # position t's teacher context is digits t .. t + order - 1 of prompt + tokens
        digits = np.concatenate([t_start[pick], tokens], axis=1)
        t_ids = np.zeros((n, h), dtype=np.intp)
        for j in range(teacher.order):
            t_ids = t_ids * v + digits[:, j:j + h]
        # rollout-major from here on: position t of rollout b is entry b * h + t
        s_ids, t_ids, tokens = s_ids.ravel(), t_ids.ravel(), tokens.ravel()
        # the violation raised is the first in rollout order, as a one-rollout sampler meets it
        outside = p_table.probs[t_ids, tokens] <= 0.0
        if outside.any():
            j = int(np.argmax(outside))
            raise DivergenceInfiniteError(f"student sampled token {tokens[j]} outside teacher "
                                          f"support at {context_key(s_ids[j], k, v)}")
        rewards = p_table.logprobs[t_ids, tokens] - pred.logprobs[s_ids, tokens]
        if reward_mode == "trajectory":
            # the builtin sum adds a rollout's rewards in order, as np.sum need not
            coeffs = np.repeat([sum(r) for r in rewards.reshape(n, h).tolist()], h)
        else:
            coeffs = rewards
        baseline = float(np.mean(rewards)) if cfg.opd_baseline else 0.0
        q = pred.rows(s_ids)
        accumulate_token_grads(acc, s_ids, tokens, coeffs - baseline, unit_counts, q)
        return q, rewards

    return _train_loop(cfg, teacher, student, eval_tasks, minibatch)


def _teacher_table(teacher, v: int) -> CategoricalDist:
    """The teacher's rows for every context, checked against a student vocabulary of v."""
    p_table = teacher.dists()
    if p_table.probs.shape[1] != v:
        raise InvalidInputError(f"teacher vocabulary size {p_table.probs.shape[1]} != "
                                f"student vocabulary size {v}")
    return p_table


def metrics_write(rows, path, meta: dict | None = None) -> None:
    """Write rows under the fixed CSV header, with a '#' JSON meta line."""
    with open(path, "w", encoding="utf-8") as f:
        if meta is not None:
            f.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        f.write(METRICS_HEADER + "\n")
        for row in rows:
            f.write(row.to_csv_line() + "\n")


@dataclass(frozen=True)
class Stage:
    name: str
    cfg: TrainConfig


def run_experiment(
    stages: list[Stage],
    teacher,
    student: TabularLM,
    corpus: Corpus | None = None,
    prompts=None,
    eval_tasks=None,
    out_dir=None,
    meta: dict | None = None,
) -> tuple[TabularLM, dict[str, list[MetricsRow]]]:
    """Run stages sequentially, threading the student; one CSV per stage.

    Step numbering is continuous across stages.
    """
    if not stages:
        raise PipelineError("experiment needs at least one stage")
    all_rows: dict[str, list[MetricsRow]] = {}
    offset = 0
    for stage in stages:
        cfg = stage.cfg
        if cfg.objective.on_policy:
            student, rows = distill_onpolicy_opd(cfg, teacher, student,
                                                 prompts=prompts, eval_tasks=eval_tasks)
        else:
            if corpus is None:
                raise PipelineError(f"stage {stage.name!r} needs a corpus")
            student, rows = distill_offpolicy(cfg, teacher, corpus, student,
                                              eval_tasks=eval_tasks)
        rows = [dataclasses.replace(r, step=r.step + offset) for r in rows]
        offset += cfg.steps
        all_rows[stage.name] = rows
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            stage_meta = dict(meta or {})
            stage_meta["stage"] = stage.name
            metrics_write(rows, os.path.join(out_dir, f"metrics_{stage.name}.csv"),
                          meta=stage_meta)
    return student, all_rows
