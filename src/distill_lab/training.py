"""Teacher fitting, off-policy distillation, and on-policy distillation.

A teacher is a MarkovSource: a frozen table of exact conditionals, row i for
context id i (teacher.table), with an order and a vocabulary. It is the
ground-truth source (oracle mode) or the softmax of a fitted TabularLM.
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
from .evaluation import CompletionTasks, EvalPlan, check_pair
from .model import (
    GradAccumulator,
    TabularLM,
    Vocab,
    add_token_grads,
    check_token_support,
    context_ids,
    context_key,
    prefix_ids,
    sgd_step,
    suffix_ids,
    table_rows,
    walk,
)
from .numerics import CategoricalDist, cdf_draw, cdf_rows, entropy, softmax_rows
from .objectives import HPD_VARIANTS, ObjectiveKind, token_weights

METRICS_HEADER = (
    "step,objective,seed,train_entropy,kl_fwd,kl_rev,accuracy,mean_reward,wallclock_ms"
)

# ln of a zero count underflows to prob 0 through softmax at this floor
LOGIT_FLOOR = -1000.0

# the most entries one block of planned off-policy steps holds in its largest
# array, the accumulator's scatter index (V entries per token): 128 KiB of intp;
# a step larger than that is a block of its own
PLAN_ENTRIES = 2**14


def OracleTeacher(source: MarkovSource) -> MarkovSource:
    """The teacher of a source: the source itself. The benchmark's workloads still
    build their teachers through this name."""
    return source


def _offsets(corpus: Corpus, v: int) -> np.ndarray:
    """Each corpus position's index within its sequence, once every token id is
    checked: one outside a vocabulary of v is an InvalidInputError."""
    tokens, lengths = corpus.tokens, corpus.lengths
    if tokens.size and (tokens.min() < 0 or tokens.max() >= v):
        t = tokens[np.argmax((tokens < 0) | (tokens >= v))]
        raise InvalidInputError(f"corpus token id {t} is out of range for the vocabulary of {v}")
    return np.arange(tokens.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def train_teacher_mle(corpus: Corpus, order: int, lam: float) -> TabularLM:
    """Tabular MLE: logits are ln of add-lam-smoothed conditional frequencies.

    Only contexts that occur in the corpus get a row.
    """
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    if not np.isfinite(lam):
        raise InvalidInputError(f"smoothing must be finite, got {lam!r}")
    if lam < 0.0:
        raise InvalidInputError("smoothing must be >= 0")
    v = corpus.vocab_size
    table_rows(v, order)  # before anything that grows with V: a huge V fails here
    model = TabularLM(order=order, vocab=Vocab.default(v))
    tokens = corpus.tokens
    ids = context_ids(tokens, _offsets(corpus, v), order, model.vocab.bos_id, v)
    counts = np.bincount(ids * v + tokens, minlength=model.table.size).reshape(model.table.shape)
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
        if not np.isfinite(self.lr):
            raise ConfigError(f"lr must be finite, got {self.lr!r}")
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


def evaluate_divergences(plan: EvalPlan, pred: PredictiveTable) -> tuple[float, float]:
    """One reading: exact KL(p||q) and KL(q||p) of the student whose predictive table
    is pred, weighted by the contexts' occupancy over positions 0 .. eval_len - 1 of
    sequences drawn as the plan's eval_from says."""
    return plan.divergences(pred.probs, pred.logprobs)


class PredictiveTable:
    """The student's softmax at every context, row i for context id i.

    probs and logprobs are numerics.softmax_rows(student.table), bit for bit
    softmax(student.table) without its checks; cdf holds each row's
    numerics.cdf_rows when the objective samples from the student, else None.
    refresh(ids) recomputes the rows an SGD step moved the same way, so every
    row stays bit for bit the softmax of its logit row. Neither checks the
    logits: they are the student's own, and every writer of a TabularLM table
    rejects a non-finite logit (sgd_step raises NumericOverflowError before it
    writes one).
    """

    def __init__(self, student: TabularLM, with_cdf: bool):
        self.student = student
        # the kernel's arrays are new and writable: refresh overwrites rows in place
        self.probs, self.logprobs = softmax_rows(student.table)
        self.cdf = cdf_rows(self.probs) if with_cdf else None

    def rows(self, ids) -> CategoricalDist:
        """The student's predictive batch at the context ids: row j for ids[j]."""
        return CategoricalDist(probs=self.probs[ids], logprobs=self.logprobs[ids])

    def refresh(self, ids) -> None:
        probs, logprobs = softmax_rows(self.student.table.take(ids, axis=0))
        self.probs[ids], self.logprobs[ids] = probs, logprobs
        if self.cdf is not None:
            self.cdf[ids] = cdf_rows(probs)


def _train_loop(cfg: TrainConfig, teacher: MarkovSource, student: TabularLM, eval_tasks,
                minibatch) -> tuple[TabularLM, list[MetricsRow]]:
    """SGD on a copy of student; minibatch(student, pred, acc, rng) accumulates one batch.

    pred is the copy's PredictiveTable, with CDF rows for the objectives that
    sample from the student (OPD and HPD). It is built once per run; after
    each step exactly the rows sgd_step reports moved are refreshed, and a
    step that moved none refreshes nothing. minibatch returns the batch's
    student context ids and its rewards (None off-policy). The mean entropy
    of the student's rows at those ids is computed only for a metrics row,
    from pred before the step moves them. Evaluation is planned before step
    1 (EvalPlan, CompletionTasks), so invalid tasks raise then; each reading
    reads pred and the student's logits.
    """
    plan = EvalPlan(teacher, student, cfg.eval_len, cfg.eval_from)
    tasks = CompletionTasks(eval_tasks, student) if eval_tasks else None
    rng = np.random.default_rng(cfg.seed)
    student = student.copy()
    acc = GradAccumulator(student.order, student.vocab.size)
    kind = cfg.objective
    pred = PredictiveTable(student, with_cdf=kind.on_policy or kind.tag in HPD_VARIANTS)
    rows: list[MetricsRow] = []

    for step in range(1, cfg.steps + 1):
        ids, batch_rewards = minibatch(student, pred, acc, rng)
        log = step % cfg.eval_every == 0 or step == cfg.steps
        if log:
            train_entropy = float(np.mean(entropy(pred.rows(ids))))
        moved = sgd_step(student, acc, cfg.lr)
        if moved.size:
            pred.refresh(moved)

        if log:
            kl_fwd, kl_rev = evaluate_divergences(plan, pred)
            accuracy = tasks.accuracy(student.table) if tasks else None
            rows.append(
                MetricsRow(
                    step=step,
                    objective=cfg.objective.tag,
                    seed=cfg.seed,
                    train_entropy=train_entropy,
                    kl_fwd=kl_fwd,
                    kl_rev=kl_rev,
                    accuracy=accuracy,
                    mean_reward=(None if batch_rewards is None
                                 else float(np.mean(batch_rewards))),
                )
            )
    return student, rows


def draw_positions(rng, steps: int, n: int, starts: np.ndarray, lengths: np.ndarray,
                   equal: bool, k: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """steps off-policy steps' (steps, n) corpus positions and, for k > 0, (steps, n * k)
    uniforms, drawn from rng as step after step draws them.

    A step draws its n sequences si with integers(n_seqs, size=n), their offsets
    with integers(0, lengths[si]), then HPD's n * k uniforms with random(n * k);
    a position is starts[si] + offset. Generator.integers with an array of bounds
    draws what consecutive calls with those bounds draw, and leaves the generator
    where they leave it. So on a corpus of equal lengths (equal) a step's two
    integer calls are one, and with no uniforms between them, so are all steps'.
    """
    if equal:
        bounds = np.repeat([lengths.size, lengths[0]], n)
        if not k:
            si, off = rng.integers(0, np.tile(bounds, steps)).reshape(steps, 2, n).swapaxes(0, 1)
            return starts[si] + off, None
    pos = np.empty((steps, n), dtype=np.intp)
    uniforms = np.empty((steps, n * k)) if k else None
    for s in range(steps):
        if equal:
            si, off = rng.integers(0, bounds).reshape(2, n)
        else:
            si = rng.integers(lengths.size, size=n)
            off = rng.integers(0, lengths[si])
        pos[s] = starts[si] + off
        if k:
            uniforms[s] = rng.random(n * k)
    return pos, uniforms


def distill_offpolicy(
    cfg: TrainConfig,
    teacher: MarkovSource,
    corpus: Corpus,
    student: TabularLM,
    eval_tasks=None,
) -> tuple[TabularLM, list[MetricsRow]]:
    """Minibatch reweighted-likelihood distillation on a fixed corpus.

    The corpus's context ids are computed once per call, and with them each
    position's flat student index s_id * V + expert and the frozen teacher's
    p and ln p at the expert. Steps are planned a block at a time (at most
    PLAN_ENTRIES entries): the block's corpus positions and HPD uniforms are
    drawn from the run's generator as step after step would draw them, and
    everything that does not depend on the student is gathered for the whole
    block at once. A step's tokens are its n expert tokens, or for HPD an
    (n * k, 2) array: row b * k + i is draw i of position b, column 0 the
    expert and column 1 a token sampled from the cached CDF rows
    (k = hpd_samples). Then come 1-d gathers of q (and ln q, for the rules
    that read it) at those tokens, one token_weights call and one ordered
    accumulate through the unchecked kernel model.add_token_grads, with the
    block's scatter index (and, but for HPD, one-hot positions). fkld_dense
    adds its summed direction p - q instead.
    """
    kind = cfg.objective
    if kind.on_policy:
        raise ConfigError(f"objective {kind.tag!r} is on-policy; use distill_onpolicy_opd")
    if kind.tag == "seqkd" and corpus.provenance != "teacher_generated":
        raise ConfigError("seqkd expects a teacher_generated corpus")
    tokens, lengths = corpus.tokens, corpus.lengths
    if not lengths.size:
        raise InvalidInputError("corpus is empty")
    v = student.vocab.size
    offsets = _offsets(corpus, v)
    if not lengths.all():
        raise InvalidInputError(f"corpus sequence {int(np.argmin(lengths))} is empty")
    check_pair(teacher, student)
    p_table = teacher.table
    s_ids = context_ids(tokens, offsets, student.order, student.vocab.bos_id, v)
    t_ids = context_ids(tokens, offsets, teacher.order, teacher.vocab.bos_id, v)
    starts, n = np.cumsum(lengths) - lengths, cfg.batch_size
    tag = kind.tag
    hpd = tag in HPD_VARIANTS
    if not hpd and tag != "fkld_dense":
        # every position's expert as a flat index into a student table, and the
        # frozen teacher's p and ln p there: a block reads them by 1-d gathers
        s_at = s_ids * v + tokens
        p_at, lp_at = p_table.probs[t_ids, tokens], p_table.logprobs[t_ids, tokens]
    k, cols = (cfg.hpd_samples, 2) if hpd else (1, 1)
    # each draw updates the expert token, then the sampled one, and the position
    # counts once, at its first draw's expert token
    draw = np.repeat(np.arange(n), k)
    counts = np.zeros((n, k, cols), dtype=np.int64)
    counts[:, :1, 0] = 1
    counts = counts.ravel()
    equal = bool((lengths == lengths[0]).all())
    per_block = max(1, PLAN_ENTRIES // (n * k * cols * v))

    def plan(rng, acc):
        """Every step's student-independent arrays, in step order, a block at a time."""
        for first in range(0, cfg.steps, per_block):
            pos, uniforms = draw_positions(rng, min(per_block, cfg.steps - first), n, starts,
                                           lengths, equal, k if hpd else 0)
            ids = s_ids[pos]
            if tag == "fkld_dense":
                yield from zip(ids, t_ids[pos], acc.scatter_index(ids))
            elif hpd:
                # one row per draw; at k = 1 a draw is its position
                at, rows = (pos, ids) if k == 1 else (pos[:, draw], ids[:, draw])
                tok = np.zeros(rows.shape + (2,), dtype=np.intp)
                tok[..., 0] = tokens[at]
                flat = np.repeat(ids, k * cols, axis=1)
                yield from zip(ids, rows, uniforms, tok, rows * v, t_ids[at] * v, flat,
                               acc.scatter_index(flat))
            else:
                tok = tokens[pos]
                yield from zip(ids, tok, s_at[pos], p_at[pos], lp_at[pos],
                               np.arange(0, n * v, v) + tok, acc.scatter_index(ids))

    def dense_step(pred, acc, ids, t_rows, index):
        # sum over v of p_v * (onehot(v) - q) collapses to p - q
        dense = p_table.probs.take(t_rows, axis=0) - pred.probs.take(ids, axis=0)
        acc.add_rows(ids, dense, count=n, index=index)

    def hpd_step(pred, acc, ids, rows, uniforms, tok, s_base, t_base, flat, index):
        # column 0 of tok holds the expert; column 1 takes the token sampled from q
        tok[:, 1] = cdf_draw(pred.cdf.take(rows, axis=0), uniforms)
        s_flat, t_flat = s_base[:, None] + tok, t_base[:, None] + tok
        p, lp = p_table.probs.take(t_flat), p_table.logprobs.take(t_flat)
        w = token_weights(kind, p, lp, pred.probs.take(s_flat), pred.logprobs.take(s_flat),
                          tok)
        add_token_grads(acc, flat, tok.ravel(), (w if k == 1 else w / k).ravel(), counts,
                        pred.probs.take(flat, axis=0), index=index)

    def token_step(pred, acc, ids, tok, s_flat, p, lp, onehot, index):
        q = pred.probs.take(s_flat)
        if tag in ("sft", "seqkd", "fkld_token"):
            # no rule of these reads q or ln q, so the loop checks q[expert] > 0 itself
            check_token_support(q, ids, tok, student.order, v)
            lq = None
        else:
            lq = pred.logprobs.take(s_flat)
        w = token_weights(kind, p, lp, q, lq, tok)
        add_token_grads(acc, ids, tok, w, counts, pred.probs.take(ids, axis=0), onehot, index)

    step = dense_step if tag == "fkld_dense" else hpd_step if hpd else token_step
    planned = None

    def minibatch(student, pred, acc, rng):
        # the kernel rests on checks made where its values entered: _offsets
        # range-checks the expert tokens, cdf_draw's tokens are < V with q > 0,
        # and every rule that takes a log checks q at its tokens
        nonlocal planned
        if planned is None:
            planned = plan(rng, acc)
        ids, *arrays = next(planned)
        step(pred, acc, ids, *arrays)
        return ids, None

    return _train_loop(cfg, teacher, student, eval_tasks, minibatch)


def distill_onpolicy_opd(
    cfg: TrainConfig,
    teacher: MarkovSource,
    student: TabularLM,
    prompts=None,
    eval_tasks=None,
) -> tuple[TabularLM, list[MetricsRow]]:
    """Score-function on-policy distillation with per-token K1 rewards.

    A minibatch's rollouts are one model.walk at order max(k, m) of the
    student's k and the teacher's m: each step is one gather of the student's
    cached CDF rows at every rollout's context, then one inverse-CDF draw.
    Both models' context ids are suffix_ids of the walk's ids, so the teacher
    and the student must pad with one BOS id. Only the sampled entries of the
    teacher and student tables are read: for the support check, and for the
    rewards, token_weights' on-policy rule ln p - ln q.
    """
    kind = cfg.objective
    if not kind.on_policy:
        raise ConfigError(f"objective {kind.tag!r} is off-policy; use distill_offpolicy")
    reward_mode = "per_token" if kind.tag == "rkld_on" else cfg.opd_reward_mode
    if cfg.horizon < 1:
        raise ConfigError("horizon must be >= 1")
    prompts = [list(p) for p in prompts] if prompts else [[]]
    v, k = student.vocab.size, student.order
    for tok in itertools.chain.from_iterable(prompts):
        if not 0 <= tok < v:
            raise InvalidInputError(f"prompt token id {tok} is out of range for the "
                                    f"student's vocabulary of {v}")
    check_pair(teacher, student)
    p_table = teacher.table
    # one walk at the larger order carries both models' contexts: the student's
    # and the teacher's ids are the last k and m tokens of the walk's ids
    m = teacher.order
    walk_order = max(k, m)

    def suffix(ids, order):
        return ids if order == walk_order else suffix_ids(ids, order, v)

    start = prefix_ids(prompts, walk_order, student.vocab)
    n, h = cfg.batch_size, cfg.horizon
    unit_counts = np.ones(n * h, dtype=np.int64)

    def minibatch(student, pred, acc, rng):
        # every rollout's prompt, then its uniforms, row b for rollout b; one
        # prompt consumes no state, so u is what rollout-by-rollout draws give
        pick = rng.integers(len(prompts), size=n)
        u = rng.random((n, h))
        w_ids, tokens = walk(start[pick], h, walk_order, v,
                             lambda ids, t: cdf_draw(pred.cdf.take(suffix(ids, k), axis=0),
                                                    u[:, t]))
        # rollout-major from here on: position t of rollout b is entry b * h + t
        w_ids, tokens = w_ids.ravel(), tokens.ravel()
        s_ids, t_ids = suffix(w_ids, k), suffix(w_ids, m)
        # each sampled token as a flat index into the student's and the teacher's table
        s_flat, t_flat = s_ids * v + tokens, t_ids * v + tokens
        # the violation raised is the first in rollout order, as a one-rollout sampler meets it
        p = p_table.probs.take(t_flat)
        outside = p <= 0.0
        if outside.any():
            j = int(np.argmax(outside))
            raise DivergenceInfiniteError(f"student sampled token {tokens[j]} outside teacher "
                                          f"support at {context_key(s_ids[j], k, v)}")
        rewards = token_weights(kind, p, p_table.logprobs.take(t_flat), pred.probs.take(s_flat),
                                pred.logprobs.take(s_flat), tokens)
        if reward_mode == "trajectory":
            # one in-order left fold per rollout: np.sum need not add in order, and the
            # builtin sum is compensated since Python 3.12
            coeffs = np.repeat(np.cumsum(rewards.reshape(n, h), axis=1)[:, -1], h)
        else:
            coeffs = rewards
        baseline = float(np.mean(rewards)) if cfg.opd_baseline else 0.0
        # cdf_draw's tokens are < V with q > 0, and the support check above makes
        # every reward, so every coefficient, finite
        add_token_grads(acc, s_ids, tokens, coeffs - baseline, unit_counts,
                        pred.probs.take(s_ids, axis=0))
        return s_ids, rewards

    return _train_loop(cfg, teacher, student, eval_tasks, minibatch)


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
    teacher: MarkovSource,
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
