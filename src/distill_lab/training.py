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
from dataclasses import dataclass
from functools import cache
from typing import Literal, get_args

import numpy as np

from .data import Corpus, MarkovSource
from .errors import (ConfigError, DivergenceInfiniteError, InvalidInputError, PipelineError,
                     check_field_types, field_types)
from .evaluation import CompletionTasks, EvalFrom, EvalPlan, check_pair
from .model import (
    TabularLM,
    Vocab,
    check_token_support,
    context_key,
    prefix_ids,
    rows_at,
    sgd_step,
    suffix_ids,
    table_rows,
    token_step,
    walk,
)
from .numerics import CategoricalDist, cdf_draw, cdf_rows, entropy, log_probs, softmax_probs
from .objectives import ObjectiveKind, token_weights

# ln of a zero count underflows to prob 0 through softmax at this floor
LOGIT_FLOOR = -1000.0

# the most tokens one block of planned off-policy steps holds, each one entry of
# its per-token arrays (128 KiB of intp each); a step larger than that is a
# block of its own
PLAN_ENTRIES = 2**14


def OracleTeacher(source: MarkovSource) -> MarkovSource:
    """The teacher of a source: the source itself. The benchmark's workloads still
    build their teachers through this name."""
    return source


def train_teacher_mle(corpus: Corpus, order: int, lam: float) -> TabularLM:
    """Tabular MLE: logits are ln of add-lam-smoothed conditional frequencies.

    Only contexts that occur in the corpus get a row. The context ids are the
    corpus's own (Corpus.context_ids), computed once per corpus and order.
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
    ids = corpus.context_ids(order, model.vocab.bos_id, v)
    counts = np.bincount(ids * v + corpus.tokens, minlength=model.table.size)
    counts = counts.reshape(model.table.shape)
    seen = counts.any(axis=1)
    row = counts[seen].astype(np.float64)
    probs = (row + lam) / (row.sum(axis=1, keepdims=True) + lam * v)
    model.table[seen] = np.where(probs > 0.0, log_probs(probs), LOGIT_FLOOR)
    return model


# how on-policy rewards weigh a trajectory's tokens
OpdRewardMode = Literal["per_token", "trajectory"]


@dataclass(frozen=True, kw_only=True)
class TrainConfig:
    """A run's settings. With ObjectiveKind's, its fields but seed are the CLI's train
    keys, each key's type, default and allowed values stated once, here.

    Every field is checked against its annotation (errors.check_field_types)
    before its range.
    """

    objective: ObjectiveKind
    steps: int = 1000
    seed: int
    lr: float = 0.1
    batch_size: int = 32
    eval_every: int = 100
    opd_reward_mode: OpdRewardMode = "per_token"
    hpd_samples: int = 1
    opd_baseline: bool = False
    horizon: int = 16
    eval_len: int = 16
    eval_from: EvalFrom = "teacher"

    def __post_init__(self):
        check_field_types(self)
        for name in ("steps", "batch_size", "eval_every", "eval_len", "hpd_samples", "horizon"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not np.isfinite(self.lr):
            raise ConfigError(f"lr must be finite, got {self.lr!r}")
        if self.lr <= 0.0:
            raise ConfigError("lr must be > 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class MetricsRow:
    """One metrics reading; its fields, in order, are the metrics CSV's columns."""

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
        return csv_line(self)


@cache
def _columns(cls) -> tuple:
    """(name, whether it holds a float) of each field of a dataclass of rows, in order."""
    return tuple((name, float in (hint, *get_args(hint)))
                 for name, hint in field_types(cls).items())


def csv_line(row) -> str:
    """row's fields in order, comma-separated: None as the empty cell, a float field's
    value as repr(float(x)), the shortest text that reads back to the same double,
    and any other as str(x)."""
    return ",".join(["" if (x := getattr(row, name)) is None
                     else repr(float(x)) if is_float else str(x)
                     for name, is_float in _columns(type(row))])


def csv_write(path, cls, rows, meta: dict | None = None) -> None:
    """Write a CSV of rows of the dataclass cls: a '#' JSON meta line (when meta is
    given), a header of cls's field names, then one csv_line a row."""
    with open(path, "w", encoding="utf-8") as f:
        if meta is not None:
            f.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        f.write(",".join(field_types(cls)) + "\n")
        f.writelines(csv_line(row) + "\n" for row in rows)


METRICS_HEADER = ",".join(field_types(MetricsRow))


def evaluate_divergences(plan: EvalPlan, pred: PredictiveTable) -> tuple[float, float]:
    """One reading: exact KL(p||q) and KL(q||p) of the student whose predictive table
    is pred, weighted by the contexts' occupancy over positions 0 .. eval_len - 1 of
    sequences drawn as the plan's eval_from says. It takes the log of pred's table once."""
    return plan.divergences(pred.probs, log_probs(pred.probs))


class PredictiveTable:
    """The student's softmax at every context, row i for context id i.

    probs is the softmax kernel numerics.softmax_probs(student.table), which
    softmax(student.table) runs after its checks; cdf holds each row's
    numerics.cdf_rows when the objective samples from the student, else None.
    No log is kept: a reader of ln q takes np.log of the q it gathered
    (numerics.log_probs where q may hold a zero), softmax's logprobs there.
    refresh(ids) recomputes the rows an SGD step moved (distinct ids; every
    row by rows_at's slice) with the same kernel, so every row stays bit for
    bit the softmax of its logit row. Neither checks the logits: they are
    the student's own, and every writer of a TabularLM table rejects a
    non-finite logit (sgd_step raises NumericOverflowError before it writes one).
    """

    def __init__(self, student: TabularLM, with_cdf: bool):
        self.student = student
        # the kernel's array is new and writable: refresh overwrites rows in place
        self.probs = softmax_probs(student.table)
        self.cdf = cdf_rows(self.probs) if with_cdf else None

    def rows(self, ids) -> CategoricalDist:
        """The student's predictive batch at the context ids: row j for ids[j]."""
        probs = self.probs[ids]
        return CategoricalDist(probs=probs, logprobs=log_probs(probs))

    def refresh(self, ids: np.ndarray) -> None:
        at = rows_at(ids, len(self.probs))
        table = self.student.table
        self.probs[at] = probs = softmax_probs(table.take(ids, axis=0) if at is ids else table)
        if self.cdf is not None:
            self.cdf[at] = cdf_rows(probs)


def _train_loop(cfg: TrainConfig, teacher: MarkovSource, student: TabularLM, eval_tasks,
                batches) -> tuple[TabularLM, list[MetricsRow]]:
    """SGD on a copy of student, one step per batch of batches(student, pred, rng).

    batches is called once; the loop pulls exactly cfg.steps batches from the
    generator it gives, so one that ends early raises StopIteration. Each
    batch yields (ids, step, rewards): its student context ids, one per
    position it drew, its model.TokenStep and its rewards (None off-policy).
    pred is the copy's PredictiveTable, with CDF rows for the objectives that
    sample from the student (ObjectiveKind.samples), built once; after each
    step exactly the rows sgd_step reports moved are refreshed. Each step is
    lr times the batch mean: sgd_step divides the summed directions by
    len(ids), whatever the weights. The mean entropy of pred's
    rows at those ids is computed, before the step, only for a metrics row.
    Evaluation is planned before step 1 (EvalPlan, CompletionTasks), so a
    teacher and student that differ in vocabulary size or BOS id, and invalid
    tasks, raise then; each reading reads pred and the student's logits.
    """
    plan = EvalPlan(teacher, student, cfg.eval_len, cfg.eval_from)
    tasks = CompletionTasks(eval_tasks, student) if eval_tasks else None
    rng = np.random.default_rng(cfg.seed)
    student = student.copy()
    kind = cfg.objective
    pred = PredictiveTable(student, with_cdf=kind.samples)
    batch = batches(student, pred, rng)
    rows: list[MetricsRow] = []

    for step in range(1, cfg.steps + 1):
        ids, update, batch_rewards = next(batch)
        log = step % cfg.eval_every == 0 or step == cfg.steps
        if log:
            train_entropy = float(np.mean(entropy(pred.rows(ids))))
        moved = sgd_step(student, update, cfg.lr, len(ids))
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


def draw_positions(rng, steps: int, n: int, starts: np.ndarray,
                   lengths: np.ndarray, equal: bool) -> np.ndarray:
    """steps off-policy steps' (steps, n) corpus positions, drawn from rng as step
    after step draws them.

    A step draws its n sequences si with integers(n_seqs, size=n), then their
    offsets with integers(0, lengths[si]); a position is starts[si] + offset.
    Generator.integers with an array of bounds draws what consecutive calls
    with those bounds draw, and leaves the generator where they leave it. So
    on a corpus of equal lengths (equal) all steps' integers are one call.
    """
    if equal:
        bounds = np.tile(np.repeat([lengths.size, lengths[0]], n), steps)
        si, off = rng.integers(0, bounds).reshape(steps, 2, n).swapaxes(0, 1)
        return starts[si] + off
    pos = np.empty((steps, n), dtype=np.intp)
    for s in range(steps):
        si = rng.integers(lengths.size, size=n)
        pos[s] = starts[si] + rng.integers(0, lengths[si])
    return pos


def check_regime(tag: str, corpus: Corpus) -> None:
    """ConfigError unless tag may train on corpus: seqkd needs a teacher_generated one."""
    if tag == "seqkd" and corpus.provenance != "teacher_generated":
        raise ConfigError("seqkd expects a teacher_generated corpus")


def distill_offpolicy(
    cfg: TrainConfig,
    teacher: MarkovSource,
    corpus: Corpus,
    student: TabularLM,
    eval_tasks=None,
) -> tuple[TabularLM, list[MetricsRow]]:
    """Minibatch reweighted-likelihood distillation on a fixed corpus.

    The context ids of both models are the corpus's own (Corpus.context_ids),
    computed at the first run on that corpus at each order and kept on it.
    Steps are planned a block at a time (at most PLAN_ENTRIES tokens): the
    block's positions are drawn from the run's generator as step after step
    would draw them, and its student ids, tokens and the tokens' flat indices
    into the student's and the teacher's table are gathered at once. The
    n * k uniforms a step of hpd and hpd_no_reinforce come from a second
    generator, seeded with SeedSequence(seed).spawn(1)[0], one
    random((steps, n * k)) call a block; so every tag draws the same
    positions from the same seed, and no output depends on the block size.
    A step's tokens are an (n * k, cols) array, row b * k + i for draw i of
    position b (k = hpd_samples for the HPD variants that sample, else 1):
    column 0 is the expert and, for those variants (cols = 2), column 1 a
    token drawn from q's cached CDF rows, which the step adds to its flat
    indices. hpd_no_sample ignores that token, so it draws none, and its k
    rows of a position would be one row k times: it weighs one row at w, and
    hpd_samples has no effect on it. The step gathers q, and p and ln p for
    the rules that read them, at those tokens, makes one token_weights call
    (a rule that reads ln q takes it of that q) and one count-table step of
    the weights over k through the unchecked kernel token_step, which moves
    every row drawn, one of weight 0 too. fkld_dense's tokens are every
    column (cols = V), weighed by the teacher's row at the position, so its
    step is the summed p - q with each row's summed teacher mass (its count,
    up to rounding) times q.
    """
    check_pair(teacher, student)  # before the corpus's ids are read against the student's V
    kind = cfg.objective
    if kind.on_policy:
        raise ConfigError(f"objective {kind.tag!r} is on-policy; use distill_onpolicy_opd")
    check_regime(kind.tag, corpus)
    tokens, lengths = corpus.tokens, corpus.lengths
    if not lengths.size:
        raise InvalidInputError("corpus is empty")
    v = student.vocab.size
    s_ids = corpus.context_ids(student.order, student.vocab.bos_id, v)
    if not lengths.all():
        raise InvalidInputError(f"corpus sequence {int(np.argmin(lengths))} is empty")
    p_table = teacher.table
    t_ids = corpus.context_ids(teacher.order, teacher.vocab.bos_id, v)
    starts, n = np.cumsum(lengths) - lengths, cfg.batch_size
    tag = kind.tag
    dense, sampled = tag == "fkld_dense", kind.samples
    # no rule of these reads q or ln q, so the loop checks q[expert] > 0 itself
    unchecked = tag in ("sft", "seqkd", "fkld_token")
    # the rules that read p, and of those the ones that read ln p
    reads_p = tag not in ("sft", "seqkd")
    reads_lp = reads_p and tag not in ("fkld_token", "jsd_off")
    k = cfg.hpd_samples if sampled else 1
    cols = v if dense else 2 if sampled else 1
    # each draw updates the expert token, then the sampled one
    draw = np.repeat(np.arange(n), k)
    # fkld_dense's tokens: every column at each position, weighed by the teacher's row
    every = np.tile(np.arange(v), n)
    equal = bool((lengths == lengths[0]).all())
    per_block = max(1, PLAN_ENTRIES // (n * k * cols))

    def batches(student, pred, rng):
        # the kernel rests on checks made where its values entered: the corpus's
        # context_ids range-checks the expert tokens, cdf_draw's tokens are < V
        # with q > 0, and every rule that takes a log checks q at its tokens
        if sampled:
            u_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])

        def context(at, read):  # the context at which the step's token at read p or q
            flat, order = (t_flat, teacher.order) if read == "p" else (s_flat, student.order)
            return context_key(flat[at] // v, order, v)

        for first in range(0, cfg.steps, per_block):
            steps = min(per_block, cfg.steps - first)
            pos = draw_positions(rng, steps, n, starts, lengths, equal)
            # one row per draw; at k = 1 a draw is its position
            at = pos[:, draw]
            ids, rows, t_rows = s_ids[pos], s_ids[at], t_ids[at]
            # each token's context id, in the row-major order of a step's tokens
            flat = np.repeat(ids, k * cols, axis=1)
            if dense:
                for batch, step_rows, step_flat in zip(ids, t_rows, flat):
                    yield batch, token_step(step_flat, every,
                                            p_table.probs.take(step_rows, axis=0).ravel(),
                                            pred.probs), None
                continue
            tok = np.zeros(at.shape + (cols,), dtype=np.intp)
            tok[..., 0] = tokens[at]
            # every token as a flat index into the student's and the teacher's table;
            # HPD's sampled column holds the row base until its token is drawn
            s_at, t_at = rows[..., None] * v + tok, t_rows[..., None] * v + tok
            # row s holds step s's n * k uniforms, entry b * k + i for draw i of position b
            uniforms = u_rng.random((steps, n * k)) if sampled else itertools.repeat(None)
            for batch, step_rows, step_tok, step_flat, s_flat, t_flat, u in zip(
                    ids, rows, tok, flat, s_at, t_at, uniforms):
                if sampled:
                    drawn = cdf_draw(pred.cdf.take(step_rows, axis=0), u)
                    step_tok[:, 1] = drawn
                    s_flat[:, 1] += drawn
                    t_flat[:, 1] += drawn
                q = pred.probs.take(s_flat)
                if unchecked:
                    check_token_support(q.ravel(), step_flat, step_tok.ravel(), student.order, v)
                w = token_weights(kind, p_table.probs.take(t_flat) if reads_p else None,
                                  p_table.logprobs.take(t_flat) if reads_lp else None,
                                  q, None, step_tok, context)
                yield batch, token_step(step_flat, step_tok.ravel(),
                                        (w if k == 1 else w / k).ravel(), pred.probs), None

    return _train_loop(cfg, teacher, student, eval_tasks, batches)


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
    prompts = [list(p) for p in prompts] if prompts else [[]]
    v, k = student.vocab.size, student.order
    for tok in itertools.chain.from_iterable(prompts):
        if not 0 <= tok < v:
            raise InvalidInputError(f"prompt token id {tok} is out of range for the "
                                    f"student's vocabulary of {v}")
    p_table = teacher.table
    # one walk at the larger order carries both models' contexts: the student's
    # and the teacher's ids are the last k and m tokens of the walk's ids
    m = teacher.order
    walk_order = max(k, m)

    def suffix(ids, order):
        return ids if order == walk_order else suffix_ids(ids, order, v)

    start = prefix_ids(prompts, walk_order, student.vocab)
    n, h = cfg.batch_size, cfg.horizon

    def batches(student, pred, rng):
        while True:
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
            # each sampled token's flat index into the student's and the teacher's table
            s_flat, t_flat = s_ids * v + tokens, t_ids * v + tokens
            # the violation raised is the first in rollout order, as a one-rollout sampler meets it
            p = p_table.probs.take(t_flat)
            outside = p <= 0.0
            if outside.any():
                j = int(np.argmax(outside))
                raise DivergenceInfiniteError(
                    f"student sampled token {tokens[j]} outside teacher support at "
                    f"{context_key(s_ids[j], k, v)}")
            # cdf_draw draws no token of q = 0, so the log of q at them is finite
            q = pred.probs.take(s_flat)
            rewards = token_weights(kind, p, p_table.logprobs.take(t_flat), q, np.log(q), tokens)
            if reward_mode == "trajectory":
                # one in-order left fold per rollout: np.sum need not add in order, and the
                # builtin sum is compensated since Python 3.12
                coeffs = np.repeat(np.cumsum(rewards.reshape(n, h), axis=1)[:, -1], h)
            else:
                coeffs = rewards
            baseline = float(np.mean(rewards)) if cfg.opd_baseline else 0.0
            # cdf_draw's tokens are < V with q > 0, and the support check above makes
            # every reward, so every coefficient, finite
            yield s_ids, token_step(s_ids, tokens, coeffs - baseline, pred.probs), rewards

    return _train_loop(cfg, teacher, student, eval_tasks, batches)


def metrics_write(rows, path, meta: dict | None = None) -> None:
    """Write MetricsRow rows as a CSV (csv_write), with a '#' JSON meta line."""
    csv_write(path, MetricsRow, rows, meta)


@dataclass(frozen=True)
class Stage:
    """One stage of a run: its name (None for a run of one stage) and its config."""

    name: str | None
    cfg: TrainConfig


def run_experiment(
    stages: list[Stage],
    teacher: MarkovSource,
    student: TabularLM,
    corpus: Corpus | None = None,
    eval_tasks=None,
) -> tuple[TabularLM, dict[str | None, list[MetricsRow]]]:
    """Run stages in turn, each training the student the one before left; writes no file.

    Each stage runs the loop its objective picks: distill_onpolicy_opd for an
    on-policy objective, else distill_offpolicy on corpus. Every stage is
    checked before the first one runs: an off-policy stage with no corpus is a
    PipelineError. Step numbering is continuous across stages. Returns the
    student and each stage's metrics rows under its name.
    """
    if not stages:
        raise PipelineError("experiment needs at least one stage")
    for stage in stages:
        if corpus is None and not stage.cfg.objective.on_policy:
            raise PipelineError(f"stage {stage.name!r} needs a corpus")
    all_rows: dict[str | None, list[MetricsRow]] = {}
    offset = 0
    for stage in stages:
        cfg = stage.cfg
        if cfg.objective.on_policy:
            student, rows = distill_onpolicy_opd(cfg, teacher, student, eval_tasks=eval_tasks)
        else:
            student, rows = distill_offpolicy(cfg, teacher, corpus, student,
                                              eval_tasks=eval_tasks)
        all_rows[stage.name] = [dataclasses.replace(r, step=r.step + offset) for r in rows]
        offset += cfg.steps
    return student, all_rows
