"""Gradient checking, exact divergence audits, and completion accuracy."""

from __future__ import annotations

from typing import Literal, get_args

import numpy as np

from .data import MarkovSource
from .errors import InvalidInputError, InvalidParameterError
from .model import (MAX_TABLE_ENTRIES, GradAccumulator, TabularLM, accumulate_token_grads,
                    prefix_id, prefix_ids, read_only, suffix_ids, walk)
from .numerics import CategoricalDist, cdf_draw, kl_rows, softmax

# whose sequences weigh the contexts of a divergence reading
EvalFrom = Literal["teacher", "student"]


def gradcheck(model: TabularLM, weighted_tokens, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The loss is L = sum_i -w_i * ln q(token_i | ctx_i) with weights frozen.
    Every (touched row, coordinate, +-eps) perturbation is one row of a
    stacked logit array with one softmax per chunk of touched rows. A row's
    perturbations change only the terms of the items at that row, so its loss
    sums just those: the other terms cancel in the central difference, and
    the chunking changes no error. Per-coordinate errors are
    measured relative to the largest gradient magnitude of the touched row,
    so near-zero coordinates of an otherwise healthy row do not dominate.
    """
    if not (1e-8 <= eps <= 1e-3):
        raise InvalidParameterError(f"eps must lie in [1e-8, 1e-3], got {eps!r}")
    items = [(model._check_ctx(c), int(t), float(w)) for c, t, w in weighted_tokens]
    if not items:
        return 0.0
    ids, tokens, weights = (np.array(col) for col in zip(*items))
    acc = GradAccumulator(model.order, model.vocab.size)
    accumulate_token_grads(acc, ids, tokens, weights, softmax(model.table[ids]).probs)
    # rows[slot[i]] is item i's row; pert[r, v, s] is row r with coordinate v moved by +-eps
    rows, slot = np.unique(ids, return_inverse=True)
    v, coord = model.vocab.size, np.arange(model.vocab.size)
    numeric = np.empty((len(rows), v))
    # a row's 2 * V perturbed copies hold 2 * V * V logits; a chunk of rows holds at
    # most MAX_TABLE_ENTRIES of them, or one row's when that is more
    chunk = max(1, MAX_TABLE_ENTRIES // (2 * v * v))
    for lo in range(0, len(rows), chunk):
        base = model.table[rows[lo:lo + chunk]]
        pert = np.broadcast_to(base[:, None, None, :], (len(base), v, 2, v)).copy()
        pert[:, coord, 0, coord] = base + eps
        pert[:, coord, 1, coord] = base - eps
        logprobs = softmax(pert.reshape(-1, v)).logprobs.reshape(pert.shape)
        mine = np.flatnonzero((lo <= slot) & (slot < lo + len(base)))
        loss = np.zeros(pert.shape[:3])
        np.add.at(loss, slot[mine] - lo,
                  -weights[mine, None, None] * logprobs[slot[mine] - lo, :, :, tokens[mine]])
        numeric[lo:lo + len(base)] = (loss[:, :, 0] - loss[:, :, 1]) / (2.0 * eps)
    # analytic gradient of L (not the descent direction, hence the minus)
    analytic = -acc.directions[rows]
    scale = np.maximum(np.abs(analytic).max(axis=1), np.abs(numeric).max(axis=1))
    live = scale > 1e-12
    err = np.abs(analytic - numeric).max(axis=1)[live] / scale[live]
    return float(err.max(initial=0.0))


def check_pair(teacher: MarkovSource, student: TabularLM) -> None:
    """InvalidInputError unless teacher and student share a vocabulary size and a BOS id,
    as every reader of one context id in both models' tables needs."""
    v = student.vocab.size
    if teacher.vocab.size != v:
        raise InvalidInputError(f"teacher vocabulary size {teacher.vocab.size} != "
                                f"student vocabulary size {v}")
    if teacher.vocab.bos_id != student.vocab.bos_id:
        raise InvalidInputError("teacher and student pad contexts with different BOS ids")


def _shared(*parts) -> None:
    """Make the arrays of parts (arrays or CategoricalDists) read-only: every plan on
    one teacher reads them."""
    for part in parts:
        for a in (part.probs, part.logprobs) if isinstance(part, CategoricalDist) else (part,):
            read_only(a)


class EvalPlan:
    """Exact occupancy-weighted divergences from one frozen teacher.

    Evaluation sums over the order-m contexts, m = max(teacher.order,
    student.order). The plan's teacher-side parts depend on the frozen
    teacher alone: every such context's teacher row and student context id,
    and with eval_from="teacher" the occupancy, its live contexts (occupancy
    > 0), their weights and the teacher's rows there. They are built by the
    first plan against the teacher at (m, student order, BOS id, eval_len),
    kept read-only in teacher.plans, and every later plan there reads them;
    each plan still checks its arguments. A reading, divergences(probs,
    logprobs), takes the student's predictive table, row i for its context
    id i: it gathers the student's rows at the live contexts and runs two
    kl_rows. With eval_from="student" the reading first propagates the
    occupancy through that table. A context of occupancy 0 adds nothing; a
    support violation at any other makes that direction math.inf.
    """

    def __init__(self, teacher: MarkovSource, student: TabularLM, eval_len: int,
                 eval_from: EvalFrom):
        if eval_len < 1:
            raise InvalidInputError("eval_len must be >= 1")
        check_pair(teacher, student)
        if eval_from not in get_args(EvalFrom):
            raise InvalidInputError(f"unknown eval_from {eval_from!r}")
        self.eval_len = eval_len
        v, m = student.vocab.size, max(teacher.order, student.order)
        # the all-BOS context
        self.start = prefix_id([], m, student.vocab)
        parts = teacher.plans.setdefault((m, student.order, student.vocab.bos_id, eval_len), {})
        if not parts:
            # row c of the teacher rows and entry c of the student ids read order-m context
            # c's last teacher.order and student.order tokens
            ids = np.arange(v ** m)
            parts.update(teacher_rows=teacher.table.rows(suffix_ids(ids, teacher.order, v)),
                         student_ids=suffix_ids(ids, student.order, v))
            _shared(parts["teacher_rows"], parts["student_ids"])
        self.teacher_rows, self.student_ids = parts["teacher_rows"], parts["student_ids"]
        self.occ = self.live = None
        if eval_from == "teacher":
            if "live" not in parts:
                parts["occ"] = self._propagate(self.teacher_rows.probs)
                parts["live"] = self._live(parts["occ"])
                _shared(parts["occ"], *parts["live"])
            self.occ, self.live = parts["occ"], parts["live"]

    def _live(self, occ: np.ndarray):
        """(weights, teacher rows, student ids) at the contexts of nonzero occupancy."""
        live = np.flatnonzero(occ > 0.0)
        return occ[live], self.teacher_rows.rows(live), self.student_ids[live]

    def _propagate(self, drive: np.ndarray) -> np.ndarray:
        """The mean over positions 0 .. eval_len - 1 of the context distribution, for
        sequences that start empty and draw from drive's rows (one per order-m context)."""
        n, v = drive.shape
        pi = np.zeros(n)
        pi[self.start] = 1.0
        occ = pi.copy()
        for _ in range(self.eval_len - 1):
            # context c = (oldest token, rest) emits tok and moves to (rest, tok)
            pi = (pi[:, None] * drive).reshape(v, n // v, v).sum(axis=0).ravel()
            occ += pi
        return occ / self.eval_len

    def occupancy(self, probs) -> np.ndarray:
        """The occupancy: the teacher's, or with eval_from="student" the one driven by the
        student's predictive table probs (read only then)."""
        return self.occ if self.occ is not None else self._propagate(probs[self.student_ids])

    def divergences(self, probs: np.ndarray, logprobs: np.ndarray,
                    occ: np.ndarray | None = None) -> tuple[float, float]:
        """Occupancy-weighted KL(p||q) and KL(q||p) of the student whose predictive table
        is (probs, logprobs); occ, when the caller holds it, is occupancy(probs)."""
        if self.live is not None:
            w, p, ids = self.live
        else:
            w, p, ids = self._live(self.occupancy(probs) if occ is None else occ)
        q = CategoricalDist(probs.take(ids, axis=0), logprobs.take(ids, axis=0))
        return float(w @ kl_rows(p, q)), float(w @ kl_rows(q, p))


class CompletionTasks:
    """(prompt, continuation) tasks, planned once for greedy rollouts of one student order.

    Built once: every prompt's start context id and the continuations, padded
    to the longest. accuracy(logits) is one greedy walk of every task in
    lockstep, as TabularLM.greedy_rollouts advances them, and one comparison:
    a task counts when its first len(continuation) tokens match.
    """

    def __init__(self, tasks, student: TabularLM):
        tasks = [(prompt, list(continuation)) for prompt, continuation in tasks]
        if not tasks:
            raise InvalidInputError("task list is empty")
        if not all(cont for _, cont in tasks):
            raise InvalidInputError("steps must be >= 1")
        self.order, self.v = student.order, student.vocab.size
        self.start = prefix_ids([prompt for prompt, _ in tasks], self.order, student.vocab)
        lengths = np.array([len(cont) for _, cont in tasks])
        self.steps = int(lengths.max())
        self.pad = np.arange(self.steps) >= lengths[:, None]
        # a continuation token equal (==) to no token id can never be matched: -1
        token = {i: i for i in range(self.v)}
        self.want = np.full(self.pad.shape, -1, dtype=np.intp)
        self.want[~self.pad] = [token.get(t, -1) for _, cont in tasks for t in cont]

    def accuracy(self, logits: np.ndarray) -> float:
        """Fraction of tasks whose greedy rollout under these logit rows reproduces them."""
        _, out = walk(self.start, self.steps, self.order, self.v,
                      lambda ids, t: np.argmax(logits.take(ids, axis=0), axis=1))
        hits = ((out == self.want) | self.pad).all(axis=1)
        return int(np.count_nonzero(hits)) / len(hits)


def make_completion_tasks(
    source: MarkovSource,
    num_tasks: int,
    cont_len: int,
    rng: np.random.Generator,
    min_conf: float = 0.9,
    prompt_len: int | None = None,
    max_attempts_factor: int = 50,
) -> list[tuple[list[int], list[int]]]:
    """Tasks from near-deterministic source regions.

    Up to num_tasks * max_attempts_factor candidate prompts are drawn from rng,
    as source.rollouts draws prompt_len tokens after empty prompts, in chunks
    that double from 2 * num_tasks; each candidate is continued greedily by
    cont_len tokens in its chunk's walk. A candidate is kept when its greedy
    continuation has confidence at least min_conf at every step, making the
    correct continuation unique; the first num_tasks kept candidates are the tasks,
    in the order they were drawn. Drawing stops after the chunk that holds
    the last task. The chunks' rows are the rows one draw of every candidate
    would give, so the tasks do not depend on the chunking; rng is left
    further on the fewer candidates drawn.
    """
    if num_tasks < 1 or cont_len < 1:
        raise InvalidInputError("num_tasks and cont_len must be >= 1")
    prompt_len = prompt_len if prompt_len is not None else source.order + 2
    probs = source.table.probs
    start = prefix_id([], source.order, source.vocab)
    tasks: list[tuple[list[int], list[int]]] = []

    def sample_then_argmax(ids, t):  # every candidate of the chunk advances one step
        if t < prompt_len:
            return cdf_draw(source.cdf.take(ids, axis=0), u[:, t])
        return np.argmax(probs.take(ids, axis=0), axis=1)

    left, n = num_tasks * max_attempts_factor, 2 * num_tasks
    while left > 0 and len(tasks) < num_tasks:
        n = min(n, left)
        u = rng.random((n, prompt_len))
        ids, tokens = walk(np.full(n, start, dtype=np.intp), prompt_len + cont_len,
                           source.order, source.vocab.size, sample_then_argmax)
        prompts, conts = tokens[:, :prompt_len], tokens[:, prompt_len:]
        ok = (probs[ids[:, prompt_len:], conts] >= min_conf).all(axis=1)
        keep = np.flatnonzero(ok)[:num_tasks - len(tasks)].tolist()
        tasks += zip(prompts[keep].tolist(), conts[keep].tolist())
        left, n = left - n, 2 * n
    if len(tasks) < num_tasks:
        raise InvalidInputError(
            f"only found {len(tasks)}/{num_tasks} near-deterministic tasks "
            f"(min_conf={min_conf}, cont_len={cont_len})"
        )
    return tasks
