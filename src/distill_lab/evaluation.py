"""Exact divergence audits, entropy profiles, accuracy, and estimator studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MarkovSource
from .errors import InvalidInputError, InvalidParameterError
from .model import GradAccumulator, TabularLM, accumulate_token_grad, prefix_id
from .numerics import CategoricalDist, entropy, k1_samples, kl_exact, kl_rows, softmax


def gradcheck(model: TabularLM, weighted_tokens, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The loss is L = sum_i -w_i * ln q(token_i | ctx_i) with weights frozen.
    Per-coordinate errors are measured relative to the largest gradient
    magnitude of the touched row, so near-zero coordinates of an otherwise
    healthy row do not dominate.
    """
    if not (1e-8 <= eps <= 1e-3):
        raise InvalidParameterError(f"eps must lie in [1e-8, 1e-3], got {eps!r}")
    weighted_tokens = [(tuple(c), int(t), float(w)) for c, t, w in weighted_tokens]

    acc = GradAccumulator(model.order, model.vocab.size)
    for ctx, token, w in weighted_tokens:
        accumulate_token_grad(acc, model, ctx, token, w)

    touched = {ctx for ctx, _, _ in weighted_tokens}

    def loss(m: TabularLM) -> float:
        total = 0.0
        for ctx, token, w in weighted_tokens:
            total -= w * float(m.predict(ctx).logprobs[token])
        return total

    max_err = 0.0
    work = model.copy()
    for ctx in sorted(touched):
        base = work.logits(ctx)
        numeric = np.zeros_like(base)
        for v in range(work.vocab.size):
            pert = base.copy()
            pert[v] = base[v] + eps
            work.set_row(ctx, pert)
            up = loss(work)
            pert[v] = base[v] - eps
            work.set_row(ctx, pert)
            down = loss(work)
            numeric[v] = (up - down) / (2.0 * eps)
        work.set_row(ctx, base)
        # analytic gradient of L (not the descent direction, hence the minus)
        a = -acc.directions[model._check_ctx(ctx)]
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(numeric))))
        if scale <= 1e-12:
            continue
        max_err = max(max_err, float(np.max(np.abs(a - numeric))) / scale)
    return max_err


def context_occupancy(student: TabularLM, teacher, eval_len: int,
                      eval_from: str) -> np.ndarray:
    """The mean over positions t = 0 .. eval_len - 1 of the distribution of position
    t's context, exactly.

    Contexts have order m = max(teacher.order, student.order): entry c is the
    probability, averaged over t, that the m tokens before position t (BOS-padded)
    have id c. Sequences start empty and are drawn from the teacher, or from the
    student with eval_from="student"; each position is one product of the
    context distribution with the driving model's rows, lifted to order m.
    """
    if eval_len < 1:
        raise InvalidInputError(f"eval_len must be >= 1, got {eval_len}")
    v = student.vocab.size
    if teacher.vocab.size != v:
        raise InvalidInputError(f"teacher vocabulary size {teacher.vocab.size} != "
                                f"student vocabulary size {v}")
    if teacher.vocab.bos_id != student.vocab.bos_id:
        raise InvalidInputError("teacher and student pad contexts with different BOS ids")
    m = max(teacher.order, student.order)
    n = v ** m
    if eval_from == "teacher":
        drive = teacher.dists().probs
    elif eval_from == "student":
        drive = softmax(student.table).probs
    else:
        raise InvalidInputError(f"unknown eval_from {eval_from!r}")
    # an order-m context's last k tokens are its id modulo V**k
    drive = drive[np.arange(n) % len(drive)]
    pi = np.zeros(n)
    pi[prefix_id([], m, student.vocab)] = 1.0
    occ = pi.copy()
    for _ in range(eval_len - 1):
        # context c = (oldest token, rest) emits tok and moves to (rest, tok)
        pi = (pi[:, None] * drive).reshape(v, n // v, v).sum(axis=0).ravel()
        occ += pi
    return occ / eval_len


def occupancy_divergences(student: TabularLM, teacher, occ: np.ndarray) -> tuple[float, float]:
    """Occupancy-weighted exact KL(p||q) and KL(q||p) over order-m contexts.

    occ is context_occupancy's vector. Teacher and student rows are read at each
    context's last teacher.order and student.order tokens. A context with
    occupancy 0 contributes nothing; a support violation at any other context
    makes that direction math.inf.
    """
    if occ.shape != (student.vocab.size ** max(teacher.order, student.order),):
        raise InvalidInputError(f"occupancy of shape {occ.shape} does not fit these models")
    live = np.flatnonzero(occ > 0.0)
    p = teacher.dists()
    p = p.rows(live % len(p.probs))
    q = student.predict_batch(live % len(student.table))
    w = occ[live]
    return float(w @ kl_rows(p, q)), float(w @ kl_rows(q, p))


@dataclass(frozen=True)
class EntropyProfile:
    per_position: np.ndarray
    n_prompts: int


def positional_entropy(
    model: TabularLM,
    prompts,
    horizon: int,
    rng: np.random.Generator,
    teacher_forced_source: MarkovSource | None = None,
) -> EntropyProfile:
    """Mean predictive entropy at each position along rollouts.

    Default follows the model's own sampled rollouts (inference-time
    profile); passing a source switches to teacher-forced prefixes drawn
    from it.
    """
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    prompts = [list(p) for p in prompts]
    if not prompts:
        raise InvalidInputError("needs at least one prompt")
    if teacher_forced_source is None:
        seqs = [p + c for p, c in zip(prompts, model.rollouts(prompts, horizon, rng))]
    else:
        seqs = [teacher_forced_source.sample_sequence(len(p) + horizon, rng) for p in prompts]
    sums = np.zeros(horizon)
    for prompt, seq in zip(prompts, seqs):
        for t in range(horizon):
            sums[t] += entropy(model.predict(model.context_for(seq[:len(prompt) + t])))
    return EntropyProfile(per_position=sums / len(prompts), n_prompts=len(prompts))


def completion_accuracy(
    model: TabularLM,
    tasks,
    sampled: bool = False,
    rng: np.random.Generator | None = None,
) -> float:
    """Fraction of (prompt, continuation) tasks reproduced by greedy rollout.

    Greedy rollouts of every task advance in lockstep, one row-wise argmax of the
    gathered logit rows per position; sampled=True rolls out each task in turn.
    """
    tasks = [(prompt, list(continuation)) for prompt, continuation in tasks]
    if not tasks:
        raise InvalidInputError("task list is empty")
    if sampled and rng is None:
        raise InvalidInputError("sampled evaluation needs an rng")
    if sampled:
        hits = sum(model.rollout(prompt, len(cont), rng=rng) == cont for prompt, cont in tasks)
        return hits / len(tasks)
    ids = np.empty(len(tasks), dtype=np.intp)
    for i, (prompt, cont) in enumerate(tasks):
        if not cont:
            raise InvalidInputError("steps must be >= 1")
        ids[i] = prefix_id(prompt, model.order, model.vocab)
    out = np.empty((len(tasks), max(len(cont) for _, cont in tasks)), dtype=np.intp)
    for t in range(out.shape[1]):
        out[:, t] = np.argmax(model.table[ids], axis=1)
        ids = (ids * model.vocab.size + out[:, t]) % len(model.table)
    hits = sum(row[:len(cont)] == cont for row, (_, cont) in zip(out.tolist(), tasks))
    return hits / len(tasks)


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

    num_tasks * max_attempts_factor candidate prompts are sampled from the
    source in one call, which always draws all of them from rng. A candidate is
    kept when the source's greedy continuation of length cont_len has confidence
    at least min_conf at every step, making the correct continuation unique; the
    first num_tasks kept candidates are the tasks, in the order they were drawn.
    """
    if num_tasks < 1 or cont_len < 1:
        raise InvalidInputError("num_tasks and cont_len must be >= 1")
    prompt_len = prompt_len if prompt_len is not None else source.order + 2
    prompts = source.sample_sequences(num_tasks * max_attempts_factor, prompt_len, rng)
    probs, v = source.table.probs, source.vocab.size
    tokens = np.array(prompts, dtype=np.intp).reshape(len(prompts), prompt_len)
    ids = np.zeros(len(prompts), dtype=np.intp)
    for j in range(prompt_len - source.order, prompt_len):  # oldest token first
        ids = ids * v + (tokens[:, j] if j >= 0 else source.vocab.bos_id)
    conts = np.empty((len(prompts), cont_len), dtype=np.intp)
    ok = np.ones(len(prompts), dtype=bool)
    for t in range(cont_len):  # every candidate advances one greedy step
        rows = probs[ids]
        conts[:, t] = tok = np.argmax(rows, axis=1)
        ok &= rows[np.arange(len(ids)), tok] >= min_conf
        ids = (ids * v + tok) % len(probs)
    keep = np.flatnonzero(ok)[:num_tasks]
    if len(keep) < num_tasks:
        raise InvalidInputError(
            f"only found {len(keep)}/{num_tasks} near-deterministic tasks "
            f"(min_conf={min_conf}, cont_len={cont_len})"
        )
    return [(prompts[i], conts[i].tolist()) for i in keep.tolist()]


@dataclass(frozen=True)
class K1Study:
    trial_means: np.ndarray
    grand_mean: float
    variance: float
    negative_fraction: float
    exact_kl: float
    n_trials: int
    n_samples: int


def k1_study(
    p: CategoricalDist,
    q: CategoricalDist,
    n_trials: int,
    n_samples: int,
    rng: np.random.Generator,
) -> K1Study:
    """Bias/variance study of the single-sample reverse-KL estimator."""
    if n_trials < 1 or n_samples < 1:
        raise InvalidParameterError("n_trials and n_samples must be >= 1")
    means = np.empty(n_trials)
    neg = 0
    total = 0
    for i in range(n_trials):
        vals = k1_samples(p, q, n_samples, rng)
        means[i] = vals.mean()
        neg += int(np.sum(vals < 0.0))
        total += vals.size
    return K1Study(
        trial_means=means,
        grand_mean=float(means.mean()),
        variance=float(means.var(ddof=1)) if n_trials > 1 else 0.0,
        negative_fraction=neg / total,
        exact_kl=kl_exact(q, p),
        n_trials=n_trials,
        n_samples=n_samples,
    )
