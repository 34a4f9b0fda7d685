"""Exact divergence audits, entropy profiles, accuracy, and estimator studies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import MarkovSource
from .errors import DivergenceInfiniteError, InvalidInputError, InvalidParameterError
from .model import GradAccumulator, TabularLM, accumulate_token_grad, prefix_id
from .numerics import CategoricalDist, entropy, k1_samples, kl_exact


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


def divergence_audit(student: TabularLM, teacher, states) -> tuple[float, float]:
    """Mean exact KL(p||q) and KL(q||p) over the given prefix states.

    A state where one distribution puts mass outside the other's support
    contributes +inf, so that direction's mean reads math.inf. Each distinct
    (teacher context, student context) pair is computed once; the per-state
    values are summed in state order.
    """
    states = list(states)
    if not states:
        raise InvalidInputError("audit needs at least one state")
    keys = [(prefix_id(prefix, teacher.order, teacher.vocab),
             prefix_id(prefix, student.order, student.vocab)) for prefix in states]
    pairs = list(dict.fromkeys(keys))
    t_ids, s_ids = np.array(pairs, dtype=np.intp).T
    p, q = teacher.dists().rows(t_ids), student.predict_batch(s_ids)
    kls = {}
    for i, pair in enumerate(pairs):
        p_i, q_i = p.rows(i), q.rows(i)
        kls[pair] = (_kl_or_inf(p_i, q_i), _kl_or_inf(q_i, p_i))
    fwd, rev = 0.0, 0.0
    for key in keys:
        fwd += kls[key][0]
        rev += kls[key][1]
    return fwd / len(states), rev / len(states)


def _kl_or_inf(p: CategoricalDist, q: CategoricalDist) -> float:
    try:
        return kl_exact(p, q)
    except DivergenceInfiniteError:
        return math.inf


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
    """Fraction of (prompt, continuation) tasks reproduced by greedy rollout."""
    tasks = list(tasks)
    if not tasks:
        raise InvalidInputError("task list is empty")
    if sampled and rng is None:
        raise InvalidInputError("sampled evaluation needs an rng")
    hits = 0
    for prompt, continuation in tasks:
        continuation = list(continuation)
        out = model.rollout(prompt, len(continuation), rng=rng, greedy=not sampled)
        if out == continuation:
            hits += 1
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

    A candidate prompt is sampled from the source; it is kept when the
    source's greedy continuation of length cont_len has confidence at
    least min_conf at every step, making the correct continuation unique.
    """
    if num_tasks < 1 or cont_len < 1:
        raise InvalidInputError("num_tasks and cont_len must be >= 1")
    prompt_len = prompt_len if prompt_len is not None else source.order + 2
    tasks = []
    for _ in range(num_tasks * max_attempts_factor):
        if len(tasks) >= num_tasks:
            break
        prompt = source.sample_sequence(prompt_len, rng)
        seq = list(prompt)
        cont = []
        ok = True
        for _t in range(cont_len):
            d = source.conditional_for_prefix(seq)
            tok = int(np.argmax(d.probs))
            if d.probs[tok] < min_conf:
                ok = False
                break
            cont.append(tok)
            seq.append(tok)
        if ok:
            tasks.append((prompt, cont))
    if len(tasks) < num_tasks:
        raise InvalidInputError(
            f"only found {len(tasks)}/{num_tasks} near-deterministic tasks "
            f"(min_conf={min_conf}, cont_len={cont_len})"
        )
    return tasks


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
