"""Per-context reference implementations that the batched library is checked against.

Each oracle handles one context, one token or one prompt at a time: it pads
the prefix itself, reads one row of a dense table and takes a 1-d softmax.
A row of a 2-d softmax or cumsum is bit for bit the 1-d result, so where the
library promises byte-identical outputs these references give the same bytes.
The weight rules (fkld_token, rkld_off, jsd_off, hpd_token) read one token's
values as plain Python floats. kl_exact, jsd_beta and k1_samples are the
distribution-level references for numerics.kl_rows and the k1 estimator.
The set-up references build a source table one row per context
(bimodal_table, dirichlet_rows) and fit an MLE teacher with np.add.at counts
(mle_add_at); the library builds each in one array pass, to the same bytes.
model_source and plan_divergences are shared shorthands over the library
itself: a fitted model as a teacher, and EvalPlan's reading of a student's
own logits. peaked_model and RAGGED_PROMPTS are shared sampling fixtures.
"""

import numpy as np

from distill_lab import training
from distill_lab.data import (BIMODAL_VOCAB, CHOOSER_TOKEN, COIN_A, COIN_B, GAP_TOKEN,
                              MODE_X, MODE_Y, MarkovSource)
from distill_lab.errors import (
    DivergenceInfiniteError,
    InvalidInputError,
    InvalidParameterError,
    LogOfZeroError,
)
from distill_lab.model import (TabularLM, Vocab, accumulate_token_grads, context_ids, context_key,
                              pad_context, prefix_id)
from distill_lab.evaluation import EvalPlan
from distill_lab.numerics import CategoricalDist, cdf_draw, cdf_rows, softmax, softmax_rows
from distill_lab.objectives import HPD_VARIANTS, token_weights


def source_row(source, prefix):
    """The source's conditional after prefix (BOS-padded to its order)."""
    return source.table.rows(prefix_id(prefix, source.order, source.vocab))


def model_source(model):
    """The teacher of a fitted model: its softmax table as a MarkovSource, as the CLI's
    mle_fit mode builds it."""
    return MarkovSource("mle_fit", model.order, model.vocab, softmax(model.table))


def plan_divergences(student, teacher, eval_len=16, eval_from="teacher"):
    """EvalPlan's exact occupancy-weighted (KL(p||q), KL(q||p)) of the student's logits."""
    return EvalPlan(teacher, student, eval_len, eval_from).divergences(
        *softmax_rows(student.table))


def model_row(model, prefix, temperature=1.0):
    """softmax(logits / temperature) of the model's row after prefix."""
    z = model.logits(pad_context(prefix, model.order, model.vocab.bos_id))
    return softmax(z if temperature == 1.0 else z / temperature)


def add_token_grad(acc, cid, token, weight, q):
    """accumulate_token_grads for one token at context id cid; q is one distribution."""
    accumulate_token_grads(acc, [cid], [token], [weight], q.probs[None])


def per_token_rollout(model, prompt, steps, rng, temperature=1.0):
    """One Generator.choice per token: the sampled rollout before lockstep."""
    seq = [int(t) for t in prompt]
    for _ in range(steps):
        d = model_row(model, seq, temperature)
        seq.append(int(rng.choice(model.vocab.size, p=d.probs)))
    return seq[len(prompt):]


def peaked_model(v=5, order=2, seed=0):
    """Random logit rows, a third of them so peaked that softmax leaves exact zeros."""
    m = TabularLM(order=order, vocab=Vocab.default(v))
    rng = np.random.default_rng(seed)
    for i, ctx in enumerate(np.ndindex(*(v,) * order)):
        scale = 40.0 if i % 3 == 0 else 1.5
        m.set_row(ctx, scale * rng.normal(size=v))
    return m


# prompts of different lengths, shorter and longer than the model order (tokens < 5)
RAGGED_PROMPTS = [[], [3], [1, 4, 2], [0, 0, 0, 2, 1], [4, 4]]


def greedy_rollout(model, prompt, steps):
    """`steps` greedy tokens after one prompt, one argmax of one logit row per token."""
    seq = [int(t) for t in prompt]
    for _ in range(steps):
        seq.append(int(np.argmax(model.logits(pad_context(seq, model.order,
                                                          model.vocab.bos_id)))))
    return seq[len(prompt):]


def reference_completion_accuracy(model, tasks):
    """Greedy accuracy one task at a time."""
    hits = sum(greedy_rollout(model, p, len(c)) == list(c) for p, c in tasks)
    return hits / len(tasks)


def bimodal_base_row(ctx):
    """bimodal_gap's unsmoothed conditional at one context (prev2, prev1)."""
    prev2, prev1 = ctx
    row = np.zeros(BIMODAL_VOCAB)
    if prev1 == CHOOSER_TOKEN:
        row[COIN_A] = row[COIN_B] = 0.5
    elif prev1 in (COIN_A, COIN_B):
        row[GAP_TOKEN] = 1.0
    elif prev1 == GAP_TOKEN:
        if prev2 == COIN_A:
            row[MODE_X] = 1.0
        elif prev2 == COIN_B:
            row[MODE_Y] = 1.0
        else:
            row[MODE_X] = row[MODE_Y] = 0.5
    else:
        row[CHOOSER_TOKEN] = 1.0
    return row


def bimodal_table(eps):
    """bimodal_gap's smoothed table, one bimodal_base_row per context id."""
    base = np.array([bimodal_base_row(context_key(cid, 2, BIMODAL_VOCAB))
                     for cid in range(BIMODAL_VOCAB ** 2)])
    return (1.0 - eps) * base + eps / BIMODAL_VOCAB


def bimodal_mixture(eps):
    """The 50/50 mixture of the smoothed rows at (coin A, gap) and (coin B, gap)."""
    a, b = CategoricalDist.from_rows(np.array(
        [(1.0 - eps) * bimodal_base_row((c, GAP_TOKEN)) + eps / BIMODAL_VOCAB
         for c in (COIN_A, COIN_B)])).probs
    return CategoricalDist.from_probs(0.5 * (a + b))


def dirichlet_rows(rng, v, concentration, n):
    """n symmetric Dirichlet rows, one rng.dirichlet call per row."""
    return np.array([rng.dirichlet(np.full(v, concentration)) for _ in range(n)])


def mle_add_at(corpus, order, lam):
    """train_teacher_mle with its counts added one position at a time by np.add.at."""
    v = corpus.vocab_size
    model = TabularLM(order=order, vocab=Vocab.default(v))
    tokens = corpus.tokens
    offsets = np.array([j for n in corpus.lengths for j in range(n)], dtype=np.intp)
    counts = np.zeros(model.table.shape, dtype=np.int64)
    np.add.at(counts, (context_ids(tokens, offsets, order, model.vocab.bos_id, v), tokens), 1)
    seen = counts.any(axis=1)
    row = counts[seen].astype(np.float64)
    probs = (row + lam) / (row.sum(axis=1, keepdims=True) + lam * v)
    with np.errstate(divide="ignore"):
        logits = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)),
                          training.LOGIT_FLOOR)
    model.table[seen] = logits
    return model


def reference_offpolicy(cfg, teacher, corpus, student):
    """distill_offpolicy one position at a time.

    Positions, HPD draws and accumulation follow the batched kernel's stated
    order, so its checkpoints and metrics must match these byte for byte. Each
    batch yields one context id per position drawn, and each step divides by
    their count. The run's generator draws the positions; the uniforms of the
    HPD variants that sample come from a second generator, spawned from the
    seed, batch_size * k a step. hpd_no_sample ignores the sampled token, so
    it draws none and weighs one row a position, whatever hpd_samples is.
    """
    kind = cfg.objective
    sequences = corpus.sequences
    lengths = np.array([len(seq) for seq in sequences])

    k = cfg.hpd_samples if kind.samples else 1

    def batches(student, pred, acc, rng):
        u_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        while True:
            cids = []
            si = rng.integers(len(sequences), size=cfg.batch_size)
            offsets = rng.integers(0, lengths[si])
            uniforms = u_rng.random(cfg.batch_size * k) if kind.samples else None
            for b in range(cfg.batch_size):
                seq = sequences[int(si[b])]
                t = int(offsets[b])
                prefix, expert = seq[:t], seq[t]
                cid = prefix_id(prefix, student.order, student.vocab)
                p = source_row(teacher, prefix)
                q = model_row(student, prefix)
                cids.append(cid)
                if kind.tag == "fkld_dense":
                    acc.add_rows([cid], (p.probs - q.probs)[None])
                elif kind.tag not in HPD_VARIANTS:
                    w = offpolicy_token(kind, *row_values(p, q), expert)
                    add_token_grad(acc, cid, expert, w, q)
                else:
                    for i in range(k):
                        sampled = (int(cdf_draw(cdf_rows(q.probs), uniforms[b * k + i]))
                                   if kind.samples else None)
                        w_star, w_sampled = offpolicy_token(kind, *row_values(p, q), expert,
                                                            sampled)
                        add_token_grad(acc, cid, expert, w_star / k, q)
                        if w_sampled != 0.0:
                            add_token_grad(acc, cid, sampled, w_sampled / k, q)
            yield cids, None

    return training._train_loop(cfg, teacher, student, None, batches)


def row_values(p, q):
    """(p, ln p, q, ln q) of one context's teacher and student distributions."""
    return p.probs, p.logprobs, q.probs, q.logprobs


def weights_at(kind, p, q, tokens, rows=None):
    """token_weights of kind gathered at tokens: of one distribution pair, or of
    row rows[j] of two batches at tokens[j]. HPD reads an (expert, sampled) pair
    on the last axis of tokens."""
    tokens = np.asarray(tokens)
    index = tokens if rows is None else (
        np.reshape(rows, np.shape(rows) + (1,) * (tokens.ndim - 1)), tokens)
    return token_weights(kind, *(a[index] for a in row_values(p, q)), tokens)


def offpolicy_token(kind, p, lp, q, lq, expert, sampled=None):
    """kind's weight at one expert token, in plain Python floats; for HPD, the
    (w_star, w_sampled) pair with the token sampled from q."""
    if kind.tag in ("sft", "seqkd"):
        return 1.0
    if kind.tag in ("fkld_token", "fkld_dense"):
        return fkld_token(p, expert)
    if kind.tag == "rkld_off":
        return rkld_off(p, lp, q, lq, expert, kind.sign_fidelity)
    if kind.tag == "jsd_off":
        return jsd_off(p, q, lq, expert, kind.beta, kind.sign_fidelity)
    return hpd_token(kind.tag, p, lp, q, lq, expert, sampled)


def fkld_token(p, expert):
    """Forward KL's token weight: the teacher's probability of the expert token."""
    return float(p[expert])


def rkld_off(p, lp, q, lq, token, sign_fidelity=False):
    """Off-policy reverse KL's weight k1 = q (ln p - ln q) at token; p, then q, must be
    positive there."""
    for values, name in ((p, "p"), (q, "q")):
        if values[token] <= 0.0:
            raise LogOfZeroError(f"{name}[{token}] = 0")
    k1 = float(q[token]) * (float(lp[token]) - float(lq[token]))
    return -k1 if sign_fidelity else k1


def jsd_off(p, q, lq, token, beta=0.5, sign_fidelity=False):
    """Off-policy generalised JSD's weight (1 - beta) q (ln M - ln q) at token, where
    M = beta p + (1 - beta) q.

    The one log, ln M, is numpy's, as the rule takes it; the midpoint is
    checked before q.
    """
    m = beta * float(p[token]) + (1.0 - beta) * float(q[token])
    if m <= 0.0:
        raise LogOfZeroError(f"midpoint mixture is 0 at token {token}")
    if q[token] <= 0.0:
        raise LogOfZeroError(f"q[{token}] = 0")
    w = (1.0 - beta) * float(q[token]) * (float(np.log(m)) - float(lq[token]))
    return -w if sign_fidelity else w


def hpd_token(variant, p, lp, q, lq, expert, sampled):
    """HPD's (w_star, w_sampled) for one (expert, sampled) token pair, in plain Python floats.

    p, lp, q and lq are one context's teacher and student probabilities and
    their logs, indexed by token id; p and q must be positive at both tokens,
    checked at the expert first. The branches are taken one at a time, as the
    rule reads: k1 is rkld_off's weight at the expert, k1' at the sampled token.
    hpd_no_sample reads and checks the expert alone: its sampled token, which
    may be None, is ignored.
    """
    k1 = rkld_off(p, lp, q, lq, expert)
    p_star = float(p[expert])
    if variant == "hpd_no_sample":
        # k1 = 0 is masked too
        return (k1 if k1 <= 0.0 else p_star + k1), 0.0
    k1_sampled = rkld_off(p, lp, q, lq, sampled)
    # a sampled token other than the expert that the student overestimates
    suppressed = sampled != expert and k1_sampled < 0.0
    if k1 < 0.0:
        w_star = k1  # masked: the student overestimates the expert
    elif variant == "hpd" and suppressed and k1 > 0.0:
        w_star = 2.0 * p_star + k1  # reinforced
    else:
        w_star = p_star + k1  # plain, k1 = 0 included
    return w_star, (k1_sampled if suppressed else 0.0)


def _check_same_size(p, q):
    if p.size != q.size:
        raise InvalidInputError(f"vocabulary sizes differ: {p.size} vs {q.size}")


def kl_exact(p, q):
    """KL(p || q) = sum_v p_v (ln p_v - ln q_v) of one distribution pair, as a float."""
    _check_same_size(p, q)
    mask = p.support
    if np.any(mask & ~q.support):
        bad = int(np.argmax(mask & ~q.support))
        raise DivergenceInfiniteError(
            f"KL(p||q) is infinite: p[{bad}] > 0 but q[{bad}] = 0"
        )
    val = float(np.sum(p.probs[mask] * (p.logprobs[mask] - q.logprobs[mask])))
    if -1e-12 < val < 0.0:
        return 0.0
    return val


def jsd_beta(p, q, beta):
    """Generalized Jensen-Shannon divergence against M = beta*p + (1-beta)*q."""
    _check_same_size(p, q)
    if not (0.0 < beta < 1.0):
        raise InvalidParameterError(f"beta must lie in (0, 1), got {beta!r}")
    m = CategoricalDist.from_probs(beta * p.probs + (1.0 - beta) * q.probs)
    return beta * kl_exact(p, m) + (1.0 - beta) * kl_exact(q, m)


def k1_samples(p, q, n, rng):
    """Per-sample log-ratios ln(q[a]/p[a]) with a drawn from q."""
    _check_same_size(p, q)
    if n < 1:
        raise InvalidParameterError("sample count must be >= 1")
    draws = rng.choice(p.size, size=n, p=q.probs)
    if np.any(~p.support[draws]):
        bad = int(draws[np.argmax(~p.support[draws])])
        raise DivergenceInfiniteError(
            f"sampled token {bad} has zero probability under p"
        )
    return q.logprobs[draws] - p.logprobs[draws]


def draws_batched(rng, n_prompts, n, h):
    """The kernel's layout: every rollout's prompt, then an (n, h) block of uniforms."""
    return rng.integers(n_prompts, size=n), rng.random((n, h))


def draws_per_rollout(rng, n_prompts, n, h):
    """The former layout: rollout by rollout, its prompt and then h uniforms."""
    pick, u = np.empty(n, dtype=np.intp), np.empty((n, h))
    for b in range(n):
        pick[b] = rng.integers(n_prompts)
        u[b] = rng.random(h)
    return pick, u


def reference_opd(cfg, teacher, student, prompts=None, draws=draws_batched):
    """distill_onpolicy_opd one rollout and one token at a time, one inverse-CDF draw each.

    Draws, rewards and accumulation follow the lockstep kernel's stated
    order, so its checkpoints and metrics must match these byte for byte. Each
    batch yields one context id per sampled token, and each step divides by
    their count.
    """
    reward_mode = "per_token" if cfg.objective.tag == "rkld_on" else cfg.opd_reward_mode
    prompts = [list(p) for p in prompts] if prompts else [[]]

    def batches(student, pred, acc, rng):
        while True:
            batch_rewards = []
            cids, tokens, qs, coeffs = [], [], [], []  # one entry per sampled token
            pick, u = draws(rng, len(prompts), cfg.batch_size, cfg.horizon)
            for b in range(cfg.batch_size):
                prompt = prompts[int(pick[b])]
                seq = list(prompt)
                rewards = []
                for t in range(cfg.horizon):
                    q = model_row(student, seq)
                    a = int(cdf_draw(cdf_rows(q.probs), u[b, t]))
                    p = source_row(teacher, seq)
                    if p.probs[a] <= 0.0:
                        ctx = pad_context(seq, student.order, student.vocab.bos_id)
                        raise DivergenceInfiniteError(
                            f"student sampled token {a} outside teacher support at {ctx}"
                        )
                    r = float(p.logprobs[a] - q.logprobs[a])
                    cids.append(prefix_id(seq, student.order, student.vocab))
                    tokens.append(a)
                    qs.append(q.probs)
                    rewards.append(r)
                    seq.append(a)
                if reward_mode == "trajectory":
                    coeffs.extend([sum(rewards)] * len(rewards))
                else:
                    coeffs.extend(rewards)
                batch_rewards.extend(rewards)

            baseline = float(np.mean(batch_rewards)) if cfg.opd_baseline else 0.0
            accumulate_token_grads(acc, cids, tokens, np.array(coeffs) - baseline, np.array(qs))
            yield cids, batch_rewards

    return training._train_loop(cfg, teacher, student, None, batches)
