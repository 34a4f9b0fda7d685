"""Per-context reference implementations that the batched library is checked against.

Each oracle handles one context, one token or one prompt at a time: it pads
the prefix itself, reads one row of a dense table and takes a 1-d softmax.
A row of a 2-d softmax or cumsum is bit for bit the 1-d result, so where the
library promises byte-identical outputs these references give the same bytes.
"""

import numpy as np

from distill_lab import training
from distill_lab.errors import DivergenceInfiniteError
from distill_lab.model import accumulate_token_grads, pad_context, prefix_id
from distill_lab.numerics import cdf_draw, cdf_rows, softmax
from distill_lab.objectives import (
    HPD_VARIANTS,
    hpd_weights,
    weight_fkld_token,
    weight_jsd_off,
    weight_rkld_off,
)


def source_row(source, prefix):
    """The source's conditional after prefix (BOS-padded to its order)."""
    return source.table.rows(prefix_id(prefix, source.order, source.vocab))


def teacher_row(teacher, prefix):
    """The teacher's conditional after prefix, read from its dists() table."""
    return teacher.dists().rows(prefix_id(prefix, teacher.order, teacher.vocab))


def model_row(model, prefix, temperature=1.0):
    """softmax(logits / temperature) of the model's row after prefix."""
    z = model.logits(pad_context(prefix, model.order, model.vocab.bos_id))
    return softmax(z if temperature == 1.0 else z / temperature)


def add_token_grad(acc, cid, token, weight, q, count=1):
    """accumulate_token_grads for one token at context id cid; q is one distribution."""
    accumulate_token_grads(acc, [cid], [token], [weight], [count], q.probs[None])


def per_token_rollout(model, prompt, steps, rng, temperature=1.0):
    """One Generator.choice per token: the sampled rollout before lockstep."""
    seq = [int(t) for t in prompt]
    for _ in range(steps):
        d = model_row(model, seq, temperature)
        seq.append(int(rng.choice(model.vocab.size, p=d.probs)))
    return seq[len(prompt):]


def greedy_rollout(model, prompt, steps):
    """`steps` greedy tokens after one prompt, one argmax of one logit row per token."""
    seq = [int(t) for t in prompt]
    for _ in range(steps):
        seq.append(int(np.argmax(model.logits(pad_context(seq, model.order,
                                                          model.vocab.bos_id)))))
    return seq[len(prompt):]


def reference_offpolicy(cfg, teacher, corpus, student):
    """distill_offpolicy one position at a time.

    Positions, HPD draws and accumulation follow the batched kernel's stated
    order, so its checkpoints and metrics must match these byte for byte.
    """
    kind = cfg.objective

    def minibatch(student, pred, acc, rng):
        cids = []
        k = cfg.hpd_samples if kind.tag in HPD_VARIANTS else 0
        lengths = np.array([len(seq) for seq in corpus.sequences])
        si = rng.integers(len(corpus.sequences), size=cfg.batch_size)
        offsets = rng.integers(0, lengths[si])
        uniforms = rng.random(cfg.batch_size * k)
        for b in range(cfg.batch_size):
            seq = corpus.sequences[int(si[b])]
            t = int(offsets[b])
            prefix, expert = seq[:t], seq[t]
            cid = prefix_id(prefix, student.order, student.vocab)
            p = teacher_row(teacher, prefix)
            q = model_row(student, prefix)
            cids.append(cid)
            tag = kind.tag
            if tag in ("sft", "seqkd"):
                add_token_grad(acc, cid, expert, 1.0, q)
            elif tag == "fkld_token":
                add_token_grad(acc, cid, expert, weight_fkld_token(p, expert), q)
            elif tag == "fkld_dense":
                acc.add_rows([cid], (p.probs - q.probs)[None], count=1)
            elif tag == "rkld_off":
                w = weight_rkld_off(p, q, expert, sign_fidelity=kind.sign_fidelity)
                add_token_grad(acc, cid, expert, w, q)
            elif tag == "jsd_off":
                w = weight_jsd_off(p, q, expert, beta=kind.beta,
                                   sign_fidelity=kind.sign_fidelity)
                add_token_grad(acc, cid, expert, w, q)
            else:
                for i in range(k):
                    sampled = int(cdf_draw(cdf_rows(q.probs), uniforms[b * k + i]))
                    hw = hpd_weights(p, q, expert, sampled, variant=tag)
                    add_token_grad(acc, cid, expert, hw.w_star / k, q,
                                   count=1 if i == 0 else 0)
                    if hw.w_sampled != 0.0:
                        add_token_grad(acc, cid, hw.sampled_token, hw.w_sampled / k, q,
                                       count=0)
        return cids, None

    return training._train_loop(cfg, teacher, student, None, minibatch)


def hpd_token(variant, p, lp, q, lq, expert, sampled):
    """HPD's (w_star, w_sampled) for one (expert, sampled) token pair, in plain Python floats.

    p, lp, q and lq are one context's teacher and student probabilities and
    their logs, indexed by token id; p and q are positive at both tokens. The
    branches are taken one at a time, as the rule reads: k1 is rkld_off's
    q (ln p - ln q) at the expert, k1' the same at the sampled token.
    """
    def k1_at(t):
        return float(q[t]) * (float(lp[t]) - float(lq[t]))

    k1, k1_sampled, p_star = k1_at(expert), k1_at(sampled), float(p[expert])
    if variant == "hpd_no_sample":
        # the sampled token is ignored, and k1 = 0 is masked too
        return (k1 if k1 <= 0.0 else p_star + k1), 0.0
    # a sampled token other than the expert that the student overestimates
    suppressed = sampled != expert and k1_sampled < 0.0
    if k1 < 0.0:
        w_star = k1  # masked: the student overestimates the expert
    elif variant == "hpd" and suppressed and k1 > 0.0:
        w_star = 2.0 * p_star + k1  # reinforced
    else:
        w_star = p_star + k1  # plain, k1 = 0 included
    return w_star, (k1_sampled if suppressed else 0.0)


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
    order, so its checkpoints and metrics must match these byte for byte.
    """
    reward_mode = "per_token" if cfg.objective.tag == "rkld_on" else cfg.opd_reward_mode
    prompts = [list(p) for p in prompts] if prompts else [[]]

    def minibatch(student, pred, acc, rng):
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
                p = teacher_row(teacher, seq)
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
        accumulate_token_grads(acc, cids, tokens, np.array(coeffs) - baseline,
                               np.ones(len(tokens), dtype=np.int64), np.array(qs))
        return cids, batch_rewards

    return training._train_loop(cfg, teacher, student, None, minibatch)
