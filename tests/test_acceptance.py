"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Criteria 1-5 and 10 are exact or statistical oracles; criteria 6-9 are
behavioral contrasts on the bimodal_gap capacity-gap setup, each judged
over seeds 0-4. Every run is deterministic given its seed, so the suite
has no flakiness: it either passes everywhere or fails everywhere.
"""

import json
import time

import numpy as np
import pytest

from distill_lab.data import (
    GAP_TOKEN,
    build_source,
    sample_corpus,
)
from distill_lab.evaluation import gradcheck, make_completion_tasks
from distill_lab.model import TabularLM, Vocab, prefix_id
from distill_lab.numerics import CategoricalDist, entropy, softmax
from distill_lab.objectives import ObjectiveKind, token_weights
from distill_lab.training import TrainConfig, distill_offpolicy, distill_onpolicy_opd
from oracles import k1_samples, kl_exact, weights_at


def report(capsys, number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE CRITERION {number:2d}: {verdict} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def train(tag, source, seed, *, steps, lr, batch_size, eval_every=None,
          corpus_seed=None, corpus_size=(200, 64), student=None, tasks=None,
          eval_len=16):
    corpus_seed = seed if corpus_seed is None else corpus_seed
    corpus = sample_corpus(source, corpus_size[0], corpus_size[1],
                           np.random.default_rng(corpus_seed), seed=corpus_seed)
    if student is None:
        student = TabularLM(order=1, vocab=Vocab.default(source.vocab.size))
    cfg = TrainConfig(
        objective=ObjectiveKind(tag), steps=steps, seed=seed, lr=lr,
        batch_size=batch_size, eval_every=eval_every or steps,
        eval_len=eval_len,
    )
    return distill_offpolicy(cfg, source, corpus, student, eval_tasks=tasks)


def tail_mean(rows, attr, k=10):
    vals = [getattr(r, attr) for r in rows[-k:]]
    return float(np.mean(vals))


def test_criterion_01_gradient_exactness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    max_err = 0.0
    for _ in range(200):
        v = int(rng.choice([2, 3, 4, 6, 8]))
        model = TabularLM(order=1, vocab=Vocab.default(v))
        ctx = (int(rng.integers(v)),)
        model.set_row(ctx, rng.normal(scale=2.0, size=v))
        token = int(rng.integers(v))
        weight = float(rng.uniform(-2.0, 2.0))
        max_err = max(max_err, gradcheck(model, [(ctx, token, weight)], eps=1e-5))
    elapsed = time.perf_counter() - t0
    ok = max_err <= 1e-5 and elapsed < 10.0
    report(capsys, 1, ok,
           f"analytic vs central-difference gradients over 200 instances: "
           f"max relative error {max_err:.2e} (<= 1e-5), {elapsed:.1f}s (< 10s)")


def test_criterion_02_hpd_weight_unit_suite(capsys):
    t0 = time.perf_counter()

    def dist(*p):
        return CategoricalDist.from_probs(np.array(p))

    def hpd(p, q, variant="hpd"):
        """(w_star, w_sampled) of variant at the pair (0, 1)."""
        return weights_at(ObjectiveKind(variant), p, q, [0, 1])

    d = dist(0.6, 0.4)
    worked = (
        abs(hpd(dist(0.8, 0.2), dist(0.5, 0.5))[0] - 1.835002) <= 1e-6
        and abs(hpd(dist(0.8, 0.2), dist(0.9, 0.1))[0] - (-0.106005)) <= 1e-6
        and abs(hpd(d, d)[0] - 0.6) <= 1e-6
    )

    # p, ln p, q and ln q of each draw at its (expert, sampled) pair
    rng = np.random.default_rng(2)
    gathered, pairs = [], []
    for _ in range(10_000):
        v = int(rng.choice([2, 4, 8]))
        p = dist(*(rng.dirichlet(np.ones(v)) * 0.9 + 0.1 / v))
        q = dist(*(rng.dirichlet(np.ones(v)) * 0.9 + 0.1 / v))
        pair = [int(rng.integers(v)), int(rng.integers(v))]
        gathered.append([a[pair] for a in (p.probs, p.logprobs, q.probs, q.logprobs)])
        pairs.append(pair)
    values, tokens = np.moveaxis(np.array(gathered), 1, 0), np.array(pairs)

    def weights(tag):
        w = token_weights(ObjectiveKind(tag), *values, tokens)
        return w[:, 0], w[:, 1]

    k1, k1_prime = weights("rkld_off")
    w_star, w_sampled = weights("hpd")
    p_star, masked = values[0][:, 0], k1 < 0.0
    want_star = np.where((k1 > 0.0) & (k1_prime < 0.0), 2.0 * p_star + k1, p_star + k1)
    suppressed = (tokens[:, 1] != tokens[:, 0]) & (k1_prime < 0.0)
    invariants = bool(
        np.all(w_star[masked] == k1[masked])
        and np.all(np.abs(w_star - want_star)[~masked] <= 1e-12)
        and np.all(w_sampled == np.where(suppressed, k1_prime, 0.0))
        and np.all(weights("hpd_no_sample")[1] == 0.0)
        and np.all(weights("hpd_no_reinforce")[0] <= w_star + 1e-12)
    )
    elapsed = time.perf_counter() - t0
    ok = worked and invariants and elapsed < 5.0
    report(capsys, 2, ok,
           f"token_weights' HPD worked cases to 1e-6 and invariants over 10^4 draws, "
           f"{elapsed:.1f}s (< 5s)")


def test_criterion_03_k1_unbiasedness_and_variance(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    n = 100_000
    ok = True
    worst_z = 0.0
    for i in range(20):
        v = [2, 4, 8][i % 3]
        p = CategoricalDist.from_probs(rng.dirichlet(np.ones(v)) * 0.9 + 0.1 / v)
        q = CategoricalDist.from_probs(rng.dirichlet(np.ones(v)) * 0.9 + 0.1 / v)
        vals = k1_samples(p, q, n, rng)
        stderr = vals.std(ddof=1) / np.sqrt(n)
        exact = kl_exact(q, p)
        ok &= abs(vals.mean() - exact) <= 3.0 * stderr
        # negative sample iff q < p at the drawn token: exact event probability
        event_p = float(np.sum(q.probs[q.probs < p.probs]))
        frac = float(np.mean(vals < 0.0))
        sigma = np.sqrt(event_p * (1.0 - event_p) / n)
        ok &= abs(frac - event_p) <= 3.0 * sigma
        worst_z = max(worst_z, abs(vals.mean() - exact) / stderr)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(capsys, 3, ok,
           f"K1 mean within 3 stderr of exact KL(q||p) and negative fraction "
           f"within 3 sigma over 20 pairs (worst |z| {worst_z:.2f}), "
           f"{elapsed:.1f}s (< 30s)")


def test_criterion_04_opd_gradient_validity(capsys):
    t0 = time.perf_counter()
    source = build_source({"name": "random_dirichlet", "seed": 0, "vocab_size": 4,
                           "order": 1})
    z0 = np.array([0.5, -0.5, 0.25, -0.25])
    p = source.table.rows(prefix_id([], source.order, source.vocab))
    q = softmax(z0)
    kl = float(np.sum(q.probs * (q.logprobs - p.logprobs)))
    exact_descent = -(q.probs * ((q.logprobs - p.logprobs) - kl))

    # finite-difference cross-check of the direct-differentiation oracle
    fd = np.zeros(4)
    eps = 1e-6
    for v in range(4):
        zp, zm = z0.copy(), z0.copy()
        zp[v] += eps
        zm[v] -= eps
        qp, qm = softmax(zp), softmax(zm)
        klp = float(np.sum(qp.probs * (qp.logprobs - p.logprobs)))
        klm = float(np.sum(qm.probs * (qm.logprobs - p.logprobs)))
        fd[v] = (klp - klm) / (2 * eps)
    oracle_ok = np.allclose(-fd, exact_descent, atol=1e-8)

    n = 100_000
    student = TabularLM(order=1, vocab=Vocab.default(4))
    student.set_row((0,), z0)
    cfg = TrainConfig(objective=ObjectiveKind("opd_k1"), steps=1, seed=0, lr=1.0,
                      batch_size=n, horizon=1, eval_every=1,
                      opd_reward_mode="trajectory", eval_len=1)
    out, _ = distill_onpolicy_opd(cfg, source, student)
    # one step at lr 1 with batch-mean averaging applies the mean direction
    empirical = out.logits((0,)) - z0
    rel = np.abs(empirical - exact_descent) / np.abs(exact_descent)
    elapsed = time.perf_counter() - t0
    ok = oracle_ok and np.all(rel < 0.05) and elapsed < 60.0
    report(capsys, 4, ok,
           f"trajectory-mode score-function direction vs exact grad KL(q||p) "
           f"over 10^5 rollouts: max per-coordinate error {rel.max():.3f} "
           f"(< 0.05), oracle FD-checked, {elapsed:.1f}s (< 60s)")


def test_criterion_05_fkld_fixed_point(capsys):
    t0 = time.perf_counter()
    source = build_source({"name": "random_dirichlet", "seed": 0, "vocab_size": 8,
                           "order": 1, "concentration": 3.0})
    _, rows = train("fkld_dense", source, 0, steps=2000, lr=0.5, batch_size=64,
                    corpus_size=(400, 64))
    kl_fwd = rows[-1].kl_fwd
    elapsed = time.perf_counter() - t0
    ok = kl_fwd < 1e-3 and elapsed < 30.0
    report(capsys, 5, ok,
           f"dense forward-KL with oracle teacher, matched orders: kl_fwd "
           f"{kl_fwd:.2e} (< 1e-3) in 2000 steps, {elapsed:.1f}s (< 30s)")


def test_criterion_06_mode_covering_vs_mode_seeking(capsys):
    t0 = time.perf_counter()
    source = build_source({"name": "bimodal_gap"})
    wins = 0
    margins = []
    for seed in range(5):
        ent = {}
        for tag in ("fkld_dense", "rkld_off"):
            out, _ = train(tag, source, seed, steps=2000, lr=0.5, batch_size=32,
                           corpus_seed=100 + seed)
            ent[tag] = entropy(softmax(out.logits((GAP_TOKEN,))))
        margins.append(ent["fkld_dense"] - ent["rkld_off"])
        wins += margins[-1] > 0.05
    elapsed = time.perf_counter() - t0
    ok = wins >= 4 and elapsed < 120.0
    report(capsys, 6, ok,
           f"entropy at the ambiguous state: fkld_dense exceeds rkld_off by a "
           f"strict margin in {wins}/5 seeds (margins "
           f"{[round(m, 3) for m in margins]}), {elapsed:.1f}s (< 2min)")


def _noisy_run(tag, source, seed):
    return train(tag, source, seed, steps=2000, lr=2.0, batch_size=1,
                 eval_every=50, corpus_seed=100 + seed)


def test_criterion_07_entropy_collapse_and_reverse_kl(capsys):
    t0 = time.perf_counter()
    source = build_source({"name": "bimodal_gap", "eps": 0.2})
    ent_wins = 0
    kl_wins = 0
    for seed in range(5):
        rows = {tag: _noisy_run(tag, source, seed)[1] for tag in ("sft", "hpd")}
        ent_wins += (tail_mean(rows["sft"], "train_entropy")
                     < tail_mean(rows["hpd"], "train_entropy"))
        kl_wins += (tail_mean(rows["hpd"], "kl_rev")
                    < tail_mean(rows["sft"], "kl_rev"))
    elapsed = time.perf_counter() - t0
    ok = ent_wins >= 4 and kl_wins >= 4 and elapsed < 300.0
    report(capsys, 7, ok,
           f"capacity-gap contrast at the 2000-step budget: sft entropy below "
           f"hpd in {ent_wins}/5 seeds, kl_rev(hpd) < kl_rev(sft) in "
           f"{kl_wins}/5 seeds, {elapsed:.1f}s (< 5min)")


def test_criterion_08_ablation_ordering(capsys):
    t0 = time.perf_counter()
    source = build_source({"name": "bimodal_gap"})
    tasks = make_completion_tasks(source, 100, 2, np.random.default_rng(7),
                                  min_conf=0.9)
    kl_wins = 0
    acc_wins = 0
    for seed in range(5):
        rows = {}
        for tag in ("hpd", "hpd_no_reinforce", "hpd_no_sample"):
            _, rows[tag] = train(tag, source, seed, steps=50, lr=0.5, batch_size=8,
                                 corpus_seed=100 + seed, tasks=tasks)
        kl_wins += rows["hpd"][-1].kl_rev <= rows["hpd_no_reinforce"][-1].kl_rev
        acc_wins += rows["hpd_no_sample"][-1].accuracy <= rows["hpd"][-1].accuracy
    elapsed = time.perf_counter() - t0
    ok = kl_wins >= 4 and acc_wins >= 4 and elapsed < 300.0
    report(capsys, 8, ok,
           f"at the fixed budget: kl_rev(hpd) <= kl_rev(hpd_no_reinforce) in "
           f"{kl_wins}/5 seeds, accuracy(hpd_no_sample) <= accuracy(hpd) in "
           f"{acc_wins}/5 seeds, {elapsed:.1f}s (< 5min)")


def test_criterion_09_initialization_effect(capsys):
    t0 = time.perf_counter()
    source = build_source({"name": "bimodal_gap", "eps": 0.2})
    wins = 0
    finals = []
    for seed in range(5):
        per_init = {}
        for tag in ("hpd", "sft"):
            noisy, _ = _noisy_run(tag, source, seed)
            # short low-noise anneal so the saved iterate is representative
            annealed, _ = train(tag, source, seed + 1000, steps=300, lr=0.3,
                                batch_size=8, corpus_seed=100 + seed,
                                student=noisy)
            cfg = TrainConfig(objective=ObjectiveKind("opd_k1"), steps=500,
                              seed=seed, lr=0.02, batch_size=4, horizon=8,
                              eval_every=100)
            _, rows = distill_onpolicy_opd(cfg, source, annealed)
            per_init[tag] = rows[-1].kl_rev
        finals.append((round(per_init["hpd"], 3), round(per_init["sft"], 3)))
        wins += per_init["hpd"] <= per_init["sft"]
    elapsed = time.perf_counter() - t0
    ok = wins >= 4 and elapsed < 300.0
    report(capsys, 9, ok,
           f"500 opd_k1 steps: final kl_rev from hpd checkpoint <= from sft "
           f"checkpoint in {wins}/5 seeds (hpd, sft pairs {finals}), "
           f"{elapsed:.1f}s (< 5min)")


def test_criterion_10_determinism(capsys, tmp_path, monkeypatch):
    from distill_lab.cli import main

    monkeypatch.chdir(tmp_path)
    cfg = {
        "seed": 7,
        "out_dir": "out",
        "source": {"name": "bimodal_gap"},
        "corpus": {"num_seqs": 30, "length": 24},
        "train": {"objective": "hpd", "steps": 40, "eval_every": 20, "lr": 0.5,
                  "batch_size": 8, "n_eval_seqs": 4, "eval_len": 8},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg) + "\n")
    opd_cfg = dict(cfg, out_dir="out_opd")
    opd_cfg["train"] = dict(cfg["train"], objective="opd_k1", horizon=4)
    opd_path = tmp_path / "o.json"
    opd_path.write_text(json.dumps(opd_cfg) + "\n")

    outputs = {}
    ok = True
    for repeat in range(2):
        assert main(["gen-corpus", "--config", str(path)]) == 0
        assert main(["distill", "--config", str(path)]) == 0
        assert main(["opd", "--config", str(opd_path)]) == 0
        tracked = [
            "out/corpus.txt", "out/metrics.csv", "out/student.json",
            "out_opd/metrics.csv", "out_opd/student.json",
        ]
        snapshot = {f: (tmp_path / f).read_bytes() for f in tracked}
        if repeat == 0:
            outputs = snapshot
        else:
            ok = all(outputs[f] == snapshot[f] for f in outputs)
    report(capsys, 10, ok,
           "repeated runs with the same config and seed produce byte-identical "
           "corpus, metrics CSV, and checkpoint files")
