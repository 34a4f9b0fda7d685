"""Oracle tests for gradient checking, audits, entropies, accuracy, and K1 studies."""

import itertools
import math

import numpy as np
import pytest

from distill_lab.data import (
    BIMODAL_EPS,
    CHOOSER_TOKEN,
    COIN_A,
    COIN_B,
    GAP_TOKEN,
    build_source,
    sample_corpus,
)
from distill_lab import evaluation
from distill_lab.errors import DivergenceInfiniteError, InvalidInputError, InvalidParameterError
from distill_lab.evaluation import CompletionTasks, EvalPlan, gradcheck, make_completion_tasks
from distill_lab.model import TabularLM, Vocab
from distill_lab.numerics import CategoricalDist, entropy, softmax
from distill_lab.training import train_teacher_mle
from oracles import (bimodal_mixture, greedy_rollout, k1_samples, kl_exact, model_row,
                     model_source, plan_divergences, reference_completion_accuracy,
                     source_row)


def dist(*probs):
    return CategoricalDist.from_probs(np.array(probs))


class TestGradcheck:
    def test_single_uniform_token(self):
        m = TabularLM(order=1, vocab=Vocab.default(2))
        assert gradcheck(m, [((0,), 0, 1.0)]) < 1e-6

    def test_zero_weight_defines_zero_error(self):
        m = TabularLM(order=1, vocab=Vocab.default(2))
        assert gradcheck(m, [((0,), 0, 0.0)]) == 0.0

    def test_random_batch_of_64(self):
        m, items = random_gradcheck_batch(order=1, v=8, n=64, seed=1)
        assert gradcheck(m, items) < 1e-5

    def test_order_two_contexts(self):
        m, items = random_gradcheck_batch(order=2, v=4, n=40, seed=2)
        assert len({ctx for ctx, _, _ in items}) > 10
        assert gradcheck(m, items) < 1e-5

    def test_batch_repeating_a_context(self):
        # one row carries several items, some on the same token, beside a row of its own
        m, items = random_gradcheck_batch(order=2, v=5, n=6, seed=3)
        items = [((1, 4), t, w) for _, t, w in items] + [((0, 2), 3, -0.7), ((1, 4), 2, 1.1)]
        m.set_row((1, 4), np.random.default_rng(3).normal(size=5))
        assert gradcheck(m, items) < 1e-5

    @pytest.mark.parametrize("order", [1, 2])
    def test_chunked_rows_give_the_one_chunk_error(self, monkeypatch, order):
        # repeated contexts put several items on one row; every row's items share a chunk
        m, items = random_gradcheck_batch(order=order, v=5, n=30, seed=order)
        items += [(ctx, (t + 1) % 5, -w) for ctx, t, w in items[::3]]
        whole = gradcheck(m, items)
        assert len({ctx for ctx, _, _ in items}) > 3
        for cap in (1, 2 * 5 * 5 * 2, 2 * 5 * 5 * 3 + 7):  # 1, 2 and 3 rows per chunk
            monkeypatch.setattr(evaluation, "MAX_TABLE_ENTRIES", cap)
            assert gradcheck(m, items) == whole

    def test_a_wrong_analytic_gradient_fails(self, monkeypatch):
        # weights scaled by 1 + 1e-3 in the accumulation gradcheck calls, not in its loss
        m, items = random_gradcheck_batch(order=1, v=8, n=64, seed=1)
        accumulate = evaluation.accumulate_token_grads

        def scaled(ids, tokens, weights, q):
            return accumulate(ids, tokens, np.asarray(weights) * (1.0 + 1e-3), q)

        monkeypatch.setattr(evaluation, "accumulate_token_grads", scaled)
        assert gradcheck(m, items) > 1e-4

    def test_bad_eps(self):
        m = TabularLM(order=1, vocab=Vocab.default(2))
        with pytest.raises(InvalidParameterError):
            gradcheck(m, [((0,), 0, 1.0)], eps=1.0)


def random_gradcheck_batch(order, v, n, seed):
    """A model with random rows at n random contexts, and one weighted token at each."""
    rng = np.random.default_rng(seed)
    m = TabularLM(order=order, vocab=Vocab.default(v))
    items = []
    for _ in range(n):
        ctx = tuple(int(x) for x in rng.integers(v, size=order))
        m.set_row(ctx, rng.normal(size=v))
        items.append((ctx, int(rng.integers(v)), float(rng.uniform(-2, 2))))
    return m, items


def _kl_or_inf(p, q):
    try:
        return kl_exact(p, q)
    except DivergenceInfiniteError:
        return math.inf


def reference_divergence_audit(student, teacher, states):
    """Mean KL(p||q) and KL(q||p) over explicit prefix states, one state at a time."""
    fwd, rev = 0.0, 0.0
    for prefix in states:
        p = source_row(teacher, prefix)
        q = model_row(student, prefix)
        fwd += _kl_or_inf(p, q)
        rev += _kl_or_inf(q, p)
    return fwd / len(states), rev / len(states)


def reference_enumeration(student, teacher, eval_len, eval_from):
    """The exact metric by enumerating every prefix shorter than eval_len with its
    probability under the driving model; prefixes of probability 0 are skipped."""
    def drive(prefix):
        if eval_from == "teacher":
            return source_row(teacher, prefix)
        return model_row(student, prefix)

    fwd = rev = 0.0
    level = [([], 1.0)]
    for _ in range(eval_len):
        for prefix, w in level:
            p = source_row(teacher, prefix)
            q = model_row(student, prefix)
            fwd += w * _kl_or_inf(p, q)
            rev += w * _kl_or_inf(q, p)
        level = [(prefix + [v], w * float(d.probs[v])) for prefix, w in level
                 for d in [drive(prefix)] for v in np.flatnonzero(d.probs).tolist()]
    return fwd / eval_len, rev / eval_len


def _random_student(order, v, rng):
    student = TabularLM(order=order, vocab=Vocab.default(v))
    for ctx in list(itertools.product(range(v), repeat=order))[::3]:
        student.set_row(ctx, 3.0 * rng.normal(size=v))
    return student


class TestDivergenceAudit:
    def test_student_equals_teacher(self):
        src = build_source({"name": "random_dirichlet", "seed": 0, "vocab_size": 4,
                            "order": 1})
        student = TabularLM(order=1, vocab=Vocab.default(4))
        for i in range(4):
            student.set_row((i,), np.log(source_row(src, [i]).probs))
        for eval_from in ("teacher", "student"):
            fwd, rev = plan_divergences(student, src, eval_from=eval_from)
            assert fwd == pytest.approx(0.0, abs=1e-12)
            assert rev == pytest.approx(0.0, abs=1e-12)

    def test_best_response_at_ambiguous_state(self):
        # an order-1 student that is exact wherever the last token decides the next
        # and the 50/50 mode mixture at the gap: only (coin, gap) contexts cost KL,
        # each KL(mix || mode row) by direct summation, weighted by their occupancy
        src = build_source({"name": "bimodal_gap"})
        mix = bimodal_mixture(BIMODAL_EPS)
        student = TabularLM(order=1, vocab=Vocab.default(6))
        for tok in range(6):
            row = mix.probs if tok == GAP_TOKEN else source_row(src, (CHOOSER_TOKEN, tok)).probs
            student.set_row((tok,), np.log(row))
        mode_row = source_row(src, (COIN_A, GAP_TOKEN))
        expected = float(np.sum(mix.probs * (np.log(mix.probs) - mode_row.logprobs)))
        occ = EvalPlan(src, student, 12, "teacher").occ
        coin_gap = occ[COIN_A * 6 + GAP_TOKEN] + occ[COIN_B * 6 + GAP_TOKEN]
        _, rev = plan_divergences(student, src, 12, "teacher")
        assert coin_gap > 0.1
        assert rev == pytest.approx(coin_gap * expected, rel=1e-12)

    def test_support_violation_reads_inf(self):
        src = build_source({"name": "uniform", "vocab_size": 2})
        student = TabularLM(order=1, vocab=Vocab.default(2))
        # a 2000-nat logit gap underflows to an exact zero probability
        student.set_row((0,), [0.0, -2000.0])
        fwd, rev = plan_divergences(student, src, eval_len=2)
        assert fwd == math.inf
        # context (0,) has occupancy (1 + 1/2) / 2, and KL([1, 0] || uniform) = ln 2
        assert rev == pytest.approx(0.75 * np.log(2.0), abs=1e-12)

    def test_empty_states(self):
        src = build_source({"name": "uniform", "vocab_size": 2})
        student = TabularLM(order=1, vocab=Vocab.default(2))
        for eval_len in (0, -1):
            with pytest.raises(InvalidInputError):
                EvalPlan(src, student, eval_len, "teacher")

    def test_mismatched_inputs_rejected(self):
        teacher = build_source({"name": "uniform", "vocab_size": 3})
        student = TabularLM(order=1, vocab=Vocab.default(3))
        for other, needle in ((TabularLM(order=1, vocab=Vocab.default(4)), "vocabulary size"),
                              (TabularLM(order=1, vocab=Vocab(("a", "b", "c"), bos_id=1)),
                               "BOS")):
            with pytest.raises(InvalidInputError, match=needle):
                EvalPlan(teacher, other, 4, "teacher")
        with pytest.raises(InvalidInputError, match="eval_from"):
            EvalPlan(teacher, student, 4, "elsewhere")


def _teacher(kind, src, rng):
    if kind == "oracle":
        return src
    return model_source(train_teacher_mle(sample_corpus(src, 10, 12, rng), 3, 0.1))


class TestPairCachedAudit:
    """The exact evaluator computes each order-m context's (teacher row, student row)
    pair once and weights it by occupancy; the per-state loop over sampled prefixes
    must converge to it, and prefix enumeration must equal it."""

    @pytest.mark.parametrize("teacher_kind", ["oracle", "mle"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_per_state_loop(self, order, teacher_kind):
        rng = np.random.default_rng(order)
        eval_len, n_seqs = 6, 400
        for src in (build_source({"name": "bimodal_gap"}),
                    build_source({"name": "random_dirichlet", "seed": order,
                                  "vocab_size": 4, "order": order})):
            v = src.vocab.size
            teacher = _teacher(teacher_kind, src, rng)
            student = _random_student(order, v, rng)
            for eval_from in ("teacher", "student"):
                assert plan_divergences(student, teacher, 4, eval_from) == pytest.approx(
                    reference_enumeration(student, teacher, 4, eval_from), rel=1e-12)
                want = plan_divergences(student, teacher, eval_len, eval_from)
                if eval_from == "student":
                    seqs = model_source(student).rollouts([[]] * n_seqs, eval_len, rng).tolist()
                else:
                    seqs = teacher.rollouts([[]] * n_seqs, eval_len, rng).tolist()
                # each sequence's mean over its prefixes is one i.i.d. draw
                per_seq = np.array([reference_divergence_audit(
                    student, teacher, [seq[:t] for t in range(eval_len)]) for seq in seqs])
                mean = per_seq.mean(axis=0)
                stderr = per_seq.std(axis=0, ddof=1) / np.sqrt(n_seqs)
                assert np.all(np.abs(mean - want) <= 4.0 * stderr + 1e-12), (
                    src.name, eval_from, mean, want, stderr)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_support_violations_on_cycle(self, order):
        # from BOS (token 0) the cycle emits 1, 2, 3, ...: with eval_len 3 the
        # contexts after [], [1] and [1, 2] are reached, the all-3 context is not
        teacher = build_source({"name": "deterministic_cycle", "vocab_size": 4})
        reached = [((0,) * order + tuple(h))[-order:] for h in ([], [1], [1, 2])]

        def student_with(rows):
            student = TabularLM(order=order, vocab=Vocab.default(4))
            for ctx, nxt in zip(reached, (1, 2, 3)):
                student.set_row(ctx, np.where(np.arange(4) == nxt, 0.0, -2000.0))
            for ctx, row in rows.items():
                student.set_row(ctx, row)
            return student

        one_hot_miss = [0.0, 0.0, 0.0, -2000.0]  # no mass on 3, the cycle's 2 -> 3
        cases = (({}, (False, False)),
                 ({(3,) * order: one_hot_miss}, (False, False)),
                 ({reached[2]: [0.0, 0.0, 0.0, 0.0]}, (False, True)),
                 ({reached[2]: one_hot_miss}, (True, True)))
        for rows, want in cases:
            student = student_with(rows)
            for eval_from in ("teacher", "student"):
                got = plan_divergences(student, teacher, 3, eval_from)
                assert got == pytest.approx(reference_enumeration(student, teacher, 3, eval_from),
                                            rel=1e-12)
                assert (got[0] == math.inf, got[1] == math.inf) == want, (rows, eval_from)
            if not any(want):
                assert got == (0.0, 0.0)


def occupancy_entropy(model, teacher, eval_len, eval_from):
    """The model's entropy at each context weighted by its occupancy: eval's mean_entropy."""
    plan = EvalPlan(teacher, model, eval_len, eval_from)
    q = softmax(model.table)
    return plan.occupancy(q.probs) @ entropy(q)[plan.student_ids]


class TestPositionalEntropy:
    """The exact occupancy-weighted entropy that replaced the sampled per-position profile:
    the mean over positions of each position's expected predictive entropy."""

    def test_deterministic_model_all_zero(self):
        m = TabularLM(order=1, vocab=Vocab.default(3))
        for i in range(3):
            row = np.full(3, -60.0)
            row[(i + 1) % 3] = 60.0
            m.set_row((i,), row)
        teacher = build_source({"name": "uniform", "vocab_size": 3})
        for eval_len in (1, 8):
            assert occupancy_entropy(m, teacher, eval_len, "student") == pytest.approx(
                0.0, abs=1e-12)

    def test_untrained_model_constant_ln_v(self):
        m = TabularLM(order=1, vocab=Vocab.default(4))
        teacher = build_source({"name": "random_dirichlet", "seed": 1, "vocab_size": 4,
                                "order": 2})
        for eval_from in ("teacher", "student"):
            assert occupancy_entropy(m, teacher, 5, eval_from) == pytest.approx(np.log(4.0))

    def test_exactly_fit_model_matches_source_profile(self):
        # free-running and teacher-forced occupancies coincide when student == source
        src = build_source({"name": "random_dirichlet", "seed": 7, "vocab_size": 4,
                            "order": 1})
        m = TabularLM(order=1, vocab=Vocab.default(4))
        for i in range(4):
            m.set_row((i,), np.log(source_row(src, [i]).probs))
        free = occupancy_entropy(m, src, 6, "student")
        forced = occupancy_entropy(m, src, 6, "teacher")
        assert free == pytest.approx(forced, rel=1e-12)
        assert 0.1 < free < np.log(4.0)


class TestCompletionAccuracy:
    def test_exact_fit_on_cycle(self):
        m = TabularLM(order=1, vocab=Vocab.default(3))
        for i in range(3):
            row = np.full(3, -60.0)
            row[(i + 1) % 3] = 60.0
            m.set_row((i,), row)
        tasks = [([i], [(i + 1) % 3, (i + 2) % 3]) for i in range(3)]
        assert CompletionTasks(tasks, m).accuracy(m.table) == 1.0

    def test_empty_task_list(self):
        m = TabularLM(order=1, vocab=Vocab.default(2))
        with pytest.raises(InvalidInputError):
            CompletionTasks([], m)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_greedy_matches_per_task_rollouts(self, order):
        # prompts of several lengths, continuations of 1-4 tokens, rows with ties
        rng = np.random.default_rng(order)
        m = _random_student(order, 4, rng)
        m.set_row((1,) * order, [0.5, 0.5, 0.5, 0.0])
        truth = reference_tasks(build_source({"name": "random_dirichlet", "seed": order,
                                              "vocab_size": 4, "order": order}),
                                40, 4, rng, min_conf=0.0)
        tasks = [(p[:i % 5], c[:1 + i % 4]) for i, (p, c) in enumerate(truth)]
        tasks += [(p, greedy_rollout(m, p, 1)) for p, _ in tasks]
        acc = CompletionTasks(tasks, m).accuracy(m.table)
        assert acc == reference_completion_accuracy(m, tasks)
        assert 0.5 <= acc < 1.0

    def test_empty_continuation_rejected(self):
        m = TabularLM(order=1, vocab=Vocab.default(2))
        with pytest.raises(InvalidInputError, match="steps"):
            CompletionTasks([([0], [1]), ([1], [])], m)


def reference_tasks(source, num_tasks, cont_len, rng, min_conf=0.9, prompt_len=None,
                    max_attempts_factor=50):
    """make_completion_tasks one candidate at a time, stopping at num_tasks."""
    prompt_len = prompt_len if prompt_len is not None else source.order + 2
    tasks = []
    for _ in range(num_tasks * max_attempts_factor):
        if len(tasks) >= num_tasks:
            break
        # a prompt of no tokens draws nothing
        [prompt] = source.rollouts([[]], prompt_len, rng).tolist() if prompt_len else [[]]
        seq, cont = list(prompt), []
        for _t in range(cont_len):
            d = source_row(source, seq)
            tok = int(np.argmax(d.probs))
            if d.probs[tok] < min_conf:
                break
            cont.append(tok)
            seq.append(tok)
        else:
            tasks.append((prompt, cont))
    if len(tasks) < num_tasks:
        raise InvalidInputError(f"only found {len(tasks)}/{num_tasks}")
    return tasks


class TestMakeCompletionTasks:
    def test_tasks_are_near_deterministic(self):
        src = build_source({"name": "bimodal_gap"})
        tasks = make_completion_tasks(src, 20, 1, np.random.default_rng(0),
                                      min_conf=0.9)
        assert len(tasks) == 20
        for prompt, cont in tasks:
            d = source_row(src, prompt)
            assert d.probs[cont[0]] >= 0.9

    def test_deterministic_given_seed(self):
        src = build_source({"name": "bimodal_gap"})
        a = make_completion_tasks(src, 10, 2, np.random.default_rng(3))
        b = make_completion_tasks(src, 10, 2, np.random.default_rng(3))
        assert a == b

    def test_unreachable_confidence_raises(self):
        src = build_source({"name": "uniform", "vocab_size": 4})
        with pytest.raises(InvalidInputError):
            make_completion_tasks(src, 5, 1, np.random.default_rng(0), min_conf=0.99)

    @pytest.mark.parametrize("spec, num_tasks, cont_len, kw", [
        ({"name": "bimodal_gap"}, 50, 2, {}),
        ({"name": "bimodal_gap"}, 7, 3, {"min_conf": 0.85, "prompt_len": 1}),
        # one-hot rows meet min_conf = 1 exactly
        ({"name": "deterministic_cycle", "vocab_size": 5}, 12, 4, {"prompt_len": 0,
                                                                   "min_conf": 1.0}),
        ({"name": "random_dirichlet", "seed": 2, "vocab_size": 4, "order": 2,
          "concentration": 0.2}, 20, 2, {"min_conf": 0.6, "prompt_len": 6}),
        ({"name": "random_dirichlet", "seed": 3, "vocab_size": 3, "order": 3,
          "concentration": 0.3}, 9, 1, {"min_conf": 0.7, "max_attempts_factor": 3}),
        ({"name": "bimodal_gap"}, 15, 2, {"prompt_len": 5}),
    ])
    def test_matches_per_candidate_reference(self, spec, num_tasks, cont_len, kw):
        src = build_source(spec)
        got = make_completion_tasks(src, num_tasks, cont_len, np.random.default_rng(5), **kw)
        assert got == reference_tasks(src, num_tasks, cont_len, np.random.default_rng(5), **kw)

    def _candidates_used(self, src, num_tasks, cont_len, seed, **kw):
        """How many candidates the per-candidate reference draws to find its tasks."""
        rng = np.random.default_rng(seed)
        reference_tasks(src, num_tasks, cont_len, rng, **kw)
        prompt_len = kw.get("prompt_len", src.order + 2)
        fresh, used = np.random.default_rng(seed), 0
        while fresh.bit_generator.state != rng.bit_generator.state:
            fresh.random(prompt_len)
            used += 1
        return used

    def test_tasks_past_the_first_chunk(self):
        # about one candidate in eleven is kept: 2 * 30 candidates cannot hold 30 tasks
        src = build_source({"name": "bimodal_gap"})
        used = self._candidates_used(src, 30, 3, 4)
        assert used > 2 * 30
        rng = np.random.default_rng(4)
        got = make_completion_tasks(src, 30, 3, rng)
        assert got == reference_tasks(src, 30, 3, np.random.default_rng(4))
        # the chunks double from 60 and stop at the one that holds the last task
        drawn = 60
        while drawn < used:
            drawn = 2 * drawn + 60
        want = np.random.default_rng(4)
        want.random((drawn, src.order + 2))
        assert rng.random() == want.random()

    def test_one_attempt_per_task(self):
        # max_attempts_factor=1 draws one chunk of num_tasks candidates, not 2 * num_tasks
        src = build_source({"name": "deterministic_cycle", "vocab_size": 4})
        rng = np.random.default_rng(2)
        got = make_completion_tasks(src, 6, 2, rng, min_conf=1.0, max_attempts_factor=1)
        assert got == reference_tasks(src, 6, 2, np.random.default_rng(2), min_conf=1.0,
                                      max_attempts_factor=1)
        want = np.random.default_rng(2)
        want.random((6, src.order + 2))
        assert rng.random() == want.random()

    @pytest.mark.parametrize("spec, num_tasks, cont_len, kw", [
        ({"name": "uniform", "vocab_size": 4}, 5, 2, {"min_conf": 0.5}),
        ({"name": "bimodal_gap"}, 10, 3, {"min_conf": 0.9, "max_attempts_factor": 1}),
    ])
    def test_shortfall_message(self, spec, num_tasks, cont_len, kw):
        src = build_source(spec)
        with pytest.raises(InvalidInputError) as want:
            reference_tasks(src, num_tasks, cont_len, np.random.default_rng(0), **kw)
        with pytest.raises(InvalidInputError) as got:
            make_completion_tasks(src, num_tasks, cont_len, np.random.default_rng(0), **kw)
        assert str(got.value) == (f"{want.value} near-deterministic tasks "
                                  f"(min_conf={kw['min_conf']}, cont_len={cont_len})")

    def test_shortfall_counts_every_candidate(self):
        # 10 candidates, of which the reference keeps the same count
        src = build_source({"name": "random_dirichlet", "seed": 1, "vocab_size": 3,
                            "order": 1, "concentration": 0.3})
        kw = dict(min_conf=0.8, max_attempts_factor=1)
        with pytest.raises(InvalidInputError) as want:
            reference_tasks(src, 10, 1, np.random.default_rng(0), **kw)
        with pytest.raises(InvalidInputError) as got:
            make_completion_tasks(src, 10, 1, np.random.default_rng(0), **kw)
        assert str(want.value) in str(got.value)


class TestK1Study:
    """Bias, variance and sign of the one-sample reverse-KL estimator from k1_samples."""

    def test_identity_zero_everything(self):
        d = dist(0.5, 0.5)
        vals = k1_samples(d, d, 1000, np.random.default_rng(0))
        assert not vals.any()

    def test_negative_fraction_matches_event_probability(self):
        # value < 0 iff q < p at the sampled token; here only token 0 (q-mass 0.5)
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        vals = k1_samples(p, q, 10_000, np.random.default_rng(5))
        sigma = np.sqrt(0.25 / 10_000)
        assert abs(np.mean(vals < 0.0) - 0.5) <= 3 * sigma

    def test_grand_mean_within_pooled_stderr(self):
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        trial_means = k1_samples(p, q, 100_000, np.random.default_rng(6)).reshape(
            100, 1000).mean(axis=1)
        exact_kl = kl_exact(q, p)
        assert exact_kl == pytest.approx(0.223144, abs=1e-6)
        pooled = np.sqrt(trial_means.var(ddof=1) / trial_means.size)
        assert abs(trial_means.mean() - exact_kl) <= 3 * pooled

    def test_validation(self):
        d = dist(0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            k1_samples(d, d, 0, np.random.default_rng(0))
