"""Oracle tests for gradient checking, audits, profiles, accuracy, and K1 studies."""

import itertools
import math

import numpy as np
import pytest

from distill_lab.data import (
    BIMODAL_EPS,
    COIN_A,
    COIN_B,
    GAP_TOKEN,
    bimodal_ambiguous_mixture,
    build_source,
    sample_corpus,
)
from distill_lab.errors import DivergenceInfiniteError, InvalidInputError
from distill_lab.evaluation import (
    completion_accuracy,
    divergence_audit,
    gradcheck,
    k1_study,
    make_completion_tasks,
    positional_entropy,
)
from distill_lab.model import TabularLM, Vocab
from distill_lab.numerics import CategoricalDist, kl_exact
from distill_lab.training import (
    ModelTeacher,
    OracleTeacher,
    draw_eval_states,
    train_teacher_mle,
)


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
        rng = np.random.default_rng(1)
        m = TabularLM(order=1, vocab=Vocab.default(8))
        items = []
        for _ in range(64):
            ctx = (int(rng.integers(8)),)
            m.set_row(ctx, rng.normal(size=8))
            items.append((ctx, int(rng.integers(8)), float(rng.uniform(-2, 2))))
        assert gradcheck(m, items) < 1e-5

    def test_bad_eps(self):
        from distill_lab.errors import InvalidParameterError

        m = TabularLM(order=1, vocab=Vocab.default(2))
        with pytest.raises(InvalidParameterError):
            gradcheck(m, [((0,), 0, 1.0)], eps=1.0)


class TestDivergenceAudit:
    def test_student_equals_teacher(self):
        src = build_source({"name": "random_dirichlet", "seed": 0, "vocab_size": 4,
                            "order": 1})
        student = TabularLM(order=1, vocab=Vocab.default(4))
        for i in range(4):
            student.set_row((i,), np.log(src.conditional((i,)).probs))
        teacher = OracleTeacher(src)
        fwd, rev = divergence_audit(student, teacher, [[0], [1], [2], [3]])
        assert fwd == pytest.approx(0.0, abs=1e-12)
        assert rev == pytest.approx(0.0, abs=1e-12)

    def test_best_response_at_ambiguous_state(self):
        # the order-1 optimum at the gap state is the 50/50 mode mixture;
        # its reverse KL to the true mode row is computed by direct summation
        src = build_source({"name": "bimodal_gap"})
        teacher = OracleTeacher(src)
        mix = bimodal_ambiguous_mixture(BIMODAL_EPS)
        student = TabularLM(order=1, vocab=Vocab.default(6))
        student.set_row((GAP_TOKEN,), np.log(mix.probs))
        mode_row = src.conditional((COIN_A, GAP_TOKEN))
        expected = float(np.sum(mix.probs * (np.log(mix.probs) - mode_row.logprobs)))
        _, rev = divergence_audit(student, teacher, [[3, COIN_A, GAP_TOKEN]])
        assert rev == pytest.approx(expected, abs=1e-12)
        # symmetry: the same divergence against the other mode row
        other = src.conditional((COIN_B, GAP_TOKEN))
        _, rev_b = divergence_audit(student, teacher, [[3, COIN_B, GAP_TOKEN]])
        assert rev_b == pytest.approx(rev, abs=1e-12)

    def test_support_violation_reads_inf(self):
        src = build_source({"name": "uniform", "vocab_size": 2})
        student = TabularLM(order=1, vocab=Vocab.default(2))
        # a 2000-nat logit gap underflows to an exact zero probability
        student.set_row((0,), [0.0, -2000.0])
        fwd, rev = divergence_audit(student, OracleTeacher(src), [[0], [1]])
        assert fwd == math.inf
        # the reverse direction stays finite: KL([1, 0] || uniform) = ln 2
        assert rev == pytest.approx(np.log(2.0) / 2, abs=1e-12)

    def test_empty_states(self):
        src = build_source({"name": "uniform", "vocab_size": 2})
        student = TabularLM(order=1, vocab=Vocab.default(2))
        with pytest.raises(InvalidInputError):
            divergence_audit(student, OracleTeacher(src), [])


def reference_divergence_audit(student, teacher, states):
    """divergence_audit one state at a time: one teacher row and two KLs per state."""
    fwd, rev = 0.0, 0.0
    for prefix in states:
        p = teacher.dist(prefix)
        q = student.predict(student.context_for(prefix))
        try:
            fwd += kl_exact(p, q)
        except DivergenceInfiniteError:
            fwd += math.inf
        try:
            rev += kl_exact(q, p)
        except DivergenceInfiniteError:
            rev += math.inf
    return fwd / len(states), rev / len(states)


class TestPairCachedAudit:
    @pytest.mark.parametrize("teacher_kind", ["oracle", "mle"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_per_state_loop(self, order, teacher_kind):
        src = build_source({"name": "bimodal_gap"})
        rng = np.random.default_rng(order)
        teacher = OracleTeacher(src)
        if teacher_kind == "mle":
            teacher = ModelTeacher(train_teacher_mle(
                sample_corpus(src, 10, 12, rng), 3, 0.1))
        student = TabularLM(order=order, vocab=Vocab.default(6))
        for ctx in list(itertools.product(range(6), repeat=order))[::3]:
            student.set_row(ctx, 3.0 * rng.normal(size=6))
        states = draw_eval_states(student, teacher, 12, 10, "student", rng)
        assert (divergence_audit(student, teacher, states)
                == reference_divergence_audit(student, teacher, states))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_support_violations_on_cycle(self, order):
        # the cycle's one-hot rows make KL(q||p) infinite at every state a uniform
        # row reaches, and KL(p||q) infinite where a peaked student row misses
        teacher = OracleTeacher(build_source({"name": "deterministic_cycle", "vocab_size": 4}))
        student = TabularLM(order=order, vocab=Vocab.default(4))
        student.set_row((1,) * order, [0.0, 0.0, -2000.0, 0.0])  # the cycle's 1 -> 2
        student.set_row((0,) * order, [-2000.0, 0.0, -2000.0, -2000.0])
        finite_fwd = [[], [0], [3, 0], [0, 0, 0], [2], [0, 2]] * 2
        for states, want in ((finite_fwd, (False, True)),
                             (finite_fwd + [[0, 1, 1, 1]], (True, True))):
            got = divergence_audit(student, teacher, states)
            assert got == reference_divergence_audit(student, teacher, states)
            assert (got[0] == math.inf, got[1] == math.inf) == want


class TestPositionalEntropy:
    def test_deterministic_model_all_zero(self):
        m = TabularLM(order=1, vocab=Vocab.default(3))
        for i in range(3):
            row = np.full(3, -60.0)
            row[(i + 1) % 3] = 60.0
            m.set_row((i,), row)
        prof = positional_entropy(m, [[0]], 8, np.random.default_rng(0))
        assert np.allclose(prof.per_position, 0.0, atol=1e-12)

    def test_untrained_model_constant_ln_v(self):
        m = TabularLM(order=1, vocab=Vocab.default(4))
        prof = positional_entropy(m, [[0], [1]], 5, np.random.default_rng(0))
        assert np.allclose(prof.per_position, np.log(4.0))

    def test_exactly_fit_model_matches_source_profile(self):
        src = build_source({"name": "random_dirichlet", "seed": 7, "vocab_size": 4,
                            "order": 1})
        m = TabularLM(order=1, vocab=Vocab.default(4))
        for i in range(4):
            m.set_row((i,), np.log(src.conditional((i,)).probs))
        rng = np.random.default_rng(0)
        prompts = [[] for _ in range(1000)]
        free = positional_entropy(m, prompts, 6, rng)
        forced = positional_entropy(m, prompts, 6, rng, teacher_forced_source=src)
        assert np.allclose(free.per_position, forced.per_position, atol=0.05)

    def test_validation(self):
        m = TabularLM(order=1, vocab=Vocab.default(2))
        with pytest.raises(InvalidInputError):
            positional_entropy(m, [[0]], 0, np.random.default_rng(0))
        with pytest.raises(InvalidInputError):
            positional_entropy(m, [], 3, np.random.default_rng(0))


class TestCompletionAccuracy:
    def test_exact_fit_on_cycle(self):
        m = TabularLM(order=1, vocab=Vocab.default(3))
        for i in range(3):
            row = np.full(3, -60.0)
            row[(i + 1) % 3] = 60.0
            m.set_row((i,), row)
        tasks = [([i], [(i + 1) % 3, (i + 2) % 3]) for i in range(3)]
        assert completion_accuracy(m, tasks) == 1.0

    def test_uniform_sampled_accuracy_expected_eighth(self):
        m = TabularLM(order=1, vocab=Vocab.default(2))
        rng = np.random.default_rng(21)
        tasks = [([0], [int(b) for b in f"{i % 8:03b}"]) for i in range(10_000)]
        acc = completion_accuracy(m, tasks, sampled=True, rng=rng)
        sigma = np.sqrt(0.125 * 0.875 / 10_000)
        assert abs(acc - 0.125) <= 3 * sigma

    def test_empty_task_list(self):
        m = TabularLM(order=1, vocab=Vocab.default(2))
        with pytest.raises(InvalidInputError):
            completion_accuracy(m, [])

    def test_sampled_needs_rng(self):
        m = TabularLM(order=1, vocab=Vocab.default(2))
        with pytest.raises(InvalidInputError):
            completion_accuracy(m, [([0], [1])], sampled=True)


class TestMakeCompletionTasks:
    def test_tasks_are_near_deterministic(self):
        src = build_source({"name": "bimodal_gap"})
        tasks = make_completion_tasks(src, 20, 1, np.random.default_rng(0),
                                      min_conf=0.9)
        assert len(tasks) == 20
        for prompt, cont in tasks:
            d = src.conditional_for_prefix(prompt)
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


class TestK1Study:
    def test_identity_zero_everything(self):
        d = dist(0.5, 0.5)
        study = k1_study(d, d, 10, 100, np.random.default_rng(0))
        assert study.grand_mean == 0.0
        assert study.variance == 0.0
        assert study.negative_fraction == 0.0

    def test_negative_fraction_matches_event_probability(self):
        # value < 0 iff q < p at the sampled token; here only token 0 (q-mass 0.5)
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        study = k1_study(p, q, 10, 1000, np.random.default_rng(5))
        sigma = np.sqrt(0.25 / 10_000)
        assert abs(study.negative_fraction - 0.5) <= 3 * sigma

    def test_grand_mean_within_pooled_stderr(self):
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        study = k1_study(p, q, 100, 1000, np.random.default_rng(6))
        assert study.exact_kl == pytest.approx(0.223144, abs=1e-6)
        pooled = np.sqrt(study.variance / study.n_trials)
        assert abs(study.grand_mean - study.exact_kl) <= 3 * pooled

    def test_validation(self):
        from distill_lab.errors import InvalidParameterError

        d = dist(0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            k1_study(d, d, 0, 10, np.random.default_rng(0))
