"""What depends only on a corpus or only on a teacher is built once and kept on it.

A corpus keeps its offsets and its context ids per (order, BOS id, V); a
teacher keeps EvalPlan's teacher-side parts per (m, student order, BOS id,
eval_len). A run that finds them built writes the bytes of a run on new
objects, and no cached array can be written or go stale.
"""

import dataclasses

import numpy as np
import pytest

from distill_lab.data import Corpus, MarkovSource, build_source, sample_corpus
from distill_lab.errors import InvalidInputError
from distill_lab.evaluation import EvalPlan
from distill_lab.model import TabularLM, Vocab, checkpoint_save, context_ids
from distill_lab.numerics import softmax
from distill_lab.objectives import OFF_POLICY_TAGS, ObjectiveKind
from distill_lab.training import TrainConfig, distill_offpolicy, train_teacher_mle
from oracles import model_source

# an order-3 teacher: of another order than either student
TEACHER = {"name": "random_dirichlet", "seed": 4, "vocab_size": 3, "order": 3,
           "concentration": 0.7}


def _teacher_and_corpus(equal):
    """A new teacher and a new corpus drawn from it: 6 sequences of 9 tokens, or 9 of
    1 to 12 tokens."""
    teacher = build_source(TEACHER)
    rng = np.random.default_rng(11)
    if equal:
        sample = sample_corpus(teacher, 6, 9, rng)
        return teacher, Corpus(sample.tokens, sample.lengths, provenance="teacher_generated",
                               seed=11, vocab_size=3)
    seqs = [teacher.rollouts([[]], int(rng.integers(1, 13)), rng)[0].tolist()
            for _ in range(9)]
    return teacher, Corpus.from_sequences(seqs, provenance="teacher_generated", seed=11,
                                          vocab_size=3)


def _run_bytes(tmp_path, tag, order, eval_from, teacher, corpus):
    cfg = TrainConfig(objective=ObjectiveKind(tag), steps=12, seed=3, lr=0.5, batch_size=5,
                      eval_every=4, hpd_samples=2, eval_len=5, eval_from=eval_from)
    model, rows = distill_offpolicy(cfg, teacher, corpus,
                                    TabularLM(order=order, vocab=Vocab.default(3)))
    checkpoint_save(model, tmp_path / "model.json")
    return (tmp_path / "model.json").read_bytes(), [r.to_csv_line() for r in rows]


class TestFullCacheRun:
    @pytest.mark.parametrize("eval_from", ["teacher", "student"])
    @pytest.mark.parametrize("equal", [True, False])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("tag", OFF_POLICY_TAGS)
    def test_run_on_filled_caches_writes_a_new_run_s_bytes(self, tmp_path, tag, order, equal,
                                                            eval_from):
        new = _run_bytes(tmp_path, tag, order, eval_from, *_teacher_and_corpus(equal))
        teacher, corpus = _teacher_and_corpus(equal)
        # another tag and the other student order fill the caches first
        _run_bytes(tmp_path, "sft", 3 - order, eval_from, teacher, corpus)
        _run_bytes(tmp_path, "hpd", order, eval_from, teacher, corpus)
        ids = corpus.context_ids(order, 0, 3)
        plans = dict(teacher.plans)
        assert _run_bytes(tmp_path, tag, order, eval_from, teacher, corpus) == new
        # the run read what the earlier runs built
        assert corpus.context_ids(order, 0, 3) is ids
        assert teacher.plans.keys() == plans.keys()
        assert all(teacher.plans[key]["student_ids"] is plans[key]["student_ids"]
                   for key in plans)


class TestCorpusIds:
    def test_ids_are_computed_once_per_key(self):
        _, corpus = _teacher_and_corpus(False)
        first = corpus.context_ids(2, 0, 3)
        assert corpus.context_ids(2, 0, 3) is first
        assert corpus.context_ids(2, 1, 3) is not first
        assert corpus.offsets is corpus.offsets

    @pytest.mark.parametrize("equal", [True, False])
    def test_each_key_reads_its_own_ids(self, equal):
        _, corpus = _teacher_and_corpus(equal)
        offsets = np.concatenate([np.arange(n) for n in corpus.lengths])
        assert corpus.offsets.tobytes() == offsets.tobytes()
        for order, bos in [(1, 0), (2, 0), (1, 2), (2, 1), (3, 0)]:
            want = context_ids(corpus.tokens, offsets, order, bos, 3)
            assert corpus.context_ids(order, bos, 3).tobytes() == want.tobytes()

    @pytest.mark.parametrize("other", [(2, 0), (1, 1)])
    def test_students_of_another_order_or_bos_id_read_their_own_ids(self, tmp_path, other):
        # a student of order 1 and BOS id 0 trains first; one that differs in order
        # or BOS id then trains on the same corpus, as it does on a new corpus
        def run(order, bos, corpus):
            vocab = Vocab(("a", "b", "c"), bos_id=bos)
            # an order-2 teacher fitted to the corpus, padding with the student's BOS id
            table = model_source(train_teacher_mle(corpus, 2, 0.5)).table
            teacher = MarkovSource("mle_fit", 2, vocab, table)
            cfg = TrainConfig(objective=ObjectiveKind("hpd"), steps=10, seed=1,
                              batch_size=4, eval_every=5, eval_len=4)
            model, rows = distill_offpolicy(cfg, teacher, corpus,
                                            TabularLM(order=order, vocab=vocab))
            checkpoint_save(model, tmp_path / "model.json")
            return (tmp_path / "model.json").read_bytes(), [r.to_csv_line() for r in rows]

        new = run(*other, _teacher_and_corpus(False)[1])
        _, corpus = _teacher_and_corpus(False)
        run(1, 0, corpus)
        assert run(*other, corpus) == new

    def test_out_of_range_token_raises_at_every_call(self):
        corpus = Corpus.from_sequences([[3, 1, 7]], provenance="ground_truth", seed=0,
                                       vocab_size=8)
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="corpus token id 7 is out of range "
                                                        "for the vocabulary of 6"):
                corpus.context_ids(1, 0, 6)
        assert corpus.context_ids(1, 0, 8).tolist() == [0, 3, 1]


class TestNothingGoesStale:
    def test_cached_arrays_are_read_only(self):
        teacher, corpus = _teacher_and_corpus(True)
        plan = EvalPlan(teacher, TabularLM(order=1, vocab=Vocab.default(3)), 5, "teacher")
        weights, rows, ids = plan.live
        kept = [corpus.tokens, corpus.lengths, corpus.offsets, corpus.context_ids(2, 0, 3),
                plan.teacher_rows.probs, plan.teacher_rows.logprobs, plan.student_ids,
                plan.occ, weights, rows.probs, rows.logprobs, ids]
        for a in kept:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_a_write_to_the_given_arrays_reaches_no_kept_array(self):
        # the corpus keeps copies, so its ids cannot go stale and its tokens stay checked
        tokens, lengths = np.array([1, 2, 0, 2, 1]), np.array([2, 3])
        corpus = Corpus(tokens, lengths, provenance="ground_truth", seed=0, vocab_size=3)
        ids = corpus.context_ids(1, 0, 3).tolist()
        tokens[2], lengths[:] = 7, [1, 4]
        assert corpus.tokens.tolist() == [1, 2, 0, 2, 1] and corpus.lengths.tolist() == [2, 3]
        assert corpus.context_ids(1, 0, 3).tolist() == ids == [0, 1, 0, 0, 2]
        # a key first asked for after the write reads the tokens given, as checked
        assert corpus.context_ids(2, 2, 3).tolist() == [8, 7, 8, 6, 2]

    @pytest.mark.parametrize("name", ["tokens", "lengths", "provenance", "seed", "vocab_size"])
    def test_corpus_fields_cannot_be_rebound(self, name):
        _, corpus = _teacher_and_corpus(True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(corpus, name, getattr(corpus, name))

    @pytest.mark.parametrize("name", ["name", "order", "vocab", "table"])
    def test_source_fields_cannot_be_rebound(self, name):
        teacher, _ = _teacher_and_corpus(True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(teacher, name, getattr(teacher, name))


class TestTeacherPlans:
    def test_plans_share_the_teacher_parts_and_equal_a_new_teacher_s(self):
        teacher = build_source(TEACHER)
        student = TabularLM(order=2, vocab=Vocab.default(3))
        student.table[:] = np.random.default_rng(2).normal(size=student.table.shape)
        first = EvalPlan(teacher, student, 6, "teacher")
        again = EvalPlan(teacher, student, 6, "teacher")
        assert again.live is first.live and again.occ is first.occ
        assert list(teacher.plans) == [(3, 2, 0, 6)]
        # another eval_len, student order or mode is a plan of its own key
        EvalPlan(teacher, student, 7, "teacher")
        EvalPlan(teacher, TabularLM(order=1, vocab=Vocab.default(3)), 6, "student")
        assert list(teacher.plans) == [(3, 2, 0, 6), (3, 2, 0, 7), (3, 1, 0, 6)]
        d = softmax(student.table)
        want = EvalPlan(build_source(TEACHER), student, 6, "teacher").divergences(d.probs,
                                                                                d.logprobs)
        assert repr(again.divergences(d.probs, d.logprobs)) == repr(want)

    def test_student_occupancy_is_propagated_at_each_reading(self):
        teacher = build_source(TEACHER)
        plans = [EvalPlan(teacher, TabularLM(order=1, vocab=Vocab.default(3)), 6, "student")
                 for _ in range(2)]
        assert plans[1].occ is None and plans[1].live is None
        rng = np.random.default_rng(5)
        for _ in range(3):
            d = softmax(rng.normal(size=(3, 3)))
            probs, logprobs = d.probs, d.logprobs
            new = EvalPlan(build_source(TEACHER), TabularLM(order=1, vocab=Vocab.default(3)),
                           6, "student")
            assert repr(plans[1].divergences(probs, logprobs)) == repr(
                new.divergences(probs, logprobs))

    def test_every_build_checks_its_arguments(self):
        teacher = build_source(TEACHER)
        EvalPlan(teacher, TabularLM(order=1, vocab=Vocab.default(3)), 6, "teacher")
        with pytest.raises(InvalidInputError, match="different BOS ids"):
            EvalPlan(teacher, TabularLM(order=1, vocab=Vocab(("a", "b", "c"), bos_id=1)), 6,
                     "teacher")
        with pytest.raises(InvalidInputError, match="vocabulary size 3 != student"):
            EvalPlan(teacher, TabularLM(order=1, vocab=Vocab.default(4)), 6, "teacher")
        with pytest.raises(InvalidInputError, match="unknown eval_from"):
            EvalPlan(teacher, TabularLM(order=1, vocab=Vocab.default(3)), 6, "elsewhere")

    @pytest.mark.parametrize("eval_len", [0, -3])
    def test_eval_len_reads_as_train_configs_bound(self, eval_len):
        # TrainConfig states the same bound in the same words
        with pytest.raises(InvalidInputError, match="^eval_len must be >= 1$"):
            EvalPlan(build_source(TEACHER), TabularLM(order=1, vocab=Vocab.default(3)),
                     eval_len, "teacher")
