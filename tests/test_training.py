"""Oracle tests for teacher fitting and the off-/on-policy training loops."""

import itertools

import numpy as np
import pytest

from distill_lab import model as model_mod
from distill_lab import training
from distill_lab.data import Corpus, build_source, sample_corpus, generate_seqkd_corpus
from distill_lab.cli import _Inputs
from distill_lab.evaluation import CompletionTasks, EvalPlan
from distill_lab.errors import (
    ConfigError,
    DivergenceInfiniteError,
    InvalidInputError,
    LogOfZeroError,
    NumericOverflowError,
)
from distill_lab.model import (
    GradAccumulator,
    TabularLM,
    Vocab,
    checkpoint_save,
    pad_context,
    prefix_id,
    sgd_step,
)
from distill_lab.numerics import (CategoricalDist, cdf_draw, cdf_rows, entropy, log_probs, softmax,
                                 softmax_rows)
from distill_lab.objectives import OFF_POLICY_TAGS, ObjectiveKind
from distill_lab.training import (
    METRICS_HEADER,
    MetricsRow,
    Stage,
    TrainConfig,
    distill_offpolicy,
    distill_onpolicy_opd,
    metrics_write,
    run_experiment,
    train_teacher_mle,
)
from oracles import (
    draws_batched,
    draws_per_rollout,
    kl_exact,
    mle_add_at,
    model_row,
    model_source,
    offpolicy_token,
    plan_divergences,
    reference_completion_accuracy,
    reference_offpolicy,
    reference_opd,
    row_values,
    source_row,
    weights_at,
)


def small_cfg(tag, **kw):
    defaults = dict(steps=20, seed=0, lr=0.5, batch_size=8, eval_every=10, eval_len=8)
    defaults.update(kw)
    return TrainConfig(objective=ObjectiveKind(tag), **defaults)


class TestTrainTeacherMLE:
    def test_symmetric_counts(self):
        # sequence [1, 1, 2]: after token 1 the continuations are 1 and 2
        corpus = Corpus.from_sequences([[1, 1, 2]], provenance="ground_truth",
                        seed=0, vocab_size=3)
        model = train_teacher_mle(corpus, order=1, lam=0.0)
        probs = softmax(model.logits((1,))).probs
        assert probs[1] == pytest.approx(0.5) and probs[2] == pytest.approx(0.5)
        assert probs[0] == pytest.approx(0.0, abs=1e-12)

    def test_cycle_corpus_one_hot_rows(self):
        src = build_source({"name": "deterministic_cycle", "vocab_size": 3})
        corpus = sample_corpus(src, 20, 30, np.random.default_rng(0))
        model = train_teacher_mle(corpus, order=1, lam=0.0)
        for i in range(3):
            assert softmax(model.logits((i,))).probs[(i + 1) % 3] == pytest.approx(1.0)

    def test_large_corpus_recovers_source(self):
        src = build_source({"name": "random_dirichlet", "seed": 4, "vocab_size": 4,
                            "order": 1})
        corpus = sample_corpus(src, 100, 10_000, np.random.default_rng(1))
        model = train_teacher_mle(corpus, order=1, lam=0.1)
        for i in range(4):
            assert kl_exact(source_row(src, [i]), softmax(model.logits((i,)))) < 1e-3

    def test_smoothing_gives_full_support(self):
        corpus = Corpus.from_sequences([[1, 1]], provenance="ground_truth",
                        seed=0, vocab_size=3)
        model = train_teacher_mle(corpus, order=1, lam=1.0)
        assert np.all(softmax(model.logits((1,))).probs > 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_smoothing_rejected(self, lam):
        # a NaN passes lam < 0.0 and would give every row the same logits
        corpus = Corpus.from_sequences([[1, 1]], provenance="ground_truth", seed=0, vocab_size=3)
        with pytest.raises(InvalidInputError, match="smoothing must be finite, got "):
            train_teacher_mle(corpus, order=1, lam=lam)


def reference_train_teacher_mle(corpus, order, lam):
    """train_teacher_mle counting into a dict of rows keyed by context tuple."""
    v = corpus.vocab_size
    counts = {}
    for seq in corpus.sequences:
        for t, tok in enumerate(seq):
            row = counts.setdefault(pad_context(seq[:t], order, 0), np.zeros(v))
            row[tok] += 1.0
    model = TabularLM(order=order, vocab=Vocab.default(v))
    for ctx, row in counts.items():
        probs = (row + lam) / (row.sum() + lam * v)
        with np.errstate(divide="ignore"):
            logits = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)),
                              training.LOGIT_FLOOR)
        model.set_row(ctx, logits)
    return model


class TestMLEMatchesDictReference:
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("teacher", ["bimodal_gap", "dirichlet"])
    def test_checkpoint_bytes(self, tmp_path, teacher, order, lam):
        _, corpus = _variable_length_corpus(teacher)
        for name, fit in (("dense", train_teacher_mle), ("dict", reference_train_teacher_mle)):
            checkpoint_save(fit(corpus, order, lam), tmp_path / f"{name}.json")
        assert (tmp_path / "dense.json").read_bytes() == (tmp_path / "dict.json").read_bytes()

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_counts_equal_add_at_reference(self, order, lam):
        # one bincount of flat (context, token) indices counts what np.add.at counts
        _, corpus = _variable_length_corpus("dirichlet")
        fit, ref = train_teacher_mle(corpus, order, lam), mle_add_at(corpus, order, lam)
        assert np.array_equal(fit.touched, ref.touched)
        assert fit.table.tobytes() == ref.table.tobytes()

    def test_out_of_range_token(self):
        corpus = Corpus.from_sequences([[0, 1], [2, 5]], provenance="ground_truth", seed=0,
                        vocab_size=3)
        with pytest.raises(InvalidInputError, match="corpus token id 5"):
            train_teacher_mle(corpus, 1, 0.1)


class TestTeacherProviders:
    """A teacher is a MarkovSource: the source itself, or the softmax of an MLE fit."""

    def test_oracle_matches_source(self):
        inputs = _Inputs({"seed": 0, "source": {"name": "bimodal_gap"}})
        assert inputs.teacher is inputs.source

    @pytest.mark.parametrize("order", [1, 2])
    def test_mle_fit_table_is_the_fit_softmax(self, order):
        inputs = _Inputs({"seed": 0, "source": {"name": "random_dirichlet", "seed": 1,
                                                "vocab_size": 3, "order": order},
                          "corpus": {"num_seqs": 5, "length": 7},
                          "teacher": {"mode": "mle_fit", "smoothing": 0.0}})
        teacher = inputs.teacher
        fit = train_teacher_mle(inputs.ground_truth, order, 0.0)
        assert (teacher.name, teacher.order, teacher.vocab) == ("mle_fit", order, fit.vocab)
        want = softmax(fit.table)
        assert teacher.table.probs.tobytes() == want.probs.tobytes()
        assert teacher.table.logprobs.tobytes() == want.logprobs.tobytes()
        # row i is the context with id i: one softmax of the fit's row there
        for i, ctx in enumerate(itertools.product(range(3), repeat=order)):
            assert np.array_equal(teacher.table.probs[i], softmax(fit.logits(ctx)).probs)


class TestTrainConfig:
    def test_validation(self):
        kind = ObjectiveKind("sft")
        with pytest.raises(ConfigError):
            TrainConfig(objective=kind, steps=0, seed=0)
        with pytest.raises(ConfigError):
            TrainConfig(objective=kind, steps=1, seed=0, lr=0.0)
        for lr in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError, match="lr must be finite, got "):
                TrainConfig(objective=kind, steps=1, seed=0, lr=lr)
        with pytest.raises(ConfigError):
            TrainConfig(objective=kind, steps=1, seed=0, opd_reward_mode="nope")
        with pytest.raises(ConfigError):
            TrainConfig(objective=kind, steps=1, seed=0, eval_from="elsewhere")
        for eval_len in (0, -1):
            with pytest.raises(ConfigError):
                TrainConfig(objective=kind, steps=1, seed=0, eval_len=eval_len)
        # an off-policy config's horizon is checked too, so every stage's config is
        # whole before the first stage runs
        for horizon in (0, -1):
            with pytest.raises(ConfigError, match="^horizon must be >= 1$"):
                TrainConfig(objective=kind, steps=1, seed=0, horizon=horizon)
        # numpy seeds a generator with a non-negative integer only
        for seed in (-1, -5, -2**63):
            with pytest.raises(ConfigError, match=f"^seed must be >= 0, got {seed}$"):
                TrainConfig(objective=kind, steps=1, seed=seed)


class TestMetricsRow:
    def test_csv_line_blank_optionals(self):
        row = MetricsRow(step=5, objective="sft", seed=1, train_entropy=0.5,
                         kl_fwd=0.25, kl_rev=0.125)
        line = row.to_csv_line()
        assert line == "5,sft,1,0.5,0.25,0.125,,,"

    def test_metrics_write_header_and_meta(self, tmp_path):
        rows = [MetricsRow(step=1, objective="hpd", seed=0, train_entropy=1.0,
                           kl_fwd=0.0, kl_rev=0.0)]
        path = tmp_path / "m.csv"
        metrics_write(rows, path, meta={"seed": 0})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == METRICS_HEADER
        assert len(lines) == 3


class TestDistillOffpolicy:
    def _setup(self, seed=0, eps=0.1):
        src = build_source({"name": "bimodal_gap", "eps": eps})
        teacher = src
        corpus = sample_corpus(src, 50, 32, np.random.default_rng(seed), seed=seed)
        student = TabularLM(order=1, vocab=Vocab.default(6))
        return teacher, corpus, student

    def test_rejects_on_policy_objective(self):
        teacher, corpus, student = self._setup()
        with pytest.raises(ConfigError):
            distill_offpolicy(small_cfg("opd_k1"), teacher, corpus, student)

    def test_seqkd_requires_teacher_generated(self):
        teacher, corpus, student = self._setup()
        with pytest.raises(ConfigError):
            distill_offpolicy(small_cfg("seqkd"), teacher, corpus, student)

    def test_seqkd_accepts_teacher_corpus(self):
        src = build_source({"name": "deterministic_cycle", "vocab_size": 3})
        fit = train_teacher_mle(
            sample_corpus(src, 50, 32, np.random.default_rng(0)), 1, 0.0
        )
        kd = generate_seqkd_corpus(fit, [[] for _ in range(10)], 16,
                                   np.random.default_rng(1))
        teacher = model_source(fit)
        student = TabularLM(order=1, vocab=Vocab.default(3))
        _, rows = distill_offpolicy(small_cfg("seqkd"), teacher, kd, student)
        assert rows[-1].objective == "seqkd"

    def test_input_student_not_mutated(self):
        teacher, corpus, student = self._setup()
        distill_offpolicy(small_cfg("sft"), teacher, corpus, student)
        assert not student.touched.any() and not student.table.any()

    def test_deterministic_given_seed(self):
        teacher, corpus, student = self._setup()
        out1, rows1 = distill_offpolicy(small_cfg("hpd"), teacher, corpus, student)
        out2, rows2 = distill_offpolicy(small_cfg("hpd"), teacher, corpus, student)
        assert np.array_equal(out1.touched, out2.touched)
        assert np.array_equal(out1.table, out2.table)
        assert [r.to_csv_line() for r in rows1] == [r.to_csv_line() for r in rows2]

    def test_eval_rows_at_schedule(self):
        teacher, corpus, student = self._setup()
        _, rows = distill_offpolicy(small_cfg("fkld_dense", steps=25, eval_every=10),
                                    teacher, corpus, student)
        assert [r.step for r in rows] == [10, 20, 25]

    def test_sft_on_deterministic_corpus_collapses_entropy(self):
        src = build_source({"name": "deterministic_cycle", "vocab_size": 3})
        teacher = src
        corpus = sample_corpus(src, 10, 30, np.random.default_rng(0))
        student = TabularLM(order=1, vocab=Vocab.default(3))
        cfg = small_cfg("sft", steps=800, lr=1.0, batch_size=16)
        out, rows = distill_offpolicy(cfg, teacher, corpus, student)
        tasks = [([i], [(i + 1) % 3, (i + 2) % 3]) for i in range(3)]
        assert CompletionTasks(tasks, out).accuracy(out.table) == 1.0
        assert rows[-1].train_entropy < 0.05
        for i in range(3):
            assert entropy(softmax(out.logits((i,)))) < 0.05

    def test_all_offpolicy_objectives_descend_forward_kl(self):
        for tag in ("sft", "fkld_token", "fkld_dense", "rkld_off", "jsd_off",
                    "hpd", "hpd_no_sample", "hpd_no_reinforce"):
            teacher, corpus, student = self._setup(seed=1)
            cfg = small_cfg(tag, steps=200, eval_every=20, batch_size=16)
            _, rows = distill_offpolicy(cfg, teacher, corpus, student)
            assert rows[-1].kl_fwd < 0.9 * rows[0].kl_fwd, tag

    def test_hpd_identity_initialization_acts_like_fkld(self):
        # when q == p the hpd weights reduce to (p*, 0): the first hpd step
        # equals the first fkld_token step given identical sampling streams
        src = build_source({"name": "random_dirichlet", "seed": 6, "vocab_size": 4,
                            "order": 1})
        teacher = src
        student = TabularLM(order=1, vocab=Vocab.default(4))
        for i in range(4):
            student.set_row((i,), np.log(source_row(src, [i]).probs))
        corpus = sample_corpus(src, 20, 16, np.random.default_rng(0))
        cfg_h = small_cfg("hpd", steps=1, eval_every=1)
        out_h, rows_h = distill_offpolicy(cfg_h, teacher, corpus, student)
        # the update only used forward-KL weights p*; divergences stay ~0
        assert rows_h[-1].kl_fwd < 1e-3 and rows_h[-1].kl_rev < 1e-3

    @pytest.mark.parametrize("variant", ["hpd", "hpd_no_reinforce", "hpd_no_sample"])
    def test_hpd_samples_average_to_expected_update(self, variant):
        # a one-token corpus makes every position the same state with expert 0;
        # the step is then lr * the mean over all draws of dir(s), whose
        # expectation sum_s q_s dir(s) does not depend on hpd_samples
        p = CategoricalDist.from_probs(np.array([0.5, 0.3, 0.15, 0.05]))
        q = CategoricalDist.from_probs(np.array([0.1, 0.4, 0.3, 0.2]))
        teacher_model = TabularLM(order=1, vocab=Vocab.default(4))
        student = TabularLM(order=1, vocab=Vocab.default(4))
        ctx = pad_context([], student.order, student.vocab.bos_id)
        teacher_model.set_row(ctx, p.logprobs)
        student.set_row(ctx, q.logprobs)
        corpus = Corpus.from_sequences([[0]], provenance="ground_truth", seed=0, vocab_size=4)

        expected = np.zeros(4)
        for s in range(4):
            w_star, w_sampled = weights_at(ObjectiveKind(variant), p, q, [0, s])
            expected += q.probs[s] * (w_star * (np.eye(4)[0] - q.probs)
                                      + w_sampled * (np.eye(4)[s] - q.probs))
        lr = 0.5
        cfg = small_cfg(variant, steps=1, lr=lr, batch_size=8, hpd_samples=2000,
                        eval_len=1)
        out, _ = distill_offpolicy(cfg, model_source(teacher_model), corpus, student)
        step = out.logits(ctx) - student.logits(ctx)
        # 16000 draws keep the Monte Carlo error near 1e-3; adding instead of
        # averaging over the 2000 samples would scale the step 2000-fold
        assert np.max(np.abs(step - lr * expected)) < 5e-3


TEACHERS = {
    # name: (teacher source, corpus source)
    "bimodal_gap": ({"name": "bimodal_gap"}, {"name": "bimodal_gap"}),
    "cycle": ({"name": "deterministic_cycle", "vocab_size": 6},
              {"name": "uniform", "vocab_size": 6}),
    "dirichlet": ({"name": "random_dirichlet", "seed": 2, "vocab_size": 9, "order": 1,
                   "concentration": 0.2},) * 2,
    "uniform": ({"name": "uniform", "vocab_size": 6},) * 2,
}


def _variable_length_corpus(teacher="bimodal_gap"):
    """An oracle teacher and 15 sequences of 1 to 19 tokens."""
    teacher_spec, corpus_spec = TEACHERS[teacher]
    src = build_source(corpus_spec)
    rng = np.random.default_rng(5)
    seqs = [src.rollouts([[]], int(rng.integers(1, 20)), rng)[0].tolist()
            for _ in range(15)]
    return build_source(teacher_spec), Corpus.from_sequences(
        seqs, provenance="teacher_generated", seed=5, vocab_size=src.vocab.size)


KERNEL_CASES = (
    [(tag, order, {}) for tag in OFF_POLICY_TAGS for order in (1, 2)]
    + [("rkld_off", 1, {"sign_fidelity": True}),
       ("jsd_off", 1, {"beta": 0.3}),
       ("jsd_off", 2, {"beta": 0.7, "sign_fidelity": True}),
       ("hpd", 1, {"hpd_samples": 3}),
       ("hpd_no_sample", 2, {"hpd_samples": 3}),
       ("hpd_no_reinforce", 1, {"hpd_samples": 3}),
       # rows this peaked hold exact zeros, and their entropy sums the support only
       ("fkld_dense", 1, {"lr": 300.0}),
       ("fkld_dense", 1, {"lr": 300.0, "teacher": "dirichlet"}),
       # off-cycle positions weigh p[expert] = 0: they touch no row but still count
       ("fkld_token", 1, {"teacher": "cycle"}),
       ("fkld_token", 2, {"teacher": "cycle"}),
       ("fkld_dense", 2, {"teacher": "cycle"}),
       # an unsmoothed fit's LOGIT_FLOOR entries are exact zeros in q and in its CDF
       ("hpd", 2, {"hpd_samples": 3, "student": "mle"})]
    # a student equal to the uniform teacher at all contexts but one: elsewhere each
    # expert weighs exactly 0, and still counts toward the batch mean
    + [("rkld_off", 1, {"teacher": "uniform", "student": "one_context"}),
       ("jsd_off", 2, {"teacher": "uniform", "student": "one_context"}),
       ("hpd_no_sample", 1, {"teacher": "uniform", "student": "one_context",
                             "hpd_samples": 3})]
)


def _one_context_student(order, v):
    """A uniform student but at the context after a first token 1."""
    student = TabularLM(order=order, vocab=Vocab.default(v))
    student.set_row(pad_context([1], order, 0), np.linspace(-1.0, 0.7, v))
    return student


def _mle_student(corpus, order):
    """An unsmoothed MLE fit to corpus, whose unseen continuations have q exactly 0."""
    student = train_teacher_mle(corpus, order, 0.0)
    assert (softmax(student.table).probs == 0.0).any()
    return student


class TestOffpolicyKernel:
    @pytest.mark.parametrize("tag, order, extra", KERNEL_CASES)
    def test_matches_per_position_reference(self, tmp_path, tag, order, extra):
        teacher, corpus = _variable_length_corpus(extra.get("teacher", "bimodal_gap"))
        kind = ObjectiveKind(tag, beta=extra.get("beta", 0.5),
                             sign_fidelity=extra.get("sign_fidelity", False))
        cfg = TrainConfig(objective=kind, steps=12, seed=order, lr=extra.get("lr", 0.5),
                          batch_size=8, eval_every=1, hpd_samples=extra.get("hpd_samples", 1),
                          eval_len=6)
        if extra.get("student") == "mle":
            student = _mle_student(corpus, order)
        elif extra.get("student") == "one_context":
            student = _one_context_student(order, corpus.vocab_size)
        else:
            student = TabularLM(order=order, vocab=Vocab.default(corpus.vocab_size))
        outputs = []
        for run in (distill_offpolicy, reference_offpolicy):
            model, rows = run(cfg, teacher, corpus, student)
            path = tmp_path / f"{run.__name__}.json"
            checkpoint_save(model, path)
            outputs.append((path.read_bytes(), [r.to_csv_line() for r in rows]))
        assert outputs[0] == outputs[1]

    def test_empty_sequence_rejected_at_every_seed(self):
        # a draw landing on the empty sequence would fail in the generator
        teacher, _ = _variable_length_corpus()
        corpus = Corpus.from_sequences([[1, 2, 3], []], provenance="ground_truth", seed=0,
                        vocab_size=6)
        student = TabularLM(order=1, vocab=Vocab.default(6))
        errors = set()
        for seed in range(8):
            with pytest.raises(InvalidInputError) as info:
                distill_offpolicy(small_cfg("sft", seed=seed), teacher, corpus, student)
            errors.add(str(info.value))
        assert errors == {"corpus sequence 1 is empty"}

    def test_out_of_range_corpus_token(self):
        teacher, _ = _variable_length_corpus()
        corpus = Corpus.from_sequences([[3, 1, 7]], provenance="ground_truth", seed=0,
                        vocab_size=8)
        student = TabularLM(order=1, vocab=Vocab.default(6))
        with pytest.raises(InvalidInputError, match="corpus token id 7"):
            distill_offpolicy(small_cfg("sft"), teacher, corpus, student)

    @pytest.mark.parametrize("tag, seqs", [
        ("rkld_off", [[0, 2]]),  # the cycle never follows 0 with 2: p[2] = 0
        # the cycle follows the BOS id 0 with 1, so position 0's expert has p[0] = 0
        ("hpd", [[0, 1, 2]]),
        # every expert is on the cycle; a uniform student samples off its support
        ("hpd", [[1, 2, 0]]),
    ])
    def test_zero_support_teacher_raises_log_of_zero(self, tag, seqs):
        teacher = build_source({"name": "deterministic_cycle"})
        corpus = Corpus.from_sequences(seqs, provenance="ground_truth", seed=0, vocab_size=3)
        student = TabularLM(order=1, vocab=Vocab.default(3))
        errors = []
        for run in (distill_offpolicy, reference_offpolicy):
            with pytest.raises(LogOfZeroError) as info:
                run(small_cfg(tag), teacher, corpus, student)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("k", [1, 3])
    def test_no_sample_ignores_a_sampled_token_off_the_teacher_support(self, tmp_path, k):
        # hpd raises at the sampled token of p = 0 on this corpus (above); hpd_no_sample
        # ignores that token and draws none, so it runs, as the reference does
        teacher = build_source({"name": "deterministic_cycle"})
        corpus = Corpus.from_sequences([[1, 2, 0]], provenance="ground_truth", seed=0,
                                       vocab_size=3)
        student = TabularLM(order=1, vocab=Vocab.default(3))
        outputs = []
        for run in (distill_offpolicy, reference_offpolicy):
            model, rows = run(small_cfg("hpd_no_sample", hpd_samples=k), teacher, corpus, student)
            checkpoint_save(model, tmp_path / "model.json")
            outputs.append(((tmp_path / "model.json").read_bytes(),
                            [r.to_csv_line() for r in rows]))
        assert outputs[0] == outputs[1]
        assert model.touched.any()


    # the student's q[0] after token 3 underflows to 0, and the corpus holds
    # "3 then 0" once, so a later minibatch meets it; sft, seqkd and fkld_token
    # have no weight rule that reads q, so the loop checks q[expert] itself
    @pytest.mark.parametrize("tag", ["sft", "seqkd", "fkld_token", "rkld_off", "jsd_off",
                                     "hpd"])
    def test_zero_student_probability_at_an_expert_token(self, tag, monkeypatch):
        teacher, corpus = _variable_length_corpus()
        student = TabularLM(order=1, vocab=Vocab.default(6))
        student.set_row((3,), [training.LOGIT_FLOOR, 0.0, 0.0, 0.0, 0.0, 0.0])
        steps = []
        sgd_step = training.sgd_step
        monkeypatch.setattr(training, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
        errors = []
        for run in (distill_offpolicy, reference_offpolicy):
            steps.clear()
            with pytest.raises(LogOfZeroError) as info:
                run(small_cfg(tag, steps=200), teacher, corpus, student)
            errors.append((str(info.value), len(steps)))
        assert errors[0] == errors[1] and errors[0][1] > 0
        context = " at context (3,)" if tag in ("sft", "seqkd", "fkld_token") else ""
        assert errors[0][0] == "q[0] = 0" + context

    @pytest.mark.parametrize("tag", ["sft", "hpd"])
    def test_bos_mismatch_rejected_before_any_step(self, tag, monkeypatch):
        # evaluation reads one context id in both models, so both must pad with one BOS id
        teacher = model_source(TabularLM(order=2, vocab=Vocab(("a", "b", "c"), bos_id=1)))
        student = TabularLM(order=1, vocab=Vocab.default(3))
        corpus = Corpus.from_sequences([[0, 1, 2]], provenance="teacher_generated", seed=0,
                        vocab_size=3)
        monkeypatch.setattr(training, "sgd_step", None)
        with pytest.raises(InvalidInputError,
                           match="teacher and student pad contexts with different BOS ids"):
            distill_offpolicy(small_cfg(tag), teacher, corpus, student)


def _equal_length_corpus():
    """An oracle teacher and 9 bimodal_gap sequences of 11 tokens each."""
    source = build_source({"name": "bimodal_gap"})
    sample = sample_corpus(source, 9, 11, np.random.default_rng(3))
    return source, Corpus(sample.tokens, sample.lengths, provenance="teacher_generated",
                          seed=3, vocab_size=6)


def _per_step_draws(seed, steps, n, lengths):
    """Step after step's own positions from a new generator, and the generator after
    the last step."""
    rng = np.random.default_rng(seed)
    starts = np.cumsum(lengths) - lengths
    pos = []
    for _ in range(steps):
        si = rng.integers(lengths.size, size=n)
        pos.append(starts[si] + rng.integers(0, lengths[si]))
    return np.array(pos), rng.bit_generator.state


def _five_steps_a_block(monkeypatch, tag, n, k, v=6):
    """Set the plan budget so a block holds five steps of tag at batch size n."""
    # a step's tokens: the expert, and a sampled token for the rules that read one
    cols = 2 if ObjectiveKind(tag).samples else 1
    monkeypatch.setattr(training, "PLAN_ENTRIES", 5 * n * k * cols * v + 1)


class TestPlannedDraws:
    """A run's steps are planned a block at a time, and draw what step-by-step draws draw."""

    @pytest.mark.parametrize("bounds", [(200, 64), (1, 1), (7, 13), (2**32 - 1, 5),
                                        (3 * 10**9, 2**31 + 1)])
    @pytest.mark.parametrize("n", [1, 7, 32])
    def test_one_integers_call_draws_what_consecutive_calls_draw(self, bounds, n):
        # 3e9 is no power of two below 2**32, so its draws meet rejections
        n_seqs, length = bounds
        for seed in range(3):
            each, merged = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = [np.concatenate([each.integers(n_seqs, size=n),
                                     each.integers(0, np.full(n, length))]) for _ in range(5)]
            together = merged.integers(0, np.tile(np.repeat([n_seqs, length], n), 5))
            assert np.array_equal(np.concatenate(drawn), together)
            assert each.bit_generator.state == merged.bit_generator.state

    @pytest.mark.parametrize("tag, k", [("sft", 1), ("fkld_dense", 1), ("hpd", 1),
                                        ("hpd_no_sample", 3)])
    @pytest.mark.parametrize("equal", [True, False])
    @pytest.mark.parametrize("n", [7, 8])
    def test_blocks_draw_what_steps_draw(self, monkeypatch, tag, k, equal, n):
        teacher, corpus = _equal_length_corpus() if equal else _variable_length_corpus()
        _five_steps_a_block(monkeypatch, tag, n, k)
        drawn = []
        draw_positions = training.draw_positions

        def spy(rng, steps, *args):
            pos = draw_positions(rng, steps, *args)
            drawn.append((rng, steps, pos))
            return pos

        monkeypatch.setattr(training, "draw_positions", spy)
        cfg = small_cfg(tag, steps=23, seed=4, batch_size=n, hpd_samples=k)
        distill_offpolicy(cfg, teacher, corpus, TabularLM(order=1, vocab=Vocab.default(6)))
        # four full blocks and a partial one
        assert [steps for _, steps, _ in drawn] == [5, 5, 5, 5, 3]
        # every tag, HPD's included, draws only positions from the run's generator
        pos, state = _per_step_draws(4, 23, n, corpus.lengths)
        assert np.array_equal(np.concatenate([d[2] for d in drawn]), pos)
        assert drawn[-1][0].bit_generator.state == state

    @pytest.mark.parametrize("tag, k", [(tag, 1) for tag in OFF_POLICY_TAGS]
                             + [("hpd", 3), ("hpd_no_reinforce", 3)])
    def test_blocks_match_per_position_reference(self, tmp_path, monkeypatch, tag, k):
        teacher, corpus = _equal_length_corpus()
        _five_steps_a_block(monkeypatch, tag, 7, k)
        cfg = small_cfg(tag, steps=23, seed=2, batch_size=7, hpd_samples=k, eval_every=4)
        outputs = []
        for run in (distill_offpolicy, reference_offpolicy):
            model, rows = run(cfg, teacher, corpus, TabularLM(order=2, vocab=Vocab.default(6)))
            checkpoint_save(model, tmp_path / "model.json")
            outputs.append(((tmp_path / "model.json").read_bytes(),
                            [r.to_csv_line() for r in rows]))
        assert outputs[0] == outputs[1]


def _run_bytes(tmp_path, cfg, teacher, corpus, order=1):
    """The checkpoint bytes and metrics lines of one distill_offpolicy run."""
    model, rows = distill_offpolicy(cfg, teacher, corpus,
                                    TabularLM(order=order, vocab=Vocab.default(6)))
    checkpoint_save(model, tmp_path / "model.json")
    return (tmp_path / "model.json").read_bytes(), [r.to_csv_line() for r in rows]


class TestHpdStream:
    """HPD's positions are every tag's; its uniforms come from a generator of their own."""

    @pytest.mark.parametrize("variant", ["hpd", "hpd_no_sample", "hpd_no_reinforce"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("equal", [True, False])
    def test_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch, variant, k,
                                                   equal):
        teacher, corpus = _equal_length_corpus() if equal else _variable_length_corpus()
        cfg = small_cfg(variant, steps=23, seed=6, batch_size=7, hpd_samples=k, eval_every=5)
        default = _run_bytes(tmp_path, cfg, teacher, corpus, order=2)
        # 97 entries hold less than one step: every step is a block of its own
        monkeypatch.setattr(training, "PLAN_ENTRIES", 97)
        assert _run_bytes(tmp_path, cfg, teacher, corpus, order=2) == default

    @pytest.mark.parametrize("equal", [True, False])
    def test_hpd_and_sft_draw_the_same_positions(self, monkeypatch, equal):
        teacher, corpus = _equal_length_corpus() if equal else _variable_length_corpus()
        drawn = {}
        draw_positions = training.draw_positions
        for tag, k in (("sft", 1), ("hpd", 3)):
            blocks = drawn[tag] = []

            def spy(rng, steps, *args, blocks=blocks):
                blocks.append(pos := draw_positions(rng, steps, *args))
                return pos

            monkeypatch.setattr(training, "draw_positions", spy)
            distill_offpolicy(small_cfg(tag, steps=40, seed=9, hpd_samples=k), teacher, corpus,
                              TabularLM(order=1, vocab=Vocab.default(6)))
        pos = {tag: np.concatenate(blocks) for tag, blocks in drawn.items()}
        assert pos["sft"].shape == (40, 8)
        assert np.array_equal(pos["sft"], pos["hpd"])


class TestDistillOnpolicyOPD:
    def test_rejects_off_policy_objective(self):
        src = build_source({"name": "uniform", "vocab_size": 2})
        student = TabularLM(order=1, vocab=Vocab.default(2))
        with pytest.raises(ConfigError):
            distill_onpolicy_opd(small_cfg("sft"), src, student)

    def test_teacher_equals_student_is_fixed_point(self):
        student = TabularLM(order=1, vocab=Vocab.default(3))
        rng = np.random.default_rng(8)
        for i in range(3):
            student.set_row((i,), rng.normal(size=3))
        student.set_row((0,), rng.normal(size=3))
        teacher = model_source(student.copy())
        cfg = small_cfg("opd_k1", steps=3, eval_every=3, horizon=4)
        out, rows = distill_onpolicy_opd(cfg, teacher, student)
        assert rows[-1].mean_reward == 0.0
        assert np.array_equal(out.table, student.table)

    def test_per_token_and_trajectory_coincide_at_horizon_one(self):
        src = build_source({"name": "random_dirichlet", "seed": 3, "vocab_size": 4,
                            "order": 1})
        teacher = src
        student = TabularLM(order=1, vocab=Vocab.default(4))
        outs = {}
        for mode in ("per_token", "trajectory"):
            cfg = small_cfg("opd_k1", steps=10, horizon=1, opd_reward_mode=mode)
            outs[mode], _ = distill_onpolicy_opd(cfg, teacher, student)
        assert np.array_equal(outs["per_token"].table, outs["trajectory"].table)

    def test_baseline_changes_updates_not_direction_mean(self):
        src = build_source({"name": "random_dirichlet", "seed": 3, "vocab_size": 4,
                            "order": 1})
        teacher = src
        student = TabularLM(order=1, vocab=Vocab.default(4))
        cfg = small_cfg("opd_k1", steps=50, horizon=4, opd_baseline=True)
        out, rows = distill_onpolicy_opd(cfg, teacher, student)
        assert rows[-1].kl_rev < np.log(4.0)  # still learns

    def test_opd_reduces_reverse_kl(self):
        src = build_source({"name": "random_dirichlet", "seed": 12, "vocab_size": 4,
                            "order": 1})
        teacher = src
        student = TabularLM(order=1, vocab=Vocab.default(4))
        cfg = small_cfg("opd_k1", steps=300, lr=0.2, batch_size=16, horizon=8,
                        eval_every=100)
        _, rows = distill_onpolicy_opd(cfg, teacher, student)
        assert rows[-1].kl_rev < 0.05
        assert rows[-1].mean_reward > -0.1


OPD_SOURCE = {"name": "random_dirichlet", "seed": 3, "vocab_size": 5, "order": 2,
              "concentration": 0.3}


def _opd_mle_fit():
    """A smoothed order-2 MLE fit to a bimodal_gap corpus."""
    corpus = sample_corpus(build_source({"name": "bimodal_gap"}), 20, 12,
                           np.random.default_rng(2))
    return train_teacher_mle(corpus, 2, 0.1)


def _opd_teacher(name, order=2):
    if name == "mle":
        return model_source(_opd_mle_fit())
    return build_source(dict(OPD_SOURCE, order=order))


def _teacher_but_one_student():
    """The MLE teacher's own fit, with its start context (BOS, BOS) moved: every
    reward at another context is exactly 0."""
    student = _opd_mle_fit()
    student.set_row((0, 0), np.linspace(-1.0, 1.5, student.vocab.size))
    return student


OPD_CASES = (
    [("opd_k1", order, {"opd_reward_mode": mode, "opd_baseline": baseline})
     for order in (1, 2, 3) for mode in ("per_token", "trajectory")
     for baseline in (False, True)]
    + [("rkld_on", order, {"opd_baseline": baseline})
       for order in (1, 2, 3) for baseline in (False, True)]
    + [("opd_k1", 2, {"prompts": [[1], [2, 3, 1, 0], [], [4]]}),
       ("opd_k1", 1, {"prompts": [[0, 2]], "opd_reward_mode": "trajectory",
                      "opd_baseline": True}),
       ("opd_k1", 1, {"batch_size": 1, "horizon": 1}),
       ("rkld_on", 3, {"batch_size": 1, "horizon": 1, "opd_baseline": True}),
       # np.sum of nine rewards would add them pairwise, not in order
       ("opd_k1", 2, {"teacher": "mle", "opd_reward_mode": "trajectory", "horizon": 9}),
       ("rkld_on", 1, {"teacher": "mle", "prompts": [[3], [0, 5]], "eval_from": "student"}),
       # rollouts never sample the unsmoothed fit's zero-probability tokens
       ("opd_k1", 2, {"student": "mle"}),
       # teachers of order 1 and 3, with prompts shorter and longer than both orders
       ("opd_k1", 2, {"teacher_order": 1, "prompts": [[], [4], [2, 3, 1, 0], [1, 1]]}),
       ("rkld_on", 3, {"teacher_order": 1, "opd_baseline": True}),
       ("opd_k1", 1, {"teacher_order": 3, "prompts": [[], [0], [3, 1, 4, 2, 0]],
                      "opd_reward_mode": "trajectory"}),
       ("rkld_on", 2, {"teacher_order": 3, "prompts": [[1, 2, 3, 4]]}),
       ("opd_k1", 1, {"teacher_order": 1, "prompts": [[], [3, 2]]}),
       ("opd_k1", 3, {"teacher_order": 3, "opd_reward_mode": "trajectory"}),
       # zero rewards wherever the student is the teacher; they count toward the mean
       ("opd_k1", 2, {"teacher": "mle", "student": "teacher_but_one"}),
       ("rkld_on", 2, {"teacher": "mle", "student": "teacher_but_one", "opd_baseline": True})]
)


def _opd_outputs(tmp_path, tag, order, extra, draws=draws_batched):
    """Checkpoint bytes and CSV lines of the kernel and of reference_opd with draws."""
    extra = dict(extra)
    teacher = _opd_teacher(extra.pop("teacher", "oracle"), extra.pop("teacher_order", 2))
    prompts = extra.pop("prompts", None)
    student_kind = extra.pop("student", None)
    if student_kind == "mle":
        corpus = sample_corpus(build_source(OPD_SOURCE), 4, 8, np.random.default_rng(7))
        student = _mle_student(corpus, order)
    elif student_kind == "teacher_but_one":
        student = _teacher_but_one_student()
    else:
        student = TabularLM(order=order, vocab=Vocab.default(teacher.vocab.size))
    cfg = TrainConfig(**dict(dict(
        objective=ObjectiveKind(tag), steps=8, seed=order, lr=0.7, batch_size=6,
        eval_every=3, horizon=5, eval_len=5), **extra))
    outputs = []
    for name, run in (("kernel", distill_onpolicy_opd),
                      ("reference", lambda *a, **kw: reference_opd(*a, **kw, draws=draws))):
        model, rows = run(cfg, teacher, student, prompts=prompts)
        path = tmp_path / f"{name}.json"
        checkpoint_save(model, path)
        outputs.append((path.read_bytes(), [r.to_csv_line() for r in rows]))
    return outputs


class TestOpdLockstep:
    @pytest.mark.parametrize("tag, order, extra", OPD_CASES)
    def test_matches_per_rollout_reference(self, tmp_path, tag, order, extra):
        outputs = _opd_outputs(tmp_path, tag, order, extra)
        assert outputs[0] == outputs[1]

    # one prompt consumes no generator state, so these runs match the former
    # rollout-by-rollout draws; with two or more prompts they do not
    @pytest.mark.parametrize("tag, order, extra", [
        case for case in OPD_CASES if len(case[2].get("prompts") or [[]]) == 1])
    def test_single_prompt_matches_per_rollout_draws(self, tmp_path, tag, order, extra):
        outputs = _opd_outputs(tmp_path, tag, order, extra, draws=draws_per_rollout)
        assert outputs[0] == outputs[1]

    def test_several_prompts_change_with_the_draw_layout(self, tmp_path):
        extra = {"prompts": [[1], [2, 3, 1, 0], [], [4]]}
        outputs = _opd_outputs(tmp_path, "opd_k1", 2, extra, draws=draws_per_rollout)
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("student_v", [4, 8])
    def test_vocabulary_mismatch_rejected(self, student_v):
        teacher = _opd_teacher("oracle")  # 5 tokens
        student = TabularLM(order=2, vocab=Vocab.default(student_v))
        with pytest.raises(InvalidInputError, match=f"teacher vocabulary size 5 != "
                                                    f"student vocabulary size {student_v}"):
            distill_onpolicy_opd(small_cfg("opd_k1", horizon=3), teacher, student)

    def test_bos_mismatch_rejected_before_any_step(self, monkeypatch):
        # one walk carries both models' contexts, so both must pad with one BOS id
        teacher = model_source(TabularLM(order=2, vocab=Vocab(("a", "b", "c"), bos_id=1)))
        student = TabularLM(order=1, vocab=Vocab.default(3))
        monkeypatch.setattr(training, "walk", None)
        with pytest.raises(InvalidInputError,
                           match="teacher and student pad contexts with different BOS ids"):
            distill_onpolicy_opd(small_cfg("opd_k1", horizon=3), teacher, student)

    def test_out_of_range_prompt_token(self):
        teacher = _opd_teacher("oracle")
        student = TabularLM(order=2, vocab=Vocab.default(5))
        with pytest.raises(InvalidInputError, match="prompt token id 9"):
            distill_onpolicy_opd(small_cfg("opd_k1", horizon=3), teacher, student,
                                 prompts=[[1, 2], [3, 9]])

    @pytest.mark.parametrize("prompts", [None, [[0], [2, 1]]])
    def test_support_violation_names_the_reference_token(self, prompts):
        # a uniform student samples off the cycle's one-hot rows at once
        teacher = build_source({"name": "deterministic_cycle",
                                              "vocab_size": 4})
        student = TabularLM(order=3, vocab=Vocab.default(4))
        cfg = small_cfg("opd_k1", horizon=6, batch_size=4)
        errors = []
        for run in (distill_onpolicy_opd, reference_opd):
            with pytest.raises(DivergenceInfiniteError) as info:
                run(cfg, teacher, student, prompts=prompts)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    # at seeds 3, 13, 20 and 26, scanning the positions step by step instead of
    # rollout by rollout would name a different violation
    @pytest.mark.parametrize("seed", [0, 3, 13, 20, 26])
    def test_first_violation_in_rollout_order(self, seed):
        # only "2 then 0" leaves the teacher's support, so rollouts violate at
        # scattered positions
        model = TabularLM(order=1, vocab=Vocab.default(4))
        model.set_row((2,), [training.LOGIT_FLOOR, 0.0, 0.0, 0.0])
        student = TabularLM(order=2, vocab=Vocab.default(4))
        cfg = small_cfg("opd_k1", seed=seed, horizon=8, batch_size=6)
        errors = []
        for run in (distill_onpolicy_opd, reference_opd):
            with pytest.raises(DivergenceInfiniteError) as info:
                run(cfg, model_source(model), student)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def _summed_step(student, lr, n, items):
    """student's table after one step of lr over n drawn positions, row by row: items
    holds (prefix, token, weight, q) for every accumulated token."""
    table = student.table.copy()
    summed = {}
    for prefix, token, w, q in items:
        cid = prefix_id(prefix, student.order, student.vocab)
        summed[cid] = summed.get(cid, 0.0) + w * (np.eye(q.size)[token] - q)
    for cid, direction in summed.items():
        table[cid] += lr / n * direction
    return table


class TestBatchMean:
    """A step moves the student by lr times the summed directions over the positions its
    batch drew, zero-weight positions included."""

    @pytest.mark.parametrize("tag", ["rkld_off", "jsd_off", "hpd_no_sample"])
    def test_offpolicy_step_divides_by_the_batch(self, tag):
        # the student is the uniform source at every context but (1,): elsewhere
        # these rules weigh the expert exactly 0
        teacher = build_source({"name": "uniform", "vocab_size": 3})
        corpus = sample_corpus(teacher, 6, 10, np.random.default_rng(0))
        student = _one_context_student(1, 3)
        cfg = small_cfg(tag, steps=1, batch_size=12, seed=1)
        out, _ = distill_offpolicy(cfg, teacher, corpus, student)
        # the step's draws, as reference_offpolicy makes them
        rng = np.random.default_rng(cfg.seed)
        seqs = corpus.sequences
        si = rng.integers(len(seqs), size=cfg.batch_size)
        items = []
        for s, t in zip(si.tolist(), rng.integers(0, corpus.lengths[si]).tolist()):
            prefix, expert = seqs[s][:t], seqs[s][t]
            p, q = source_row(teacher, prefix), model_row(student, prefix)
            w = offpolicy_token(cfg.objective, *row_values(p, q), expert, expert)
            items.append((prefix, expert, w[0] if tag == "hpd_no_sample" else w, q.probs))
        n, zeros = cfg.batch_size, sum(w == 0.0 for _, _, w, _ in items)
        assert 0 < zeros < n
        assert np.allclose(out.table, _summed_step(student, cfg.lr, n, items), rtol=0,
                           atol=1e-15)
        # dividing by the positions of nonzero weight would step farther
        assert not np.allclose(out.table, _summed_step(student, cfg.lr, n - zeros, items),
                               atol=1e-3)

    def test_opd_step_divides_by_every_sampled_token(self):
        teacher, student = model_source(_opd_mle_fit()), _teacher_but_one_student()
        cfg = small_cfg("opd_k1", steps=1, batch_size=4, horizon=5, seed=2)
        out, _ = distill_onpolicy_opd(cfg, teacher, student)
        # the step's draws, as reference_opd makes them: one prompt, then the uniforms
        pick, u = draws_batched(np.random.default_rng(cfg.seed), 1, cfg.batch_size,
                                cfg.horizon)
        items = []
        for b in range(cfg.batch_size):
            seq = []
            for t in range(cfg.horizon):
                p, q = source_row(teacher, seq), model_row(student, seq)
                a = int(cdf_draw(cdf_rows(q.probs), u[b, t]))
                items.append((list(seq), a, float(p.logprobs[a] - q.logprobs[a]), q.probs))
                seq.append(a)
        n, zeros = cfg.batch_size * cfg.horizon, sum(w == 0.0 for _, _, w, _ in items)
        assert 0 < zeros < n
        assert np.allclose(out.table, _summed_step(student, cfg.lr, n, items), rtol=0,
                           atol=1e-15)
        assert not np.allclose(out.table, _summed_step(student, cfg.lr, n - zeros, items),
                               atol=1e-3)


class TestTrainLoop:
    def test_train_entropy_is_the_mean_over_the_batch_rows(self):
        # the student's rows at the batch's context ids as the batch saw them,
        # before the step moves them; a floor logit makes an exact zero
        teacher = build_source({"name": "uniform", "vocab_size": 2})
        student = TabularLM(order=2, vocab=Vocab.default(2))
        student.set_row((0, 1), [0.0, training.LOGIT_FLOOR])
        student.set_row((1, 0), np.log([0.25, 0.75]))
        ids, seen = np.array([2, 0, 1, 2]), []

        def batches(student, pred, acc, rng):
            while True:
                q = pred.rows(ids)
                seen.append(float(np.mean([entropy(q.rows(j)) for j in range(ids.size)])))
                acc.add_rows(ids, np.tile([1.0, -1.0], (ids.size, 1)))
                yield ids, None

        cfg = small_cfg("sft", steps=4, eval_every=2)
        _, rows = training._train_loop(cfg, teacher, student, None, batches)
        assert [(r.step, r.train_entropy, r.mean_reward) for r in rows] == [
            (2, seen[1], None), (4, seen[3], None)]
        assert len(set(seen)) == 4  # every step moved the rows

    @pytest.mark.parametrize("tag", ["hpd", "opd_k1"])
    def test_refreshed_table_is_the_checked_softmax_byte_for_byte(self, tag, monkeypatch):
        # after every step's refresh, the whole cached table equals a fresh
        # checked softmax of the student's table, its log_probs the softmax's
        # logprobs and its CDF rows cdf_rows of it
        seen = []

        class Compared(training.PredictiveTable):
            def refresh(self, ids):
                super().refresh(ids)
                d = softmax(self.student.table)
                seen.append((self.probs.tobytes() == d.probs.tobytes(),
                             log_probs(self.probs).tobytes() == d.logprobs.tobytes(),
                             self.cdf.tobytes() == cdf_rows(d.probs).tobytes()))

        monkeypatch.setattr(training, "PredictiveTable", Compared)
        source = build_source({"name": "bimodal_gap"})
        cfg = small_cfg(tag, steps=8, batch_size=16, horizon=6, eval_every=4)
        student = TabularLM(order=2, vocab=Vocab.default(6))
        student.set_row((3, 1), [-25.0, 0.0, 1.0, 0.0, -2.0, 0.5])
        if tag == "hpd":
            corpus = sample_corpus(source, 20, 16, np.random.default_rng(1))
            distill_offpolicy(cfg, source, corpus, student)
        else:
            distill_onpolicy_opd(cfg, source, student)
        assert seen == [(True, True, True)] * cfg.steps

    @pytest.mark.parametrize("order", [1, 2])
    def test_whole_table_refresh_is_a_fresh_table(self, order):
        # refresh(every id) writes by slice: what it leaves is a new PredictiveTable's
        # bytes, floor logits' exact zeros and -inf logs included
        student = TabularLM(order=order, vocab=Vocab.default(3))
        student.set_row((1,) * order, [0.0, training.LOGIT_FLOOR, 2.0])
        pred = training.PredictiveTable(student, with_cdf=True)
        acc = GradAccumulator(order, 3)
        rng = np.random.default_rng(order)
        acc.add_rows(np.arange(len(student.table)), rng.normal(size=student.table.shape))
        pred.refresh(sgd_step(student, acc, 0.9, 4))
        fresh = training.PredictiveTable(student, with_cdf=True)
        for name in ("probs", "cdf"):
            assert getattr(pred, name).tobytes() == getattr(fresh, name).tobytes()

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("eval_from", ["teacher", "student"])
    def test_reading_is_softmax_rows_byte_for_byte(self, zeros, eval_from):
        # the table keeps no log: a reading logs it, and the entropy rows log what
        # they gathered, to softmax_rows' bytes, floor logits' exact zeros included
        teacher = build_source({"name": "bimodal_gap"})
        student = TabularLM(order=1, vocab=Vocab.default(6))
        rng = np.random.default_rng(7)
        for t in range(6):
            student.set_row((t,), rng.normal(size=6))
        if zeros:
            student.set_row((2,), [0.0, training.LOGIT_FLOOR, 1.0, 0.5, training.LOGIT_FLOOR,
                                   -1.0])
        pred = training.PredictiveTable(student, with_cdf=False)
        probs, logprobs = softmax_rows(student.table)
        assert (probs == 0.0).any() == zeros
        plan = EvalPlan(teacher, student, 8, eval_from)
        got = training.evaluate_divergences(plan, pred)
        assert repr(got) == repr(plan.divergences(probs, logprobs))
        ids = np.array([2, 0, 2, 5])
        rows = pred.rows(ids)
        assert rows.probs.tobytes() == probs[ids].tobytes()
        assert rows.logprobs.tobytes() == logprobs[ids].tobytes()

    def test_overflowing_step_raises_before_any_refresh(self, monkeypatch):
        teacher = build_source({"name": "uniform", "vocab_size": 2})
        student = TabularLM(order=1, vocab=Vocab.default(2))
        refreshed = []
        monkeypatch.setattr(training.PredictiveTable, "refresh",
                            lambda self, ids: refreshed.append(ids))

        def batches(student, pred, acc, rng):
            acc.add_rows([1], [[1e308, -1e308]])
            yield np.array([1]), None

        with pytest.raises(NumericOverflowError, match=r"context \(1,\)"), \
                np.errstate(over="ignore"):
            training._train_loop(small_cfg("sft", lr=10.0), teacher, student, None, batches)
        assert refreshed == [] and not student.touched.any()

    def test_batches_that_end_early_raise(self):
        # the loop pulls exactly cfg.steps batches: two for a run of three raise
        teacher = build_source({"name": "uniform", "vocab_size": 2})
        student = TabularLM(order=1, vocab=Vocab.default(2))

        def batches(student, pred, acc, rng):
            for _ in range(2):
                acc.add_rows([1], [[1.0, -1.0]])
                yield np.array([1]), None

        with pytest.raises(StopIteration):
            training._train_loop(small_cfg("sft", steps=3), teacher, student, None, batches)


READING_SOURCE = {"name": "random_dirichlet", "seed": 4, "vocab_size": 4,
                  "concentration": 0.5}


def _reading_setup(teacher_kind, teacher_order):
    """A teacher of that kind and order, a corpus and ragged tasks over 4 tokens."""
    src = build_source(dict(READING_SOURCE, order=teacher_order))
    corpus = sample_corpus(src, 12, 10, np.random.default_rng(teacher_order))
    teacher = (src if teacher_kind == "oracle"
               else model_source(train_teacher_mle(corpus, teacher_order, 0.1)))
    rng = np.random.default_rng(9)
    tasks = [(rng.integers(4, size=i % 5).tolist(), rng.integers(4, size=1 + i % 3).tolist())
             for i in range(24)]
    # greedy continuations of the uniform start hit; the rest mostly miss
    tasks += [([], [0]), ([1, 2], [0, 0])]
    return teacher, corpus, tasks


class TestWholeTableSteps:
    # a step that moves every row of the student indexes its tables by slice
    # (model.rows_at); the row-gather path must leave every output byte the same

    @staticmethod
    def _both_paths(tmp_path, monkeypatch, run):
        """Checkpoint bytes and CSV lines of run() as is, then on the row-gather path,
        and how many sgd_step and refresh calls of the first run took the slice."""
        rows_at, whole = model_mod.rows_at, []

        def spy(ids, n):
            whole.append(ids.size == n)
            return rows_at(ids, n)

        outputs = []
        for patch in (spy, lambda ids, n: ids):
            for mod in (model_mod, training):
                monkeypatch.setattr(mod, "rows_at", patch)
            student, rows = run()
            path = tmp_path / "student.json"
            checkpoint_save(student, path)
            outputs.append((path.read_bytes(), [r.to_csv_line() for r in rows]))
        return outputs, sum(whole)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("tag", OFF_POLICY_TAGS)
    def test_offpolicy_matches_the_gather_path(self, tmp_path, monkeypatch, tag, order):
        # batches of 32 positions touch all 6 rows of an order-1 student in most steps,
        # and never all 36 of an order-2 one
        teacher, corpus = _variable_length_corpus()
        student = TabularLM(order=order, vocab=Vocab.default(corpus.vocab_size))
        cfg = small_cfg(tag, steps=12, batch_size=32, eval_every=4, eval_len=6)
        outputs, whole = self._both_paths(
            tmp_path, monkeypatch, lambda: distill_offpolicy(cfg, teacher, corpus, student))
        assert outputs[0] == outputs[1]
        assert (whole > 0) == (order == 1)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("mode", ["per_token", "trajectory"])
    def test_opd_matches_the_gather_path(self, tmp_path, monkeypatch, mode, order):
        teacher = _opd_teacher("oracle")
        student = TabularLM(order=order, vocab=Vocab.default(teacher.vocab.size))
        cfg = small_cfg("opd_k1", steps=8, batch_size=6, horizon=5, eval_every=3,
                        eval_len=5, opd_reward_mode=mode)
        outputs, whole = self._both_paths(
            tmp_path, monkeypatch, lambda: distill_onpolicy_opd(cfg, teacher, student))
        assert outputs[0] == outputs[1]
        assert (whole > 0) == (order == 1)


class TestPlannedReadings:
    """Each metrics row equals a fresh EvalPlan's reading of that step's student, and the
    per-task greedy accuracy."""

    @pytest.mark.parametrize("tag", ["hpd", "opd_k1"])
    @pytest.mark.parametrize("teacher_kind", ["oracle", "mle"])
    @pytest.mark.parametrize("student_order, teacher_order",
                             [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3)])
    @pytest.mark.parametrize("eval_from", ["teacher", "student"])
    def test_rows_equal_the_stateless_functions(self, monkeypatch, tag, teacher_kind,
                                                student_order, teacher_order, eval_from):
        teacher, corpus, tasks = _reading_setup(teacher_kind, teacher_order)
        students = []
        reading = training.evaluate_divergences

        def spy(plan, pred):
            students.append(pred.student.copy())
            return reading(plan, pred)

        monkeypatch.setattr(training, "evaluate_divergences", spy)
        cfg = small_cfg(tag, steps=7, eval_every=2, batch_size=6, horizon=4, eval_len=6,
                        eval_from=eval_from, seed=student_order)
        student = TabularLM(order=student_order, vocab=Vocab.default(4))
        if tag == "hpd":
            _, rows = distill_offpolicy(cfg, teacher, corpus, student, eval_tasks=tasks)
        else:
            _, rows = distill_onpolicy_opd(cfg, teacher, student, eval_tasks=tasks)
        assert [r.step for r in rows] == [2, 4, 6, 7] and len(students) == len(rows)
        for row, s in zip(rows, students):
            assert (row.kl_fwd, row.kl_rev) == plan_divergences(s, teacher, cfg.eval_len,
                                                                eval_from)
            assert row.accuracy == reference_completion_accuracy(s, tasks)
        assert len({(r.kl_fwd, r.kl_rev) for r in rows}) == len(rows)  # the student moved

    @pytest.mark.parametrize("tasks, match", [
        ([([0], [1]), ([1], [])], "steps must be >= 1"),
        ([([0, 7], [1])], r"context \(0, 7\) has out-of-range token ids"),
    ])
    @pytest.mark.parametrize("tag", ["sft", "opd_k1"])
    def test_invalid_tasks_raise_before_step_one(self, monkeypatch, tasks, match, tag):
        teacher, corpus, _ = _reading_setup("oracle", 2)
        steps = []
        monkeypatch.setattr(training, "sgd_step", lambda *a: steps.append(a))
        cfg = small_cfg(tag, steps=50, eval_every=50, horizon=3)
        student = TabularLM(order=2, vocab=Vocab.default(4))
        with pytest.raises(InvalidInputError, match=match):
            if tag == "sft":
                distill_offpolicy(cfg, teacher, corpus, student, eval_tasks=tasks)
            else:
                distill_onpolicy_opd(cfg, teacher, student, eval_tasks=tasks)
        assert steps == []


class TestTrajectoryFold:
    def test_coefficients_are_the_in_order_left_fold(self, monkeypatch):
        # rewards that cancel: an in-order fold gives 0.0 where a compensated sum
        # (the builtin sum since Python 3.12) gives 2.0
        cancelling = [0.1] * 10 + [1e16, 1.0, -1e16]
        h, n = len(cancelling), 3
        rewards = np.array([cancelling, cancelling[::-1], np.linspace(-3.0, 2.0, h)]).ravel()
        monkeypatch.setattr(training, "token_weights", lambda *a: rewards.copy())
        coeffs = []
        kernel = training.add_token_grads

        def spy(acc, ids, tokens, weights, q):
            coeffs.append(weights.copy())
            return kernel(acc, ids, tokens, np.zeros_like(weights), q)

        monkeypatch.setattr(training, "add_token_grads", spy)
        teacher = build_source({"name": "uniform", "vocab_size": 3})
        cfg = small_cfg("opd_k1", steps=1, batch_size=n, horizon=h,
                        opd_reward_mode="trajectory")
        distill_onpolicy_opd(cfg, teacher, TabularLM(order=1, vocab=Vocab.default(3)))
        folds = []
        for r in rewards.reshape(n, h).tolist():
            acc = 0.0
            for x in r:
                acc += x
            folds.append(acc)
        assert folds[0] == 0.0
        assert coeffs[0].tobytes() == np.repeat(folds, h).tobytes()


class TestRunExperiment:
    def _setup(self):
        src = build_source({"name": "bimodal_gap"})
        teacher = src
        corpus = sample_corpus(src, 30, 32, np.random.default_rng(0), seed=0)
        student = TabularLM(order=1, vocab=Vocab.default(6))
        return teacher, corpus, student

    def test_single_stage_equals_direct_call(self):
        teacher, corpus, student = self._setup()
        cfg = small_cfg("hpd", steps=30)
        direct, direct_rows = distill_offpolicy(cfg, teacher, corpus, student)
        staged, all_rows = run_experiment([Stage("only", cfg)], teacher, student,
                                          corpus=corpus)
        assert np.array_equal(direct.table, staged.table)
        assert ([r.to_csv_line() for r in all_rows["only"]]
                == [r.to_csv_line() for r in direct_rows])

    def test_two_stage_continuous_step_numbering(self):
        teacher, corpus, student = self._setup()
        stages = [
            Stage("warm", small_cfg("sft", steps=20, eval_every=10)),
            Stage("polish", small_cfg("opd_k1", steps=20, eval_every=10, horizon=4)),
        ]
        _, all_rows = run_experiment(stages, teacher, student, corpus=corpus)
        assert list(all_rows) == ["warm", "polish"]
        assert [r.step for r in all_rows["warm"]] == [10, 20]
        assert [r.step for r in all_rows["polish"]] == [30, 40]

    def test_same_seed_identical_outputs(self):
        teacher, corpus, student = self._setup()
        stages = [Stage("a", small_cfg("fkld_dense", steps=15))]
        m1, r1 = run_experiment(stages, teacher, student, corpus=corpus)
        m2, r2 = run_experiment(stages, teacher, student, corpus=corpus)
        assert np.array_equal(m1.table, m2.table)
        assert ([r.to_csv_line() for r in r1["a"]]
                == [r.to_csv_line() for r in r2["a"]])

    def test_missing_corpus_for_offpolicy_stage(self, monkeypatch):
        teacher, _, student = self._setup()
        from distill_lab.errors import PipelineError

        with pytest.raises(PipelineError):
            run_experiment([Stage("x", small_cfg("sft"))], teacher, student)
        # every stage is checked before any runs: the on-policy first stage never trains
        monkeypatch.setattr(training, "_train_loop", None)
        stages = [Stage("polish", small_cfg("opd_k1", horizon=4)), Stage("x", small_cfg("sft"))]
        with pytest.raises(PipelineError, match="stage 'x' needs a corpus"):
            run_experiment(stages, teacher, student)
