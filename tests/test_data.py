"""Oracle and property tests for sources, corpora, and their file formats."""

import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab import data
from distill_lab.data import (
    BIMODAL_EPS,
    BIMODAL_VOCAB,
    CHOOSER_TOKEN,
    COIN_A,
    COIN_B,
    GAP_TOKEN,
    MODE_X,
    MODE_Y,
    Corpus,
    MarkovSource,
    build_source,
    corpus_read,
    corpus_write,
    generate_seqkd_corpus,
    sample_corpus,
    source_load,
    source_save,
)
from distill_lab.errors import ConfigError, InvalidInputError, ParseError
from distill_lab.model import TabularLM, Vocab, checkpoint_load, checkpoint_save
from distill_lab.numerics import CategoricalDist, entropy, softmax
from distill_lab.training import LOGIT_FLOOR, train_teacher_mle
from oracles import (RAGGED_PROMPTS, bimodal_mixture, bimodal_table, dirichlet_rows,
                     greedy_rollout, model_row, model_source, peaked_model, per_token_rollout,
                     source_row)


class TestBuildSource:
    def test_uniform_rows(self):
        src = build_source({"name": "uniform", "vocab_size": 4, "order": 1})
        for ctx in [(0,), (1,), (2,), (3,)]:
            assert np.allclose(source_row(src, ctx).probs, [0.25] * 4)

    def test_deterministic_cycle(self):
        src = build_source({"name": "deterministic_cycle", "vocab_size": 3})
        for i in range(3):
            d = source_row(src, (i,))
            assert d.probs[(i + 1) % 3] == 1.0
            assert entropy(d) == 0.0

    def test_random_dirichlet_needs_seed(self):
        with pytest.raises(ConfigError):
            build_source({"name": "random_dirichlet"})

    @pytest.mark.parametrize("seed", [-1, -7.0])
    def test_random_dirichlet_negative_seed_is_a_config_error(self, seed):
        # numpy seeds a generator with a non-negative integer only
        with pytest.raises(ConfigError, match=r"^source\.seed must be >= 0, got -\d+$"):
            build_source({"name": "random_dirichlet", "seed": seed})

    def test_random_dirichlet_deterministic(self):
        a = build_source({"name": "random_dirichlet", "seed": 3, "vocab_size": 4})
        b = build_source({"name": "random_dirichlet", "seed": 3, "vocab_size": 4})
        assert np.array_equal(a.table.probs, b.table.probs)

    # concentrations below 0.1 take numpy's small-alpha (beta-variate) path
    @pytest.mark.parametrize("v, order, conc", [(16, 2, 1.0), (8, 1, 3.0), (5, 3, 0.05),
                                                (4, 1, 0.5), (6, 2, 0.09), (2, 1, 0.01)])
    def test_random_dirichlet_is_one_row_per_call(self, v, order, conc):
        # one rng.dirichlet(size=n) draws the gammas of n per-row calls, in their order
        src = build_source({"name": "random_dirichlet", "seed": 11, "vocab_size": v,
                            "order": order, "concentration": conc})
        want = CategoricalDist.from_rows(
            dirichlet_rows(np.random.default_rng(11), v, conc, v ** order))
        assert src.table.probs.tobytes() == want.probs.tobytes()
        one = np.random.default_rng(5).dirichlet(np.full(v, conc), size=7)
        assert one.tobytes() == dirichlet_rows(np.random.default_rng(5), v, conc, 7).tobytes()

    def test_unknown_name_and_keys(self):
        with pytest.raises(ConfigError):
            build_source({"name": "nope"})
        with pytest.raises(ConfigError):
            build_source({"name": "uniform", "bogus": 1})
        with pytest.raises(ConfigError):
            build_source({})


class TestBimodalGap:
    def test_fixed_shape(self):
        src = build_source({"name": "bimodal_gap"})
        assert src.order == 2 and src.vocab.size == BIMODAL_VOCAB
        assert src.table.probs.shape == (BIMODAL_VOCAB**2, BIMODAL_VOCAB)
        with pytest.raises(ConfigError):
            build_source({"name": "bimodal_gap", "vocab_size": 4})
        with pytest.raises(ConfigError):
            build_source({"name": "bimodal_gap", "eps": 0.0})

    def test_cycle_structure(self):
        src = build_source({"name": "bimodal_gap"})
        # chooser -> coin, coin -> gap, gap -> mode resolved by the coin
        d = source_row(src, (GAP_TOKEN, CHOOSER_TOKEN))
        assert d.probs[COIN_A] == pytest.approx(d.probs[COIN_B])
        assert d.probs[COIN_A] > 0.4
        assert np.argmax(source_row(src, (CHOOSER_TOKEN, COIN_A)).probs) == GAP_TOKEN
        assert np.argmax(source_row(src, (COIN_A, GAP_TOKEN)).probs) == MODE_X
        assert np.argmax(source_row(src, (COIN_B, GAP_TOKEN)).probs) == MODE_Y
        assert np.argmax(source_row(src, (GAP_TOKEN, MODE_X)).probs) == CHOOSER_TOKEN

    def test_rows_are_smoothed_full_support(self):
        src = build_source({"name": "bimodal_gap", "eps": 0.1})
        assert np.all(src.table.probs >= 0.1 / BIMODAL_VOCAB - 1e-12)

    def test_ambiguous_mixture_is_exact_average(self):
        src = build_source({"name": "bimodal_gap"})
        mix = bimodal_mixture(BIMODAL_EPS)
        a = source_row(src, (COIN_A, GAP_TOKEN)).probs
        b = source_row(src, (COIN_B, GAP_TOKEN)).probs
        assert np.allclose(mix.probs, 0.5 * (a + b))
        assert mix.probs[MODE_X] == pytest.approx(mix.probs[MODE_Y])

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
    def test_table_and_mixture_equal_per_context_reference(self, eps):
        src = build_source({"name": "bimodal_gap", "eps": eps})
        want = CategoricalDist.from_rows(bimodal_table(eps))
        assert src.table.probs.tobytes() == want.probs.tobytes()
        assert src.table.logprobs.tobytes() == want.logprobs.tobytes()
        # the table's two (coin, gap) rows mix to the reference's mixture
        a, b = (source_row(src, (coin, GAP_TOKEN)).probs for coin in (COIN_A, COIN_B))
        mix, ref = CategoricalDist.from_probs(0.5 * (a + b)), bimodal_mixture(eps)
        assert mix.probs.tobytes() == ref.probs.tobytes()
        assert mix.logprobs.tobytes() == ref.logprobs.tobytes()

    def test_non_coin_history_rows_equal_mixture(self):
        # contexts (x, gap) with x not a coin carry the exact 50/50 mixture,
        # which is what makes the order-1 marginal at the gap state exact
        src = build_source({"name": "bimodal_gap"})
        mix = bimodal_mixture(BIMODAL_EPS).probs
        for x in (GAP_TOKEN, CHOOSER_TOKEN, MODE_X, MODE_Y):
            assert np.allclose(source_row(src, (x, GAP_TOKEN)).probs, mix)

    def test_swap_symmetry(self):
        # joint relabeling 1<->2, 4<->5 maps the table onto itself
        src = build_source({"name": "bimodal_gap"})
        swap = {COIN_A: COIN_B, COIN_B: COIN_A, MODE_X: MODE_Y, MODE_Y: MODE_X}
        perm = np.array([swap.get(v, v) for v in range(BIMODAL_VOCAB)])
        for ctx in itertools.product(range(BIMODAL_VOCAB), repeat=2):
            mapped = (swap.get(ctx[0], ctx[0]), swap.get(ctx[1], ctx[1]))
            assert np.allclose(source_row(src, mapped).probs[perm],
                               source_row(src, ctx).probs)


class TestSourceRollouts:
    def test_cycle_sequences_follow_cycle(self):
        src = build_source({"name": "deterministic_cycle", "vocab_size": 3})
        seqs = src.rollouts([[]] * 2, 9, np.random.default_rng(0))
        assert seqs.tolist() == [[1, 2, 0, 1, 2, 0, 1, 2, 0]] * 2

    def test_uniform_frequencies_three_sigma(self):
        src = build_source({"name": "uniform", "vocab_size": 2, "order": 1})
        rng = np.random.default_rng(5)
        [toks] = src.rollouts([[]], 100_000, rng).tolist()
        freq = toks.count(0) / len(toks)
        sigma = np.sqrt(0.25 / 100_000)
        assert abs(freq - 0.5) <= 3 * sigma

    def test_fixed_seed_identical_corpus(self):
        src = build_source({"name": "bimodal_gap"})
        a = sample_corpus(src, 10, 20, np.random.default_rng(4), seed=4)
        b = sample_corpus(src, 10, 20, np.random.default_rng(4), seed=4)
        assert a.sequences == b.sequences
        assert a.provenance == "ground_truth"

    def test_bad_sizes(self):
        src = build_source({"name": "uniform"})
        with pytest.raises(InvalidInputError):
            sample_corpus(src, 0, 5, np.random.default_rng(0))
        with pytest.raises(InvalidInputError, match="steps must be >= 1"):
            src.rollouts([[]], 0, np.random.default_rng(0))

    def test_no_prompts_draw_nothing(self):
        src = build_source({"name": "bimodal_gap"})
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert src.rollouts([], 5, rng).shape == (0, 5)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("prompts, ctx", [([[1], [2, 7]], "(2, 7)"), ([[-1]], "(0, -1)")])
    def test_out_of_range_prompt_raises(self, prompts, ctx):
        # bimodal_gap has 6 tokens; the bad prompt is named before anything is drawn
        src = build_source({"name": "bimodal_gap"})
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match=re.escape(f"context {ctx} has out-of-range")):
            src.rollouts(prompts, 3, rng)
        assert rng.bit_generator.state == state


def per_token_sequence(source, length, rng, prompt=()):
    """`length` tokens after one prompt, one Generator.choice per token: the sampler
    before lockstep."""
    seq = list(prompt)
    for _ in range(length):
        d = source_row(source, seq)
        seq.append(int(rng.choice(source.vocab.size, p=d.probs)))
    return seq[len(prompt):]


LOCKSTEP_SOURCES = [
    # near-zero rows: most of each row's mass sits on one or two tokens
    {"name": "random_dirichlet", "seed": 3, "vocab_size": 9, "concentration": 0.1},
    {"name": "random_dirichlet", "seed": 5, "vocab_size": 4, "order": 2,
     "concentration": 0.1},
    # one-hot rows
    {"name": "deterministic_cycle", "vocab_size": 5},
    {"name": "bimodal_gap"},
]


class TestLockstepSampling:
    @pytest.mark.parametrize("spec", LOCKSTEP_SOURCES)
    def test_corpus_matches_per_token_reference(self, spec):
        src = build_source(spec)
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        corpus = sample_corpus(src, 13, 21, a)
        assert corpus.sequences == [per_token_sequence(src, 21, b) for _ in range(13)]
        assert a.random() == b.random()

    @pytest.mark.parametrize("spec", LOCKSTEP_SOURCES)
    def test_one_sequence_is_the_one_rollout_case(self, spec):
        src = build_source(spec)
        a, b = np.random.default_rng(2), np.random.default_rng(2)
        for length in (1, 7, 30):
            assert src.rollouts([[]], length, a).tolist() == [
                per_token_sequence(src, length, b)]
            assert src.rollouts([[]] * 3, length, a).tolist() == [
                per_token_sequence(src, length, b) for _ in range(3)]
        assert a.random() == b.random()

    @pytest.mark.parametrize("spec", LOCKSTEP_SOURCES)
    def test_ragged_prompts_match_per_token_reference(self, spec):
        src = build_source(spec)
        prompts = [[t % src.vocab.size for t in p] for p in RAGGED_PROMPTS] * 3
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        assert src.rollouts(prompts, 12, a).tolist() == [
            per_token_sequence(src, 12, b, prompt) for prompt in prompts]
        assert a.random() == b.random()


def tempered(model, temperature):
    """The source a SeqKD corpus samples: softmax(logits / temperature) at every context."""
    return MarkovSource("tempered", model.order, model.vocab, softmax(model.table / temperature))


TEMPERATURES = [1.0, 0.5, 2.0, 0.3]


class TestModelRollouts:
    """A model is sampled as the source of its (tempered) softmax table."""

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_per_token_sampling(self, temperature, order):
        m = peaked_model(order=order)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        got = tempered(m, temperature).rollouts(RAGGED_PROMPTS * 3, 12, a)
        want = [per_token_rollout(m, p, 12, b, temperature) for p in RAGGED_PROMPTS * 3]
        assert got.tolist() == want
        assert a.random() == b.random()

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_single_rollout_is_the_one_rollout_case(self, temperature):
        m = peaked_model()
        src = tempered(m, temperature)
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        for prompt in RAGGED_PROMPTS:
            assert (src.rollouts([prompt], 5, a).tolist()
                    == [per_token_rollout(m, prompt, 5, b, temperature)])
        assert a.random() == b.random()

    def test_single_step_is_one_choice(self):
        m = TabularLM(order=1, vocab=Vocab.default(4))
        out = model_source(m).rollouts([[1]], 1, np.random.default_rng(3))
        assert out.tolist() == [per_token_rollout(m, [1], 1, np.random.default_rng(3))]

    def test_saturated_row_always_dominant(self):
        m = TabularLM(order=1, vocab=Vocab.default(3))
        m.set_row((0,), [50.0, 0.0, 0.0])
        draws = model_source(m).rollouts([[0]] * 1000, 1, np.random.default_rng(0))
        assert draws.tolist() == [[0]] * 1000

    def test_uniform_frequency_three_sigma(self):
        m = TabularLM(order=1, vocab=Vocab.default(2))
        draws = model_source(m).rollouts([[0]] * 100_000, 1, np.random.default_rng(7))
        assert 0.494 <= np.mean(draws == 0) <= 0.506

    def test_same_seed_same_rollouts(self):
        src = model_source(TabularLM(order=1, vocab=Vocab.default(4)))
        for prompts, steps in (([[0]] * 100, 1), ([[2]], 16)):
            r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
            assert (src.rollouts(prompts, steps, r1) == src.rollouts(prompts, steps, r2)).all()

    def test_deterministic_model_matches_greedy_path(self):
        m = TabularLM(order=1, vocab=Vocab.default(3))
        for i in range(3):
            row = np.full(3, -50.0)
            row[(i + 1) % 3] = 50.0
            m.set_row((i,), row)
        sampled = model_source(m).rollouts([[0]], 6, np.random.default_rng(0)).tolist()
        assert sampled == m.greedy_rollouts([[0]], 6) == [[1, 2, 0, 1, 2, 0]]


class TestSeqKDCorpus:
    def _fit_teacher(self, src, seed=0):
        corpus = sample_corpus(src, 500, 64, np.random.default_rng(seed), seed=seed)
        return train_teacher_mle(corpus, src.order, lam=0.0)

    def test_greedy_limit_single_repeated_sequence(self):
        src = build_source({"name": "deterministic_cycle", "vocab_size": 3})
        teacher = self._fit_teacher(src)
        corpus = generate_seqkd_corpus(
            teacher, [[] for _ in range(5)], 6, np.random.default_rng(0), temperature=0.0
        )
        assert all(seq == corpus.sequences[0] for seq in corpus.sequences)
        assert corpus.provenance == "teacher_generated"

    def test_temperature_one_matches_source_statistics(self):
        src = build_source({"name": "random_dirichlet", "seed": 9, "vocab_size": 4,
                            "order": 1})
        teacher = TabularLM(order=1, vocab=Vocab.default(4))
        for i in range(4):
            teacher.set_row((i,), np.log(source_row(src, (i,)).probs))
        n = 100_000
        rng = np.random.default_rng(1)
        kd = generate_seqkd_corpus(teacher, [[]], n, rng, temperature=1.0)
        gt = sample_corpus(src, 1, n, np.random.default_rng(2))
        for v in range(4):
            f1 = kd.sequences[0].count(v) / n
            f2 = gt.sequences[0].count(v) / n
            # both are unigram frequencies of the same chain; 3 sigma each way
            assert abs(f1 - f2) <= 6 * np.sqrt(0.25 / n)

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_prompts_match_per_token_reference(self, temperature):
        # each prompt draws its `length` uniforms in turn, one per token
        teacher = TabularLM(order=2, vocab=Vocab.default(4))
        rng = np.random.default_rng(3)
        for ctx in np.ndindex(4, 4):
            teacher.set_row(ctx, 3.0 * rng.normal(size=4))
        prompts = [[], [2], [1, 3, 0], [], [3, 3]]
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        kd = generate_seqkd_corpus(teacher, prompts, 10, a, temperature=temperature)
        want = []
        for prompt in prompts:
            seq = list(prompt)
            for _ in range(10):
                d = model_row(teacher, seq, temperature)
                seq.append(int(b.choice(4, p=d.probs)))
            want.append(seq)
        assert kd.sequences == want
        assert a.random() == b.random()

    def test_greedy_prompts_match_per_prompt_argmax(self):
        # temperature 0 draws nothing: every prompt's greedy path, rng untouched
        teacher = TabularLM(order=2, vocab=Vocab.default(4))
        rng = np.random.default_rng(4)
        for ctx in np.ndindex(4, 4):
            teacher.set_row(ctx, rng.integers(-1, 2, size=4).astype(float))  # many ties
        prompts = [[], [2], [1, 3, 0], [], [3, 3]]
        a = np.random.default_rng(6)
        kd = generate_seqkd_corpus(teacher, prompts, 10, a, temperature=0.0)
        assert kd.sequences == [p + greedy_rollout(teacher, p, 10) for p in prompts]
        assert a.random() == np.random.default_rng(6).random()

    def test_negative_temperature_rejected(self):
        teacher = TabularLM(order=1, vocab=Vocab.default(2))
        with pytest.raises(InvalidInputError, match="temperature must be >= 0"):
            generate_seqkd_corpus(teacher, [[]], 4, np.random.default_rng(0),
                                  temperature=-1.0)

    def test_temperature_sharpens(self):
        # the frequency of the larger logit's token: softmax([1, 0] / T)[0] is
        # 0.62, 0.73 and 0.88 at T = 2, 1 and 0.5
        m = TabularLM(order=1, vocab=Vocab.default(2))
        m.set_row((0,), [1.0, 0.0])
        freq = {}
        for t in (2.0, 1.0, 0.5):
            kd = generate_seqkd_corpus(m, [[0]] * 20_000, 1, np.random.default_rng(3),
                                       temperature=t)
            freq[t] = np.mean(kd.tokens[1::2] == 0)  # every sequence is [prompt, draw]
        assert freq[0.5] > freq[1.0] + 0.1 and freq[1.0] > freq[2.0] + 0.07

    def test_overflowing_temperature_fails_whatever_the_seed(self):
        # LOGIT_FLOOR / 1e-306 is beyond the float range: row (1,) overflows. A
        # rollout of 2 tokens reaches that row only if its first draw, from the
        # all-zero row (0,), is 1. Seed 2 draws 0 there, seed 0 draws 1: the whole
        # tempered table is checked, so both fail, not just the one that visits it
        m = TabularLM(order=1, vocab=Vocab.default(2))
        m.set_row((1,), [0.0, LOGIT_FLOOR])
        first = [generate_seqkd_corpus(m, [[]], 1, np.random.default_rng(seed)).tokens[0]
                 for seed in (2, 0)]
        assert first == [0, 1]
        for seed in (2, 0):
            with pytest.raises(InvalidInputError, match=re.escape(
                    "temperature 1e-306 scales a teacher logit beyond the float range")):
                generate_seqkd_corpus(m, [[]], 2, np.random.default_rng(seed),
                                      temperature=1e-306)


class TestCorpusLayout:
    """A corpus is one read-only int64 token array and one read-only intp length array."""

    SEQS = [[0, 1, 2], [3], [], [5, 4, 3, 2, 1], [2, 2]]

    def _corpus(self, seqs=SEQS):
        return Corpus.from_sequences(seqs, provenance="ground_truth", seed=3, vocab_size=6)

    def test_layout(self):
        corpus = self._corpus()
        assert corpus.tokens.dtype == np.int64 and corpus.lengths.dtype == np.intp
        assert corpus.tokens.tolist() == [t for seq in self.SEQS for t in seq]
        assert corpus.lengths.tolist() == [3, 1, 0, 5, 2]
        assert corpus.num_tokens() == 11

    def test_arrays_are_read_only(self):
        corpus = self._corpus()
        for array in (corpus.tokens, corpus.lengths):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_read_only_copies_leave_the_callers_arrays_writable(self):
        tokens, lengths = np.arange(4), np.array([1, 3])
        corpus = Corpus(tokens, lengths, provenance="ground_truth", seed=0, vocab_size=4)
        tokens[0] = lengths[0] = 2
        assert not corpus.tokens.flags.writeable and not corpus.lengths.flags.writeable
        assert corpus.tokens.tolist() == [0, 1, 2, 3] and corpus.lengths.tolist() == [1, 3]

    @pytest.mark.parametrize("seqs", [SEQS, [], [[]], [[1]], [[0, 1], [1, 0]]])
    def test_list_view_equals_the_lists_built_from(self, seqs):
        assert self._corpus(seqs).sequences == seqs

    def test_lists_and_arrays_build_the_same_corpus(self):
        a = self._corpus()
        b = Corpus(np.array([t for seq in self.SEQS for t in seq]),
                   np.array([len(seq) for seq in self.SEQS]), provenance="ground_truth",
                   seed=3, vocab_size=6)
        c = self._corpus([np.array(seq, dtype=np.int32) for seq in self.SEQS])
        for other in (b, c):
            assert other.tokens.tobytes() == a.tokens.tobytes()
            assert other.lengths.tobytes() == a.lengths.tobytes()
            assert other.tokens.dtype == a.tokens.dtype and other.lengths.dtype == a.lengths.dtype

    @pytest.mark.parametrize("tokens, lengths", [
        ([0, 1, 2], [2]), ([0, 1], [3, -1]), ([[0, 1]], [2]), ([0, 1], [[2]]),
    ])
    def test_lengths_must_cover_the_tokens(self, tokens, lengths):
        with pytest.raises(InvalidInputError, match="lengths"):
            Corpus(tokens, lengths, provenance="ground_truth", seed=0, vocab_size=4)

    @pytest.mark.parametrize("spec", LOCKSTEP_SOURCES)
    def test_sample_corpus_is_the_per_sequence_reference_byte_for_byte(self, spec):
        src = build_source(spec)
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        corpus = sample_corpus(src, 9, 17, a, seed=8)
        want = np.array([per_token_sequence(src, 17, b) for _ in range(9)], dtype=np.int64)
        assert corpus.tokens.tobytes() == want.tobytes()
        assert corpus.lengths.tobytes() == np.full(9, 17, dtype=np.intp).tobytes()
        assert a.random() == b.random()

    @pytest.mark.parametrize("line_parser", [False, True], ids=["one call", "line parser"])
    @pytest.mark.parametrize("seqs", [[], SEQS, [[5] * 40, [0], [1, 2] * 7]],
                             ids=["empty", "zero-length", "variable"])
    def test_round_trip_keeps_tokens_and_lengths(self, tmp_path, monkeypatch, seqs,
                                                 line_parser):
        # a zero-length sequence is written as a blank line, which reads as no sequence
        corpus = self._corpus(seqs)
        path = tmp_path / "c.txt"
        corpus_write(corpus, path)
        if line_parser:
            monkeypatch.setattr(data, "_parse_body", lambda body, v: None)
        else:
            monkeypatch.setattr(data, "_parse_lines", None)
        loaded = corpus_read(path)
        assert loaded.tokens.tobytes() == corpus.tokens.tobytes()
        kept = corpus.lengths[corpus.lengths > 0]
        assert loaded.lengths.tobytes() == kept.tobytes()
        assert loaded.tokens.dtype == np.int64 and loaded.lengths.dtype == np.intp
        assert not loaded.tokens.flags.writeable and not loaded.lengths.flags.writeable


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        src = build_source({"name": "bimodal_gap"})
        corpus = sample_corpus(src, 8, 12, np.random.default_rng(0), seed=0)
        path = tmp_path / "c.txt"
        corpus_write(corpus, path)
        loaded = corpus_read(path)
        assert loaded.sequences == corpus.sequences
        assert loaded.provenance == corpus.provenance
        assert loaded.seed == corpus.seed
        assert loaded.vocab_size == corpus.vocab_size

    def test_empty_corpus_round_trips(self, tmp_path):
        corpus = Corpus.from_sequences([], provenance="ground_truth", seed=1, vocab_size=4)
        path = tmp_path / "c.txt"
        corpus_write(corpus, path)
        assert corpus_read(path).sequences == []

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_write_rejects_out_of_range_id(self, tmp_path, bad):
        # every id is written by its name in [0, V); no file is opened for one outside
        corpus = Corpus.from_sequences([[0, 1], [2, bad, 1]], provenance="ground_truth", seed=0,
                        vocab_size=3)
        path = tmp_path / "c.txt"
        with pytest.raises(InvalidInputError, match=f"token id {bad} out of range"):
            corpus_write(corpus, path)
        assert not path.exists()

    def test_out_of_range_token_names_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            '{"format_version": 1, "V": 4, "provenance": "ground_truth", "seed": 0}\n'
            "0 1 2\n"
            "0 9 1\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            corpus_read(path)

    def test_non_integer_token_names_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            '{"format_version": 1, "V": 2, "provenance": "ground_truth", "seed": 0}\n'
            "0 x\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            corpus_read(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1 0\n")
        with pytest.raises(ParseError):
            corpus_read(path)

    def test_bad_provenance_rejected(self):
        with pytest.raises(InvalidInputError):
            Corpus.from_sequences([], provenance="mystery", seed=0, vocab_size=2)


HEADER = '{"format_version": 1, "V": %d, "provenance": "ground_truth", "seed": 0}\n'


def reference_corpus_read(path):
    """Sequences (or the ParseError message) of a corpus file, one int() per token."""
    lines = open(path, encoding="utf-8").read().splitlines()
    v = json.loads(lines[0])["V"]
    seqs = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            seq = [int(t) for t in line.split()]
        except ValueError as e:
            return f"{path}: line {lineno}: non-integer token: {e}"
        for t in seq:
            if not 0 <= t < v:
                return f"{path}: line {lineno}: token id {t} out of range [0, {v})"
        seqs.append(seq)
    return seqs


def read_or_message(path):
    try:
        return corpus_read(path).sequences
    except ParseError as e:
        return str(e)


def _reformat(text, style):
    """A corpus file's text with its body's separators and blank lines restyled."""
    head, _, body = text.partition("\n")
    lines = body.splitlines()
    if style == "tabs":
        lines = [line.replace(" ", "\t") for line in lines]
    elif style == "blank lines":
        lines = [x for line in lines for x in ("", line, "   ")]
    elif style == "trailing spaces":
        lines = ["  " + line + " \t " for line in lines]
    elif style == "crlf":
        return head + "\r\n" + "\r\n".join(lines) + "\r\n"
    return head + "\n" + "\n".join(lines) + "\n"


class TestCorpusParse:
    """corpus_read's one-call parse reads what the line parser reads, error for error."""

    @pytest.mark.parametrize("spec, shape", [
        ({"name": "bimodal_gap"}, (200, 64)),
        ({"name": "random_dirichlet", "seed": 1, "vocab_size": 130, "order": 1}, (30, 17)),
        ({"name": "uniform", "vocab_size": 11}, (1, 1)),
    ])
    @pytest.mark.parametrize("style", ["as written", "tabs", "blank lines", "trailing spaces",
                                       "crlf"])
    def test_one_call_parse_equals_the_line_parser(self, tmp_path, monkeypatch, spec, shape,
                                                   style):
        src = build_source(spec)
        corpus = sample_corpus(src, *shape, np.random.default_rng(3))
        path = tmp_path / "c.txt"
        corpus_write(corpus, path)
        path.write_bytes(_reformat(path.read_text(), style).encode())
        # the line parser is not called: the one-call parse proved its result
        monkeypatch.setattr(data, "_parse_lines", None)
        assert corpus_read(path).sequences == corpus.sequences
        monkeypatch.undo()
        assert reference_corpus_read(path) == corpus.sequences

    @pytest.mark.parametrize("body, want", [
        ("+3 -0 007\n", [[3, 0, 7]]),
        ("1_0 2\n", [[10, 2]]),
        ("\u0663 1\n", [[3, 1]]),
        ("1\xa02\u20033\n", [[1, 2, 3]]),
        ("1\x1f2\x1c3\n", [[1, 2], [3]]),
    ])
    def test_inputs_left_to_the_line_parser(self, tmp_path, body, want):
        # int() reads these, np.fromstring would not or not alike: the line parser does
        path = tmp_path / "c.txt"
        path.write_text(HEADER % 11 + body, encoding="utf-8")
        assert corpus_read(path).sequences == want == reference_corpus_read(path)

    @pytest.mark.parametrize("body, message", [
        ("0 x\n", "line 2: non-integer token: invalid literal for int() with base 10: 'x'"),
        ("0 1\n1.5 0\n",
         "line 3: non-integer token: invalid literal for int() with base 10: '1.5'"),
        ("0 1\n\n2 -\n", "line 4: non-integer token: invalid literal for int() with base 10: '-'"),
        ("1e3\n", "line 2: non-integer token: invalid literal for int() with base 10: '1e3'"),
        ("0 -1\n", "line 2: token id -1 out of range [0, 4)"),
        ("0 1 2\n0 9 1\n", "line 3: token id 9 out of range [0, 4)"),
        ("0 4\n", "line 2: token id 4 out of range [0, 4)"),
        ("1 99999999999999999999\n",
         "line 2: token id 99999999999999999999 out of range [0, 4)"),
        ("9223372036854775807\n", "line 2: token id 9223372036854775807 out of range [0, 4)"),
    ])
    def test_error_messages_are_the_line_parsers(self, tmp_path, body, message):
        path = tmp_path / "c.txt"
        path.write_text(HEADER % 4 + body)
        with pytest.raises(ParseError) as info:
            corpus_read(path)
        assert str(info.value) == f"{path}: {message}" == reference_corpus_read(path)

    @pytest.mark.parametrize("text", ["", "\n"])
    def test_missing_header_message(self, tmp_path, text):
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            corpus_read(path)
        assert str(info.value) == (f"{path}: empty file, missing header" if not text else
                                   f"{path}: line 1: bad header: Expecting value: line 1 "
                                   f"column 1 (char 0)")

    def test_unknown_provenance_names_the_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text('{"format_version": 1, "V": 4, "provenance": "weird", "seed": 0}\n0 1\n')
        with pytest.raises(ParseError) as info:
            corpus_read(path)
        assert str(info.value) == f"{path}: line 1: unknown provenance 'weird'"

    @pytest.mark.parametrize("body", ["", "\n", "  \n\t\n", "\n\n\n"])
    def test_empty_body_is_an_empty_corpus(self, tmp_path, body):
        path = tmp_path / "c.txt"
        path.write_text(HEADER % 4 + body)
        assert corpus_read(path).sequences == [] == reference_corpus_read(path)

    def test_random_bodies_match_the_line_parser(self, tmp_path):
        pieces = ["0", "1", "5", "6", "12", "007", "+3", "-0", "-1", "-", "+", "1_0", "\u0663",
                  "1.5", "1e2", "x", " ", "  ", "\t", "\x0b", "\x0c", "\x1f", "\xa0", "\n",
                  "\r\n", "\x1c", "99999999999999999999", "9223372036854775807", "3 4", ""]
        rng = random.Random(0)
        path = tmp_path / "c.txt"
        fast = 0
        for _ in range(1500):
            v = rng.choice([6, 13, 1, 0, -2, 10**30])
            body = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
            path.write_text(HEADER % v + body, encoding="utf-8", newline="")
            assert read_or_message(path) == reference_corpus_read(path), (body, v)
            lines = path.read_text(encoding="utf-8").splitlines()
            fast += data._parse_body(lines[1:], v) is not None
        assert fast > 100  # the one-call parse took a good share of them


class TestSourceIO:
    def test_round_trip(self, tmp_path):
        src = build_source({"name": "random_dirichlet", "seed": 2, "vocab_size": 3,
                            "order": 2})
        path = tmp_path / "s.json"
        source_save(src, path)
        loaded = source_load(path)
        assert loaded.name == src.name and loaded.order == src.order
        for ctx in itertools.product(range(3), repeat=2):
            assert np.array_equal(source_row(loaded, ctx).probs, source_row(src, ctx).probs)

    @pytest.mark.parametrize("spec", [
        {"name": "random_dirichlet", "seed": 2, "vocab_size": 64, "order": 1},
        {"name": "bimodal_gap"},
        {"name": "uniform", "vocab_size": 3, "order": 0},
    ])
    @pytest.mark.parametrize("extra", [None, {"format_version": 4, "name": "y", "seed": 1}])
    def test_streamed_file_is_the_one_shot_json(self, tmp_path, spec, extra):
        src = build_source(spec)
        v = src.vocab.size
        doc = {"format_version": 1, "name": src.name, "order": src.order,
               "vocab": {"names": list(src.vocab.names), "bos_id": 0},
               "rows": [{"context": list(np.unravel_index(cid, (v,) * src.order)),
                         "probs": [float(x) for x in row]}
                        for cid, row in enumerate(src.table.probs)]}
        doc.update(extra or {})
        source_save(src, tmp_path / "s.json", header_extra=extra)
        assert (tmp_path / "s.json").read_text() == json.dumps(doc, default=int) + "\n"

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            source_load(path)

    @pytest.mark.parametrize("edit, needle", [
        (lambda rows: rows[4].update(probs=[0.5, 0.5]), r"rows\[4\]: probs must list 3"),
        (lambda rows: rows[2].update(context=[0, 3]), r"context \(0, 3\) has out-of-range"),
        (lambda rows: rows.pop(5), r"no row for context \(1, 2\)"),
        (lambda rows: rows[5].update(context=[0, 0]), r"no row for context \(1, 2\)"),
    ])
    def test_bad_rows_are_parse_errors(self, tmp_path, edit, needle):
        path = tmp_path / "s.json"
        source_save(build_source({"name": "uniform", "vocab_size": 3, "order": 2}), path)
        doc = json.loads(path.read_text())
        edit(doc["rows"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=needle):
            source_load(path)

    # the first bad row is named, whichever check a later row fails
    @pytest.mark.parametrize("edit, needle", [
        (lambda rows: (rows[2].update(context=[0, 3]), rows[4].update(probs=[0.5, 0.5])),
         r"context \(0, 3\) has out-of-range"),
        (lambda rows: (rows[2].update(probs=[0.5]), rows[4].update(context=[0, 3])),
         r"rows\[2\]: probs must list 3"),
    ], ids=["range-then-length", "length-then-range"])
    def test_first_bad_row_is_named(self, tmp_path, edit, needle):
        self.test_bad_rows_are_parse_errors(tmp_path, edit, needle)


@settings(max_examples=20)
@given(st.floats(0.01, 0.99))
def test_property_smoothed_rows_are_distributions(eps):
    src = build_source({"name": "bimodal_gap", "eps": eps})
    assert np.allclose(src.table.probs.sum(axis=1), 1.0)
    assert np.all(src.table.probs > 0.0)


def _table_files():
    """Each kind of table file: (save, load, a table of V = 3 and order 2 with every row
    set, its rows' key)."""
    rows = dirichlet_rows(np.random.default_rng(0), 3, 1.0, 9)
    model = TabularLM(order=2, vocab=Vocab.default(3))
    model.table[:] = np.log(rows)
    source = MarkovSource("s", 2, Vocab.default(3), CategoricalDist.from_rows(rows))
    return {"source": (source_save, source_load, source, "probs"),
            "checkpoint": (checkpoint_save, checkpoint_load, model, "logits")}


class TestTableFiles:
    """Sources and checkpoints share one file format, one writer and one loader."""

    @pytest.mark.parametrize("kind", ["source", "checkpoint"])
    @pytest.mark.parametrize("edit, needle", [
        (lambda doc, key: "{not json", "invalid JSON at line 1"),
        (lambda doc, key: doc.update(format_version=2), "unsupported format_version 2"),
        (lambda doc, key: doc["rows"][1].update(context=[0]), "rows[1]: context length != order"),
        (lambda doc, key: doc["rows"][1].update({key: [0.5, 0.5]}),
         "rows[1]: {key} must list 3 numbers, each finite"),
        (lambda doc, key: doc["rows"][1][key].__setitem__(2, float("inf")),
         "rows[1]: {key} must list 3 numbers, each finite"),
        (lambda doc, key: doc["rows"][1][key].__setitem__(0, float("nan")),
         "rows[1]: {key} must list 3 numbers, each finite"),
    ], ids=["json", "version", "context", "row-length", "inf", "nan"])
    def test_a_bad_file_is_a_parse_error_naming_it(self, tmp_path, kind, edit, needle):
        save, load, table, key = _table_files()[kind]
        path = tmp_path / "t.json"
        save(table, path)
        doc = json.loads(path.read_text())
        text = edit(doc, key)
        path.write_text(text if isinstance(text, str) else json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: {needle.format(key=key)}")

    @pytest.mark.parametrize("kind", ["source", "checkpoint"])
    def test_round_trip_keeps_a_bos_id_other_than_0(self, tmp_path, kind):
        save, load, table, _ = _table_files()[kind]
        vocab = Vocab(names=("a", "b", "c"), bos_id=2)
        if kind == "source":
            table = MarkovSource(table.name, table.order, vocab, table.table)
        else:
            model = TabularLM(order=2, vocab=vocab)
            # every third row, so the file lists touched rows only
            model.table[::3] = table.table[::3]
            table = model
        save(table, tmp_path / "t.json")
        loaded = load(tmp_path / "t.json")
        assert (loaded.vocab, loaded.order) == (vocab, 2)
        if kind == "source":
            assert loaded.name == "s"
            assert np.array_equal(loaded.table.probs, table.table.probs)
        else:
            assert np.array_equal(loaded.touched, table.touched)
            assert np.array_equal(loaded.table, table.table)
