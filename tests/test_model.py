"""Oracle and property tests for the tabular LM, exact gradients, and checkpoints."""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab import model
from distill_lab.errors import InvalidInputError, LogOfZeroError, NumericOverflowError, ParseError
from distill_lab.model import (
    MAX_TABLE_ENTRIES,
    GradAccumulator,
    TabularLM,
    Vocab,
    accumulate_token_grads,
    add_token_grads,
    checkpoint_load,
    checkpoint_save,
    context_key,
    pad_context,
    pad_contexts,
    prefix_id,
    prefix_ids,
    sgd_step,
    suffix_ids,
    walk,
)
from distill_lab.numerics import softmax
from distill_lab.training import PredictiveTable
from oracles import RAGGED_PROMPTS, add_token_grad, greedy_rollout, peaked_model


def uniform_model(v=2, order=1):
    return TabularLM(order=order, vocab=Vocab.default(v))


class TestVocab:
    def test_default_names(self):
        v = Vocab.default(3)
        assert v.names == ("t0", "t1", "t2")
        assert v.size == 3 and v.bos_id == 0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Vocab(names=("only",))
        with pytest.raises(InvalidInputError):
            Vocab(names=("a", "a"))
        with pytest.raises(InvalidInputError):
            Vocab(names=("a", "b"), bos_id=5)


class TestPadContext:
    def test_empty_prefix(self):
        assert pad_context([], 2, 0) == (0, 0)

    def test_short_prefix(self):
        assert pad_context([3], 2, 0) == (0, 3)

    def test_long_prefix_keeps_tail(self):
        assert pad_context([1, 2, 3, 4], 2, 0) == (3, 4)


class TestContextIds:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_id_order_is_sorted_tuple_order(self, order):
        keys = list(itertools.product(range(3), repeat=order))
        ids = [prefix_id(k, order, Vocab.default(3)) for k in sorted(keys)]
        assert ids == list(range(3**order))
        assert [context_key(i, order, 3) for i in range(3**order)] == sorted(keys)

    @pytest.mark.parametrize("bos_id", [0, 2])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_advanced_id_is_the_padded_context_id(self, order, bos_id):
        # a rollout window moves by (id * V + token) % V**k from its prompt's id
        vocab = Vocab(names=("a", "b", "c", "d"), bos_id=bos_id)
        rng = np.random.default_rng(order)
        for prompt_len in range(order + 3):  # shorter than, equal to and longer than k
            seq = [int(t) for t in rng.integers(4, size=prompt_len)]
            cid = prefix_id(seq, order, vocab)
            for tok in rng.integers(4, size=8).tolist():
                cid = (cid * 4 + tok) % 4**order
                seq.append(tok)
                assert cid == np.ravel_multi_index(pad_context(seq, order, bos_id), (4,) * order)
                assert context_key(cid, order, 4) == pad_context(seq, order, bos_id)

    @pytest.mark.parametrize("bos_id", [0, 2])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_walk_id_after_emitting_is_the_prefix_id(self, order, bos_id):
        # every prefix shorter than, as long as and longer than k, then 4 random tokens
        vocab = Vocab(names=("a", "b", "c"), bos_id=bos_id)
        prefixes = [list(p) for n in range(order + 3)
                    for p in itertools.product(range(3), repeat=n)]
        emitted = np.random.default_rng(order).integers(3, size=(len(prefixes), 4))
        start = [prefix_id(p, order, vocab) for p in prefixes]
        ids, tokens = walk(start, 4, order, 3, lambda ids, t: emitted[:, t])
        assert np.array_equal(tokens, emitted)
        for t in range(4):
            assert ids[:, t].tolist() == [prefix_id(p + emitted[i, :t].tolist(), order, vocab)
                                          for i, p in enumerate(prefixes)]

    @pytest.mark.parametrize("bos_id", [0, 2])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_prefix_ids_are_the_prefix_id_of_each_prompt(self, order, bos_id):
        # ragged prompts shorter than, as long as and longer than k, as lists,
        # tuples and array rows
        vocab = Vocab(names=("a", "b", "c"), bos_id=bos_id)
        prompts = [list(p) for n in range(order + 3)
                   for p in itertools.product(range(3), repeat=n)]
        prompts += [tuple(prompts[-1]), np.array(prompts[-2])]
        ids = prefix_ids(prompts, order, vocab)
        assert ids.dtype == np.intp
        assert ids.tolist() == [prefix_id(p, order, vocab) for p in prompts]
        assert pad_contexts(prompts, order, bos_id).tolist() == [
            list(pad_context(p, order, bos_id)) for p in prompts]
        assert prefix_ids([], order, vocab).shape == (0,)

    @pytest.mark.parametrize("bos_id", [0, 2])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("length", [0, 1, 2, 4])
    def test_an_array_of_prompts_is_its_list_of_rows(self, order, bos_id, length):
        # every prompt one length, as an (n, length) array: (n, 0) holds n empty prompts
        vocab = Vocab(names=("a", "b", "c"), bos_id=bos_id)
        prompts = np.array(list(itertools.product(range(3), repeat=length)),
                           dtype=np.int64).reshape(3**length, length)
        rows = prompts.tolist()
        assert pad_contexts(prompts, order, bos_id).tolist() == pad_contexts(
            rows, order, bos_id).tolist()
        assert prefix_ids(prompts, order, vocab).tolist() == prefix_ids(rows, order,
                                                                        vocab).tolist()
        assert prefix_ids(np.zeros((5, 0), dtype=np.int64), order, vocab).tolist() == [
            prefix_id([], order, vocab)] * 5

    @pytest.mark.parametrize("bad", [3, -1, 2**70])
    def test_prefix_ids_name_the_first_bad_context_as_prefix_id_does(self, bad):
        # only the padded context is read: a bad id before it is ignored
        vocab = Vocab.default(3)
        prompts = [[bad, 1, 2], [0], [1, bad], [bad, 0]]
        with pytest.raises(InvalidInputError) as info:
            prefix_id(prompts[2], 2, vocab)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(info.value))}$"):
            prefix_ids(prompts, 2, vocab)
        assert prefix_ids(prompts[:2], 2, vocab).tolist() == [5, 0]

    @pytest.mark.parametrize("m, k", [(1, 1), (2, 1), (3, 1), (3, 2), (2, 0)])
    def test_suffix_id_is_the_id_of_the_last_k_tokens(self, m, k):
        vocab = Vocab.default(3)
        for ctx in itertools.product(range(3), repeat=m):
            tail = ctx[len(ctx) - k:]
            assert suffix_ids([prefix_id(ctx, m, vocab)], k, 3).tolist() == [
                prefix_id(tail, k, vocab)]

    def test_walk_edge_cases(self):
        def threes(ids, t):
            return np.full(ids.size, 3)

        ids, tokens = walk(np.empty(0, dtype=np.intp), 3, 2, 4, threes)
        assert ids.shape == tokens.shape == (0, 3)
        ids, tokens = walk([0, 0], 3, 0, 4, threes)  # an order-0 context never moves
        assert ids.tolist() == [[0, 0, 0]] * 2 and tokens.tolist() == [[3, 3, 3]] * 2
        succ = model._successors(2, 4)
        assert succ is model._successors(2, 4) and not succ.flags.writeable
        assert succ.tolist() == [i * 4 % 16 for i in range(16)]

    def test_table_size_cap_names_v_and_k(self):
        v, k = 6, 1
        while v ** (k + 1) <= MAX_TABLE_ENTRIES:
            k += 1
        for make in (lambda: TabularLM(order=k, vocab=Vocab.default(v)),
                     lambda: GradAccumulator(k, v)):
            with pytest.raises(InvalidInputError, match=f"V={v} and order k={k}"):
                make()


def predictive_rows(m, ids):
    """The model's predictive rows at the context ids, as the training loop reads them."""
    return PredictiveTable(m, with_cdf=False).rows(ids)


class TestPredict:
    def test_unseen_context_uniform(self):
        m = uniform_model(v=4)
        assert np.allclose(predictive_rows(m, [0]).probs, [[0.25] * 4])

    def test_row_ln3_zero(self):
        m = uniform_model(v=2)
        m.set_row((1,), [np.log(3.0), 0.0])
        assert np.allclose(predictive_rows(m, [1]).probs, [[0.75, 0.25]])

    def test_saturated_row(self):
        m = uniform_model(v=2)
        m.set_row((0,), [10.0, -10.0])
        assert predictive_rows(m, [0]).probs[0, 0] > 0.999

    def test_context_validation(self):
        m = uniform_model(v=2, order=2)
        with pytest.raises(InvalidInputError):
            m.logits((0,))
        with pytest.raises(InvalidInputError):
            m.logits((0, 9))

    def test_set_row_validation(self):
        m = uniform_model(v=2)
        with pytest.raises(InvalidInputError):
            m.set_row((0,), [1.0])
        with pytest.raises(InvalidInputError):
            m.set_row((0,), [np.inf, 0.0])


class TestLockstepGreedy:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_greedy_matches_per_token_argmax(self, order):
        # every row ties its first two tokens for the max in a third of the contexts
        m = peaked_model(order=order)
        for cid in range(0, len(m.table), 3):
            m.table[cid, 1:3] = m.table[cid].max() + 1.0
        got = m.greedy_rollouts(RAGGED_PROMPTS * 2, 9)
        assert got == [greedy_rollout(m, prompt, 9) for prompt in RAGGED_PROMPTS * 2]
        assert any(row[0] == 1 for row in got)  # some rollout met a tie

    def test_greedy_ties_go_to_the_first_index(self):
        m = uniform_model(v=4, order=2)
        m.set_row((0, 0), [0.0, 2.0, 2.0, 2.0])
        m.set_row((0, 1), [1.0, -1.0, 1.0, 1.0])
        assert m.greedy_rollouts([[], [0]], 3) == [[1, 0, 0], [1, 0, 0]]
        assert m.greedy_rollouts([[2, 3]], 2) == [[0, 0]]  # an unseen row is all ties

    def test_greedy_rollouts_reject_bad_input(self):
        m = peaked_model()
        with pytest.raises(InvalidInputError, match="out-of-range"):
            m.greedy_rollouts([[1], [2, 7]], 3)
        with pytest.raises(InvalidInputError, match="steps must be >= 1"):
            m.greedy_rollouts([[1]], 0)
        assert m.greedy_rollouts([], 3) == []


class TestAccumulateTokenGrad:
    def test_descent_direction_uniform_row(self):
        m = uniform_model(v=2)
        acc = GradAccumulator(1, 2)
        add_token_grad(acc, 0, 0, 1.0, softmax(m.logits((0,))))
        assert np.allclose(acc.directions[0], [0.5, -0.5])
        assert acc.touched.tolist() == [True, False]

    def test_negative_weight_redistributes(self):
        m = uniform_model(v=2)
        acc = GradAccumulator(1, 2)
        add_token_grad(acc, 0, 0, -1.0, softmax(m.logits((0,))))
        assert np.allclose(acc.directions[0], [-0.5, 0.5])

    def test_direction_matches_finite_differences(self):
        # central differences of -w * ln softmax(z)[token] per logit
        rng = np.random.default_rng(4)
        m = uniform_model(v=5)
        z = rng.normal(size=5)
        m.set_row((0,), z)
        token, w, eps = 2, 1.7, 1e-6
        acc = GradAccumulator(1, 5)
        add_token_grad(acc, 0, token, w, softmax(z))
        numeric = np.zeros(5)
        for v in range(5):
            zp, zm = z.copy(), z.copy()
            zp[v] += eps
            zm[v] -= eps
            up = -w * np.log(np.exp(zp - zp.max())[token] / np.exp(zp - zp.max()).sum())
            dn = -w * np.log(np.exp(zm - zm.max())[token] / np.exp(zm - zm.max()).sum())
            numeric[v] = (up - dn) / (2 * eps)
        assert np.allclose(acc.directions[0], -numeric, atol=1e-7)

    def test_zero_weight_adds_only_zeros(self):
        # its row is touched: -0.0, but +0.0 at its token
        m = uniform_model()
        acc = GradAccumulator(1, 2)
        add_token_grad(acc, 0, 0, 0.0, softmax(m.logits((0,))))
        assert acc.touched.tolist() == [True, False] and not acc.directions.any()
        assert np.signbit(acc.directions).tolist() == [[False, True], [True, True]]

    def test_zero_weights_in_a_batch_add_nothing(self):
        # a batch with zero weights adds what its nonzero entries add alone, up to the
        # sign of a zero, and touches every row it names
        rng = np.random.default_rng(6)
        m = uniform_model(v=3)
        ids, tokens = np.array([0, 2, 1, 2]), np.array([1, 0, 2, 2])
        weights = np.array([0.7, 0.0, -1.3, 0.0])
        q = softmax(rng.normal(size=(4, 3))).probs
        acc, alone = GradAccumulator(1, 3), GradAccumulator(1, 3)
        accumulate_token_grads(acc, ids, tokens, weights, q)
        keep = weights != 0.0
        accumulate_token_grads(alone, ids[keep], tokens[keep], weights[keep], q[keep])
        assert np.array_equal(acc.directions, alone.directions)
        assert acc.touched.tolist() == [True, True, True]

    def test_rejects_bad_token_and_weight(self):
        m = uniform_model(v=2)
        acc = GradAccumulator(1, 2)
        with pytest.raises(InvalidInputError):
            add_token_grad(acc, 0, 5, 1.0, softmax(m.logits((0,))))
        with pytest.raises(InvalidInputError):
            add_token_grad(acc, 0, 0, np.nan, softmax(m.logits((0,))))


    def test_rejects_zero_probability_token(self):
        # the first row with q[token] = 0 is named, with its context
        acc = GradAccumulator(2, 3)
        q = np.array([[0.5, 0.5, 0.0], [0.2, 0.0, 0.8], [0.0, 0.5, 0.5]])
        with pytest.raises(LogOfZeroError, match=re.escape("q[1] = 0 at context (0, 2)")):
            accumulate_token_grads(acc, [4, 2, 7], [0, 1, 0], [1.0, 0.0, 1.0], q)
        assert not acc.touched.any()


# weights of either sign, with exact zeros; q rows positive at their tokens
@st.composite
def token_grad_batches(draw):
    v, order = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, v ** order - 1), min_size=n, max_size=n))
    tokens = draw(st.lists(st.integers(0, v - 1), min_size=n, max_size=n))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(-5, 5, allow_subnormal=False)),
                            min_size=n, max_size=n))
    z = np.array(draw(st.lists(st.floats(-30, 30), min_size=n * v, max_size=n * v)))
    q = softmax(z.reshape(n, v)).probs
    return v, order, ids, tokens, weights, q


class TestUncheckedKernel:
    @settings(max_examples=80, deadline=None)
    @given(batches=st.lists(token_grad_batches(), min_size=1, max_size=3))
    def test_kernel_equals_checked_entry_bit_for_bit(self, batches):
        v, order = batches[0][:2]
        checked, kernel = GradAccumulator(order, v), GradAccumulator(order, v)
        for bv, border, ids, tokens, weights, q in batches:
            if (bv, border) != (v, order) or (q[np.arange(len(ids)), tokens] <= 0.0).any():
                continue
            accumulate_token_grads(checked, ids, tokens, weights, q)
            add_token_grads(kernel, np.array(ids, dtype=np.intp), np.array(tokens),
                            np.array(weights, dtype=np.float64), q)
        assert checked.directions.tobytes() == kernel.directions.tobytes()
        assert np.array_equal(checked.touched, kernel.touched)


class TestSGDStep:
    def test_empty_accumulator_noop(self):
        m = uniform_model(v=2)
        m.set_row((1,), [0.3, -0.3])
        sgd_step(m, GradAccumulator(1, 2), 0.5, 1)
        assert np.allclose(m.logits((1,)), [0.3, -0.3])

    def test_worked_example_logistic(self):
        m = uniform_model(v=2)
        acc = GradAccumulator(1, 2)
        add_token_grad(acc, 0, 0, 1.0, softmax(m.logits((0,))))
        sgd_step(m, acc, 1.0, 1)
        assert np.allclose(m.logits((0,)), [0.5, -0.5])
        assert softmax(m.logits((0,))).probs[0] == pytest.approx(0.731059, abs=1e-6)
        assert not acc.touched.any() and not acc.directions.any()  # cleared

    def test_repeated_steps_monotone(self):
        m = uniform_model(v=2)
        prev = softmax(m.logits((0,))).probs[0]
        for _ in range(100):
            acc = GradAccumulator(1, 2)
            add_token_grad(acc, 0, 0, 1.0, softmax(m.logits((0,))))
            sgd_step(m, acc, 0.5, 1)
            cur = softmax(m.logits((0,))).probs[0]
            assert cur > prev
            prev = cur
        assert prev > 0.98

    def test_batch_mean_scaling(self):
        # two identical samples with lr x must equal one sample with lr x
        m1, m2 = uniform_model(v=2), uniform_model(v=2)
        acc = GradAccumulator(1, 2)
        add_token_grad(acc, 0, 0, 1.0, softmax(m1.logits((0,))))
        add_token_grad(acc, 0, 0, 1.0, softmax(m1.logits((0,))))
        sgd_step(m1, acc, 0.4, 2)
        acc2 = GradAccumulator(1, 2)
        add_token_grad(acc2, 0, 0, 1.0, softmax(m2.logits((0,))))
        sgd_step(m2, acc2, 0.4, 1)
        assert np.allclose(m1.logits((0,)), m2.logits((0,)))

    def test_bad_lr(self):
        with pytest.raises(InvalidInputError):
            sgd_step(uniform_model(), GradAccumulator(1, 2), 0.0, 1)

    def test_returns_moved_ids_ascending(self):
        m = uniform_model(v=3, order=2)
        acc = GradAccumulator(2, 3)
        acc.add_rows([5, 1, 3, 1], np.ones((4, 3)))
        moved = sgd_step(m, acc, 0.5, 4)
        assert moved.tolist() == [1, 3, 5] and moved.dtype == np.intp
        assert np.flatnonzero(m.touched).tolist() == [1, 3, 5]

    def test_zero_weights_move_their_rows_by_nothing(self):
        m = uniform_model(v=3, order=2)
        m.set_row((1, 2), [0.3, -0.3, 0.1])
        before = m.table.tobytes()
        acc = GradAccumulator(2, 3)
        accumulate_token_grads(acc, [2, 0], [1, 1], [0.0, 0.0], np.full((2, 3), 1 / 3))
        moved = sgd_step(m, acc, 0.5, 2)
        assert moved.tolist() == [0, 2] and moved.dtype == np.intp
        assert m.table.tobytes() == before
        assert np.signbit(acc.directions).all() and not acc.directions.any()

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_drawn_position_rejected(self, n):
        m = uniform_model(v=3, order=2)
        acc = GradAccumulator(2, 3)
        acc.add_rows([2], np.full((1, 3), 0.7))
        with pytest.raises(InvalidInputError, match=f"got n={n}"):
            sgd_step(m, acc, 0.5, n)
        assert not m.touched.any() and acc.touched.tolist() == [False, False, True] + [False] * 6

    def test_step_is_the_sum_over_the_positions_drawn(self):
        # a batch of 5 positions whose weights are 0 at three of them: the step
        # divides the summed directions by 5, not by the 2 nonzero weights, and
        # moves every context drawn
        rng = np.random.default_rng(3)
        m = uniform_model(v=3, order=1)
        m.set_row((1,), rng.normal(size=3))
        before = m.table.copy()
        ids, tokens = np.array([0, 1, 2, 1, 0]), np.array([2, 0, 1, 2, 0])
        weights = np.array([0.0, 0.8, 0.0, -0.4, 0.0])
        q = softmax(m.table[ids]).probs
        acc = GradAccumulator(1, 3)
        accumulate_token_grads(acc, ids, tokens, weights, q)
        summed = np.zeros((3, 3))
        for j in range(5):
            summed[ids[j]] += weights[j] * (np.eye(3)[tokens[j]] - q[j])
        assert sgd_step(m, acc, 0.3, 5).tolist() == [0, 1, 2]
        assert np.allclose(m.table, before + 0.3 / 5 * summed, rtol=0, atol=1e-15)
        assert not np.allclose(m.table, before + 0.3 / 2 * summed, atol=1e-3)


# finite directions from +-0.0 up to magnitudes 1e8 and down to 1e-8
direction_entries = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(1e-8, 1e8).flatmap(lambda x: st.sampled_from([x, -x])),
)


class TestAddRowsScatter:
    @settings(max_examples=60, deadline=None)
    @given(v=st.integers(2, 4), data=st.data())
    def test_matches_row_by_row_loop(self, v, data):
        # two batches before a clear, then one after; ids repeat within and across them
        acc = GradAccumulator(1, v)
        ref = np.full((v, v), -0.0)
        for batch in range(3):
            if batch == 2:
                acc.clear()
                ref[:] = -0.0
            ids = data.draw(st.lists(st.integers(0, v - 1), min_size=0, max_size=8))
            d = np.array(data.draw(st.lists(
                st.lists(direction_entries, min_size=v, max_size=v),
                min_size=len(ids), max_size=len(ids))), dtype=np.float64).reshape(len(ids), v)
            acc.add_rows(ids, d)
            for j, i in enumerate(ids):
                ref[i] = ref[i] + d[j]
            assert acc.directions.tobytes() == ref.tobytes()
        assert acc.touched.tolist() == [i in ids for i in range(v)]


class DictAccumulator:
    """The accumulator before dense tables: rows keyed by context tuple, first touch first."""

    def __init__(self):
        self.directions = {}

    def add_rows(self, ctxs, directions):
        slot = {ctx: i for i, ctx in enumerate(dict.fromkeys(ctxs))}
        sums = np.full((len(slot), directions.shape[-1]), -0.0)
        for ctx, i in slot.items():
            if ctx in self.directions:
                sums[i] = self.directions[ctx]
        np.add.at(sums, np.array([slot[ctx] for ctx in ctxs], dtype=np.intp), directions)
        for ctx, i in slot.items():
            self.directions[ctx] = sums[i]


def reference_sgd_step(rows, acc, lr, n):
    """sgd_step on a dict of logit rows keyed by context tuple, row by row: each
    row moves by lr over the n positions drawn times its summed direction."""
    scale = lr / n
    for ctx, direction in acc.directions.items():
        row = rows.get(ctx, np.zeros(direction.size)) + scale * direction
        if not np.all(np.isfinite(row)):
            raise NumericOverflowError(f"non-finite logits at context {ctx}")
        rows[ctx] = row
    acc.directions = {}


def model_from_rows(order, v, rows):
    m = TabularLM(order=order, vocab=Vocab.default(v))
    for ctx, row in rows.items():
        m.set_row(ctx, row)
    return m


class TestDenseStepMatchesDictReference:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_checkpoint_bytes(self, tmp_path, order):
        # contexts of a variable-length corpus, repeated and out of id order; -0.0,
        # zero and mixed-sign directions
        v = 4
        rng = np.random.default_rng(order)
        seqs = [rng.integers(v, size=int(rng.integers(1, 12))).tolist() for _ in range(10)]
        ctxs = [pad_context(s[:t], order, 0) for s in seqs for t in range(len(s))]
        # rows holding -0.0 keep it only if an all -0.0 direction adds to a -0.0 start
        ref_rows = {ctx: np.where(rng.random(v) < 0.5, -0.0, rng.normal(size=v))
                    for ctx in ctxs[::4]}
        model = model_from_rows(order, v, ref_rows)
        acc, ref_acc = GradAccumulator(order, v), DictAccumulator()
        for step in range(15):
            pick = [ctxs[i] for i in rng.integers(len(ctxs), size=9)]
            d = rng.normal(size=(9, v)) * (rng.random((9, v)) < 0.8)
            d[0] = -0.0
            acc.add_rows([prefix_id(c, order, model.vocab) for c in pick], d)
            ref_acc.add_rows(pick, d)
            if step % 3 == 2:  # three batches of 9 positions each
                lr = float(rng.uniform(0.1, 5.0))
                sgd_step(model, acc, lr, 27)
                reference_sgd_step(ref_rows, ref_acc, lr, 27)
        checkpoint_save(model, tmp_path / "dense.json")
        checkpoint_save(model_from_rows(order, v, ref_rows), tmp_path / "dict.json")
        assert (tmp_path / "dense.json").read_bytes() == (tmp_path / "dict.json").read_bytes()

    def test_negative_zero_rows_survive_two_steps(self):
        # a row of -0.0 keeps its sign only if each step's -0.0 direction adds to a
        # -0.0 start: the first step tests the start, the second the clear
        model = TabularLM(order=1, vocab=Vocab.default(2))
        model.set_row((1,), [-0.0, -0.0])
        ref_rows = {(1,): np.array([-0.0, -0.0])}
        acc, ref_acc = GradAccumulator(1, 2), DictAccumulator()
        for _ in range(2):
            acc.add_rows([1], [[-0.0, -0.0]])
            ref_acc.add_rows([(1,)], np.array([[-0.0, -0.0]]))
            sgd_step(model, acc, 0.5, 1)
            reference_sgd_step(ref_rows, ref_acc, 0.5, 1)
        # a checkpoint lists no row of zeros, so the tables themselves are compared
        assert model.table.tobytes() == model_from_rows(1, 2, ref_rows).table.tobytes()
        assert np.signbit(model.logits((1,))).all()

    def test_overflow_names_first_context_in_id_order(self):
        m = TabularLM(order=1, vocab=Vocab.default(3))
        acc = GradAccumulator(1, 3)
        acc.add_rows([2], [[1e308, 0.0, 0.0]])
        acc.add_rows([1], [[1e308, 0.0, 0.0]])
        before = m.table.copy()
        with pytest.raises(NumericOverflowError, match=r"context \(1,\)"), \
                np.errstate(over="ignore"):
            sgd_step(m, acc, 1e10, 2)
        assert np.array_equal(m.table, before) and not m.touched.any()

    def test_mismatched_accumulator_rejected(self):
        with pytest.raises(InvalidInputError):
            sgd_step(uniform_model(v=2), GradAccumulator(2, 2), 0.5, 1)


def _every_row_touched(order, v, seed):
    """A model with random rows at some contexts, and an accumulator with a direction
    (the first one all -0.0) added to every row, some rows twice."""
    rng = np.random.default_rng(seed)
    m = TabularLM(order=order, vocab=Vocab.default(v))
    n = len(m.table)
    for cid in rng.permutation(n)[: n // 2]:
        m.set_row(context_key(cid, order, v), rng.normal(size=v))
    ids = np.concatenate([rng.permutation(n), rng.integers(n, size=n)])
    d = rng.normal(size=(ids.size, v)) * (rng.random((ids.size, v)) < 0.8)
    d[0] = -0.0
    acc = GradAccumulator(order, v)
    acc.add_rows(ids, d)
    return m, acc, ids, d


class TestWholeTableStep:
    # a step whose accumulator touched every row indexes the tables by slice
    # (rows_at); the row-gather path is the reference for what it leaves

    @pytest.mark.parametrize("order, v", [(1, 4), (2, 3)])
    def test_matches_reference_and_gather_path(self, monkeypatch, order, v):
        m, acc, ids, d = _every_row_touched(order, v, seed=order)
        ref_rows = {context_key(cid, order, v): m.table[cid].copy()
                    for cid in np.flatnonzero(m.touched)}
        ref_acc = DictAccumulator()
        ref_acc.add_rows([context_key(cid, order, v) for cid in ids], d)
        m2, acc2 = m.copy(), GradAccumulator(order, v)
        acc2.add_rows(ids, d)
        moved = sgd_step(m, acc, 1.7, 9)
        reference_sgd_step(ref_rows, ref_acc, 1.7, 9)
        monkeypatch.setattr(model, "rows_at", lambda ids, n: ids)  # the row-gather path
        assert sgd_step(m2, acc2, 1.7, 9).tolist() == moved.tolist()
        assert moved.dtype == np.intp and moved.tolist() == list(range(len(m.table)))
        assert m.table.tobytes() == model_from_rows(order, v, ref_rows).table.tobytes()
        assert m.table.tobytes() == m2.table.tobytes()
        for got, want in ((m.touched, m2.touched), (acc.touched, acc2.touched),
                          (acc.directions, acc2.directions)):
            assert got.tobytes() == want.tobytes()
        assert m.touched.all() and not acc.touched.any()

    def test_overflow_leaves_model_and_accumulator_as_they_were(self):
        m, acc, _, _ = _every_row_touched(1, 3, seed=5)
        acc.add_rows([2], [[1e308, 0.0, 0.0]])
        acc.add_rows([1], [[-1e308, 0.0, 0.0]])
        before = [a.copy() for a in (m.table, m.touched, acc.directions, acc.touched)]
        assert acc.touched.all()
        with pytest.raises(NumericOverflowError, match=r"context \(1,\)"), \
                np.errstate(over="ignore"):
            sgd_step(m, acc, 1e10, 2)
        for got, want in zip((m.table, m.touched, acc.directions, acc.touched), before):
            assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        m = TabularLM(order=2, vocab=Vocab.default(5))
        for _ in range(20):
            ctx = tuple(int(x) for x in rng.integers(5, size=2))
            m.set_row(ctx, rng.normal(size=5))
        path = tmp_path / "m.json"
        checkpoint_save(m, path)
        loaded = checkpoint_load(path)
        assert loaded.order == m.order and loaded.vocab == m.vocab
        assert np.array_equal(loaded.touched, m.touched)
        # 0 ulp: float64 survives the JSON repr round trip exactly
        assert np.array_equal(loaded.table, m.table)
        for _ in range(100):
            ctx = tuple(int(x) for x in rng.integers(5, size=2))
            assert np.array_equal(softmax(loaded.logits(ctx)).probs, softmax(m.logits(ctx)).probs)

    def test_truncated_file_is_parse_error(self, tmp_path):
        m = uniform_model(v=3)
        m.set_row((0,), [1.0, 2.0, 3.0])
        path = tmp_path / "m.json"
        checkpoint_save(m, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            checkpoint_load(path)

    def test_empty_table_round_trips(self, tmp_path):
        m = uniform_model(v=2)
        path = tmp_path / "m.json"
        checkpoint_save(m, path)
        assert not checkpoint_load(path).touched.any()

    def test_a_row_of_zeros_is_not_listed(self, tmp_path):
        # touched is derived from the table, read-only; a row of -0.0 loads back as +0.0
        m = TabularLM(order=1, vocab=Vocab.default(3))
        m.set_row((0,), [0.0, -0.0, -0.0])
        m.set_row((2,), [-0.0, 0.0, 1.5])
        assert m.touched.tolist() == [False, False, True]
        with pytest.raises(ValueError, match="read-only"):
            m.touched[0] = True
        path = tmp_path / "m.json"
        checkpoint_save(m, path)
        assert [r["context"] for r in json.loads(path.read_text())["rows"]] == [[2]]
        loaded = checkpoint_load(path)
        assert np.array_equal(loaded.table, m.table) and not np.signbit(loaded.table[0]).any()

    def test_save_is_byte_identical(self, tmp_path):
        m = TabularLM(order=1, vocab=Vocab.default(3))
        m.set_row((2,), [0.1, -0.2, 0.3])
        m.set_row((0,), [1.5, 0.0, -9.25])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        checkpoint_save(m, a)
        checkpoint_save(m, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("v, order", [(6, 1), (16, 1), (64, 1), (4, 3)])
    @pytest.mark.parametrize("chunk", [1, 7, 1024])
    @pytest.mark.parametrize("extra", [None, {"format_version": 9, "rows": [], "seed": 3},
                                       {"config_hash": "x", "format_version": 2}])
    def test_streamed_file_is_the_one_shot_json(self, tmp_path, monkeypatch, v, order, chunk,
                                                extra):
        # chunks of at most `chunk` floats, or one row; header_extra updates the document
        monkeypatch.setattr(model, "JSON_CHUNK_FLOATS", chunk)
        rng = np.random.default_rng(v)
        m = TabularLM(order=order, vocab=Vocab.default(v))
        m.table[:] = rng.normal(size=m.table.shape)
        m.table[rng.random(len(m.table)) >= 0.6] = 0.0  # the file lists the other rows
        doc = {"format_version": 1, "order": order,
               "vocab": {"names": list(m.vocab.names), "bos_id": 0},
               "rows": [{"context": list(model.context_key(cid, order, v)),
                         "logits": [float(x) for x in m.table[cid]]}
                        for cid in np.flatnonzero(m.touched).tolist()]}
        doc.update(extra or {})
        checkpoint_save(m, tmp_path / "m.json", header_extra=extra)
        assert (tmp_path / "m.json").read_text() == json.dumps(doc) + "\n"

    def test_out_of_vocabulary_context_is_parse_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "format_version": 1, "order": 1, "vocab": {"names": ["a", "b", "c"], "bos_id": 0},
            "rows": [{"context": [7], "logits": [0.0, 1.0, 2.0]}]}))
        with pytest.raises(ParseError, match=r"context \(7,\) has out-of-range"):
            checkpoint_load(path)

    def _write(self, path, rows):
        path.write_text(json.dumps({
            "format_version": 1, "order": 2, "vocab": {"names": ["a", "b", "c"], "bos_id": 0},
            "rows": rows}))

    @pytest.mark.parametrize("bad, needle", [
        # row 1's token id is out of range, and a later row is malformed too
        ({1: {"context": [0, 5], "logits": [0.0, 1.0, 2.0]},
          3: {"context": [0, 1], "logits": [0.0, 1.0]}},
         r"malformed checkpoint: context \(0, 5\) has out-of-range"),
        ({1: {"context": [0, 1], "logits": [0.0, np.inf, 2.0]},
          3: {"context": [3, 1], "logits": [0.0, 1.0, 2.0]}},
         r"rows\[1\]: logits must list 3 numbers, each finite"),
        ({2: {"context": [1], "logits": [0.0, 1.0, 2.0]},
          3: {"context": [-1, 1], "logits": [0.0, 1.0, 2.0]}},
         r"rows\[2\]: context length != order"),
        ({2: {"context": [2, 1], "logit": [0.0, 1.0, 2.0]},
          0: {"context": [1, 9], "logits": [0.0, 1.0, 2.0]}},
         r"context \(1, 9\) has out-of-range"),
        ({2: {"context": ["x", 1], "logits": [0.0, 1.0, 2.0]}},
         r"malformed checkpoint: invalid literal"),
    ])
    def test_first_bad_row_is_named(self, tmp_path, bad, needle):
        rows = [{"context": [i % 3, 2], "logits": [float(i), 0.0, 1.0]} for i in range(5)]
        for i, row in bad.items():
            rows[i] = row
        path = tmp_path / "m.json"
        self._write(path, rows)
        with pytest.raises(ParseError, match=needle):
            checkpoint_load(path)

    def test_a_context_listed_twice_keeps_its_last_row(self, tmp_path):
        rows = [{"context": [1, 2], "logits": [1.0, 0.0, 0.0]},
                {"context": [0, 0], "logits": [2.0, 0.0, 0.0]},
                {"context": [1, 2], "logits": [3.0, 0.0, 0.0]},
                {"context": [1, 2], "logits": [4.0, 0.0, 0.0]},
                {"context": [0, 0], "logits": [5.0, 0.0, 0.0]}]
        path = tmp_path / "m.json"
        self._write(path, rows)
        m = checkpoint_load(path)
        assert m.logits((1, 2))[0] == 4.0 and m.logits((0, 0))[0] == 5.0
        assert np.flatnonzero(m.touched).tolist() == [0, 5]

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format_version": 99, "order": 1, '
                        '"vocab": {"names": ["a","b"], "bos_id": 0}, "rows": []}\n')
        with pytest.raises(ParseError):
            checkpoint_load(path)


@settings(max_examples=30)
@given(st.integers(2, 8), st.integers(0, 1000))
def test_property_grad_rows_sum_to_zero(v, seed):
    # softmax gradients live on the simplex tangent: coordinates sum to 0
    rng = np.random.default_rng(seed)
    m = TabularLM(order=1, vocab=Vocab.default(v))
    m.set_row((0,), rng.normal(size=v))
    acc = GradAccumulator(1, v)
    add_token_grad(acc, 0, int(rng.integers(v)), float(rng.normal()) or 1.0,
                   softmax(m.logits((0,))))
    assert abs(acc.directions[0].sum()) < 1e-12
