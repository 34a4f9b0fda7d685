"""Oracle and property tests for the unified per-token weight estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab.data import Corpus
from distill_lab.errors import ConfigError, InvalidParameterError, LogOfZeroError
from distill_lab.model import GradAccumulator, TabularLM, Vocab, sgd_step
from distill_lab.numerics import CategoricalDist, kl_exact, softmax
from distill_lab.objectives import (
    ALL_TAGS,
    HPD_VARIANTS,
    ObjectiveKind,
    hpd_weights,
    token_weights,
    weight_fkld_token,
    weight_jsd_off,
    weight_rkld_off,
)
from distill_lab.training import ModelTeacher, TrainConfig, distill_offpolicy
from oracles import hpd_token


def dist(*probs):
    return CategoricalDist.from_probs(np.array(probs))


@st.composite
def pq_pairs(draw, size=4):
    seed = draw(st.integers(0, 100_000))
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(size)) * 0.9 + 0.1 / size
    q = rng.dirichlet(np.ones(size)) * 0.9 + 0.1 / size
    return dist(*p), dist(*q)


class TestObjectiveKind:
    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            ObjectiveKind("nope")

    def test_bad_beta(self):
        with pytest.raises(InvalidParameterError):
            ObjectiveKind("jsd_off", beta=1.0)

    def test_on_policy_flag(self):
        assert ObjectiveKind("opd_k1").on_policy
        assert ObjectiveKind("rkld_on").on_policy
        assert not ObjectiveKind("hpd").on_policy


def read_off_weights(tag, p, q, expert):
    """The per-token weights w of one off-policy step, read off its logit change.

    The corpus is the single token `expert` after BOS, so one step at lr 1 moves
    the row by w - sum(w) * q; sft's and fkld_dense's weights sum to 1.
    """
    teacher, student = (TabularLM(order=1, vocab=Vocab.default(p.size)) for _ in range(2))
    teacher.set_row((0,), p.logprobs)
    student.set_row((0,), q.logprobs)
    corpus = Corpus(sequences=[[expert]], provenance="ground_truth", seed=0, vocab_size=p.size)
    cfg = TrainConfig(objective=ObjectiveKind(tag), steps=1, seed=0, lr=1.0, batch_size=1,
                      eval_len=1)
    out, _ = distill_offpolicy(cfg, ModelTeacher(teacher), corpus, student)
    return out.logits((0,)) - student.logits((0,)) + softmax(student.logits((0,))).probs


class TestSFTWeight:
    def test_expert_token(self):
        w = read_off_weights("sft", dist(0.1, 0.2, 0.3, 0.4), dist(0.4, 0.3, 0.2, 0.1), 3)
        assert w[3] == pytest.approx(1.0, abs=1e-12)

    def test_other_token(self):
        w = read_off_weights("sft", dist(0.1, 0.2, 0.3, 0.4), dist(0.4, 0.3, 0.2, 0.1), 2)
        assert np.allclose(np.delete(w, 2), 0.0, atol=1e-12)

    def test_sums_to_one(self):
        for expert in range(4):
            w = read_off_weights("sft", dist(*[0.25] * 4), dist(0.4, 0.3, 0.2, 0.1), expert)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestFKLDTokenWeight:
    def test_worked_value(self):
        assert weight_fkld_token(dist(0.8, 0.2), 0) == pytest.approx(0.8)

    def test_uniform(self):
        u = dist(*[0.25] * 4)
        assert all(weight_fkld_token(u, e) == 0.25 for e in range(4))

    def test_one_hot(self):
        assert weight_fkld_token(dist(1.0, 0.0), 0) == 1.0


class TestFKLDDenseWeights:
    def test_identity_read_off(self):
        # whichever token the corpus holds, the weights are the teacher's row
        for expert in (0, 1):
            w = read_off_weights("fkld_dense", dist(0.8, 0.2), dist(0.3, 0.7), expert)
            assert np.allclose(w, [0.8, 0.2], atol=1e-12)

    def test_uniform(self):
        w = read_off_weights("fkld_dense", dist(*[0.25] * 4), dist(0.4, 0.3, 0.2, 0.1), 1)
        assert np.allclose(w, [0.25] * 4, atol=1e-12)

    def test_minimizing_reaches_fixed_point(self):
        # 500 SGD steps with lr 0.5 drive q -> p within 1e-3 per token
        p = dist(0.8, 0.2)
        m = TabularLM(order=1, vocab=Vocab.default(2))
        for _ in range(500):
            q = softmax(m.logits((0,)))
            acc = GradAccumulator(1, 2)
            acc.add_rows([0], (p.probs - q.probs)[None], count=1)
            sgd_step(m, acc, 0.5)
        q = softmax(m.logits((0,)))
        assert np.allclose(q.probs, p.probs, atol=1e-3)
        assert kl_exact(p, q) < 1e-6


class TestRKLDOffWeight:
    def test_underestimation_positive(self):
        w = weight_rkld_off(dist(0.8, 0.2), dist(0.5, 0.5), 0)
        assert w == pytest.approx(0.235002, abs=1e-6)

    def test_overestimation_negative(self):
        w = weight_rkld_off(dist(0.8, 0.2), dist(0.9, 0.1), 0)
        assert w == pytest.approx(-0.106005, abs=1e-6)

    def test_identity_zero(self):
        d = dist(0.6, 0.4)
        assert weight_rkld_off(d, d, 1) == 0.0

    def test_sign_fidelity_flips(self):
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        assert weight_rkld_off(p, q, 0, sign_fidelity=True) == pytest.approx(
            -weight_rkld_off(p, q, 0)
        )

    def test_zero_prob_raises(self):
        with pytest.raises(LogOfZeroError):
            weight_rkld_off(dist(1.0, 0.0), dist(0.5, 0.5), 1)


class TestJSDOffWeight:
    def test_worked_value(self):
        w = weight_jsd_off(dist(0.8, 0.2), dist(0.5, 0.5), 0, beta=0.5)
        assert w == pytest.approx(0.065591, abs=1e-6)

    def test_identity_zero(self):
        d = dist(0.7, 0.3)
        assert weight_jsd_off(d, d, 0) == pytest.approx(0.0, abs=1e-12)

    def test_sign_tracks_q_vs_midpoint(self):
        p = dist(0.8, 0.2)
        assert weight_jsd_off(p, dist(0.5, 0.5), 0) > 0.0  # q below M
        assert weight_jsd_off(p, dist(0.95, 0.05), 0) < 0.0  # q above M

    def test_bad_beta(self):
        with pytest.raises(InvalidParameterError):
            weight_jsd_off(dist(0.5, 0.5), dist(0.5, 0.5), 0, beta=0.0)


class TestHPDK1:
    def test_worked_values(self):
        # HPD's k1 and k1' are rkld_off's weights at the expert and the sampled token
        p = dist(0.8, 0.2)
        for q, k1 in ((dist(0.5, 0.5), 0.235002), (dist(0.9, 0.1), -0.106005)):
            hw = hpd_weights(p, q, expert=0, sampled=1)
            assert hw.k1 == weight_rkld_off(p, q, 0) == pytest.approx(k1, abs=1e-6)
            assert hw.k1_prime == weight_rkld_off(p, q, 1)


class TestHPDWeights:
    def test_reinforce_case(self):
        hw = hpd_weights(dist(0.8, 0.2), dist(0.5, 0.5), expert=0, sampled=1)
        assert hw.k1 == pytest.approx(0.235002, abs=1e-6)
        assert hw.k1_prime == pytest.approx(-0.458146, abs=1e-6)
        assert hw.w_star == pytest.approx(1.835002, abs=1e-6)
        assert hw.w_sampled == pytest.approx(-0.458146, abs=1e-6)
        assert hw.sampled_token == 1

    def test_masked_case(self):
        hw = hpd_weights(dist(0.8, 0.2), dist(0.9, 0.1), expert=0, sampled=1)
        assert hw.k1 == pytest.approx(-0.106005, abs=1e-6)
        assert hw.k1_prime == pytest.approx(0.069315, abs=1e-6)
        assert hw.w_star == pytest.approx(-0.106005, abs=1e-6)
        assert hw.w_sampled == 0.0

    def test_identity_case(self):
        d = dist(0.6, 0.4)
        hw = hpd_weights(d, d, expert=0, sampled=1)
        assert hw.k1 == 0.0 and hw.k1_prime == 0.0
        assert hw.w_star == pytest.approx(0.6)
        assert hw.w_sampled == 0.0

    def test_no_reinforce_drops_doubling(self):
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        hw = hpd_weights(p, q, 0, 1, variant="hpd_no_reinforce")
        assert hw.w_star == pytest.approx(0.8 + 0.235002, abs=1e-6)
        assert hw.w_sampled == pytest.approx(-0.458146, abs=1e-6)

    def test_no_sample_ignores_sampled_token(self):
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        hw = hpd_weights(p, q, 0, 1, variant="hpd_no_sample")
        assert hw.w_sampled == 0.0
        assert hw.w_star == pytest.approx(0.8 + 0.235002, abs=1e-6)
        hw2 = hpd_weights(dist(0.8, 0.2), dist(0.9, 0.1), 0, 1, variant="hpd_no_sample")
        assert hw2.w_star == pytest.approx(-0.106005, abs=1e-6)

    def test_sampled_equals_expert_never_suppressed(self):
        hw = hpd_weights(dist(0.8, 0.2), dist(0.9, 0.1), expert=0, sampled=0)
        assert hw.w_sampled == 0.0

    def test_unknown_variant(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ConfigError):
            hpd_weights(d, d, 0, 1, variant="bogus")

    @settings(max_examples=100)
    @given(pq_pairs(), st.integers(0, 3), st.integers(0, 3))
    def test_invariants(self, pq, expert, sampled):
        p, q = pq
        for variant in ("hpd", "hpd_no_sample", "hpd_no_reinforce"):
            hw = hpd_weights(p, q, expert, sampled, variant=variant)
            assert hw.k1 == weight_rkld_off(p, q, expert)
            assert hw.w_sampled <= 0.0
            if hw.k1 < 0.0:
                assert hw.w_star == hw.k1
            else:
                assert hw.w_star >= hw.k1  # forward-KL term only adds mass
            if variant == "hpd_no_sample" or sampled == expert or hw.k1_prime >= 0.0:
                assert hw.w_sampled == 0.0
            else:
                assert hw.w_sampled == hw.k1_prime


class TestHpdDraws:
    """The off-policy loop applies the HPD rule to k draws per position at once."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 5), k=st.integers(1, 4),
           v=st.integers(2, 5))
    def test_several_draws_per_position_equal_per_draw_calls(self, seed, n, k, v):
        rng = np.random.default_rng(seed)
        p = softmax(rng.normal(scale=2.0, size=(n, v)))
        q = softmax(rng.normal(scale=2.0, size=(n, v)))
        expert, sampled = rng.integers(v, size=n), rng.integers(v, size=n * k)
        draw = np.repeat(np.arange(n), k)
        # the loop's layout: one (expert, sampled) pair per draw, gathered from the tables
        pair, rows = np.stack([expert[draw], sampled], axis=1), draw[:, None]
        for variant in HPD_VARIANTS:
            hw = hpd_weights(p.rows(draw), q.rows(draw), expert[draw], sampled, variant)
            batch = np.array([hw.k1, hw.k1_prime, hw.w_star, hw.w_sampled])
            values = (p.probs[rows, pair], p.logprobs[rows, pair], q.probs[rows, pair],
                      q.logprobs[rows, pair])
            point = np.concatenate([token_weights(ObjectiveKind("rkld_off"), *values, pair),
                                    token_weights(ObjectiveKind(variant), *values, pair)],
                                   axis=1).T
            one = [hpd_weights(p.rows(b), q.rows(b), int(expert[b]), int(sampled[j]), variant)
                   for j, b in enumerate(draw)]
            alone = np.array([[w.k1, w.k1_prime, w.w_star, w.w_sampled] for w in one]).T
            assert batch.tobytes() == alone.tobytes() and point.tobytes() == alone.tobytes()
            assert hw.sampled_token.tolist() == [w.sampled_token for w in one]


class TestHpdOracle:
    """token_weights' HPD rule equals the per-token plain-Python oracle byte for byte."""

    @staticmethod
    def _compare(variant, p, q, rows, tokens):
        values = [a[np.asarray(rows)[:, None], tokens]
                  for a in (p.probs, p.logprobs, q.probs, q.logprobs)]
        w = token_weights(ObjectiveKind(variant), *values, tokens)
        want = [hpd_token(variant, p.probs[r], p.logprobs[r], q.probs[r], q.logprobs[r], e, s)
                for r, (e, s) in zip(rows, tokens.tolist())]
        assert w.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("variant", HPD_VARIANTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables(self, variant, seed):
        p, q = _tables(seed, contexts=30, v=5)
        rng = np.random.default_rng(seed)
        rows = rng.integers(30, size=300)
        self._compare(variant, p, q, rows, rng.integers(5, size=(300, 2)))

    # p = (0.5, 0.3, 0.2) and q equal at token 0 (k1 exactly 0), below p at token 2
    # (k1 > 0) and above it at token 1 (k1 < 0); the second q is above p at 1 and 2
    P = CategoricalDist.from_rows([[0.5, 0.3, 0.2]] * 2)
    Q = CategoricalDist.from_rows([[0.5, 0.4, 0.1], [0.1, 0.45, 0.45]])

    @pytest.mark.parametrize("variant", HPD_VARIANTS)
    @pytest.mark.parametrize("row, expert, sampled, branch", [
        (0, 2, 1, "reinforced: k1 > 0 and the sampled token suppressed"),
        (0, 2, 0, "plain: k1 > 0, the sampled token's k1' exactly 0"),
        (0, 2, 2, "plain: expert == sampled"),
        (0, 0, 1, "k1 exactly 0: plain, masked without sampling; sampled suppressed"),
        (0, 0, 0, "k1 exactly 0, expert == sampled"),
        (0, 1, 2, "masked: k1 < 0, the sampled token not suppressed"),
        (1, 1, 2, "masked: k1 < 0, the sampled token suppressed"),
        (1, 1, 1, "masked: expert == sampled, both k1 < 0"),
        (1, 0, 2, "reinforced, the expert's q below p"),
    ])
    def test_edge_rows(self, variant, row, expert, sampled, branch):
        self._compare(variant, self.P, self.Q, [row], np.array([[expert, sampled]]))

    def test_edge_rows_take_every_branch(self):
        # the hand-built rows reach each weight the rule can give
        p, lp, q, lq = (a[0] for a in (self.P.probs, self.P.logprobs, self.Q.probs,
                                       self.Q.logprobs))
        k1 = [q[t] * (lp[t] - lq[t]) for t in range(3)]
        assert k1[0] == 0.0 and k1[1] < 0.0 < k1[2]
        assert hpd_token("hpd", p, lp, q, lq, 2, 1) == (2.0 * p[2] + k1[2], k1[1])
        assert hpd_token("hpd_no_reinforce", p, lp, q, lq, 2, 1) == (p[2] + k1[2], k1[1])
        assert hpd_token("hpd", p, lp, q, lq, 0, 1) == (p[0], k1[1])
        assert hpd_token("hpd_no_sample", p, lp, q, lq, 0, 1) == (0.0, 0.0)
        assert hpd_token("hpd", p, lp, q, lq, 1, 1) == (k1[1], 0.0)


class TestOPDRewards:
    def test_expected_reward_is_minus_reverse_kl(self):
        # mean reward under a ~ q estimates -KL(q||p)
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        rng = np.random.default_rng(13)
        draws = rng.choice(2, size=100_000, p=q.probs)
        vals = np.asarray(p.logprobs)[draws] - np.asarray(q.logprobs)[draws]
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - (-0.223144)) <= 3.0 * stderr


class TestBatchedSupportChecks:
    # row 0 fails a later check than row 1 does; the batch must raise row 0's
    # error, as applying the rule one row at a time does
    P = CategoricalDist.from_rows([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    Q = CategoricalDist.from_rows([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])

    @pytest.mark.parametrize("rule, tokens, message", [
        (weight_rkld_off, ([0, 0],), "q[0] = 0"),
        (weight_jsd_off, ([0, 0],), "q[0] = 0"),
        (hpd_weights, ([1, 0], [2, 1]), "p[2] = 0"),  # row 0's sampled, row 1's expert
    ])
    def test_first_row_in_order_is_named(self, rule, tokens, message):
        tokens = [np.array(t) for t in tokens]
        for rows in ([0, 1], [0]):
            with pytest.raises(LogOfZeroError) as info:
                rule(self.P.rows(rows), self.Q.rows(rows), *(t[rows] for t in tokens))
            assert str(info.value) == message

    def test_jsd_midpoint_checked_before_q(self):
        p = CategoricalDist.from_rows([[0.0, 1.0], [1.0, 0.0]])
        q = CategoricalDist.from_rows([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(LogOfZeroError, match="midpoint mixture is 0 at token 0"):
            weight_jsd_off(p, q, np.array([0, 0]))

    # P's row 1 is 0 at token 0: one scalar token serves every row of the batch
    @pytest.mark.parametrize("rule, tokens, message", [
        (weight_rkld_off, (0,), "p[0] = 0"),
        (hpd_weights, (0, 1), "p[0] = 0"),
        (weight_jsd_off, (0,), "midpoint mixture is 0 at token 0"),
    ])
    def test_scalar_token_broadcasts_to_every_row(self, rule, tokens, message):
        p = CategoricalDist.from_rows([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(LogOfZeroError) as info:
            rule(p, p, *tokens)
        assert str(info.value) == message


def _tables(seed, contexts=9, v=4, zeros=0):
    """Teacher and student tables of full support, or with `zeros` zero entries each."""
    rng = np.random.default_rng(seed)
    p, q = (rng.normal(scale=2.0, size=(contexts, v)) for _ in range(2))
    for z in (p, q):
        z.flat[rng.choice(z.size, size=zeros, replace=False)] = -2000.0
    return softmax(p), softmax(q)


KINDS = [ObjectiveKind(tag, beta=beta, sign_fidelity=sf)
         for tag in ALL_TAGS for beta in (0.5, 0.3) for sf in (False, True)]


def _table_weights(kind, p, q):
    """token_weights over whole tables: every (context, token) pair, and for HPD
    every (context, expert, sampled) triple as an (n, V, V, 2) array."""
    n, v = p.probs.shape
    grid = np.arange(v)
    if kind.tag in HPD_VARIANTS:
        tokens = np.stack(np.broadcast_arrays(grid[:, None], grid), axis=-1)[None]
        index = (np.arange(n)[:, None, None, None], tokens)
    else:
        tokens, index = np.broadcast_to(grid, (n, v)), (np.arange(n)[:, None], grid)
    return token_weights(kind, p.probs[index], p.logprobs[index], q.probs[index],
                         q.logprobs[index], np.broadcast_to(tokens, p.probs[index].shape))


def _row_weights(kind, p, q):
    """The distribution-level rule of kind on one row pair, one token (or one
    HPD pair) per call, at every token of the row."""
    v = p.size
    if kind.tag in HPD_VARIANTS:
        hws = [hpd_weights(p, q, e, s, variant=kind.tag) for e in range(v) for s in range(v)]
        return np.array([[hw.w_star, hw.w_sampled] for hw in hws]).reshape(v, v, 2)
    if kind.tag == "rkld_off":
        return np.array([weight_rkld_off(p, q, t, sign_fidelity=kind.sign_fidelity)
                         for t in range(v)])
    if kind.tag == "jsd_off":
        return np.array([weight_jsd_off(p, q, t, beta=kind.beta,
                                        sign_fidelity=kind.sign_fidelity) for t in range(v)])
    if kind.tag in ("fkld_token", "fkld_dense"):
        return np.array([weight_fkld_token(p, t) for t in range(v)])
    if kind.on_policy:
        return p.logprobs - q.logprobs  # the OPD reward at each sampled token
    return np.ones(v)  # sft, seqkd


class TestTokenWeightsOverTables:
    """token_weights is one rule for any leading shape: over whole (contexts, V)
    tables it equals the distribution-level rules row by row, byte for byte."""

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.tag}-{k.beta}-{k.sign_fidelity}")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tables_equal_the_rules_row_by_row(self, kind, seed):
        p, q = _tables(seed)
        w = _table_weights(kind, p, q)
        assert w.shape == ((9, 4, 4, 2) if kind.tag in HPD_VARIANTS else (9, 4))
        for c in range(9):
            assert w[c].tobytes() == _row_weights(kind, p.rows(c), q.rows(c)).tobytes()

    def test_fkld_dense_weights_sum_to_its_direction(self):
        p, q = _tables(2)
        w = _table_weights(ObjectiveKind("fkld_dense"), p, q)
        direction = w @ np.eye(4) - w.sum(axis=1, keepdims=True) * q.probs
        assert np.allclose(direction, p.probs - q.probs, atol=1e-15, rtol=0.0)

    @pytest.mark.parametrize("tag", ["rkld_off", "jsd_off", *HPD_VARIANTS])
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_support_names_the_first_failing_row(self, tag, seed):
        # the table raises the error of the first context, in id order, whose row raises
        p, q = _tables(seed, zeros=3)
        kind = ObjectiveKind(tag)
        with pytest.raises(LogOfZeroError) as info:
            _table_weights(kind, p, q)
        for c in range(9):
            try:
                _row_weights(kind, p.rows(c), q.rows(c))
            except LogOfZeroError as e:
                assert str(info.value) == str(e)
                break
        else:
            pytest.fail("no row raised")
