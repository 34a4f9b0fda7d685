"""Oracle and property tests for the unified per-token weight estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab.data import Corpus, build_source
from distill_lab.errors import ConfigError, InvalidParameterError, LogOfZeroError
from distill_lab.model import GradAccumulator, TabularLM, Vocab, sgd_step
from distill_lab.numerics import CategoricalDist, softmax
from distill_lab.objectives import (
    ALL_TAGS,
    HPD_VARIANTS,
    OFF_POLICY_TAGS,
    ObjectiveKind,
    _hpd,
    token_weights,
)
from distill_lab.training import TrainConfig, distill_offpolicy
from oracles import hpd_token, kl_exact, model_source, offpolicy_token, row_values, weights_at


def dist(*probs):
    return CategoricalDist.from_probs(np.array(probs))


RKLD = ObjectiveKind("rkld_off")


def weight(tag, p, q, token, **kind):
    """ObjectiveKind(tag, **kind)'s weight at one token of one distribution pair."""
    return weights_at(ObjectiveKind(tag, **kind), p, q, [token])[0]


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
    corpus = Corpus.from_sequences([[expert]], provenance="ground_truth", seed=0, vocab_size=p.size)
    cfg = TrainConfig(objective=ObjectiveKind(tag), steps=1, seed=0, lr=1.0, batch_size=1,
                      eval_len=1)
    out, _ = distill_offpolicy(cfg, model_source(teacher), corpus, student)
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
    # the rule reads p alone
    def test_worked_value(self):
        p = dist(0.8, 0.2)
        assert weight("fkld_token", p, p, 0) == pytest.approx(0.8)

    def test_uniform(self):
        u = dist(*[0.25] * 4)
        assert all(weight("fkld_token", u, u, e) == 0.25 for e in range(4))

    def test_one_hot(self):
        p = dist(1.0, 0.0)
        assert weight("fkld_token", p, p, 0) == 1.0

    def test_expected_update_settles_at_p_squared(self):
        # the corpus draws the expert x from p and the rule weighs it p(x), so the
        # expected update of a context's logits is sum_x p(x)^2 (e_x - q): zero at
        # q = p^2 / sum p^2, not at q = p
        p = build_source({"name": "bimodal_gap"}).table.rows(0)
        kind, tokens, z = ObjectiveKind("fkld_token"), np.arange(p.size), np.zeros(p.size)
        for _ in range(20_000):
            q = softmax(z)
            w = token_weights(kind, p.probs, p.logprobs, q.probs, q.logprobs, tokens)
            z = z + 0.5 * (p.probs * w - np.dot(p.probs, w) * q.probs)
        q = softmax(z)
        assert kl_exact(dist(*p.probs**2 / np.sum(p.probs**2)), q) < 1e-8
        assert kl_exact(p, q) > 0.1


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
            acc.add_rows([0], (p.probs - q.probs)[None])
            sgd_step(m, acc, 0.5, 1)
        q = softmax(m.logits((0,)))
        assert np.allclose(q.probs, p.probs, atol=1e-3)
        assert kl_exact(p, q) < 1e-6


class TestRKLDOffWeight:
    def test_underestimation_positive(self):
        w = weight("rkld_off", dist(0.8, 0.2), dist(0.5, 0.5), 0)
        assert w == pytest.approx(0.235002, abs=1e-6)

    def test_overestimation_negative(self):
        w = weight("rkld_off", dist(0.8, 0.2), dist(0.9, 0.1), 0)
        assert w == pytest.approx(-0.106005, abs=1e-6)

    def test_identity_zero(self):
        d = dist(0.6, 0.4)
        assert weight("rkld_off", d, d, 1) == 0.0

    def test_sign_fidelity_flips(self):
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        assert weight("rkld_off", p, q, 0, sign_fidelity=True) == pytest.approx(
            -weight("rkld_off", p, q, 0)
        )

    def test_zero_prob_raises(self):
        with pytest.raises(LogOfZeroError):
            weight("rkld_off", dist(1.0, 0.0), dist(0.5, 0.5), 1)


class TestJSDOffWeight:
    def test_worked_value(self):
        w = weight("jsd_off", dist(0.8, 0.2), dist(0.5, 0.5), 0, beta=0.5)
        assert w == pytest.approx(0.065591, abs=1e-6)

    def test_identity_zero(self):
        d = dist(0.7, 0.3)
        assert weight("jsd_off", d, d, 0) == pytest.approx(0.0, abs=1e-12)

    def test_sign_tracks_q_vs_midpoint(self):
        p = dist(0.8, 0.2)
        assert weight("jsd_off", p, dist(0.5, 0.5), 0) > 0.0  # q below M
        assert weight("jsd_off", p, dist(0.95, 0.05), 0) < 0.0  # q above M

    def test_bad_beta(self):
        with pytest.raises(InvalidParameterError):
            weight("jsd_off", dist(0.5, 0.5), dist(0.5, 0.5), 0, beta=0.0)


def hpd(p, q, expert, sampled, variant="hpd"):
    """(k1, k1', w_star, w_sampled): rkld_off's weights and variant's at (expert, sampled)."""
    k1 = weights_at(RKLD, p, q, [expert, sampled])
    return (*k1, *weights_at(ObjectiveKind(variant), p, q, [expert, sampled]))


class TestHPDK1:
    def test_worked_values(self):
        # HPD's k1 and k1' are rkld_off's weights at the expert and the sampled token
        p = dist(0.8, 0.2)
        for q, want in ((dist(0.5, 0.5), 0.235002), (dist(0.9, 0.1), -0.106005)):
            k1, k1_prime, _, _ = hpd(p, q, expert=0, sampled=1)
            assert k1 == weight("rkld_off", p, q, 0) == pytest.approx(want, abs=1e-6)
            assert k1_prime == weight("rkld_off", p, q, 1)


class TestHPDWeights:
    def test_reinforce_case(self):
        k1, k1_prime, w_star, w_sampled = hpd(dist(0.8, 0.2), dist(0.5, 0.5), 0, 1)
        assert k1 == pytest.approx(0.235002, abs=1e-6)
        assert k1_prime == pytest.approx(-0.458146, abs=1e-6)
        assert w_star == pytest.approx(1.835002, abs=1e-6)
        assert w_sampled == pytest.approx(-0.458146, abs=1e-6)

    def test_masked_case(self):
        k1, k1_prime, w_star, w_sampled = hpd(dist(0.8, 0.2), dist(0.9, 0.1), 0, 1)
        assert k1 == pytest.approx(-0.106005, abs=1e-6)
        assert k1_prime == pytest.approx(0.069315, abs=1e-6)
        assert w_star == pytest.approx(-0.106005, abs=1e-6)
        assert w_sampled == 0.0

    def test_identity_case(self):
        d = dist(0.6, 0.4)
        k1, k1_prime, w_star, w_sampled = hpd(d, d, 0, 1)
        assert k1 == 0.0 and k1_prime == 0.0
        assert w_star == pytest.approx(0.6)
        assert w_sampled == 0.0

    def test_no_reinforce_drops_doubling(self):
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        _, _, w_star, w_sampled = hpd(p, q, 0, 1, variant="hpd_no_reinforce")
        assert w_star == pytest.approx(0.8 + 0.235002, abs=1e-6)
        assert w_sampled == pytest.approx(-0.458146, abs=1e-6)

    def test_no_sample_ignores_sampled_token(self):
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        _, _, w_star, w_sampled = hpd(p, q, 0, 1, variant="hpd_no_sample")
        assert w_sampled == 0.0
        assert w_star == pytest.approx(0.8 + 0.235002, abs=1e-6)
        _, _, w_star2, _ = hpd(dist(0.8, 0.2), dist(0.9, 0.1), 0, 1, variant="hpd_no_sample")
        assert w_star2 == pytest.approx(-0.106005, abs=1e-6)

    def test_sampled_equals_expert_never_suppressed(self):
        _, _, _, w_sampled = hpd(dist(0.8, 0.2), dist(0.9, 0.1), expert=0, sampled=0)
        assert w_sampled == 0.0

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ObjectiveKind("hpd_bogus")

    @settings(max_examples=100)
    @given(pq_pairs(), st.integers(0, 3), st.integers(0, 3))
    def test_invariants(self, pq, expert, sampled):
        p, q = pq
        for variant in ("hpd", "hpd_no_sample", "hpd_no_reinforce"):
            k1, k1_prime, w_star, w_sampled = hpd(p, q, expert, sampled, variant=variant)
            assert k1 == weight("rkld_off", p, q, expert)
            assert w_sampled <= 0.0
            if k1 < 0.0:
                assert w_star == k1
            else:
                assert w_star >= k1  # forward-KL term only adds mass
            if variant == "hpd_no_sample" or sampled == expert or k1_prime >= 0.0:
                assert w_sampled == 0.0
            else:
                assert w_sampled == k1_prime


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
        pair = np.stack([expert[draw], sampled], axis=1)
        for variant in HPD_VARIANTS:
            batch = np.concatenate([weights_at(RKLD, p, q, pair, draw),
                                    weights_at(ObjectiveKind(variant), p, q, pair, draw)],
                                   axis=1)
            alone = np.array([hpd(p.rows(b), q.rows(b), int(expert[b]), int(sampled[j]),
                                  variant) for j, b in enumerate(draw)])
            assert batch.tobytes() == alone.tobytes()


def hpd_where(variant, p, k1, tokens):
    """HPD's rule as three np.wheres: the masked forward weight, its doubling and the
    suppressed token's weight."""
    k1_star, k1_sampled, p_star = k1[..., 0], k1[..., 1], p[..., 0]
    w = np.empty_like(k1)
    if variant == "hpd_no_sample":
        w[..., 0] = np.where(k1_star <= 0.0, k1_star, p_star + k1_star)
        w[..., 1] = 0.0
        return w
    suppressed = (tokens[..., 1] != tokens[..., 0]) & (k1_sampled < 0.0)
    w0 = np.where(k1_star < 0.0, k1_star, p_star + k1_star)
    if variant == "hpd":
        w0 = np.where(suppressed & (k1_star > 0.0), 2.0 * p_star + k1_star, w0)
    w[..., 0] = w0
    w[..., 1] = np.where(suppressed, k1_sampled, 0.0)
    return w


class TestHpdRule:
    """The weight k1* + r p*, r in {0, 1, 2}, is the np.where rule bit for bit."""

    @pytest.mark.parametrize("variant", HPD_VARIANTS)
    @pytest.mark.parametrize("seed", range(20))
    def test_random_pairs(self, variant, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 40)), 2)
        p = rng.random(shape) + 1e-3
        k1 = rng.normal(size=shape)
        # k1 = 0 and k1 = -0.0 in either column, and tokens that often coincide
        k1[rng.random(shape) < 0.15] = 0.0
        k1[rng.random(shape) < 0.15] = -0.0
        tokens = rng.integers(0, 3, size=shape)
        got = _hpd(variant, p, k1, tokens)
        assert got.tobytes() == hpd_where(variant, p, k1, tokens).tobytes()

    # expert and sampled k1 at each sign and zero, for a sampled token that is or
    # is not the expert: every branch of the rule and its boundaries
    K1 = [-0.3, -0.0, 0.0, 0.2]

    @pytest.mark.parametrize("variant", HPD_VARIANTS)
    def test_boundaries(self, variant):
        pairs = [(a, b, y) for a in self.K1 for b in self.K1 for y in (0, 1)]
        k1 = np.array([[a, b] for a, b, _ in pairs])
        tokens = np.array([[0, y] for _, _, y in pairs])
        p = np.full(k1.shape, 0.25)
        got = _hpd(variant, p, k1, tokens)
        assert got.tobytes() == hpd_where(variant, p, k1, tokens).tobytes()
        # a k1* of -0.0 below the threshold keeps its sign
        below = (k1[:, 0] == 0.0) & np.signbit(k1[:, 0])
        if variant == "hpd_no_sample":
            assert np.signbit(got[below, 0]).all()
        # suppressed tokens, and only those, take k1'
        suppressed = (tokens[:, 1] != 0) & (k1[:, 1] < 0.0)
        assert np.array_equal(got[:, 1] != 0.0, suppressed if variant != "hpd_no_sample"
                              else np.zeros_like(suppressed))


OFF_POLICY_KINDS = [ObjectiveKind(tag) for tag in OFF_POLICY_TAGS] + [
    ObjectiveKind("rkld_off", sign_fidelity=True), ObjectiveKind("jsd_off", sign_fidelity=True),
    ObjectiveKind("jsd_off", beta=0.3)]


def kind_id(kind):
    return f"{kind.tag}-{kind.beta}-{kind.sign_fidelity}"


class TestHpdOracle:
    """token_weights' rule for every off-policy objective equals the per-token
    plain-Python oracle byte for byte."""

    @staticmethod
    def _compare(kind, p, q, rows, tokens):
        # an (expert, sampled) pair per row for HPD, the expert alone otherwise
        hpd_pairs = kind.tag in HPD_VARIANTS
        w = weights_at(kind, p, q, tokens if hpd_pairs else tokens[:, 0], rows)
        want = [offpolicy_token(kind, *row_values(p.rows(r), q.rows(r)), e, s)
                for r, (e, s) in zip(rows, tokens.tolist())]
        assert w.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("kind", OFF_POLICY_KINDS, ids=kind_id)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables(self, kind, seed):
        p, q = _tables(seed, contexts=30, v=5)
        rng = np.random.default_rng(seed)
        rows = rng.integers(30, size=300)
        self._compare(kind, p, q, rows, rng.integers(5, size=(300, 2)))

    # p = (0.5, 0.3, 0.2) and q equal at token 0 (k1 exactly 0), below p at token 2
    # (k1 > 0) and above it at token 1 (k1 < 0); the second q is above p at 1 and 2
    P = CategoricalDist.from_rows([[0.5, 0.3, 0.2]] * 2)
    Q = CategoricalDist.from_rows([[0.5, 0.4, 0.1], [0.1, 0.45, 0.45]])

    @pytest.mark.parametrize("kind", OFF_POLICY_KINDS, ids=kind_id)
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
    def test_edge_rows(self, kind, row, expert, sampled, branch):
        self._compare(kind, self.P, self.Q, [row], np.array([[expert, sampled]]))

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

    @pytest.mark.parametrize("tag, tokens, message", [
        ("rkld_off", [0, 0], "q[0] = 0"),
        ("jsd_off", [0, 0], "q[0] = 0"),
        ("hpd", [[1, 2], [0, 1]], "p[2] = 0"),  # row 0's sampled, row 1's expert
    ])
    def test_first_row_in_order_is_named(self, tag, tokens, message):
        tokens = np.array(tokens)
        for rows in ([0, 1], [0]):
            with pytest.raises(LogOfZeroError) as info:
                weights_at(ObjectiveKind(tag), self.P, self.Q, tokens[rows], rows)
            assert str(info.value) == message

    def test_jsd_midpoint_checked_before_q(self):
        p = CategoricalDist.from_rows([[0.0, 1.0], [1.0, 0.0]])
        q = CategoricalDist.from_rows([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(LogOfZeroError, match="midpoint mixture is 0 at token 0"):
            weights_at(ObjectiveKind("jsd_off"), p, q, [0, 0], [0, 1])

    # p's row 1 is 0 at token 0, which every row reads: row 0 passes, row 1 is named
    @pytest.mark.parametrize("tag, tokens, message", [
        ("rkld_off", [0, 0], "p[0] = 0"),
        ("hpd", [[0, 1], [0, 1]], "p[0] = 0"),
        ("jsd_off", [0, 0], "midpoint mixture is 0 at token 0"),
    ])
    def test_one_token_at_every_row(self, tag, tokens, message):
        p = CategoricalDist.from_rows([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(LogOfZeroError) as info:
            weights_at(ObjectiveKind(tag), p, p, tokens, [0, 1])
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
    """kind's per-token plain-Python rule on one row pair, one token (or one
    HPD pair) per call, at every token of the row."""
    v = p.size
    if kind.on_policy:
        return p.logprobs - q.logprobs  # the OPD reward at each sampled token
    values = row_values(p, q)
    if kind.tag in HPD_VARIANTS:
        return np.array([offpolicy_token(kind, *values, e, s)
                         for e in range(v) for s in range(v)]).reshape(v, v, 2)
    return np.array([offpolicy_token(kind, *values, t) for t in range(v)])


class TestTokenWeightsOverTables:
    """token_weights is one rule for any leading shape: over whole (contexts, V)
    tables it equals the per-token rules row by row, byte for byte."""

    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
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
