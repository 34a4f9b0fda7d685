"""Oracle and property tests for exact categorical-distribution math."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab.errors import (
    DivergenceInfiniteError,
    InvalidInputError,
    InvalidParameterError,
)
from distill_lab.numerics import (
    CategoricalDist,
    cdf_draw,
    cdf_rows,
    entropy,
    kl_rows,
    log_probs,
    softmax,
    softmax_probs,
    PROB_SUM_TOL,
    ZERO_TOL,
)
from distill_lab.data import Corpus
from distill_lab.training import LOGIT_FLOOR, train_teacher_mle
from oracles import (jsd_beta, k1_samples, kl_exact, masked_dist, masked_softmax, mle_add_at,
                     normalized)


def dist(*probs):
    return CategoricalDist.from_probs(np.array(probs))


@st.composite
def prob_vectors(draw, min_size=2, max_size=8):
    n = draw(st.integers(min_size, max_size))
    raw = draw(
        st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)
    )
    a = np.array(raw)
    return a / a.sum()


class TestCategoricalDist:
    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            CategoricalDist.from_probs([])
        with pytest.raises(InvalidInputError):
            CategoricalDist.from_probs([[0.5, 0.5]])
        with pytest.raises(InvalidInputError):
            CategoricalDist.from_probs([0.5, np.nan])
        with pytest.raises(InvalidInputError):
            CategoricalDist.from_probs([-0.2, 1.2])
        with pytest.raises(InvalidInputError):
            CategoricalDist.from_probs([0.5, 0.6])

    def test_zero_prob_gets_minus_inf_logprob(self):
        d = dist(1.0, 0.0)
        assert d.logprobs[1] == -np.inf
        assert d.support.tolist() == [True, False]

    def test_arrays_are_read_only(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    @given(prob_vectors())
    def test_logprobs_consistent(self, p):
        d = CategoricalDist.from_probs(p)
        assert np.allclose(np.exp(d.logprobs), d.probs)


# (probabilities, the error's message or None when accepted); the first failing
# check names the error, in the order finite, non-negative, sum
CHECK_CASES = [
    ([np.nan, -0.5, 1.5], "finite"),
    ([-np.inf, 0.5, 0.5], "finite"),
    ([-1e-11, 0.5, 0.5 + 1e-11], "non-negative"),
    ([-1e-13, 0.5, 0.5 + 1e-13], None),
    ([0.25, 0.25, 0.5 + 1e-8], "sum to"),
]


class TestValidationPrecedence:
    @pytest.mark.parametrize("probs,message", CHECK_CASES)
    @pytest.mark.parametrize("build", [
        CategoricalDist.from_probs,
        lambda p: CategoricalDist.from_rows([[0.5, 0.25, 0.25], p]),
    ], ids=["from_probs", "from_rows"])
    def test_first_failing_check_names_the_error(self, build, probs, message):
        if message is not None:
            with pytest.raises(InvalidInputError, match=message):
                build(probs)
            return
        d = build(probs)
        last = (d.probs if d.probs.ndim == 1 else d.probs[-1])
        lp = (d.logprobs if d.logprobs.ndim == 1 else d.logprobs[-1])
        assert last[0] == 0.0 and not np.signbit(last[0]) and lp[0] == -np.inf
        assert np.array_equal(lp[1:], np.log(last[1:]))

    def test_row_sum_error_names_the_first_bad_row(self):
        with pytest.raises(InvalidInputError, match=r"sum to \S*1\.1\b"):
            CategoricalDist.from_rows([[0.5, 0.5], [0.6, 0.5], [0.2, 0.2]])

    def test_row_sum_error_reads_as_a_plain_number(self):
        # the sum is printed as a Python float, not as numpy's scalar repr
        with pytest.raises(InvalidInputError) as info:
            CategoricalDist.from_rows([[0.5, 0.5], [0.6, 0.5]])
        assert str(info.value) == "probabilities sum to 1.1, not 1"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_softmax_rejects_non_finite_logits(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            softmax([[0.0, 1.0], [bad, 0.0]])

    def test_softmax_zeroes_tiny_entries(self):
        # exp(-40) < ZERO_TOL: the entry becomes an exact zero with log -inf
        d = softmax([0.0, -40.0])
        assert d.probs.tolist() == [1.0, 0.0] and d.logprobs[1] == -np.inf


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]).probs, [0.5, 0.5])

    def test_ln3_zero(self):
        assert np.allclose(softmax([np.log(3.0), 0.0]).probs, [0.75, 0.25])

    def test_shift_invariance_constant_row(self):
        for c in (-50.0, 0.0, 3.7, 200.0):
            assert np.allclose(softmax([c] * 4).probs, [0.25] * 4)

    def test_extreme_logits_stable(self):
        p = softmax([1000.0, -1000.0]).probs
        assert p[0] == pytest.approx(1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            softmax([])
        with pytest.raises(InvalidInputError):
            softmax([np.inf, 0.0])

    def test_logits_spanning_more_than_the_float_range(self):
        # z - max overflows to -inf for the last entry, whose probability is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = softmax([0.0, sys.float_info.max, -9.97920155e+291])
        assert d.probs.tolist() == [0.0, 1.0, 0.0]

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
    def test_sums_to_one_and_shift_invariant(self, z):
        d = softmax(z)
        assert d.probs.sum() == pytest.approx(1.0)
        shifted = softmax(np.array(z) + 7.5)
        assert np.allclose(d.probs, shifted.probs)


# a logit this far below a row's 0.0 gives a probability of about ZERO_TOL
NEAR_TOL = st.floats(-1e-3, 1e-3).map(lambda d: math.log(ZERO_TOL) + d)
# finite logits far enough apart that z - max overflows to -inf
FAR = st.sampled_from([sys.float_info.max, -sys.float_info.max, 1e308, -9.97920155e+291])


@st.composite
def finite_logits(draw, wide=False):
    """A finite 1-d or 2-d logit array; every row holds a 0.0 (or a -0.0), and its
    other entries may be LOGIT_FLOOR (exp underflows to 0) or land near ZERO_TOL.
    A wide array may span more than the float range."""
    n_rows, v = draw(st.integers(0, 4)), draw(st.integers(1, 7))
    # |z - max| stays below the float range unless wide: a wider spread overflows
    # in the unchecked kernel, which serves only the program's own logits
    cells = [st.floats(-60, 60), st.floats(-60, 0), st.just(LOGIT_FLOOR), NEAR_TOL,
             st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0])]
    cell = st.one_of(*cells, FAR) if wide else st.one_of(*cells)
    rows = [[draw(st.sampled_from([0.0, -0.0]))]
            + draw(st.lists(cell, min_size=v - 1, max_size=v - 1))
            for _ in range(max(n_rows, 1))]
    return np.array(rows[0] if n_rows == 0 else rows)


# entries that a row may hold beside its normalised mass: exact zeros of either
# sign, and entries either side of ZERO_TOL (the negative one within the
# non-negativity tolerance); none moves a row's sum by PROB_SUM_TOL
TINY = st.sampled_from([0.0, -0.0, 0.5 * ZERO_TOL, 0.999 * ZERO_TOL, ZERO_TOL,
                        1.001 * ZERO_TOL, 2.0 * ZERO_TOL, -0.5 * ZERO_TOL, 5e-324])


@st.composite
def probability_arrays(draw):
    """A 1-d or 2-d float array: rows that sum to 1 with tiny entries beside their
    mass, and now and then an entry that a check refuses."""
    n_rows, v = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    rows = []
    for _ in range(max(n_rows, 1)):
        raw = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=v, max_size=v)))
        row = raw / raw.sum() if raw.sum() > 0.0 else np.full(v, 1.0 / v)
        for j in draw(st.lists(st.integers(0, v - 1), max_size=v)):
            if row[j] < 1e-3:
                row[j] = draw(TINY)
        rows.append(row)
    p = np.array(rows[0] if n_rows == 0 else rows)
    if draw(st.integers(0, 5)) == 0:
        p.flat[draw(st.integers(0, p.size - 1))] = draw(st.sampled_from(
            [np.nan, np.inf, -1e-11, 1.5, 0.5]))
    return p


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(build, x):
    """The dtype, shape and bytes of the (probs, logprobs) build returns, or the text of
    its InvalidInputError."""
    try:
        probs, logprobs = build(x)
    except InvalidInputError as e:
        return str(e)
    return probs.dtype, probs.shape, probs.tobytes(), logprobs.tobytes()


class TestOneKernelIsTheMaskedLogPath:
    """softmax, from_probs and from_rows run one kernel; the checked path with its
    masked log (oracles.masked_softmax, masked_dist) gives the same bytes."""

    @settings(max_examples=400, deadline=None)
    @given(finite_logits(wide=True))
    def test_softmax(self, z):
        d = softmax(z)
        probs, logprobs = masked_softmax(z)
        assert same_bytes(d.probs, probs) and same_bytes(d.logprobs, logprobs)
        assert not d.probs.flags.writeable and not d.logprobs.flags.writeable

    @settings(max_examples=400, deadline=None)
    @given(probability_arrays())
    def test_from_probs_and_from_rows(self, p):
        build = CategoricalDist.from_probs if p.ndim == 1 else CategoricalDist.from_rows
        given_bytes = p.tobytes()

        def checked(p):
            d = build(p)
            assert not d.probs.flags.writeable and not d.logprobs.flags.writeable
            assert not np.shares_memory(d.probs, p)
            return d.probs, d.logprobs

        assert outcome(checked, p) == outcome(masked_dist, p)
        assert p.tobytes() == given_bytes  # the input is zeroed on a copy

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3), max_size=6), max_size=5),
           st.integers(1, 2), st.sampled_from([0.0, 5e-324, 1e-300, 1e-13, 0.1, 2.0]))
    def test_mle_logits(self, seqs, order, lam):
        corpus = Corpus.from_sequences(seqs, provenance="ground_truth", seed=0, vocab_size=4)
        fit, ref = train_teacher_mle(corpus, order, lam), mle_add_at(corpus, order, lam)
        assert same_bytes(fit.table, ref.table)

    @settings(max_examples=400, deadline=None)
    @given(finite_logits(wide=True))
    def test_softmax_rows_need_no_check(self, z):
        # before zeroing, every entry of a softmax of finite logits lies in [0, 1]
        # and every row sums to 1 within PROB_SUM_TOL: the checks from_rows makes
        # could never refuse them
        p = normalized(z)
        assert np.isfinite(p).all() and p.min() >= 0.0 and p.max() <= 1.0
        assert (abs(p.sum(axis=-1) - 1.0) <= PROB_SUM_TOL).all()
        build = CategoricalDist.from_probs if p.ndim == 1 else CategoricalDist.from_rows
        checked, d = build(p), softmax(z)
        assert same_bytes(checked.probs, d.probs) and same_bytes(checked.logprobs, d.logprobs)


class TestSoftmaxProbs:
    @settings(max_examples=300, deadline=None)
    @given(finite_logits())
    def test_is_the_masked_softmax_byte_for_byte(self, z):
        probs = softmax_probs(z)
        want_probs, want_logprobs = masked_softmax(z)
        assert same_bytes(probs, want_probs) and same_bytes(log_probs(probs), want_logprobs)

    @pytest.mark.parametrize("offset, zeroed", [(-1e-3, True), (1e-3, False)])
    def test_either_side_of_zero_tol(self, offset, zeroed):
        z = np.array([[0.0, math.log(ZERO_TOL) + offset, LOGIT_FLOOR]])
        probs = softmax_probs(z)
        logprobs = log_probs(probs)
        assert (probs[0, 1] == 0.0) == zeroed and probs[0, 2] == 0.0
        assert logprobs[0, 2] == -np.inf
        assert same_bytes(probs, softmax(z).probs)
        assert same_bytes(logprobs, softmax(z).logprobs)

    @pytest.mark.parametrize("tiny", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_either_path_is_the_masked_softmax_without_a_warning(self, tiny, seed):
        # rows with no entry below ZERO_TOL skip the zeroing and the errstate;
        # a row with one zeroes it and logs 0 to -inf, in 1-d and 2-d batches
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=3.0, size=(int(rng.integers(1, 6)), 5))
        if tiny:
            z[rng.integers(len(z)), rng.integers(5)] = LOGIT_FLOOR
        for batch in (z, z[0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                probs = softmax_probs(batch)
                logprobs = log_probs(probs)
            want_probs, want_logprobs = masked_softmax(batch)
            assert same_bytes(probs, want_probs) and same_bytes(logprobs, want_logprobs)
            assert (probs.min() == 0.0) == (batch == LOGIT_FLOOR).any()

    def test_arrays_are_new_and_writable(self):
        z = np.zeros((2, 3))
        probs = softmax_probs(z)
        logprobs = log_probs(probs)
        assert probs.flags.writeable and logprobs.flags.writeable
        assert not np.shares_memory(probs, z) and not np.shares_memory(logprobs, probs)


class TestInverseCdf:
    """The lockstep samplers' byte-identity rests on matching Generator.choice."""

    ROWS = [
        [1.0],
        [0.0, 1.0, 0.0],  # one-hot with zeros on both sides
        [0.0, 0.0, 0.3, 0.7],  # leading zeros
        [0.5, 0.5, 0.0, 0.0],  # trailing zeros
        [1e-13, 0.25, 0.25, 0.5 - 1e-13],
    ]

    def _rows(self):
        rng = np.random.default_rng(4)
        rows = [np.array(r) for r in self.ROWS]
        for v in (2, 5, 9, 16):
            for conc in (0.05, 1.0):
                p = rng.dirichlet(np.full(v, conc))
                p[p < 1e-3] = 0.0  # exact zeros inside the row
                rows.append(p / p.sum())
        return rows

    def test_one_draw_matches_generator_choice(self):
        for i, p in enumerate(self._rows()):
            a, b = np.random.default_rng(i), np.random.default_rng(i)
            want = [int(a.choice(p.size, p=p)) for _ in range(200)]
            got = [int(cdf_draw(cdf_rows(p), b.random())) for _ in range(200)]
            assert got == want, p
            # each choice consumed exactly one rng.random()
            assert a.random() == b.random()

    def test_rows_draw_with_their_own_uniform(self):
        for p in self._rows():
            probs = np.stack([p, p[::-1], np.full(p.size, 1.0 / p.size)])
            u = np.random.default_rng(p.size).random(3)
            got = cdf_draw(cdf_rows(probs), u)
            assert got.tolist() == [int(cdf_draw(cdf_rows(probs[i]), u[i])) for i in range(3)]

    def test_table_rows_are_bit_for_bit_the_rows_alone(self):
        # a cached table of softmax and CDF rows, gathered, must equal computing
        # each row on its own; floor logits give exact zeros inside rows
        rng = np.random.default_rng(11)
        for v in (2, 5, 16, 33):
            z = rng.normal(scale=4.0, size=(40, v))
            z[rng.random(z.shape) < 0.2] = -1000.0
            table = softmax(z)
            cdf = cdf_rows(table.probs)
            u = rng.random(40)
            for i in range(40):
                alone = softmax(z[i])
                assert np.array_equal(table.probs[i], alone.probs)
                assert np.array_equal(table.logprobs[i], alone.logprobs)
                assert np.array_equal(cdf[i], cdf_rows(alone.probs))
                assert cdf_draw(cdf[i], u[i]) == cdf_draw(cdf_rows(alone.probs), u[i])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), lead=st.integers(0, 3), trail=st.integers(0, 3),
           inner=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e3)), min_size=1,
                          max_size=8))
    def test_draws_a_positive_entry_below_v(self, data, lead, trail, inner):
        # the training loops skip the range and q > 0 checks for these tokens
        inner[data.draw(st.integers(0, len(inner) - 1))] = data.draw(st.floats(1e-300, 1e3))
        p = np.array([0.0] * lead + inner + [0.0] * trail)
        cdf = cdf_rows(p)
        # uniforms in [0, 1), the largest below 1 and the CDF's own entries among them
        u = data.draw(st.lists(st.one_of(
            st.floats(0.0, 1.0, exclude_max=True), st.just(np.nextafter(1.0, 0.0)),
            st.sampled_from(cdf[cdf < 1.0].tolist() or [0.0])), min_size=1, max_size=6))
        tokens = cdf_draw(np.tile(cdf, (len(u), 1)), u)
        assert (tokens < p.size).all() and (p[tokens] > 0.0).all()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), v=st.integers(1, 8), n=st.integers(1, 4))
    def test_argmax_draw_is_the_count_of_entries_at_most_u(self, data, v, n):
        # cdf_draw takes the first entry > u; for a cdf_rows row, which never
        # decreases and ends in exactly 1.0, that is Generator.choice's count
        # of entries <= u, for every u in [0, 1)
        lead, trail = data.draw(st.integers(0, v - 1)), data.draw(st.integers(0, 2))
        rows = []
        for _ in range(n):
            inner = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e3)),
                                       min_size=v - lead, max_size=v - lead))
            inner[data.draw(st.integers(0, v - lead - 1))] = data.draw(st.floats(1e-300, 1e3))
            rows.append([0.0] * lead + inner + [0.0] * trail)
        cdf = cdf_rows(np.array(rows))
        own = cdf[cdf < 1.0].tolist()
        u = np.array(data.draw(st.lists(st.one_of(
            st.floats(0.0, 1.0, exclude_max=True), st.just(np.nextafter(1.0, 0.0)),
            st.sampled_from(own or [0.0])), min_size=n, max_size=n)))
        assert cdf_draw(cdf, u).tolist() == (cdf <= u[:, None]).sum(axis=1).tolist()
        for i in range(n):
            assert cdf_draw(cdf[i], u[i]) == int((cdf[i] <= u[i]).sum())

    def test_never_draws_a_zero_probability_entry(self):
        p = np.array([0.0, 0.4, 0.0, 0.6, 0.0])
        u = np.array([0.0, 0.4 - 1e-17, 0.4, 0.999999999, np.nextafter(1.0, 0.0)])
        assert set(cdf_draw(cdf_rows(np.tile(p, (5, 1))), u).tolist()) <= {1, 3}


class TestEntropy:
    def test_uniform_v4(self):
        assert entropy(dist(*[0.25] * 4)) == pytest.approx(np.log(4.0))

    def test_one_hot(self):
        assert entropy(dist(1.0, 0.0)) == 0.0

    def test_worked_value(self):
        assert entropy(dist(0.8, 0.2)) == pytest.approx(0.500402, abs=1e-6)

    @given(prob_vectors())
    def test_bounds(self, p):
        h = entropy(CategoricalDist.from_probs(p))
        assert -1e-12 <= h <= np.log(p.size) + 1e-9


class TestKLExact:
    def test_identity(self):
        d = dist(0.3, 0.7)
        assert kl_exact(d, d) == 0.0

    def test_worked_values(self):
        assert kl_exact(dist(0.8, 0.2), dist(0.5, 0.5)) == pytest.approx(
            0.192745, abs=1e-6
        )
        assert kl_exact(dist(0.5, 0.5), dist(0.8, 0.2)) == pytest.approx(
            0.223144, abs=1e-6
        )

    def test_support_violation_raises(self):
        with pytest.raises(DivergenceInfiniteError):
            kl_exact(dist(0.5, 0.5), dist(1.0, 0.0))

    def test_zero_mass_terms_are_skipped(self):
        assert kl_exact(dist(1.0, 0.0), dist(1.0, 0.0)) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            kl_exact(dist(0.5, 0.5), dist(0.4, 0.3, 0.3))

    @given(prob_vectors(), prob_vectors())
    def test_non_negative(self, a, b):
        if a.size != b.size:
            return
        p, q = CategoricalDist.from_probs(a), CategoricalDist.from_probs(b)
        assert kl_exact(p, q) >= 0.0


class TestKLRows:
    @pytest.mark.parametrize("v", [2, 3, 8, 9, 17, 130])
    def test_row_i_is_kl_exact_or_inf(self, v):
        # rows with exact zeros, tiny entries below ZERO_TOL, and near-equal pairs
        # whose sum lands in (-1e-12, 0) before kl_exact's clamp
        rng = np.random.default_rng(v)
        z = rng.normal(scale=3.0, size=(120, v))
        z[rng.random(z.shape) < 0.15] = -2000.0
        z[::7, 0] = -30.0
        p = softmax(z)
        # rows equal to p's, perturbed by 1e-9, and drawn from other rows, in turn
        row = np.arange(120)[:, None] % 3
        q = softmax(np.where(row == 0, z, np.where(
            row == 1, z + rng.normal(scale=1e-9, size=z.shape), z[rng.permutation(120)])))
        got = kl_rows(p, q)
        for i in range(120):
            try:
                want = kl_exact(p.rows(i), q.rows(i))
            except DivergenceInfiniteError:
                want = np.inf
            assert got[i] == want, i
        assert np.isinf(got).any() and (got == 0.0).any() and np.isfinite(got).any()

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            kl_rows(softmax(np.zeros((2, 3))), softmax(np.zeros((2, 4))))
        with pytest.raises(InvalidInputError):
            kl_rows(dist(0.5, 0.5), dist(0.5, 0.5))


def _in_layout(a, layout):
    """a in C order, in Fortran order, or as a strided view into a larger array."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        big = np.full((2 * a.shape[0], 3 * a.shape[1]), np.nan)
        big[::2, ::3] = a
        return big[::2, ::3]
    return np.ascontiguousarray(a)


def _batch(d, layout, extra=None):
    """The batch d in a layout, with the rows of extra appended first when given."""
    probs, logprobs = d.probs, d.logprobs
    if extra is not None:
        probs, logprobs = np.vstack([probs, extra.probs]), np.vstack([logprobs, extra.logprobs])
    return CategoricalDist(probs=_in_layout(probs, layout), logprobs=_in_layout(logprobs, layout))


class TestPositiveFastPath:
    """With every entry positive, kl_rows and entropy skip their masks, bit for bit."""

    @pytest.mark.parametrize("v", [2, 3, 8, 9, 17, 130])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_fast_path_is_the_masked_path(self, v, layout):
        rng = np.random.default_rng(v)
        z = rng.normal(scale=2.0, size=(40, v))
        p = softmax(z)
        # rows equal to p's, perturbed by 1e-9 (sums in (-1e-12, 0) clamp to 0), and others
        row = np.arange(40)[:, None] % 3
        q = softmax(np.where(row == 0, z, np.where(
            row == 1, z + rng.normal(scale=1e-9, size=z.shape), z[rng.permutation(40)])))
        assert p.probs.min() > 0.0 and q.probs.min() > 0.0
        # one more row with a zero sends the whole batch through the masked gathers
        zero = softmax(np.where(np.arange(v) == 0, -2000.0, np.zeros((1, v))))
        fast_kl = kl_rows(_batch(p, layout), _batch(q, layout))
        masked_kl = kl_rows(_batch(p, layout, zero), _batch(q, layout, zero))
        assert fast_kl.tobytes() == masked_kl[:40].tobytes()
        assert fast_kl.tobytes() == kl_rows(p, q).tobytes()
        assert [float(x) for x in fast_kl] == [kl_exact(p.rows(i), q.rows(i)) for i in range(40)]
        assert (fast_kl == 0.0).any() and (fast_kl > 0.0).any()
        fast_h = entropy(_batch(q, layout))
        masked_h = entropy(_batch(q, layout, zero))
        assert fast_h.tobytes() == masked_h[:40].tobytes()
        assert [float(x) for x in fast_h] == [entropy(q.rows(i)) for i in range(40)]

    def test_empty_batches(self):
        empty = CategoricalDist(probs=np.zeros((0, 3)), logprobs=np.zeros((0, 3)))
        assert kl_rows(empty, empty).shape == (0,) and entropy(empty).shape == (0,)


class TestJSDBeta:
    def test_identity(self):
        d = dist(0.4, 0.6)
        for beta in (0.1, 0.5, 0.9):
            assert jsd_beta(d, d, beta) == pytest.approx(0.0, abs=1e-12)

    def test_worked_value(self):
        assert jsd_beta(dist(0.8, 0.2), dist(0.5, 0.5), 0.5) == pytest.approx(
            0.050672, abs=1e-6
        )

    def test_invalid_beta(self):
        d = dist(0.5, 0.5)
        for beta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidParameterError):
                jsd_beta(d, d, beta)

    @given(prob_vectors())
    def test_symmetric_at_half(self, a):
        rng = np.random.default_rng(0)
        b = rng.dirichlet(np.ones(a.size))
        p, q = CategoricalDist.from_probs(a), CategoricalDist.from_probs(b)
        assert jsd_beta(p, q, 0.5) == pytest.approx(jsd_beta(q, p, 0.5), abs=1e-12)

    @given(prob_vectors())
    def test_non_negative(self, a):
        rng = np.random.default_rng(1)
        b = rng.dirichlet(np.ones(a.size))
        p, q = CategoricalDist.from_probs(a), CategoricalDist.from_probs(b)
        assert jsd_beta(p, q, 0.3) >= 0.0


class TestK1:
    def test_single_sample_estimates_unbiased(self):
        # 10^5 draws, each an n=1 estimate of KL(q||p); pooled standard error
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        vals = k1_samples(p, q, 100_000, np.random.default_rng(11))
        pooled = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 0.223144) <= 3.0 * pooled

    def test_samples_outside_support_raise(self):
        with pytest.raises(DivergenceInfiniteError):
            k1_samples(dist(1.0, 0.0), dist(0.5, 0.5), 100, np.random.default_rng(0))

    def test_bad_sample_count(self):
        d = dist(0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            k1_samples(d, d, 0, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        p, q = dist(0.7, 0.3), dist(0.4, 0.6)
        a = k1_samples(p, q, 64, np.random.default_rng(5))
        b = k1_samples(p, q, 64, np.random.default_rng(5))
        assert np.array_equal(a, b)

    @settings(max_examples=25)
    @given(prob_vectors(), st.integers(0, 10_000))
    def test_sample_values_are_log_ratios(self, a, seed):
        rng = np.random.default_rng(seed)
        b = rng.dirichlet(np.ones(a.size))
        p = CategoricalDist.from_probs(0.5 * a + 0.5 / a.size)
        q = CategoricalDist.from_probs(0.5 * b + 0.5 / b.size)
        vals = k1_samples(p, q, 32, rng)
        lo = float(np.min(q.logprobs - p.logprobs))
        hi = float(np.max(q.logprobs - p.logprobs))
        assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)
