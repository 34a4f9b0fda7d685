"""Exact categorical-distribution math.

All quantities are in nats. Probabilities below ZERO_TOL are treated as
exact zeros for support checks; their log-probability is -inf. `kl_rows` is
the one divergence rule: exact KL row by row over two batches. Evaluation
reads every divergence from it.

There is one softmax kernel, `softmax_probs` (max-shift, exp, divide, then
entries below ZERO_TOL zeroed in place), and one log, `log_probs` (-inf at
a zero). Values are validated where they enter: `softmax` checks its logits
and runs the kernel; `CategoricalDist.from_probs` and `from_rows` check their
probabilities and zero a copy as the kernel does; each logs with log_probs.
For finite logits every entry lies in [0, 1] and a row sums to 1 within
about 1e-14, so softmax's rows need no check of their own. training.PredictiveTable calls
the kernel on the student's own logits, which every table writer keeps finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

ZERO_TOL = 1e-12
PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class CategoricalDist:
    """Probability vector over a vocabulary with cached log-probabilities.

    probs may also be an (n, V) array: a batch of n distributions, one per
    row, as `softmax` of an (n, V) logit array or `from_rows` builds it.
    `entropy` takes one or a batch; `kl_rows` takes two batches.
    """

    probs: np.ndarray
    logprobs: np.ndarray

    @classmethod
    def from_probs(cls, probs) -> "CategoricalDist":
        p = np.array(probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise InvalidInputError("probability vector must be a non-empty 1-d array")
        return _checked(p)

    @classmethod
    def from_rows(cls, probs) -> "CategoricalDist":
        """The batch whose row i is from_probs(probs[i]), for an (n, V) array."""
        p = np.array(probs, dtype=np.float64)
        if p.ndim != 2 or p.size == 0:
            raise InvalidInputError("probability rows must be a non-empty 2-d array")
        return _checked(p)

    def rows(self, index) -> "CategoricalDist":
        """The batch of this batch's rows at index (repeats allowed)."""
        return CategoricalDist(probs=self.probs[index], logprobs=self.logprobs[index])

    @property
    def size(self) -> int:
        return self.probs.size

    @property
    def support(self) -> np.ndarray:
        return self.probs > 0.0


def _checked(p: np.ndarray) -> CategoricalDist:
    """The rows of p (along its last axis) as distributions, p a copy the caller owns.

    A non-finite entry is reported first, then a negative one, then the first
    row whose sum is off; p's min and max and the largest sum error decide
    each check in one pass.
    """
    lo, hi = p.min(), p.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):  # a NaN makes both NaN
        raise InvalidInputError("probabilities must be finite")
    if lo < -ZERO_TOL:
        raise InvalidInputError("probabilities must be non-negative")
    sums = p.sum(axis=-1)
    off = abs(sums - 1.0)
    if off.max() > PROB_SUM_TOL:
        bad = np.ravel(sums)[np.ravel(off > PROB_SUM_TOL).argmax()]
        raise InvalidInputError(f"probabilities sum to {float(bad)}, not 1")
    return _frozen(_zero_tiny(p))


def _zero_tiny(p: np.ndarray) -> np.ndarray:
    """p, its entries below ZERO_TOL set to 0.0 in place."""
    if p.min() < ZERO_TOL:
        p[p < ZERO_TOL] = 0.0
    return p


def _frozen(p: np.ndarray) -> CategoricalDist:
    """The distribution of the new array p and its log_probs, both read-only."""
    logprobs = log_probs(p)
    p.setflags(write=False)
    logprobs.setflags(write=False)
    return CategoricalDist(probs=p, logprobs=logprobs)


def softmax_probs(z: np.ndarray) -> np.ndarray:
    """softmax(z).probs, unchecked: z must be a finite float64 1-d or 2-d array.

    exp(z - max) / sum along the last axis, its entries below ZERO_TOL
    zeroed: a new, writable array.
    """
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return _zero_tiny(e / e.sum(axis=-1, keepdims=True))


def log_probs(p: np.ndarray) -> np.ndarray:
    """np.log(p) of probabilities p, -inf at an exact zero.

    Only a p that holds a zero enters np.errstate(divide="ignore"), which keeps
    numpy's warning about that log silent. An empty p has an empty log.
    """
    if p.min(initial=1.0) > 0.0:
        return np.log(p)
    with np.errstate(divide="ignore"):
        return np.log(p)


def softmax(logits) -> CategoricalDist:
    """Numerically stabilized softmax of a logit vector, or of each row of an (n, V) array.

    The logits must be finite; the result is softmax_probs and its log_probs.
    Row i of the batch is bit for bit softmax(logits[i]).
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (1, 2) or z.size == 0:
        raise InvalidInputError("logits must be a non-empty 1-d or 2-d array")
    if not np.isfinite(z).all():
        raise InvalidInputError("logits must be finite")
    # finite logits that span more than the float range make z - max overflow to
    # -inf, whose exp is the right 0.0; the program's own tables never span that
    with np.errstate(over="ignore"):
        return _frozen(softmax_probs(z))


def cdf_rows(probs) -> np.ndarray:
    """The normalised CDF cumsum(row) / cumsum(row)[-1] of probs, or of each of its rows.

    Row i of a batch is bit for bit cdf_rows(probs[i]). np.add.accumulate is
    np.cumsum's own loop, without the Python-level dispatch that costs more
    than the sums at a student's table size.
    """
    cdf = np.add.accumulate(probs, axis=-1)
    return cdf / cdf[..., -1:]


def cdf_draw(cdf, u) -> np.ndarray:
    """Row i of a cdf_rows table sampled with the uniform u[i]: its count of entries <= u[i].

    Every u must lie in [0, 1), as Generator.random draws it. This is
    Generator.choice's own draw: choice(V, p=row) takes one rng.random() and
    returns the count of entries of cumsum(row) / cumsum(row)[-1] that are <= it.
    So cdf_draw(cdf_rows(row), rng.random()) equals it, and a 1-d cdf with a
    scalar u gives one draw. A cdf_rows row never decreases and ends in exactly
    1.0 > u, so that count is the index of the first entry > u: one argmax of
    the row's booleans, which stops at the first True.
    """
    return (cdf > np.asarray(u)[..., None]).argmax(axis=-1)


def _support_entropy(p: np.ndarray, lp: np.ndarray) -> float:
    mask = p > 0.0
    return float(-np.sum(p[mask] * lp[mask]))


def entropy(d: CategoricalDist) -> float | np.ndarray:
    """Shannon entropy -sum p ln p, with 0 ln 0 := 0; an array, one per row, of a batch.

    A batch is read in C order, so each row is summed as one contiguous row,
    as the entropy of that row alone sums it. When every entry is positive,
    that is one row-wise sum of p * ln p, with no mask.
    """
    if d.probs.ndim == 1:
        return _support_entropy(d.probs, d.logprobs)
    p, lp = np.ascontiguousarray(d.probs), np.ascontiguousarray(d.logprobs)
    if p.min(initial=1.0) > 0.0:
        return -np.sum(p * lp, axis=1)
    full = np.all(p > 0.0, axis=1)
    h = -np.sum(p * np.where(full[:, None], lp, 0.0), axis=1)
    # dropping a row's zeros shifts numpy's pairwise-summation blocks, so such
    # a row sums its support alone, as the entropy of one distribution does
    for i in np.flatnonzero(~full):
        h[i] = _support_entropy(p[i], lp[i])
    return h


def kl_rows(p: CategoricalDist, q: CategoricalDist) -> np.ndarray:
    """KL(p_i || q_i) = sum of p (ln p - ln q) over p_i's support, for each row i of two
    (n, V) batches: inf where p_i puts mass outside q_i's support, and 0.0 where
    rounding leaves the sum in (-1e-12, 0).

    Each row is summed on its own, over its support in token order: a row of
    full support in one row-wise sum, a row with zeros as its support gathered
    into one 1-d array. So row i is bit for bit the sum that one distribution
    pair gives. When every entry of both batches is positive, no row is masked:
    one row-wise sum of a C-order product sums the same elements in the same order.
    """
    if p.probs.ndim != 2 or p.probs.shape != q.probs.shape:
        raise InvalidInputError(f"need two (n, V) batches of one shape, got {p.probs.shape} "
                                f"and {q.probs.shape}")
    if p.probs.min(initial=1.0) > 0.0 and q.probs.min(initial=1.0) > 0.0:
        kl = np.sum(np.ascontiguousarray(p.probs * (p.logprobs - q.logprobs)), axis=1)
    else:
        inside = ~np.any(p.support & ~q.support, axis=1)
        full = np.all(p.support, axis=1)
        kl = np.full(len(p.probs), np.inf)
        rows = full & inside
        kl[rows] = np.sum(p.probs[rows] * (p.logprobs[rows] - q.logprobs[rows]), axis=1)
        # a row with zeros sums its support alone, so that numpy's pairwise-summation
        # blocks fall where they fall for the single distribution
        for i in np.flatnonzero(~full & inside):
            mask = p.support[i]
            kl[i] = np.sum(p.probs[i][mask] * (p.logprobs[i][mask] - q.logprobs[i][mask]))
    kl[(-1e-12 < kl) & (kl < 0.0)] = 0.0
    return kl
