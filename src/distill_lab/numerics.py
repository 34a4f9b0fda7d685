"""Exact categorical-distribution math.

All quantities are in nats. Probabilities below ZERO_TOL are treated as
exact zeros for support checks; their log-probability is -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceInfiniteError, InvalidInputError, InvalidParameterError

ZERO_TOL = 1e-12
PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class CategoricalDist:
    """Probability vector over a vocabulary with cached log-probabilities.

    probs may also be an (n, V) array: a batch of n distributions, one per
    row, as `softmax` of an (n, V) logit array or `stack` builds it. The
    weight rules in objectives.py and `entropy` take one or a batch.
    """

    probs: np.ndarray
    logprobs: np.ndarray

    @classmethod
    def from_probs(cls, probs) -> "CategoricalDist":
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise InvalidInputError("probability vector must be a non-empty 1-d array")
        return _checked(p)

    @classmethod
    def from_rows(cls, probs) -> "CategoricalDist":
        """The batch whose row i is from_probs(probs[i]), for an (n, V) array."""
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 2 or p.size == 0:
            raise InvalidInputError("probability rows must be a non-empty 2-d array")
        return _checked(p)

    @classmethod
    def stack(cls, dists) -> "CategoricalDist":
        """The batch whose row i is dists[i]."""
        return cls(probs=np.stack([d.probs for d in dists]),
                   logprobs=np.stack([d.logprobs for d in dists]))

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
    """The rows of p (along its last axis) as distributions, tiny entries zeroed.

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
        raise InvalidInputError(f"probabilities sum to {bad!r}, not 1")
    p = np.where(p < ZERO_TOL, 0.0, p)
    lp = np.log(p, out=np.full(p.shape, -np.inf), where=p > 0.0)
    p.setflags(write=False)
    lp.setflags(write=False)
    return CategoricalDist(probs=p, logprobs=lp)


def softmax(logits) -> CategoricalDist:
    """Numerically stabilized softmax of a logit vector, or of each row of an (n, V) array.

    Row i of the batch is bit for bit softmax(logits[i]).
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (1, 2) or z.size == 0:
        raise InvalidInputError("logits must be a non-empty 1-d or 2-d array")
    if not np.isfinite(z).all():
        raise InvalidInputError("logits must be finite")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return _checked(e / e.sum(axis=-1, keepdims=True))


def cdf_rows(probs) -> np.ndarray:
    """The normalised CDF cumsum(row) / cumsum(row)[-1] of probs, or of each of its rows.

    Row i of a batch is bit for bit cdf_rows(probs[i]).
    """
    cdf = np.cumsum(probs, axis=-1)
    return cdf / cdf[..., -1:]


def cdf_draw(cdf, u) -> np.ndarray:
    """Row i of a cdf_rows table sampled with the uniform u[i]: its count of entries <= u[i].

    The count is a sum of the row's booleans, one reduction over the batch.
    """
    return (cdf <= np.asarray(u)[..., None]).sum(axis=-1)


def inverse_cdf(probs, u) -> np.ndarray:
    """Row i of probs sampled with the uniform u[i], exactly as Generator.choice samples it.

    Generator.choice(V, p=row) takes one rng.random() and returns the count of
    entries of cumsum(row) / cumsum(row)[-1] that are <= it; a 1-d probs and a
    scalar u give one draw. A caller that samples the same rows again keeps
    their cdf_rows and calls cdf_draw.
    """
    return cdf_draw(cdf_rows(probs), u)


def _support_entropy(p: np.ndarray, lp: np.ndarray) -> float:
    mask = p > 0.0
    return float(-np.sum(p[mask] * lp[mask]))


def entropy(d: CategoricalDist) -> float | np.ndarray:
    """Shannon entropy -sum p ln p, with 0 ln 0 := 0; an array, one per row, of a batch."""
    if d.probs.ndim == 1:
        return _support_entropy(d.probs, d.logprobs)
    full = np.all(d.probs > 0.0, axis=1)
    h = -np.sum(d.probs * np.where(full[:, None], d.logprobs, 0.0), axis=1)
    # dropping a row's zeros shifts numpy's pairwise-summation blocks, so such
    # a row sums its support alone, as the entropy of one distribution does
    for i in np.flatnonzero(~full):
        h[i] = _support_entropy(d.probs[i], d.logprobs[i])
    return h


def _check_same_size(p: CategoricalDist, q: CategoricalDist) -> None:
    if p.size != q.size:
        raise InvalidInputError(f"vocabulary sizes differ: {p.size} vs {q.size}")


def kl_exact(p: CategoricalDist, q: CategoricalDist) -> float:
    """KL(p || q) = sum_v p_v (ln p_v - ln q_v)."""
    _check_same_size(p, q)
    mask = p.support
    if np.any(mask & ~q.support):
        bad = int(np.argmax(mask & ~q.support))
        raise DivergenceInfiniteError(
            f"KL(p||q) is infinite: p[{bad}] > 0 but q[{bad}] = 0"
        )
    val = float(np.sum(p.probs[mask] * (p.logprobs[mask] - q.logprobs[mask])))
    if -1e-12 < val < 0.0:
        return 0.0
    return val


def kl_rows(p: CategoricalDist, q: CategoricalDist) -> np.ndarray:
    """KL(p_i || q_i) for each row i of two (n, V) batches: kl_exact(p_i, q_i), or inf
    where that raises because p_i puts mass outside q_i's support."""
    if p.probs.ndim != 2 or p.probs.shape != q.probs.shape:
        raise InvalidInputError(f"need two (n, V) batches of one shape, got {p.probs.shape} "
                                f"and {q.probs.shape}")
    inside = ~np.any(p.support & ~q.support, axis=1)
    full = np.all(p.support, axis=1)
    kl = np.full(len(p.probs), np.inf)
    rows = full & inside
    kl[rows] = np.sum(p.probs[rows] * (p.logprobs[rows] - q.logprobs[rows]), axis=1)
    # a row with zeros sums its support alone, as kl_exact does, so that numpy's
    # pairwise-summation blocks fall where they fall for the single distribution
    for i in np.flatnonzero(~full & inside):
        mask = p.support[i]
        kl[i] = np.sum(p.probs[i][mask] * (p.logprobs[i][mask] - q.logprobs[i][mask]))
    kl[(-1e-12 < kl) & (kl < 0.0)] = 0.0
    return kl


def jsd_beta(p: CategoricalDist, q: CategoricalDist, beta: float) -> float:
    """Generalized Jensen-Shannon divergence against M = beta*p + (1-beta)*q."""
    _check_same_size(p, q)
    if not (0.0 < beta < 1.0):
        raise InvalidParameterError(f"beta must lie in (0, 1), got {beta!r}")
    m = CategoricalDist.from_probs(beta * p.probs + (1.0 - beta) * q.probs)
    return beta * kl_exact(p, m) + (1.0 - beta) * kl_exact(q, m)


@dataclass(frozen=True)
class DivergenceReport:
    """Monte Carlo estimate of KL(q || p) alongside its exact value."""

    exact_value: float
    mc_mean: float
    mc_stderr: float
    n_samples: int


def k1_samples(
    p: CategoricalDist, q: CategoricalDist, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-sample log-ratios ln(q[a]/p[a]) with a drawn from q."""
    _check_same_size(p, q)
    if n < 1:
        raise InvalidParameterError("sample count must be >= 1")
    draws = rng.choice(p.size, size=n, p=q.probs)
    if np.any(~p.support[draws]):
        bad = int(draws[np.argmax(~p.support[draws])])
        raise DivergenceInfiniteError(
            f"sampled token {bad} has zero probability under p"
        )
    return q.logprobs[draws] - p.logprobs[draws]


def k1_mc(
    p: CategoricalDist, q: CategoricalDist, n: int, rng: np.random.Generator
) -> DivergenceReport:
    """Single-sample-style Monte Carlo estimator of KL(q || p), aggregated over n draws."""
    vals = k1_samples(p, q, n, rng)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return DivergenceReport(
        exact_value=kl_exact(q, p), mc_mean=mean, mc_stderr=stderr, n_samples=n
    )
