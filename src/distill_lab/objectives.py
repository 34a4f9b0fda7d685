"""Token-level weight estimators for the unified reweighted-likelihood view.

Every objective reduces to a per-token weight w applied to -w * ln q[token].
Sign convention: weights are oriented so that ascent on sum(w * ln q)
descends the corresponding divergence. The textual estimator signs of the
baseline write-up (q*(ln q - ln p) and the JSD analog) carry the opposite
orientation; sign_fidelity=True reproduces them verbatim for comparison.

Every rule is elementwise in the token-level quantities: it takes one
distribution pair and token ids, giving floats, or a batch (CategoricalDist
rows) and one token id per row, giving arrays. sft's unit weight and
fkld_dense's full-vocabulary weights p_v need no rule: the off-policy
training loop applies them directly (the latter's direction is p - q).
hpd_point_weights is hpd_weights' rule on entries already gathered at each
draw's (expert, sampled) pair, which is how the off-policy loop calls it.
Neither does the on-policy reward ln p[a] - ln q[a]: the OPD kernel reads it
from the sampled entries of its tables, and tests/oracles.py's reference_opd is
its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidParameterError, LogOfZeroError
from .numerics import CategoricalDist

OFF_POLICY_TAGS = (
    "sft",
    "fkld_token",
    "fkld_dense",
    "seqkd",
    "rkld_off",
    "jsd_off",
    "hpd",
    "hpd_no_sample",
    "hpd_no_reinforce",
)
ON_POLICY_TAGS = ("rkld_on", "opd_k1")
ALL_TAGS = OFF_POLICY_TAGS + ON_POLICY_TAGS

HPD_VARIANTS = ("hpd", "hpd_no_sample", "hpd_no_reinforce")


@dataclass(frozen=True)
class ObjectiveKind:
    tag: str
    beta: float = 0.5
    sign_fidelity: bool = False

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise ConfigError(f"unknown objective tag {self.tag!r}")
        if not (0.0 < self.beta < 1.0):
            raise InvalidParameterError(f"beta must lie in (0, 1), got {self.beta!r}")

    @property
    def on_policy(self) -> bool:
        return self.tag in ON_POLICY_TAGS


def _at(values: np.ndarray, token):
    """values at token: a scalar for one distribution, row j at token[j] for a batch."""
    if values.ndim == 1:
        return values[token]
    return values[np.arange(values.shape[0]), token]


def _scalar(x):
    """A Python float for one distribution's weight; a batch's array as is."""
    return float(x) if np.ndim(x) == 0 else x


def _check_positive(*checks) -> None:
    """LogOfZeroError at the first row, in row order, where a check's value is <= 0.

    Each check is (values, token, message template); within a row they are
    tried in the given order, as a rule applied to that row alone tries them.
    When every value is positive, one min over them all decides.
    """
    if np.concatenate([np.ravel(values) for values, _, _ in checks]).min() > 0.0:
        return
    zero = np.array([np.ravel(values <= 0.0) for values, _, _ in checks])
    hit = zero.any(axis=0)
    if hit.any():
        row = int(np.argmax(hit))
        _, token, message = checks[int(np.argmax(zero[:, row]))]
        raise LogOfZeroError(message.format(np.ravel(token)[row]))


def _support(d: CategoricalDist, token, name: str):
    """The check that d puts mass on token, for _check_positive."""
    return _at(d.probs, token), token, name + "[{}] = 0"


def _k1(p: CategoricalDist, q: CategoricalDist, token):
    return _at(q.probs, token) * (_at(p.logprobs, token) - _at(q.logprobs, token))


def weight_fkld_token(p: CategoricalDist, expert):
    """Teacher probability of the expert token."""
    return _scalar(_at(p.probs, expert))


def hpd_k1(p: CategoricalDist, q: CategoricalDist, token):
    """Negative reverse k1 gap q * (ln p - ln q); positive iff q underestimates."""
    _check_positive(_support(p, token, "p"), _support(q, token, "q"))
    return _scalar(_k1(p, q, token))


def weight_rkld_off(
    p: CategoricalDist, q: CategoricalDist, expert, sign_fidelity: bool = False
):
    """Off-policy reverse-KL weight at the expert token."""
    w = hpd_k1(p, q, expert)
    return -w if sign_fidelity else w


def weight_jsd_off(
    p: CategoricalDist,
    q: CategoricalDist,
    expert,
    beta: float = 0.5,
    sign_fidelity: bool = False,
):
    """Off-policy generalized-JSD weight at the expert token."""
    if not (0.0 < beta < 1.0):
        raise InvalidParameterError(f"beta must lie in (0, 1), got {beta!r}")
    q_star = _at(q.probs, expert)
    m = beta * _at(p.probs, expert) + (1.0 - beta) * q_star
    _check_positive((m, expert, "midpoint mixture is 0 at token {}"),
                    _support(q, expert, "q"))
    w = _scalar((1.0 - beta) * q_star * (np.log(m) - _at(q.logprobs, expert)))
    return -w if sign_fidelity else w


@dataclass(frozen=True)
class HPDWeights:
    """Per-step record of the hybrid-policy weight rules; arrays for a batch."""

    k1: float
    k1_prime: float
    w_star: float
    sampled_token: int
    w_sampled: float


def hpd_weights(
    p: CategoricalDist,
    q: CategoricalDist,
    expert,
    sampled,
    variant: str = "hpd",
) -> HPDWeights:
    """Expert and sampled-token weights per the masking/reinforcement rules.

    variant "hpd": full rule (doubled forward-KL weight when k1 > 0 and the
    sampled token is simultaneously suppressed); "hpd_no_reinforce" drops
    the doubling; "hpd_no_sample" ignores the sampled token entirely. The
    (expert, sampled) entries of p and q are gathered through one point
    index and handed to hpd_point_weights, which holds the rule.
    """
    tokens = np.stack(np.broadcast_arrays(expert, sampled), axis=-1)
    index = tokens if p.probs.ndim == 1 else (np.arange(p.probs.shape[0])[:, None], tokens)
    k1, k1p, w_star, w_sampled = hpd_point_weights(
        p.probs[index], p.logprobs[index], q.probs[index], q.logprobs[index], tokens, variant)
    return HPDWeights(k1=_scalar(k1), k1_prime=_scalar(k1p), w_star=_scalar(w_star),
                      sampled_token=int(sampled) if np.ndim(sampled) == 0 else sampled,
                      w_sampled=_scalar(w_sampled))


def hpd_point_weights(p, lp, q, lq, tokens, variant: str = "hpd"):
    """(k1, k1', w_star, w_sampled) of hpd_weights' rule, from point-gathered entries.

    tokens is an (..., 2) array of (expert, sampled) pairs; p, lp, q and lq
    hold the teacher's and the student's probabilities and log-probabilities
    at those tokens, in the same shape. One min over p and q decides that
    every entry is positive; otherwise the LogOfZeroError names the first
    pair, tried p then q at the expert, then p then q at the sampled token.
    """
    if variant not in HPD_VARIANTS:
        raise ConfigError(f"unknown hpd variant {variant!r}")
    expert, sampled = tokens[..., 0], tokens[..., 1]
    if not min(p.min(), q.min()) > 0.0:
        _check_positive((p[..., 0], expert, "p[{}] = 0"), (q[..., 0], expert, "q[{}] = 0"),
                        (p[..., 1], sampled, "p[{}] = 0"), (q[..., 1], sampled, "q[{}] = 0"))
    k = q * (lp - lq)
    k1, k1p, p_star = k[..., 0], k[..., 1], p[..., 0]

    if variant == "hpd_no_sample":
        w_sampled = np.zeros(np.shape(k1))
        w_star = np.where(k1 > 0.0, p_star + k1, k1)
    else:
        w_sampled = np.where((sampled != expert) & (k1p < 0.0), k1p, 0.0)
        reinforce = (k1 > 0.0) & (k1p < 0.0) & (variant == "hpd")
        w_star = np.where(reinforce, 2.0 * p_star + k1, np.where(k1 < 0.0, k1, p_star + k1))
    return k1, k1p, w_star, w_sampled
