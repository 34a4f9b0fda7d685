"""Token-level weight estimators for the unified reweighted-likelihood view.

Every objective reduces to a per-token weight w applied to -w * ln q[token].
Sign convention: weights are oriented so that ascent on sum(w * ln q)
descends the corresponding divergence. The textual estimator signs of the
baseline write-up (q*(ln q - ln p) and the JSD analog) carry the opposite
orientation; sign_fidelity=True reproduces them verbatim for comparison.

Every rule is elementwise in the token-level quantities: it takes one
distribution pair and token ids, giving floats, or a batch (CategoricalDist
rows) and one token id per row, giving arrays.
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
    """
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


def weight_sft(token, expert):
    """One-hot indicator weight: 1 on the expert token, 0 elsewhere."""
    return _scalar(np.where(np.asarray(token) == expert, 1.0, 0.0))


def weight_fkld_token(p: CategoricalDist, expert):
    """Teacher probability of the expert token."""
    return _scalar(_at(p.probs, expert))


def weights_fkld_dense(p: CategoricalDist) -> np.ndarray:
    """Full-vocabulary forward-KL weights: w_v = p_v at the state."""
    return p.probs.copy()


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


def weight_rkld_on(p: CategoricalDist, q: CategoricalDist, token):
    """On-policy reverse-KL weight: log-ratio reward at a student-sampled token."""
    _check_positive(_support(p, token, "p"), _support(q, token, "q"))
    return _scalar(_at(p.logprobs, token) - _at(q.logprobs, token))


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
    the doubling; "hpd_no_sample" ignores the sampled token entirely.
    """
    if variant not in HPD_VARIANTS:
        raise ConfigError(f"unknown hpd variant {variant!r}")
    _check_positive(_support(p, expert, "p"), _support(q, expert, "q"),
                    _support(p, sampled, "p"), _support(q, sampled, "q"))
    k1, k1p = _scalar(_k1(p, q, expert)), _scalar(_k1(p, q, sampled))
    p_star = _at(p.probs, expert)

    if variant == "hpd_no_sample":
        w_sampled = np.zeros(np.shape(k1))
        w_star = np.where(k1 > 0.0, p_star + k1, k1)
    else:
        w_sampled = np.where((sampled != expert) & (k1p < 0.0), k1p, 0.0)
        reinforce = (k1 > 0.0) & (k1p < 0.0) & (variant == "hpd")
        w_star = np.where(reinforce, 2.0 * p_star + k1, np.where(k1 < 0.0, k1, p_star + k1))
    return HPDWeights(k1=k1, k1_prime=k1p, w_star=_scalar(w_star),
                      sampled_token=int(sampled) if np.ndim(sampled) == 0 else sampled,
                      w_sampled=_scalar(w_sampled))


def opd_rewards(teacher_dists, student_dists, tokens) -> np.ndarray:
    """Per-step rewards r_t = ln p(a_t|s_t) - ln q(a_t|s_t) on a sampled path."""
    if not (len(teacher_dists) == len(student_dists) == len(tokens)):
        raise InvalidParameterError("per-step distributions must align with tokens")
    if len(tokens) == 0:
        return np.array([])
    return weight_rkld_on(CategoricalDist.stack(teacher_dists),
                          CategoricalDist.stack(student_dists), np.asarray(tokens))
