"""Token-level weight estimators for the unified reweighted-likelihood view.

Every objective reduces to a per-token weight w applied to -w * ln q[token].
Sign convention: weights are oriented so that ascent on sum(w * ln q)
descends the corresponding divergence. The textual estimator signs of the
baseline write-up (q*(ln q - ln p) and the JSD analog) carry the opposite
orientation; sign_fidelity=True reproduces them verbatim for comparison.

token_weights is the one place the weights live: a rule over p*, ln p*, q*
and ln q*, the teacher's and the student's entries at the token, for any
leading shape. At the expert (off-policy) or sampled (on-policy) token:
  sft, seqkd             1
  fkld_token, fkld_dense p*   (fkld_dense weighs every token v by p_v)
  rkld_off               k1 = q* (ln p* - ln q*)
  jsd_off                (1 - beta) q* (ln M* - ln q*), M* = beta p* + (1 - beta) q*
  hpd variants           from p*, k1 and k1', k1 at the token sampled from q
                         (hpd_no_sample ignores the sampled token and reads
                         the expert alone)
  rkld_on, opd_k1        the reward ln p* - ln q*
Both training loops call it, on the values they gather at their tokens;
tests/oracles.py holds a plain-Python twin of each rule, one token at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError, InvalidParameterError, LogOfZeroError

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
    tag: Literal[ALL_TAGS]
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

    @property
    def samples(self) -> bool:
        """The rule reads a token sampled from the student: on-policy, hpd, hpd_no_reinforce."""
        return self.on_policy or self.tag in ("hpd", "hpd_no_reinforce")


def token_weights(kind: ObjectiveKind, p, lp, q, lq, tokens):
    """kind's weight on every token, elementwise in p, ln p, q and ln q gathered at them.

    The four arrays have tokens' shape, whatever it is: a minibatch, or every
    (context, token) pair of whole tables; so do the weights. HPD pairs the
    expert tokens[..., 0] with the q-sampled tokens[..., 1] and gives
    (w_star, w_sampled); hpd_no_sample reads the expert column alone, so its
    tokens may hold that column only, and it weighs any other column 0.
    On-policy, the caller checks the teacher's support. A rule that takes a
    log raises LogOfZeroError at the first token, in C order, where its
    argument is 0, trying its checks there in order. Off-policy, lq may be
    None: a rule that reads ln q then takes np.log of q once its checks have
    found q positive.
    """
    tag = kind.tag
    if tag in ("sft", "seqkd"):
        return np.ones(np.shape(tokens))
    if tag in ("fkld_token", "fkld_dense"):
        # fkld_dense puts p_v on every token v; the training loop sums them to p - q
        return p
    if kind.on_policy:
        return lp - lq
    if tag == "jsd_off":
        m = kind.beta * p + (1.0 - kind.beta) * q
        _check_positive(tokens, (m, "midpoint mixture is 0 at token {}"), (q, "q[{}] = 0"))
        w = (1.0 - kind.beta) * q * (np.log(m) - (np.log(q) if lq is None else lq))
        return -w if kind.sign_fidelity else w
    shape = np.shape(tokens)
    if tag == "hpd_no_sample":
        # the sampled token is ignored: the rule reads and checks the expert alone
        p, lp, q, tokens = p[..., :1], lp[..., :1], q[..., :1], tokens[..., :1]
        lq = None if lq is None else lq[..., :1]
    _check_positive(tokens, (p, "p[{}] = 0"), (q, "q[{}] = 0"))
    # the negative reverse k1 gap; positive iff q underestimates p
    k1 = q * (lp - (np.log(q) if lq is None else lq))
    if tag == "rkld_off":
        return -k1 if kind.sign_fidelity else k1
    return _hpd(tag, p, k1, tokens, shape)


def _hpd(variant: str, p, k1, tokens, shape=None):
    """HPD's (w_star, w_sampled) from p and rkld_off's k1 at (expert, sampled) pairs.

    The forward weight is k1* + r p*. r is 1, or 0 when k1 < 0 (k1 <= 0 for
    "hpd_no_sample", which ignores the sampled token and reads column 0
    alone), or 2 when k1 > 0 and the sampled token, not the expert, is
    suppressed (k1' < 0); the suppressed token takes weight k1'.
    "hpd_no_reinforce" drops the doubling. The weights have k1's shape, or
    hpd_no_sample's the given shape, whose columns after the first are 0.
    No operation mixes ints and floats: it would cast its operands, which at
    a step's size costs more than the arithmetic.
    """
    k1_star, p_star = k1[..., 0], p[..., 0]
    if variant == "hpd_no_sample":
        w = np.zeros(k1.shape if shape is None else shape)
        kept = k1_star > 0.0
    else:
        w = np.empty_like(k1)
        suppressed = (tokens[..., 1] != tokens[..., 0]) & (k1[..., 1] < 0.0)
        kept = k1_star >= 0.0
        if variant == "hpd":
            # 2 p* is p* + p* bit for bit
            p_star = np.where(suppressed & (k1_star > 0.0), p_star + p_star, p_star)
        w[..., 1] = np.where(suppressed, k1[..., 1], 0.0)
    # r = 0 keeps k1* as it is, a k1* of -0.0 included, where adding 0 p* would not
    w[..., 0] = np.where(kept, k1_star + p_star, k1_star)
    return w


def _check_positive(tokens, *checks) -> None:
    """LogOfZeroError at the first token, in C order, where a check's value is <= 0.

    Each check is (values, message template), values in tokens' shape, tried at
    one token in the given order; when all are positive, one min each decides.
    """
    for values, _ in checks:
        if not values.min() > 0.0:
            break
    else:
        return
    zero = np.stack([values <= 0.0 for values, _ in checks], axis=-1).ravel()
    if zero.any():
        i = int(np.argmax(zero))
        message = checks[i % len(checks)][1]
        raise LogOfZeroError(message.format(np.ravel(tokens)[i // len(checks)]))
