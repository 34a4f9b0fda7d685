"""Order-k tabular autoregressive logit model with exact analytic gradients.

Contexts are tuples of the last k token ids, left-padded with the vocab's
begin-of-sequence id. Unseen contexts predict the uniform distribution
(all-zero logit row).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInputError,
    LogOfZeroError,
    NumericOverflowError,
    ParseError,
)
from .numerics import CategoricalDist, inverse_cdf, softmax

CHECKPOINT_FORMAT_VERSION = 1

ContextKey = tuple[int, ...]


@dataclass(frozen=True)
class Vocab:
    names: tuple[str, ...]
    bos_id: int = 0

    def __post_init__(self):
        if len(self.names) < 2:
            raise InvalidInputError("vocabulary needs at least 2 tokens")
        if len(set(self.names)) != len(self.names):
            raise InvalidInputError("token names must be unique")
        if not (0 <= self.bos_id < len(self.names)):
            raise InvalidInputError("bos_id out of range")

    @classmethod
    def default(cls, size: int) -> "Vocab":
        return cls(names=tuple(f"t{i}" for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.names)


def pad_context(prefix, order: int, bos_id: int) -> ContextKey:
    """Last `order` ids of prefix, left-padded with the BOS id."""
    tail = tuple(int(t) for t in prefix[-order:]) if order > 0 else ()
    if len(tail) < order:
        tail = (bos_id,) * (order - len(tail)) + tail
    return tail


def context_ids(tokens: np.ndarray, offsets: np.ndarray, order: int, bos_id: int,
                vocab_size: int) -> tuple[list[ContextKey], np.ndarray]:
    """pad_context at every position of a flattened corpus, as distinct keys and indices.

    tokens holds the corpus's sequences end to end, every id in range;
    offsets[j] is position j's index within its sequence. Returns (keys,
    ids) with keys[ids[j]] == pad_context(seq[:offsets[j]], order, bos_id).
    Each pass appends one older token to the keys seen so far and renumbers
    the distinct results, so no index exceeds len(keys) * vocab_size.
    """
    keys: list[ContextKey] = [()]
    ids = np.zeros(tokens.size, dtype=np.intp)
    back = np.arange(tokens.size)
    for lag in range(order, 0, -1):  # a key lists its oldest token first
        code = ids * vocab_size + np.where(offsets >= lag, tokens[back - lag], bos_id)
        present = np.flatnonzero(np.bincount(code, minlength=len(keys) * vocab_size))
        renumber = np.zeros(len(keys) * vocab_size, dtype=np.intp)
        renumber[present] = np.arange(present.size)
        ids = renumber[code]
        keys = [keys[c // vocab_size] + (c % vocab_size,) for c in present.tolist()]
    return keys, ids


@dataclass
class TabularLM:
    order: int
    vocab: Vocab
    rows: dict[ContextKey, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 1:
            raise InvalidInputError("model order must be >= 1")

    def _check_ctx(self, ctx: ContextKey) -> ContextKey:
        ctx = tuple(int(t) for t in ctx)
        if len(ctx) != self.order:
            raise InvalidInputError(
                f"context length {len(ctx)} != model order {self.order}"
            )
        if any(not (0 <= t < self.vocab.size) for t in ctx):
            raise InvalidInputError(f"context {ctx} has out-of-range token ids")
        return ctx

    def logits(self, ctx: ContextKey) -> np.ndarray:
        ctx = self._check_ctx(ctx)
        row = self.rows.get(ctx)
        if row is None:
            return np.zeros(self.vocab.size)
        return row.copy()

    def set_row(self, ctx: ContextKey, logits) -> None:
        ctx = self._check_ctx(ctx)
        row = np.asarray(logits, dtype=np.float64)
        if row.shape != (self.vocab.size,) or not np.all(np.isfinite(row)):
            raise InvalidInputError("logit row must be finite and of vocab size")
        self.rows[ctx] = row.copy()

    def predict(self, ctx: ContextKey, temperature: float = 1.0) -> CategoricalDist:
        z = self.logits(ctx)
        if temperature != 1.0:
            if temperature <= 0.0:
                raise InvalidInputError("temperature must be > 0 (use greedy=True for argmax)")
            z = z / temperature
        return softmax(z)

    def _logit_rows(self, ctxs) -> np.ndarray:
        zero = np.zeros(self.vocab.size)
        return np.reshape([self.rows.get(ctx, zero) for ctx in ctxs], (-1, self.vocab.size))

    def predict_batch(self, ctxs) -> CategoricalDist:
        """predict at each of ctxs, keys already in range: row i is for ctxs[i]."""
        return softmax(self._logit_rows(ctxs))

    def sample_next(
        self, ctx: ContextKey, rng: np.random.Generator, temperature: float = 1.0
    ) -> int:
        return self.rollouts([self._check_ctx(ctx)], 1, rng, temperature=temperature)[0][0]

    def greedy_next(self, ctx: ContextKey) -> int:
        return int(np.argmax(self.logits(ctx)))

    def context_for(self, prefix) -> ContextKey:
        return pad_context(prefix, self.order, self.vocab.bos_id)

    def rollout(
        self,
        prompt,
        steps: int,
        rng: np.random.Generator | None = None,
        temperature: float = 1.0,
        greedy: bool = False,
    ) -> list[int]:
        """Extend prompt by `steps` autoregressively sampled (or greedy) tokens."""
        if steps < 1:
            raise InvalidInputError("steps must be >= 1")
        if not greedy:
            if rng is None:
                raise InvalidInputError("sampled rollout needs an rng")
            return self.rollouts([prompt], steps, rng, temperature=temperature)[0]
        seq = [int(t) for t in prompt]
        for _ in range(steps):
            seq.append(self.greedy_next(self.context_for(seq)))
        return seq[len(prompt):]

    def rollouts(self, prompts, steps: int, rng: np.random.Generator,
                 temperature: float = 1.0) -> list[list[int]]:
        """`steps` sampled tokens after each prompt, every rollout one position per step.

        Rollout i is drawn with row i of rng.random((len(prompts), steps)), so the
        result equals sampling the prompts in turn with one Generator.choice per
        token from softmax(logits / temperature).
        """
        if steps < 1:
            raise InvalidInputError("steps must be >= 1")
        k = self.order
        # the last k prompt tokens are every prompt token a context will ever hold
        start_ctxs = [self._check_ctx(self.context_for(p)) for p in prompts]
        if temperature <= 0.0:
            raise InvalidInputError("temperature must be > 0 (use greedy=True for argmax)")
        if not start_ctxs:
            return []
        window = np.empty((len(start_ctxs), k + steps), dtype=np.intp)
        window[:, :k] = start_ctxs
        u = rng.random((len(start_ctxs), steps))
        for t in range(steps):
            z = self._logit_rows(map(tuple, window[:, t:t + k].tolist()))
            if temperature != 1.0:
                z = z / temperature
            window[:, k + t] = inverse_cdf(softmax(z).probs, u[:, t])
        return window[:, k:].tolist()

    def copy(self) -> "TabularLM":
        return TabularLM(
            order=self.order,
            vocab=self.vocab,
            rows={k: v.copy() for k, v in self.rows.items()},
        )


@dataclass
class GradAccumulator:
    """Per-row accumulated descent directions plus a sample count.

    `n_samples` counts token positions (one per accumulated token with
    count 1); sgd_step averages by it so the learning-rate scale is
    independent of batch size.
    """

    directions: dict[ContextKey, np.ndarray] = field(default_factory=dict)
    n_samples: int = 0

    def clear(self) -> None:
        self.directions = {}
        self.n_samples = 0

    def add_row(self, ctx: ContextKey, direction: np.ndarray, count: int = 1) -> None:
        self.add_rows([ctx], np.asarray(direction, dtype=np.float64)[None], count)

    def add_rows(self, ctxs, directions: np.ndarray, count: int) -> None:
        """Add directions[j] to ctxs[j]'s row for j = 0, 1, ... in turn; count to n_samples.

        Rows new to the accumulator join it in the order they are first touched.
        """
        slot = {ctx: i for i, ctx in enumerate(dict.fromkeys(ctxs))}
        # -0.0 + x == x for every x, so a new row starts as exactly its first direction
        sums = np.full((len(slot), directions.shape[-1]), -0.0)
        for ctx, i in slot.items():
            if ctx in self.directions:
                sums[i] = self.directions[ctx]
        np.add.at(sums, np.array([slot[ctx] for ctx in ctxs], dtype=np.intp), directions)
        for ctx, i in slot.items():
            self.directions[ctx] = sums[i]
        self.n_samples += count


def accumulate_token_grad(
    acc: GradAccumulator,
    model: TabularLM,
    ctx: ContextKey,
    token: int,
    weight: float,
    count: int = 1,
    q: "CategoricalDist | None" = None,
) -> GradAccumulator:
    """Add the exact descent direction of -weight * ln q[token] on ctx's row.

    The one-token case of accumulate_token_grads. Pass q to reuse an already
    computed predictive distribution for ctx.
    """
    ctx = model._check_ctx(ctx)
    if q is None:
        q = model.predict(ctx)
    return accumulate_token_grads(acc, [ctx], [token], [weight], [count],
                                  CategoricalDist.stack([q]))


def accumulate_token_grads(acc: GradAccumulator, ctxs, tokens, weights, counts,
                           q: CategoricalDist) -> GradAccumulator:
    """For j in order, add weights[j] * (onehot(tokens[j]) - q[j]) to ctxs[j]'s row.

    That is the exact descent direction of -weights[j] * ln q[j][tokens[j]];
    the weight is a constant (no derivative flows through it). q is a batch
    with row j the predictive distribution at ctxs[j]; counts[j] adds to
    acc.n_samples. A zero weight touches no row and counts nothing.
    """
    weights = np.asarray(weights, dtype=np.float64)
    tokens = np.asarray(tokens)
    if not np.isfinite(weights).all():
        raise InvalidInputError("weight must be finite")
    outside = (tokens < 0) | (tokens >= q.probs.shape[-1])
    if outside.any():
        raise InvalidInputError(f"token id {tokens[np.argmax(outside)]} out of range")
    zero = q.probs[np.arange(tokens.size), tokens] <= 0.0
    if zero.any():
        j = int(np.argmax(zero))
        raise LogOfZeroError(f"q[{tokens[j]}] = 0 at context {ctxs[j]}")
    keep = weights != 0.0
    w = weights[keep]
    direction = -w[:, None] * q.probs[keep]
    direction[np.arange(w.size), tokens[keep]] += w
    acc.add_rows([ctx for ctx, k in zip(ctxs, keep.tolist()) if k], direction,
                 int(np.sum(np.asarray(counts)[keep])))
    return acc


def sgd_step(model: TabularLM, acc: GradAccumulator, lr: float) -> TabularLM:
    """Move every touched logit row by lr * mean descent direction; clears acc."""
    if lr <= 0.0:
        raise InvalidInputError("learning rate must be > 0")
    if acc.n_samples > 0:
        scale = lr / acc.n_samples
        for ctx, direction in acc.directions.items():
            row = model.logits(ctx) + scale * direction
            if not np.all(np.isfinite(row)):
                raise NumericOverflowError(f"non-finite logits at context {ctx}")
            model.rows[ctx] = row
    acc.clear()
    return model


def checkpoint_save(model: TabularLM, path, header_extra: dict | None = None) -> None:
    """Write the model as JSON; float repr keeps 17 significant digits."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "order": model.order,
        "vocab": {"names": list(model.vocab.names), "bos_id": model.vocab.bos_id},
        "rows": [
            {"context": list(ctx), "logits": [float(x) for x in row]}
            for ctx, row in sorted(model.rows.items())
        ],
    }
    if header_extra:
        doc.update(header_extra)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def checkpoint_load(path) -> TabularLM:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    try:
        version = doc["format_version"]
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ParseError(f"{path}: unsupported format_version {version}")
        vocab = Vocab(names=tuple(doc["vocab"]["names"]), bos_id=int(doc["vocab"]["bos_id"]))
        model = TabularLM(order=int(doc["order"]), vocab=vocab)
        for i, entry in enumerate(doc["rows"]):
            ctx = tuple(int(t) for t in entry["context"])
            row = np.asarray(entry["logits"], dtype=np.float64)
            if len(ctx) != model.order:
                raise ParseError(f"{path}: rows[{i}]: context length != order")
            if row.shape != (vocab.size,) or not np.all(np.isfinite(row)):
                raise ParseError(f"{path}: rows[{i}]: bad logit row")
            model.rows[ctx] = row
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"{path}: malformed checkpoint: {e}") from e
    return model
