"""Order-k tabular autoregressive logit model with exact analytic gradients.

Contexts are tuples of the last k token ids, left-padded with the vocab's
begin-of-sequence id. Every order-k table (a model's logits, a source's
conditionals, an accumulator's directions) is one dense (V**k, V) array whose
row i holds the context with id i: its tokens read as base-V digits, oldest
token most significant (prefix_id, context_key). So id order is sorted tuple
order, BOS padding is part of the id, and a window that emits token t moves to
id (i * V + t) % V**k.
Unseen contexts predict the uniform distribution (all-zero logit row).
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

# the most floats (V**(k + 1)) one dense order-k table may hold: 32 MiB
MAX_TABLE_ENTRIES = 2**22

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


def table_rows(vocab_size: int, order: int) -> int:
    """V**k, the row count of a dense order-k table, once its size is checked."""
    if order < 0:
        raise InvalidInputError("order must be >= 0")
    # V >= 2 makes V**(k+1) too large for every k this first test catches
    if (order >= MAX_TABLE_ENTRIES.bit_length()
            or vocab_size ** (order + 1) > MAX_TABLE_ENTRIES):
        raise InvalidInputError(
            f"a dense table for vocabulary size V={vocab_size} and order k={order} holds "
            f"V**(k+1) floats, more than {MAX_TABLE_ENTRIES}")
    return vocab_size ** order


def pad_context(prefix, order: int, bos_id: int) -> ContextKey:
    """Last `order` ids of prefix, left-padded with the BOS id."""
    tail = tuple(int(t) for t in prefix[-order:]) if order > 0 else ()
    if len(tail) < order:
        tail = (bos_id,) * (order - len(tail)) + tail
    return tail


def prefix_id(prefix, order: int, vocab: Vocab) -> int:
    """The id of prefix's padded context; a token id outside vocab is an InvalidInputError."""
    ctx = pad_context(prefix, order, vocab.bos_id)
    cid = 0
    for tok in ctx:
        if not 0 <= tok < vocab.size:
            raise InvalidInputError(f"context {ctx} has out-of-range token ids")
        cid = cid * vocab.size + tok
    return cid


def context_key(cid: int, order: int, vocab_size: int) -> ContextKey:
    """The context whose id is cid."""
    return tuple(int(t) for t in np.unravel_index(cid, (vocab_size,) * order))


def context_ids(tokens: np.ndarray, offsets: np.ndarray, order: int, bos_id: int,
                vocab_size: int) -> np.ndarray:
    """The id of pad_context at every position of a flattened corpus.

    tokens holds the corpus's sequences end to end, every id in range;
    offsets[j] is position j's index within its sequence.
    """
    ids = np.zeros(tokens.size, dtype=np.intp)
    back = np.arange(tokens.size)
    for lag in range(order, 0, -1):  # the oldest token is the most significant digit
        ids = ids * vocab_size + np.where(offsets >= lag, tokens[back - lag], bos_id)
    return ids


@dataclass(eq=False)
class TabularLM:
    """table[i] is the logit row of context id i; touched marks the rows ever set.

    Only touched rows are written to a checkpoint.
    """

    order: int
    vocab: Vocab
    table: np.ndarray = field(init=False, repr=False)
    touched: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.order < 1:
            raise InvalidInputError("model order must be >= 1")
        n = table_rows(self.vocab.size, self.order)
        self.table = np.zeros((n, self.vocab.size))
        self.touched = np.zeros(n, dtype=bool)

    def _check_ctx(self, ctx: ContextKey) -> int:
        """ctx's id, once its length and token ids are checked."""
        ctx = tuple(ctx)
        if len(ctx) != self.order:
            raise InvalidInputError(
                f"context length {len(ctx)} != model order {self.order}"
            )
        return prefix_id(ctx, self.order, self.vocab)

    def logits(self, ctx: ContextKey) -> np.ndarray:
        return self.table[self._check_ctx(ctx)].copy()

    def set_row(self, ctx: ContextKey, logits) -> None:
        cid = self._check_ctx(ctx)
        row = np.asarray(logits, dtype=np.float64)
        if row.shape != (self.vocab.size,) or not np.all(np.isfinite(row)):
            raise InvalidInputError("logit row must be finite and of vocab size")
        self.table[cid] = row
        self.touched[cid] = True

    def predict(self, ctx: ContextKey, temperature: float = 1.0) -> CategoricalDist:
        z = self.logits(ctx)
        if temperature != 1.0:
            if temperature <= 0.0:
                raise InvalidInputError("temperature must be > 0 (use greedy=True for argmax)")
            z = z / temperature
        return softmax(z)

    def predict_batch(self, ids) -> CategoricalDist:
        """predict at each context id: row i is for ids[i]."""
        return softmax(self.table[ids])

    def sample_next(
        self, ctx: ContextKey, rng: np.random.Generator, temperature: float = 1.0
    ) -> int:
        self._check_ctx(ctx)
        return self.rollouts([ctx], 1, rng, temperature=temperature)[0][0]

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
        cid = prefix_id(prompt, self.order, self.vocab)
        out = []
        for _ in range(steps):
            out.append(int(np.argmax(self.table[cid])))
            cid = (cid * self.vocab.size + out[-1]) % len(self.table)
        return out

    def rollouts(self, prompts, steps: int, rng: np.random.Generator,
                 temperature: float = 1.0) -> list[list[int]]:
        """`steps` sampled tokens after each prompt, every rollout one position per step.

        Rollout i is drawn with row i of rng.random((len(prompts), steps)), so the
        result equals sampling the prompts in turn with one Generator.choice per
        token from softmax(logits / temperature).
        """
        if steps < 1:
            raise InvalidInputError("steps must be >= 1")
        # the last k prompt tokens are every prompt token a context will ever hold
        ids = np.array([prefix_id(p, self.order, self.vocab) for p in prompts], dtype=np.intp)
        if temperature <= 0.0:
            raise InvalidInputError("temperature must be > 0 (use greedy=True for argmax)")
        if not ids.size:
            return []
        out = np.empty((ids.size, steps), dtype=np.intp)
        u = rng.random(out.shape)
        for t in range(steps):
            z = self.table[ids]
            if temperature != 1.0:
                z = z / temperature
            out[:, t] = inverse_cdf(softmax(z).probs, u[:, t])
            ids = (ids * self.vocab.size + out[:, t]) % len(self.table)
        return out.tolist()

    def copy(self) -> "TabularLM":
        model = TabularLM(order=self.order, vocab=self.vocab)
        model.table[:] = self.table
        model.touched[:] = self.touched
        return model


@dataclass(eq=False)
class GradAccumulator:
    """Accumulated descent directions of an order-k model, one row per context id.

    touched marks the rows added to since the last clear. Rows start at -0.0,
    and -0.0 + x == x for every x, so a row's first direction is kept exactly.
    `n_samples` counts token positions (one per accumulated token with
    count 1); sgd_step averages by it so the learning-rate scale is
    independent of batch size.
    """

    order: int
    vocab_size: int
    directions: np.ndarray = field(init=False, repr=False)
    touched: np.ndarray = field(init=False, repr=False)
    n_samples: int = field(default=0, init=False)

    def __post_init__(self):
        n = table_rows(self.vocab_size, self.order)
        self.directions = np.full((n, self.vocab_size), -0.0)
        self.touched = np.zeros(n, dtype=bool)
        self._columns = np.arange(self.vocab_size)

    def clear(self) -> None:
        self.directions[self.touched] = -0.0
        self.touched[:] = False
        self.n_samples = 0

    def add_row(self, ctx: ContextKey, direction: np.ndarray, count: int = 1) -> None:
        self.add_rows(self._ids([ctx]), np.asarray(direction, dtype=np.float64)[None], count)

    def add_rows(self, ids, directions: np.ndarray, count: int) -> None:
        """Add directions[j] to row ids[j] for j = 0, 1, ... in turn; count to n_samples.

        One flat scatter: entry (j, v) goes to element ids[j] * V + v of the
        flattened table. np.add.at applies 1-d indices unbuffered and in order,
        so every element sums its contributions in batch order, bit for bit as
        a row-by-row loop would.
        """
        ids = np.asarray(ids, dtype=np.intp)
        flat = (ids[:, None] * self.vocab_size + self._columns).ravel()
        np.add.at(self.directions.reshape(-1), flat,
                  np.asarray(directions, dtype=np.float64).reshape(-1))
        self.touched[ids] = True
        self.n_samples += count

    def _ids(self, ctxs) -> np.ndarray:
        """ctxs as row ids: ids pass through, context tuples become theirs."""
        ids = np.asarray(ctxs, dtype=np.intp)
        if ids.ndim == 2:
            ids = np.ravel_multi_index(tuple(ids.T), (self.vocab_size,) * self.order)
        return ids


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
    cid = model._check_ctx(ctx)
    if q is None:
        q = model.predict(ctx)
    return accumulate_token_grads(acc, [cid], [token], [weight], [count],
                                  CategoricalDist.stack([q]))


def accumulate_token_grads(acc: GradAccumulator, ctxs, tokens, weights, counts,
                           q: CategoricalDist) -> GradAccumulator:
    """For j in order, add weights[j] * (onehot(tokens[j]) - q[j]) to ctxs[j]'s row.

    That is the exact descent direction of -weights[j] * ln q[j][tokens[j]];
    the weight is a constant (no derivative flows through it). ctxs holds
    context ids or context tuples; q is a batch with row j the predictive
    distribution at ctxs[j]; counts[j] adds to acc.n_samples. A zero weight
    touches no row and counts nothing.
    """
    ids = acc._ids(ctxs)
    weights = np.asarray(weights, dtype=np.float64)
    tokens = np.asarray(tokens)
    if not np.isfinite(weights).all():
        raise InvalidInputError("weight must be finite")
    outside = (tokens < 0) | (tokens >= q.probs.shape[-1])
    if outside.any():
        raise InvalidInputError(f"token id {tokens[np.argmax(outside)]} out of range")
    rows = np.arange(tokens.size)
    zero = q.probs[rows, tokens] <= 0.0
    if zero.any():
        j = int(np.argmax(zero))
        ctx = context_key(ids[j], acc.order, acc.vocab_size)
        raise LogOfZeroError(f"q[{tokens[j]}] = 0 at context {ctx}")
    direction = -weights[:, None] * q.probs
    direction[rows, tokens] += weights
    keep = weights != 0.0
    if not keep.all():
        ids, direction, counts = ids[keep], direction[keep], np.asarray(counts)[keep]
    acc.add_rows(ids, direction, int(np.sum(counts)))
    return acc


def sgd_step(model: TabularLM, acc: GradAccumulator, lr: float) -> np.ndarray:
    """Move every touched logit row by lr * mean descent direction; clears acc.

    Returns the ids of the rows it moved, in ascending order: acc's touched
    rows, or none when acc.n_samples is 0, which leaves the model as it was.
    A non-finite result raises NumericOverflowError, naming the first such
    context in id order, and leaves the model as it was.
    """
    if lr <= 0.0:
        raise InvalidInputError("learning rate must be > 0")
    if acc.directions.shape != model.table.shape:
        raise InvalidInputError("accumulator and model tables differ in shape")
    if acc.n_samples > 0:
        ids = np.flatnonzero(acc.touched)
        rows = model.table[ids] + lr / acc.n_samples * acc.directions[ids]
        if not np.isfinite(rows).all():
            first = np.argmin(np.isfinite(rows).all(axis=1))
            ctx = context_key(ids[first], model.order, model.vocab.size)
            raise NumericOverflowError(f"non-finite logits at context {ctx}")
        model.table[ids] = rows
        model.touched[ids] = True
    else:
        ids = np.empty(0, dtype=np.intp)
    acc.clear()
    return ids


def checkpoint_save(model: TabularLM, path, header_extra: dict | None = None) -> None:
    """Write the model as JSON; float repr keeps 17 significant digits."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "order": model.order,
        "vocab": {"names": list(model.vocab.names), "bos_id": model.vocab.bos_id},
        "rows": [
            {"context": list(context_key(cid, model.order, model.vocab.size)),
             "logits": [float(x) for x in model.table[cid]]}
            for cid in np.flatnonzero(model.touched).tolist()
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
            cid = prefix_id(ctx, model.order, vocab)
            model.table[cid] = row
            model.touched[cid] = True
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"{path}: malformed checkpoint: {e}") from e
    return model
