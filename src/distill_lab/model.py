"""Order-k tabular autoregressive logit model with exact analytic gradients.

Contexts are tuples of the last k token ids, left-padded with the vocab's
begin-of-sequence id. Every order-k table (a model's logits, a source's
conditionals, an accumulator's directions) is one dense (V**k, V) array whose
row i holds the context with id i: its tokens read as base-V digits, oldest
token most significant (prefix_id, context_key). So id order is sorted tuple
order, BOS padding is part of the id, a window that emits token t moves to
id (i * V + t) % V**k, and an order-m id's last k tokens are its id modulo
V**k (suffix_ids). walk is the one loop that moves ids that way.
Unseen contexts predict the uniform distribution (all-zero logit row).
A model decodes greedily here; sampling is data.MarkovSource.rollouts.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .errors import (
    InvalidInputError,
    LogOfZeroError,
    NumericOverflowError,
    ParseError,
)

CHECKPOINT_FORMAT_VERSION = 1

# the most floats (V**(k + 1)) one dense order-k table may hold: 32 MiB
MAX_TABLE_ENTRIES = 2**22

# the most floats one chunk of a file's rows holds as it is encoded (save_rows)
JSON_CHUNK_FLOATS = 1024

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


def pad_contexts(prompts, order: int, bos_id: int) -> np.ndarray:
    """Row i is pad_context(prompts[i], order, bos_id), as one (n, order) int64 array.

    prompts is a list of token-id sequences, or an (n, length) int array of n
    prompts of one length, which builds no Python object per prompt.
    """
    ctx = np.full((len(prompts), order), bos_id, dtype=np.int64)
    if isinstance(prompts, np.ndarray):
        tails = prompts[:, max(prompts.shape[1] - order, 0):]
        ctx[:, order - tails.shape[1]:] = tails
    elif order:
        tails = [p[-order:] for p in prompts]
        lengths = np.fromiter(map(len, tails), dtype=np.intp, count=len(tails))
        # row i's tail fills its last lengths[i] columns, in row-major order
        ctx[np.arange(order) >= order - lengths[:, None]] = np.fromiter(
            itertools.chain.from_iterable(tails), dtype=np.int64, count=int(lengths.sum()))
    return ctx


def prefix_ids(prompts, order: int, vocab: Vocab) -> np.ndarray:
    """prefix_id of every prompt, as one intp array.

    A token id outside vocab in some prompt's padded context is an
    InvalidInputError naming the first such context, as prefix_id names it.
    """
    try:
        ctx = pad_contexts(prompts, order, vocab.bos_id)
        ok = ((ctx >= 0) & (ctx < vocab.size)).all()
    except OverflowError:  # a token id too large for int64
        ok = False
    if not ok:
        for p in prompts:
            prefix_id(p, order, vocab)  # raises at the first bad context
    return ctx @ vocab.size ** np.arange(order - 1, -1, -1, dtype=np.intp)


def suffix_ids(ids, order: int, vocab_size: int) -> np.ndarray:
    """The id of the last `order` tokens of each context id in ids, of any order >= order."""
    return np.asarray(ids, dtype=np.intp) % vocab_size ** order


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
        # a position fewer than lag tokens in reads BOS; its wrapped gather is discarded
        ids = ids * vocab_size + np.where(offsets >= lag, tokens.take(back - lag, mode="wrap"),
                                          bos_id)
    return ids


def read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: an array kept to be shared."""
    a.setflags(write=False)
    return a


@cache
def _successors(order: int, vocab_size: int) -> np.ndarray:
    """(i * V) % V**k for every order-k context id i, read-only: i's id once it emits 0."""
    n = table_rows(vocab_size, order)
    return read_only(np.arange(n) * vocab_size % n)


def walk(start_ids, steps: int, order: int, vocab_size: int, pick):
    """(ids, tokens) of shape (n, steps): ids[:, t] is the context of tokens[:, t].

    Every order-k context id in start_ids advances in lockstep, by one gather of
    the successor table per step; pick(ids, t) gives the tokens emitted at step t.
    """
    ids = np.asarray(start_ids, dtype=np.intp)
    succ = _successors(order, vocab_size)
    out_ids = np.empty((ids.size, steps), dtype=np.intp)
    tokens = np.empty_like(out_ids)
    for t in range(steps):
        out_ids[:, t] = ids
        tokens[:, t] = tok = pick(ids, t)
        if order:  # an order-0 context never changes
            ids = succ[ids] + tok
    return out_ids, tokens


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

    def greedy_rollouts(self, prompts, steps: int) -> list[list[int]]:
        """`steps` greedy tokens after each prompt, every rollout one position per step.

        Each step is one row-wise argmax of the rollouts' logit rows, so a tie
        goes to the lowest token id; no randomness is drawn.
        """
        if steps < 1:
            raise InvalidInputError("steps must be >= 1")
        ids = prefix_ids(prompts, self.order, self.vocab)
        _, out = walk(ids, steps, self.order, self.vocab.size,
                      lambda ids, t: np.argmax(self.table.take(ids, axis=0), axis=1))
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
    The accumulator holds sums only: sgd_step divides them by the positions
    the batch drew, which its caller passes.
    """

    order: int
    vocab_size: int
    directions: np.ndarray = field(init=False, repr=False)
    touched: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = table_rows(self.vocab_size, self.order)
        self.directions = np.full((n, self.vocab_size), -0.0)
        self.touched = np.zeros(n, dtype=bool)
        self._columns = np.arange(self.vocab_size)

    def clear(self) -> None:
        self._clear_rows(np.flatnonzero(self.touched))

    def _clear_rows(self, ids) -> None:
        """clear, given ids (or rows_at's slice of them): every row touched since the last
        clear."""
        self.directions[ids] = -0.0
        self.touched[ids] = False

    def scatter_index(self, ids) -> np.ndarray:
        """add_rows' flat scatter index of ids, of any shape: entry [..., v] is
        element ids[...] * V + v of the flattened table."""
        return np.asarray(ids, dtype=np.intp)[..., None] * self.vocab_size + self._columns

    def add_rows(self, ids, directions: np.ndarray, index=None) -> None:
        """Add directions[j] to row ids[j] for j = 0, 1, ... in turn.

        One flat scatter: entry (j, v) goes to element ids[j] * V + v of the
        flattened table. np.add.at applies 1-d indices unbuffered and in order,
        so every element sums its contributions in batch order, bit for bit as
        a row-by-row loop would. index, when given, is scatter_index(ids),
        computed ahead by the caller.
        """
        ids = np.asarray(ids, dtype=np.intp)
        if index is None:
            index = self.scatter_index(ids)
        np.add.at(self.directions.reshape(-1), index.reshape(-1),
                  np.asarray(directions, dtype=np.float64).reshape(-1))
        self.touched[ids] = True


def accumulate_token_grads(acc: GradAccumulator, ids, tokens, weights,
                           q: np.ndarray) -> GradAccumulator:
    """For j in order, add weights[j] * (onehot(tokens[j]) - q[j]) to row ids[j].

    That is the exact descent direction of -weights[j] * ln q[j][tokens[j]];
    the weight is a constant (no derivative flows through it). ids holds
    context ids; q is an (n, V) array of probabilities, row j the predictive
    distribution at ids[j]. A zero weight adds nothing and touches no row.
    The weights must be finite, the tokens in range and every
    q[j][tokens[j]] > 0; then add_token_grads does the work.
    """
    ids = np.asarray(ids, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    tokens = np.asarray(tokens)
    if not np.isfinite(weights).all():
        raise InvalidInputError("weight must be finite")
    outside = (tokens < 0) | (tokens >= q.shape[-1])
    if outside.any():
        raise InvalidInputError(f"token id {tokens[np.argmax(outside)]} out of range")
    check_token_support(q[np.arange(tokens.size), tokens], ids, tokens, acc.order,
                        acc.vocab_size)
    return add_token_grads(acc, ids, tokens, weights, q)


def check_token_support(q_at: np.ndarray, ids, tokens, order: int, vocab_size: int) -> None:
    """LogOfZeroError at the first j with q_at[j] <= 0, naming tokens[j] and context ids[j].

    q_at[j] is the student's probability of tokens[j] at the order-k context
    id ids[j]: ln q_at[j] is the log-likelihood a token gradient descends.
    """
    zero = q_at <= 0.0
    if zero.any():
        j = int(np.argmax(zero))
        ctx = context_key(ids[j], order, vocab_size)
        raise LogOfZeroError(f"q[{tokens[j]}] = 0 at context {ctx}")


@lru_cache(maxsize=16)  # a run steps with one batch shape; bounded, as m comes from callers
def _row_starts(m: int, vocab_size: int) -> np.ndarray:
    """j * V for j < m, read-only: where row j of m flattened V-wide rows starts."""
    return read_only(np.arange(0, m * vocab_size, vocab_size))


def add_token_grads(acc: GradAccumulator, ids: np.ndarray, tokens: np.ndarray,
                    weights: np.ndarray, q: np.ndarray, index=None) -> GradAccumulator:
    """accumulate_token_grads without its checks: the unchecked gradient kernel.

    ids must be an intp and weights a float64 array. The caller guarantees
    what the public entry would check: every weight finite, every token in
    range and q[j][tokens[j]] > 0. The arithmetic is the public entry's own,
    so both leave acc bit for bit the same; a zero weight is left out of the
    scatter, so it adds nothing and touches no row. A caller that knows the
    ids ahead may pass index, acc.scatter_index(ids).
    """
    m, v = q.shape
    direction = -weights[:, None] * q
    # the one-hot term: entry (j, tokens[j]) is element j * V + tokens[j] of the flat rows
    direction.reshape(-1)[_row_starts(m, v) + tokens] += weights
    if np.count_nonzero(weights) < m:
        keep = weights != 0.0
        ids, direction = ids[keep], direction[keep]
        index = None if index is None else index[keep]
    acc.add_rows(ids, direction, index)
    return acc


def rows_at(ids: np.ndarray, n: int) -> np.ndarray | slice:
    """How to index the rows ids of an n-row table: slice(None) when they are every
    row, else ids itself.

    ids must be distinct row ids, so ids.size == n only when they are all n
    rows. A slice then reads and writes the same rows with the same arithmetic
    as the row gather and scatter of ids, only without integer-array indexing,
    so every value it leaves is bit for bit the same.
    """
    return slice(None) if ids.size == n else ids


def sgd_step(model: TabularLM, acc: GradAccumulator, lr: float, n: int) -> np.ndarray:
    """Move every touched logit row by lr / n * its summed descent direction; clears acc.

    n is the number of positions the batch drew, so the step is lr times the
    batch mean; n < 1 is an InvalidInputError. Returns the ids of the rows it
    moved, in ascending order: acc's touched rows. A non-finite result raises
    NumericOverflowError, naming the first such context in id order, and
    leaves the model as it was.
    """
    if lr <= 0.0:
        raise InvalidInputError("learning rate must be > 0")
    if n < 1:
        raise InvalidInputError(f"a step needs at least one drawn position, got n={n}")
    if acc.directions.shape != model.table.shape:
        raise InvalidInputError("accumulator and model tables differ in shape")
    ids = acc.touched.nonzero()[0]
    at = rows_at(ids, len(model.table))
    if ids.size:
        if at is ids:
            rows = model.table.take(ids, axis=0) + lr / n * acc.directions.take(ids, axis=0)
        else:
            rows = model.table + lr / n * acc.directions
        if not np.isfinite(rows).all():
            first = np.argmin(np.isfinite(rows).all(axis=1))
            ctx = context_key(ids[first], model.order, model.vocab.size)
            raise NumericOverflowError(f"non-finite logits at context {ctx}")
        model.table[at] = rows
        model.touched[at] = True
    acc._clear_rows(at)
    return ids


def checkpoint_save(model: TabularLM, path, header_extra: dict | None = None) -> None:
    """Write the model as JSON; float repr keeps 17 significant digits."""
    head = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "order": model.order,
        "vocab": {"names": list(model.vocab.names), "bos_id": model.vocab.bos_id},
    }
    save_rows(path, head, np.flatnonzero(model.touched), model.table, "logits", model.order,
              header_extra)


def save_rows(path, head: dict, ids: np.ndarray, table: np.ndarray, name: str, order: int,
              header_extra: dict | None) -> None:
    """Write json.dump's text of head, a "rows" list and header_extra, then a newline.

    Row j of the list is {"context": context_key(ids[j]), name: table[ids[j]]}.
    header_extra's keys update the document as dict.update does: a key of head
    (or "rows") keeps its place and takes the new value, any other comes last.
    The rows are encoded by json.dumps, chunk by chunk of at most
    JSON_CHUNK_FLOATS floats (or one row): the file is the one-shot text, and
    no more than one chunk's text is held at once.
    """
    rows = object()  # stands for the row list until it is written
    doc = {**head, "rows": rows, **(header_extra or {})}
    v = table.shape[1]
    per = max(1, JSON_CHUNK_FLOATS // v)
    place = v ** np.arange(order - 1, -1, -1)  # the base-V digits of a context id
    with open(path, "w", encoding="utf-8") as f:
        f.write("{")
        for i, (key, value) in enumerate(doc.items()):
            f.write(", " if i else "")
            if value is not rows:
                f.write(json.dumps({key: value})[1:-1])
                continue
            f.write('"rows": [')
            for lo in range(0, ids.size, per):
                chunk = ids[lo:lo + per]
                contexts = (chunk[:, None] // place % v).tolist()
                f.write((", " if lo else "") + json.dumps(
                    [{"context": c, name: r}
                     for c, r in zip(contexts, table.take(chunk, axis=0).tolist())])[1:-1])
            f.write("]")
        f.write("}\n")


def load_rows(entries, order: int, vocab: Vocab, parse) -> tuple[np.ndarray, np.ndarray]:
    """(ids, rows) of a file's context rows; a context listed twice keeps its last row.

    parse(i, entry) gives entry i's (context, row of vocab.size floats) or
    raises. The ids are one prefix_ids call over every context, and the first
    bad entry raises, as parsing and prefix_id entry by entry would: an
    earlier entry's out-of-range token id comes before a later entry's error.
    """
    ctxs, rows = [], []
    for i, entry in enumerate(entries):
        try:
            ctx, row = parse(i, entry)
        except (KeyError, TypeError, ValueError):
            prefix_ids(ctxs, order, vocab)
            raise
        ctxs.append(ctx)
        rows.append(row)
    ids = prefix_ids(ctxs, order, vocab)
    last = ids.size - 1 - np.unique(ids[::-1], return_index=True)[1]
    return ids[last], np.reshape(rows, (len(rows), vocab.size))[last]


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

        def parse(i, entry):
            ctx = tuple(int(t) for t in entry["context"])
            row = np.asarray(entry["logits"], dtype=np.float64)
            if len(ctx) != model.order:
                raise ParseError(f"{path}: rows[{i}]: context length != order")
            if row.shape != (vocab.size,) or not np.all(np.isfinite(row)):
                raise ParseError(f"{path}: rows[{i}]: bad logit row")
            return ctx, row

        ids, rows = load_rows(doc["rows"], model.order, vocab, parse)
        model.table[ids] = rows
        model.touched[ids] = True
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"{path}: malformed checkpoint: {e}") from e
    return model
