"""Order-k tabular autoregressive logit model with exact analytic gradients.

Contexts are tuples of the last k token ids, left-padded with the vocab's
begin-of-sequence id. Every order-k table (a model's logits, a source's
conditionals) is one dense (V**k, V) array whose row i holds the context
with id i: its tokens read as base-V digits, oldest token most significant
(prefix_id, context_key). So id order is sorted tuple order, BOS padding is
part of the id, a window that emits token t moves to id (i * V + t) % V**k,
and an order-m id's last k tokens are its id modulo V**k (suffix_ids). walk
is the one loop that moves ids that way. Unseen contexts predict the uniform
distribution (all-zero logit row). A model decodes greedily here; sampling
is data.MarkovSource.rollouts.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (
    InvalidInputError,
    LogOfZeroError,
    NumericOverflowError,
    ParseError,
)

# the version of a table file: a checkpoint's or a source's (save_rows, load_table)
TABLE_FORMAT_VERSION = 1

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
    """table[i] is the logit row of context id i.

    touched, computed from the table on each read, marks its rows that hold a
    nonzero logit; a checkpoint lists those rows only. So a row of zeros of
    either sign is not listed, and loads back as +0.0.
    """

    order: int
    vocab: Vocab
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.order < 1:
            raise InvalidInputError("model order must be >= 1")
        n = table_rows(self.vocab.size, self.order)
        self.table = np.zeros((n, self.vocab.size))

    @property
    def touched(self) -> np.ndarray:
        """Whether each row holds a nonzero logit; read-only, so a write to it fails."""
        return read_only(self.table.any(axis=1))

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
        return model


@dataclass(frozen=True)
class TokenStep:
    """One SGD step's update: directions[r] is the summed descent direction of row ids[r].

    ids are the rows the step moves, distinct and ascending; directions is
    their (len(ids), V) array. token_step builds one from a batch's tokens.
    """

    ids: np.ndarray
    directions: np.ndarray


def token_step(ids: np.ndarray, tokens: np.ndarray, weights: np.ndarray,
               q: np.ndarray) -> TokenStep:
    """The summed descent direction of sum_j -weights[j] * ln q[ids[j], tokens[j]], as a
    count table: the unchecked gradient kernel.

    q is the (V**k, V) predictive table, row c the student's distribution at
    context id c; the weights are constants (no derivative flows through
    them). With W[c, x] the summed weight of the tokens x drawn at c and
    m[c] = sum_x W[c, x], row c moves by W[c] - m[c] * q[c]. Every context id
    the batch names moves, one of weight 0 too; an exact zero of an update is
    -0.0, so a zero update leaves every logit's bytes as they were. The caller
    guarantees what accumulate_token_grads checks: ids an intp array of rows
    of q, tokens below V, weights finite (and float64).
    """
    n, v = q.shape
    moved = np.bincount(ids, minlength=n).nonzero()[0]
    if rows_at(moved, n) is moved:  # not every row: count at each id's slot among moved
        slot = np.empty(n, dtype=np.intp)
        slot[moved] = np.arange(moved.size)
        ids, q = slot[ids], q.take(moved, axis=0)
    r = moved.size
    # W and m, each one bincount, which adds its weights in input order
    counts = np.bincount(ids * v + tokens, weights, minlength=r * v).reshape(r, v)
    grad = np.bincount(ids, weights, minlength=r)[:, None] * q
    grad -= counts
    # -(m q - W) is W - m q bit for bit, but -0.0 where the two are equal
    return TokenStep(moved, np.negative(grad, out=grad))


def accumulate_token_grads(ids, tokens, weights, q: np.ndarray) -> TokenStep:
    """token_step, once its arguments are checked: the public gradient entry.

    ids are order-k context ids, rows of the (V**k, V) table q, whose row
    count fixes k, and tokens and weights hold one entry per id. Each weight
    must be finite, each id and token in range and every q[ids[j], tokens[j]]
    > 0, as -ln of it needs.
    """
    rows, v = q.shape
    order = 0
    while v ** order < rows:
        order += 1
    if v ** order != rows:
        raise InvalidInputError(f"q has {rows} rows, not V**k for V={v}")
    ids = np.asarray(ids, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    tokens = np.asarray(tokens, dtype=np.intp)
    if ids.ndim != 1 or ids.shape != tokens.shape or ids.shape != weights.shape:
        raise InvalidInputError("ids, tokens and weights must be 1-d and of one length")
    if not np.isfinite(weights).all():
        raise InvalidInputError("weight must be finite")
    for values, bound, name in ((ids, len(q), "context id"), (tokens, q.shape[1], "token id")):
        outside = (values < 0) | (values >= bound)
        if outside.any():
            raise InvalidInputError(f"{name} {values[np.argmax(outside)]} out of range")
    check_token_support(q[ids, tokens], ids, tokens, order, v)
    return token_step(ids, tokens, weights, q)


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


def rows_at(ids: np.ndarray, n: int) -> np.ndarray | slice:
    """How to index the rows ids of an n-row table: slice(None) when they are every
    row, else ids itself.

    ids must be distinct row ids, so ids.size == n only when they are all n
    rows. A slice then reads and writes the same rows with the same arithmetic
    as the row gather and scatter of ids, only without integer-array indexing,
    so every value it leaves is bit for bit the same.
    """
    return slice(None) if ids.size == n else ids


def sgd_step(model: TabularLM, step: TokenStep, lr: float, n: int) -> np.ndarray:
    """Move each of the step's rows by lr / n * its summed descent direction.

    n is the number of positions the batch drew, so the step is lr times the
    batch mean; n < 1 is an InvalidInputError. Returns step.ids, the rows it
    moved in ascending order: every context the batch drew, a zero-weight one
    too. step.ids must be an intp array of the model's rows, strictly
    ascending, and step.directions one V-wide row per id, else InvalidInputError,
    so a step naming a row past the table (one of a higher order, say) is
    never gathered past it nor written by the whole-table slice.
    A non-finite result raises NumericOverflowError, naming the first such
    context in id order, and leaves the model as it was.
    """
    if lr <= 0.0:
        raise InvalidInputError("learning rate must be > 0")
    if n < 1:
        raise InvalidInputError(f"a step needs at least one drawn position, got n={n}")
    ids = step.ids
    if not (isinstance(ids, np.ndarray) and ids.dtype == np.intp and ids.ndim == 1
            and step.directions.shape == (ids.size, model.vocab.size)):
        raise InvalidInputError("a step's directions must hold one model-wide row per id")
    # rows_at's slice stands for ids only when they are every row, each once
    if ids.size and not (0 <= ids[0] and ids[-1] < len(model.table)
                         and (ids[1:] > ids[:-1]).all()):
        raise InvalidInputError("a step's ids must be ascending rows of the model's table")
    at = rows_at(ids, len(model.table))
    if ids.size:
        base = model.table.take(ids, axis=0) if at is ids else model.table
        rows = base + lr / n * step.directions
        if not np.isfinite(rows).all():
            first = np.argmin(np.isfinite(rows).all(axis=1))
            ctx = context_key(ids[first], model.order, model.vocab.size)
            raise NumericOverflowError(f"non-finite logits at context {ctx}")
        model.table[at] = rows
    return ids


def checkpoint_save(model: TabularLM, path, header_extra: dict | None = None) -> None:
    """Write the model's touched rows, those holding a nonzero logit, as JSON; float
    repr keeps 17 significant digits."""
    save_rows(path, {}, model.order, model.vocab, np.flatnonzero(model.touched), model.table,
              "logits", header_extra)


def save_rows(path, own: dict, order: int, vocab: Vocab, ids: np.ndarray, table: np.ndarray,
              name: str, header_extra: dict | None) -> None:
    """Write a table file: json.dump's text of its header, a "rows" list and header_extra,
    then a newline.

    The header is format_version, the kind's own keys (a source's name), order
    and vocab. Row j of the list is {"context": context_key(ids[j]), name:
    table[ids[j]]}. header_extra's keys update the document as dict.update
    does: a key of the header (or "rows") keeps its place and takes the new
    value, any other comes last. The rows are encoded by json.dumps, chunk by
    chunk of at most JSON_CHUNK_FLOATS floats (or one row): the file is the
    one-shot text, and no more than one chunk's text is held at once.
    """
    rows = object()  # stands for the row list until it is written
    doc = {"format_version": TABLE_FORMAT_VERSION, **own, "order": order,
           "vocab": {"names": list(vocab.names), "bos_id": vocab.bos_id},
           "rows": rows, **(header_extra or {})}
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


def load_rows(path, entries, order: int, vocab: Vocab,
              name: str) -> tuple[np.ndarray, np.ndarray]:
    """(ids, rows) of a table file's rows; a context listed twice keeps its last row.

    Entry i's context must hold order token ids of vocab, and its row, under
    name, vocab.size finite numbers. The ids are one prefix_ids call over
    every context and the finiteness one test over every row, and the first
    bad entry raises, as checking entry by entry would: an earlier entry's
    out-of-range token id comes before a later entry's error.
    """
    v = vocab.size
    ctxs, rows = [], []

    def checked():  # the entries so far, as (ids, rows); raises at the first bad one
        table = np.reshape(rows, (len(rows), v))
        bad = np.flatnonzero(~np.isfinite(table).all(axis=1))[:1]
        ids = prefix_ids(ctxs[:bad[0]] if bad.size else ctxs, order, vocab)
        if bad.size:
            raise ParseError(f"{path}: rows[{bad[0]}]: {name} must list {v} numbers, each finite")
        return ids, table

    for i, entry in enumerate(entries):
        try:
            ctx = tuple(int(t) for t in entry["context"])
            if len(ctx) != order:
                raise ParseError(f"{path}: rows[{i}]: context length != order")
            row = np.asarray(entry[name], dtype=np.float64)
        except (KeyError, TypeError, ValueError):
            checked()
            raise
        ctxs.append(ctx)
        # a row of another length is refused as a non-finite one is, by checked
        rows.append(row if row.shape == (v,) else np.full(v, np.nan))
    ids, table = checked()
    last = ids.size - 1 - np.unique(ids[::-1], return_index=True)[1]
    return ids[last], table[last]


def read_json(path):
    """The JSON document in the file at path; invalid JSON is a ParseError naming path
    and the line."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e


def load_table(path, kind: str, name: str, build):
    """build(doc, order, vocab, ids, rows): the object of the table file at path.

    The file is save_rows' JSON at TABLE_FORMAT_VERSION; order and vocab are
    its header's, and (ids, rows) its rows under name (load_rows), once
    table_rows has checked the table's size. Every fault of the file is a
    ParseError naming path: a value that reading it, or build, refuses is
    "malformed <kind>".
    """
    doc = read_json(path)
    try:
        version = doc["format_version"]
        if version != TABLE_FORMAT_VERSION:
            raise ParseError(f"{path}: unsupported format_version {version}")
        vocab = Vocab(names=tuple(doc["vocab"]["names"]), bos_id=int(doc["vocab"]["bos_id"]))
        order = int(doc["order"])
        table_rows(vocab.size, order)  # before load_rows builds an (n, order) array
        return build(doc, order, vocab, *load_rows(path, doc["rows"], order, vocab, name))
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"{path}: malformed {kind}: {e}") from e


def checkpoint_load(path) -> TabularLM:
    """The model in a table file (load_table): the rows it lists, every other row 0."""
    def build(doc, order, vocab, ids, rows):
        model = TabularLM(order=order, vocab=vocab)
        model.table[ids] = rows
        return model

    return load_table(path, "checkpoint", "logits", build)
