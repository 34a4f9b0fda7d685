"""Ground-truth stochastic sources and corpus generation/IO.

A Corpus is one read-only int64 token array of its sequences laid end to end
and one read-only array of their lengths, from the sampler (sample_corpus
keeps the lockstep walk's array) and the file reader (corpus_read keeps its
one-call parse's array) to the trainers, which read both arrays directly.

Builtin sources:
  uniform             every conditional is uniform over the vocabulary
  deterministic_cycle order-1 cycle i -> (i+1) mod V, one-hot rows
  bimodal_gap         order-2, V=6; the next token after the gap token
                      depends on the token two steps back, so an order-1
                      observer faces an irreducibly bimodal conditional
  random_dirichlet    every row drawn from a symmetric Dirichlet

bimodal_gap tokens: 0 = gap, 1/2 = coin tokens, 3 = chooser, 4/5 = mode
tokens. The chain cycles chooser -> coin in {1,2} -> gap -> mode (4 if
the coin was 1, else 5) -> chooser. Only the gap state is irreducible for
an order-1 observer; every other conditional depends on the last token
alone. Rows are smoothed toward uniform by BIMODAL_EPS so every
conditional has full support. The construction is symmetric under jointly
swapping 1<->2 and 4<->5, and the rows for contexts (., gap) with a
non-coin earlier token equal the average of the two mode rows, so the
exact order-1 marginal at "last token = gap" is the 50/50 mixture of rows
(1,0) and (2,0) regardless of the stationary distribution.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, InvalidInputError, ParseError, config_field
from .model import (TabularLM, Vocab, context_ids, context_key, load_table, prefix_ids, read_only,
                    save_rows, table_rows, walk)
from .numerics import CategoricalDist, cdf_draw, cdf_rows, softmax

CORPUS_FORMAT_VERSION = 1

GAP_TOKEN = 0
COIN_A = 1
COIN_B = 2
CHOOSER_TOKEN = 3
MODE_X = 4
MODE_Y = 5
BIMODAL_VOCAB = 6
BIMODAL_EPS = 0.1


@dataclass(frozen=True, eq=False)
class MarkovSource:
    """Stochastic source with exactly known conditional distributions.

    table is one batch with a row for every context: row i is the conditional
    at context id i (see model.py). Every teacher is a MarkovSource: the
    ground truth itself, or a fitted TabularLM's softmax table. rollouts is the
    one sampler of chains: corpora, and SeqKD corpora from a tempered table.

    The fields cannot be rebound and the table is read-only, so what depends
    on the source alone is built at its first use and kept on the source for
    as long as it lives: cdf, and in plans the teacher-side parts of every
    evaluation.EvalPlan built against it.
    """

    name: str
    order: int
    vocab: Vocab
    table: CategoricalDist
    plans: dict = field(default_factory=dict, init=False, repr=False)

    def rollouts(self, prompts, steps: int, rng: np.random.Generator) -> np.ndarray:
        """`steps` sampled tokens after each prompt, as one (len(prompts), steps) array.

        prompts is a list of token-id sequences or an (n, length) int array (pad_contexts).

        Every rollout advances one position per step. Rollout i is drawn with row
        i of rng.random((len(prompts), steps)), so the result equals sampling the
        prompts in turn with one Generator.choice per token; no prompts draw nothing.
        """
        if steps < 1:
            raise InvalidInputError("steps must be >= 1")
        # the last k prompt tokens are every prompt token a context will ever hold
        start = prefix_ids(prompts, self.order, self.vocab)
        u = rng.random((start.size, steps))
        return walk(start, steps, self.order, self.vocab.size,
                    lambda ids, t: cdf_draw(self.cdf.take(ids, axis=0), u[:, t]))[1]

    @cached_property
    def cdf(self) -> np.ndarray:
        """cdf_rows of the conditionals, row i for context id i; table is read-only."""
        return cdf_rows(self.table.probs)


def _smoothed(base: np.ndarray, eps: float) -> np.ndarray:
    """base's rows mixed with the uniform distribution at weight eps."""
    return (1.0 - eps) * base + eps / base.shape[-1]


def _bimodal_table(eps: float) -> np.ndarray:
    """The smoothed bimodal_gap conditionals, row i for context id i."""
    prev2, prev1 = np.unravel_index(np.arange(BIMODAL_VOCAB ** 2), (BIMODAL_VOCAB,) * 2)
    # the row after each last token; after the gap, a coin two steps back picks the mode
    after = np.zeros((BIMODAL_VOCAB, BIMODAL_VOCAB))
    after[CHOOSER_TOKEN, [COIN_A, COIN_B]] = 0.5
    after[[COIN_A, COIN_B], GAP_TOKEN] = 1.0
    after[GAP_TOKEN, [MODE_X, MODE_Y]] = 0.5
    after[[MODE_X, MODE_Y], CHOOSER_TOKEN] = 1.0
    base = after[prev1]
    for coin, mode in ((COIN_A, MODE_X), (COIN_B, MODE_Y)):
        base[(prev1 == GAP_TOKEN) & (prev2 == coin)] = np.eye(BIMODAL_VOCAB)[mode]
    return _smoothed(base, eps)


def build_source(spec: dict) -> MarkovSource:
    """Construct a builtin source from a descriptor dict.

    Keys: name (required); vocab_size, order, seed, concentration, eps
    depending on the builtin.
    """
    if "name" not in spec:
        raise ConfigError("source descriptor needs a 'name'")
    name = spec["name"]
    known = {"name", "vocab_size", "order", "seed", "concentration", "eps"}
    extra = set(spec) - known
    if extra:
        raise ConfigError(f"unknown source keys: {sorted(extra)}")

    if name == "uniform":
        v = config_field(spec, "source.vocab_size", int, 4)
        m = config_field(spec, "source.order", int, 1)
        n = table_rows(v, m)
        vocab = Vocab.default(v)
        probs = np.full((n, v), 1.0 / v)
        return MarkovSource(name=name, order=m, vocab=vocab,
                            table=CategoricalDist.from_rows(probs))

    if name == "deterministic_cycle":
        v = config_field(spec, "source.vocab_size", int, 3)
        table_rows(v, 1)
        vocab = Vocab.default(v)
        probs = np.eye(v)[(np.arange(v) + 1) % v]  # row i is one-hot at i + 1
        return MarkovSource(name=name, order=1, vocab=vocab,
                            table=CategoricalDist.from_rows(probs))

    if name == "bimodal_gap":
        if (config_field(spec, "source.vocab_size", int, BIMODAL_VOCAB) != BIMODAL_VOCAB
                or config_field(spec, "source.order", int, 2) != 2):
            raise ConfigError(
                f"bimodal_gap is fixed at vocab_size={BIMODAL_VOCAB}, order=2")
        eps = config_field(spec, "source.eps", float, BIMODAL_EPS)
        if not (0.0 < eps < 1.0):
            raise ConfigError("bimodal_gap eps must lie in (0, 1)")
        return MarkovSource(name=name, order=2, vocab=Vocab.default(BIMODAL_VOCAB),
                            table=CategoricalDist.from_rows(_bimodal_table(eps)))

    if name == "random_dirichlet":
        v = config_field(spec, "source.vocab_size", int, 8)
        m = config_field(spec, "source.order", int, 1)
        if "seed" not in spec:
            raise ConfigError("random_dirichlet needs a 'seed'")
        conc = config_field(spec, "source.concentration", float, 1.0)
        if conc <= 0.0:
            raise ConfigError("concentration must be > 0")
        n = table_rows(v, m)
        seed = config_field(spec, "source.seed", int, None)
        if seed < 0:
            raise ConfigError(f"source.seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        vocab = Vocab.default(v)
        # one call draws the same gammas in the same order as one call per row
        probs = rng.dirichlet(np.full(v, conc), size=n)
        return MarkovSource(name=name, order=m, vocab=vocab,
                            table=CategoricalDist.from_rows(probs))

    raise ConfigError(f"unknown source name {name!r}")


def source_save(source: MarkovSource, path, header_extra: dict | None = None) -> None:
    probs = source.table.probs
    save_rows(path, {"name": source.name}, source.order, source.vocab, np.arange(len(probs)),
              probs, "probs", header_extra)


def source_load(path) -> MarkovSource:
    """The source in a table file (model.load_table) that lists every context's row."""
    def build(doc, order, vocab, ids, rows):
        probs = np.zeros((table_rows(vocab.size, order), vocab.size))
        present = np.zeros(len(probs), dtype=bool)
        probs[ids], present[ids] = rows, True
        if not present.all():
            ctx = context_key(int(np.argmin(present)), order, vocab.size)
            raise ParseError(f"{path}: no row for context {ctx}")
        return MarkovSource(name=str(doc["name"]), order=order, vocab=vocab,
                            table=CategoricalDist.from_rows(probs))

    return load_table(path, "source file", "probs", build)


@dataclass(frozen=True, eq=False)
class Corpus:
    """Sequences laid end to end: sequence i is lengths[i] tokens, after those before it.

    tokens (int64) and lengths (intp) are read-only copies of the arrays given,
    so no writer of those arrays reaches them; an id beyond int64 (from a V no
    table can hold) keeps its Python int. The fields cannot be rebound, so
    what depends on the corpus alone is computed at its first use and kept on
    the corpus for as long as it lives: offsets, and context_ids per
    (order, BOS id, V), each a read-only array.
    """

    tokens: np.ndarray
    lengths: np.ndarray
    provenance: str
    seed: int
    vocab_size: int
    # context_ids' arrays by (order, BOS id, V), and the V every token id was checked against
    _ids: dict = field(default_factory=dict, init=False, repr=False)
    _in_range: set = field(default_factory=set, init=False, repr=False)

    PROVENANCES = ("ground_truth", "teacher_generated", "student_generated")

    def __post_init__(self):
        if self.provenance not in self.PROVENANCES:
            raise InvalidInputError(f"unknown provenance {self.provenance!r}")
        tokens = np.asarray(self.tokens)
        dtype = object if tokens.dtype == object else np.int64
        # copies: the caller's arrays stay writable, and a write to them would
        # leave the kept context ids stale and their tokens unchecked
        tokens = np.array(tokens, dtype=dtype)
        lengths = np.array(self.lengths, dtype=np.intp)
        if (tokens.ndim != 1 or lengths.ndim != 1 or (lengths < 0).any()
                or lengths.sum() != tokens.size):
            raise InvalidInputError("corpus lengths must be >= 0 and sum to its token count")
        tokens.flags.writeable = lengths.flags.writeable = False
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "lengths", lengths)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Each position's index within its sequence, read-only."""
        starts = np.cumsum(self.lengths) - self.lengths
        return read_only(np.arange(self.tokens.size) - np.repeat(starts, self.lengths))

    def context_ids(self, order: int, bos_id: int, v: int) -> np.ndarray:
        """model.context_ids of every position at (order, bos_id, V), read-only.

        Each key's array is computed at its first call, and later calls return
        that array. Before the first call with a V, every token id is checked
        once against it: one outside [0, V) is an InvalidInputError.
        """
        key = (order, bos_id, v)
        if key not in self._ids:
            if v not in self._in_range:
                tokens = self.tokens
                if tokens.size and (tokens.min() < 0 or tokens.max() >= v):
                    t = tokens[np.argmax((tokens < 0) | (tokens >= v))]
                    raise InvalidInputError(
                        f"corpus token id {t} is out of range for the vocabulary of {v}")
                self._in_range.add(v)
            self._ids[key] = read_only(context_ids(self.tokens, self.offsets, order, bos_id, v))
        return self._ids[key]

    @classmethod
    def from_sequences(cls, sequences, provenance: str, seed: int, vocab_size: int) -> "Corpus":
        """The corpus of a list of token-id sequences."""
        lengths = np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences))
        try:
            tokens = np.fromiter(itertools.chain.from_iterable(sequences), dtype=np.int64,
                                 count=int(lengths.sum()))
        except OverflowError:
            tokens = np.array(list(itertools.chain.from_iterable(sequences)), dtype=object)
        return cls(tokens, lengths, provenance, seed, vocab_size)

    @property
    def sequences(self) -> list[list[int]]:
        """Every sequence as a list of ints, derived anew from tokens at each read."""
        return _split(self.tokens.tolist(), self.lengths)

    def num_tokens(self) -> int:
        return self.tokens.size


def _split(flat: list, lengths: np.ndarray) -> list[list]:
    """flat cut into consecutive pieces of the given lengths."""
    ends = np.cumsum(lengths).tolist()
    return [flat[end - n:end] for n, end in zip(lengths.tolist(), ends)]


def sample_corpus(
    source: MarkovSource, num_seqs: int, length: int, rng: np.random.Generator, seed: int = -1
) -> Corpus:
    if num_seqs < 1 or length < 1:
        raise InvalidInputError("num_seqs and length must be >= 1")
    # num_seqs empty prompts as one (n, 0) array, with no Python object per sequence
    return Corpus(source.rollouts(np.zeros((num_seqs, 0), dtype=np.int64), length, rng).ravel(),
                  np.full(num_seqs, length, dtype=np.intp),
                  provenance="ground_truth", seed=seed, vocab_size=source.vocab.size)


def generate_seqkd_corpus(
    teacher: TabularLM,
    prompts,
    length: int,
    rng: np.random.Generator,
    temperature: float = 1.0,
    seed: int = -1,
) -> Corpus:
    """Teacher rollouts at the given temperature; temperature=0 means greedy_rollouts.

    A positive temperature samples the source softmax(teacher.table / temperature)
    with MarkovSource.rollouts. Greedy decoding stays on the logits: a softmax can
    round two near-equal logits to one probability and change the tie-break.
    """
    if temperature < 0.0:
        raise InvalidInputError("temperature must be >= 0")
    if length < 1:
        raise InvalidInputError("length must be >= 1")
    prompts = list(prompts)
    if temperature == 0.0:
        conts = teacher.greedy_rollouts(prompts, length)
    else:
        # z / 1.0 is z exactly, so temperature 1 samples the model as is
        with np.errstate(over="ignore"):
            scaled = teacher.table / temperature
        if not np.isfinite(scaled).all():
            raise InvalidInputError(
                f"temperature {temperature} scales a teacher logit beyond the float range")
        tempered = MarkovSource("seqkd", teacher.order, teacher.vocab, softmax(scaled))
        conts = tempered.rollouts(prompts, length, rng).tolist()
    seqs = [[int(t) for t in prompt] + cont for prompt, cont in zip(prompts, conts)]
    return Corpus.from_sequences(seqs, provenance="teacher_generated", seed=seed,
                                 vocab_size=teacher.vocab.size)


def corpus_write(corpus: Corpus, path, header_extra: dict | None = None) -> None:
    header = {
        "format_version": CORPUS_FORMAT_VERSION,
        "V": corpus.vocab_size,
        "provenance": corpus.provenance,
        "seed": corpus.seed,
    }
    if header_extra:
        header.update(header_extra)
    v, tokens = corpus.vocab_size, corpus.tokens
    for t in (tokens.min(), tokens.max()) if tokens.size else ():
        if not 0 <= t < v:
            raise InvalidInputError(f"token id {t} out of range [0, {v})")
    # names[t] is token t's text, for the ids the corpus holds only: a table up to
    # the largest id would grow with the id itself
    flat = tokens.tolist()
    names = {t: str(t) for t in set(flat)}
    lines = _split(list(map(names.__getitem__, flat)), corpus.lengths)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header) + "\n")
        f.writelines(" ".join(line) + "\n" for line in lines)


def corpus_read(path) -> Corpus:
    """The corpus in a corpus file: a JSON header line, then one sequence per line.

    A sequence is its line's whitespace-separated token ids; blank lines are
    skipped. The token body is parsed by one numpy call (_parse_body); where
    that cannot prove its result equal to the line-by-line parser's, the
    line parser (_parse_lines) reads the file, and its ParseError names the
    first bad line.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, missing header")
    try:
        header = json.loads(lines[0])
        version = header["format_version"]
        v = int(header["V"])
        provenance = header["provenance"]
        seed = int(header["seed"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: line 1: bad header: {e}") from e
    if version != CORPUS_FORMAT_VERSION:
        raise ParseError(f"{path}: line 1: unsupported format_version {version}")
    if provenance not in Corpus.PROVENANCES:
        raise ParseError(f"{path}: line 1: unknown provenance {provenance!r}")
    parsed = _parse_body(lines[1:], v)
    if parsed is None:
        return Corpus.from_sequences(_parse_lines(path, lines, v), provenance=provenance,
                                     seed=seed, vocab_size=v)
    return Corpus(*parsed, provenance=provenance, seed=seed, vocab_size=v)


# the bytes of a body that _parse_body reads: ASCII digits and ASCII whitespace
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\x0b\x0c"


def _parse_body(body: list[str], v: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(tokens, lengths) of the body lines, or None where the one-call parse may differ.

    Each line's length is its count of str.split() tokens; a line of none is
    no sequence. np.fromstring reads the joined body only when it holds
    nothing but ASCII digits and ASCII whitespace: then every token is an
    unsigned base-10 literal, which numpy and int() read alike (numpy
    saturates at the int64 bounds). Signs, other characters, a parse that
    does not reach the end (an error on numpy 2, a warning on numpy 1.x), a
    token count that differs from the lines' and an id outside [0, v) all
    give None.
    """
    lengths = np.array([n for n in map(len, map(str.split, body)) if n], dtype=np.intp)
    text = "\n".join(body)
    try:
        if text.encode("ascii").translate(None, _DIGITS_AND_SPACE):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tokens = np.fromstring(text, dtype=np.int64, sep=" ")
    except (UnicodeEncodeError, ValueError, DeprecationWarning):
        return None
    # a saturated token reads as the int64 maximum, which no vocabulary here reaches
    top = min(v, np.iinfo(np.int64).max)
    if tokens.size != lengths.sum() or tokens.min(initial=0) < 0 or tokens.max(initial=0) >= top:
        return None
    return tokens, lengths


def _parse_lines(path, lines: list[str], v: int) -> list[list[int]]:
    """The sequences of lines[1:], one int() per token: the reference parser."""
    seqs = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            seq = [int(t) for t in line.split()]
        except ValueError as e:
            raise ParseError(f"{path}: line {lineno}: non-integer token: {e}") from e
        for t in seq:
            if not (0 <= t < v):
                raise ParseError(
                    f"{path}: line {lineno}: token id {t} out of range [0, {v})"
                )
        seqs.append(seq)
    return seqs
