"""Span tracing of distill_lab from outside the package.

A Tracer replaces public functions of distill_lab with wrappers that
record one span per call: (name, parent, start, end, work units, error).
Each wrapper is installed under every name a caller looks it up by: the
defining module, each module that imported it by name, and the package
namespace. Wrappers exist only inside `Tracer.segment()`; on exit every
original object is put back, so untraced code runs the unpatched program.

Spans live in flat arrays in memory and are written out by `save()`.
"""

from __future__ import annotations

import array
import contextlib
import functools
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("numerics", "model", "objectives", "data", "training", "evaluation", "cli")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


@dataclass(frozen=True)
class Site:
    """One traced function: span name, where it is defined and looked up.

    `owner` is a module name or "module:Class" for a method; `aliases` are
    the other modules that imported it by name. `units(args, kwargs)` gives
    the work a call was asked to do (tokens, rows), read before the call.
    `failed(result)` marks a call that returned a failure code.
    """

    name: str
    owner: str
    attr: str
    aliases: tuple[str, ...] = ()
    units: object = None
    failed: object = None


SITES = (
    Site("numerics.softmax", "numerics", "softmax", ("model", "")),
    Site("numerics.entropy", "numerics", "entropy", ("training", "evaluation", "cli", "")),
    Site("numerics.kl_exact", "numerics", "kl_exact", ("training", "evaluation", "")),
    Site("model.predict", "model:TabularLM", "predict"),
    Site("model.rollout", "model:TabularLM", "rollout",
         units=lambda a, k: _arg(a, k, 2, "steps")),
    Site("model.accumulate_token_grad", "model", "accumulate_token_grad",
         ("training", "evaluation", "")),
    Site("model.sgd_step", "model", "sgd_step", ("training", ""),
         units=lambda a, k: len(_arg(a, k, 1, "acc").directions)),
    Site("model.checkpoint_save", "model", "checkpoint_save", ("cli", "")),
    Site("model.checkpoint_load", "model", "checkpoint_load", ("cli", "")),
    Site("objectives.hpd_weights", "objectives", "hpd_weights", ("training", "")),
    Site("objectives.weight_fkld_token", "objectives", "weight_fkld_token", ("training", "")),
    Site("objectives.weight_rkld_off", "objectives", "weight_rkld_off", ("training", "")),
    Site("objectives.weight_jsd_off", "objectives", "weight_jsd_off", ("training", "")),
    Site("data.conditional_for_prefix", "data:MarkovSource", "conditional_for_prefix"),
    Site("data.sample_sequence", "data:MarkovSource", "sample_sequence",
         units=lambda a, k: _arg(a, k, 1, "length")),
    Site("data.sample_corpus", "data", "sample_corpus", ("",),
         units=lambda a, k: _arg(a, k, 1, "num_seqs") * _arg(a, k, 2, "length")),
    Site("data.corpus_write", "data", "corpus_write", ("",)),
    Site("data.corpus_read", "data", "corpus_read", ("",)),
    Site("data.source_save", "data", "source_save"),
    Site("data.source_load", "data", "source_load"),
    Site("training.distill_offpolicy", "training", "distill_offpolicy", ("cli", "")),
    Site("training.distill_onpolicy_opd", "training", "distill_onpolicy_opd", ("cli", "")),
    Site("training.evaluate_divergences", "training", "evaluate_divergences"),
    Site("training.run_experiment", "training", "run_experiment", ("cli", "")),
    Site("training.metrics_write", "training", "metrics_write", ("cli",)),
    Site("training.train_teacher_mle", "training", "train_teacher_mle", ("cli", ""),
         units=lambda a, k: _arg(a, k, 0, "corpus").num_tokens()),
    Site("evaluation.completion_accuracy", "evaluation", "completion_accuracy", ("",)),
    Site("evaluation.divergence_audit", "evaluation", "divergence_audit", ("cli", "")),
    Site("evaluation.make_completion_tasks", "evaluation", "make_completion_tasks",
         ("cli", "")),
    # one span per command; main() maps library errors to exit code 2
    Site("cli.main", "cli", "main", failed=lambda rc: rc != 0),
)


def _resolve(pkg, owner: str):
    """Object that holds the attribute (package, module or class), or None."""
    mod_name, _, cls_name = owner.partition(":")
    obj = getattr(pkg, mod_name, None) if mod_name else pkg
    return getattr(obj, cls_name, None) if cls_name else obj


def patch_targets(pkg, site: Site) -> list:
    """Every (holder, attr) under which callers look the site's function up.

    A holder that is gone or no longer has the attribute is skipped, so a
    later refactor that drops an import leaves that lookup untraced, not
    broken.
    """
    holders = [_resolve(pkg, o) for o in (site.owner, *site.aliases)]
    return [(h, site.attr) for h in holders if h is not None and site.attr in vars(h)]


class Tracer:
    """Records spans of distill_lab calls made inside `segment()` blocks."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.names = [s.name for s in SITES]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name_col = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.units = array.array("d")
        self.error = array.array("b")
        self.segments: list[tuple[str, int, int]] = []
        self._stack = [-1]
        self._saved: list = []

    def _command_name_id(self, argv) -> int:
        name = f"cli.{argv[0]}" if argv else "cli.main"
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, fn, site: Site):
        name_id = self.name_id[site.name]
        name_col, parent, start, end = self.name_col, self.parent, self.start, self.end
        units_col, error, stack = self.units, self.error, self._stack
        units, failed = site.units, site.failed
        per_command = site.name == "cli.main"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            nid = name_id
            if per_command:
                nid = self._command_name_id(_arg(args, kwargs, 0, "argv"))
            name_col.append(nid)
            parent.append(stack[-1])
            units_col.append(units(args, kwargs) if units is not None else 0.0)
            error.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if failed is not None and failed(result):
                error[idx] = 1
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for site in SITES:
            for holder, attr in patch_targets(self.pkg, site):
                orig = vars(holder)[attr]
                self._saved.append((holder, attr, orig))
                setattr(holder, attr, self._wrap(orig, site))

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, orig = self._saved.pop()
            setattr(holder, attr, orig)

    @contextlib.contextmanager
    def segment(self, label: str):
        """Trace the calls made in the block; record its range of spans."""
        first = len(self.start)
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.segments.append((label, first, len(self.start)))

    def spans(self) -> "Spans":
        return Spans(
            names=list(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            units=np.frombuffer(self.units, dtype=np.float64).copy(),
            error=np.frombuffer(self.error, dtype=np.int8).copy(),
        )


@dataclass
class Spans:
    """Column view of recorded spans; `parent` is -1 for a root span."""

    names: list
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    units: np.ndarray
    error: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.duration
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            parent=self.parent, start=self.start, end=self.end,
                            units=self.units, error=self.error)


@dataclass
class LayerTotals:
    """Per-span-name sums over the spans of some segments (all by default).

    `root_s` is the time covered by root spans, i.e. attributed to a layer.
    """

    calls: dict
    self_s: dict
    incl_s: dict
    units: dict
    errors: dict
    root_s: float

    @classmethod
    def of(cls, spans: Spans, segments=None) -> "LayerTotals":
        keep = np.ones(spans.name.size, dtype=bool)
        if segments is not None:
            keep[:] = False
            for _label, lo, hi in segments:
                keep[lo:hi] = True
        self_t = spans.self_time()[keep]
        dur = spans.duration[keep]
        name = spans.name[keep]
        n = len(spans.names)

        def by_name(weights=None):
            sums = np.bincount(name, weights=weights, minlength=n)
            return {nm: float(sums[i]) for i, nm in enumerate(spans.names)}

        return cls(
            calls=by_name(),
            self_s=by_name(self_t),
            incl_s=by_name(dur),
            units=by_name(spans.units[keep]),
            errors=by_name(spans.error[keep].astype(np.float64)),
            root_s=float(dur[spans.parent[keep] < 0].sum()),
        )

    def total(self, field: str, names) -> float:
        table = getattr(self, field)
        return sum(table.get(n, 0.0) for n in names)
