"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces module and class attributes that the program looks up
at call time (for example `plsa.trainer.em_step`, which `_fit` calls by its
global name, or `plsa.cli.fold_in`, which `cmd_query` imported by name) with
wrappers that record a span: name, start, end, parent span and a few
counts.  The program itself carries no instrumentation.  Spans stay in
memory until the run ends; a name that no longer exists is skipped and its
metrics are dropped.
"""

import inspect
import os
import time
from statistics import median

# (module path, attribute path, span name, what to record besides time)
TARGETS = (
    ("plsa.cli", "CountMatrix.load", "corpus.load", "nnz"),
    ("plsa.cli", "CountMatrix.save", "corpus.save", None),
    ("plsa.cli", "Vocabulary.load", "corpus.load", None),
    ("plsa.cli", "Vocabulary.save", "corpus.save", None),
    ("plsa.cli", "tokenize", "corpus.tokenize", None),
    ("plsa.cli", "build_counts", "corpus.tokenize", None),
    ("plsa.cli", "parse_qrels", "corpus.parse_qrels", None),
    ("plsa.trainer", "split_heldout", "corpus.split", None),
    ("plsa.cli", "fit_tem", "trainer.fit", None),
    ("plsa.cli", "fit_em", "trainer.fit", None),
    ("plsa.trainer", "em_step", "trainer.em_step", "em"),
    ("plsa.cli", "fold_in", "trainer.fold_in", None),
    ("plsa.trainer", "perplexity", "aspect_model.perplexity", None),
    ("plsa.cli", "perplexity", "aspect_model.perplexity", None),
    ("plsa.cli", "mixing_weight_matrix", "aspect_model.mixing_weights", None),
    ("plsa.cli", "AspectModel.load", "aspect_model.load", None),
    ("plsa.cli", "AspectModel.save", "aspect_model.save", None),
    ("plsa.serialize", "save_arrays", "serialize.save", "path0"),
    ("plsa.serialize", "load_arrays", "serialize.load", "path0"),
    ("plsa.cli", "truncated_svd", "lsa.svd", None),
    ("plsa.cli", "SvdDecomposition.load", "lsa.load", None),
    ("plsa.cli", "SvdDecomposition.save", "lsa.save", None),
    ("plsa.cli", "lsi_doc_coords", "lsa.doc_coords", None),
    ("plsa.cli", "rank_all", "retrieval.rank_all", "queries"),
    ("plsa.cli", "precision_recall", "retrieval.precision_recall", None),
)


def _em_info(args, kwargs):
    model, counts = args[0], args[1]
    beta = kwargs.get("beta", args[2] if len(args) > 2 else 1.0)
    return {"beta": float(beta), "cells": int(counts.nnz) * int(model.k)}


def _info(kind, args, kwargs, result):
    if kind == "nnz":
        return {"nnz": int(result.nnz)}
    if kind == "em":
        return _em_info(args, kwargs)
    if kind == "path0":
        return {"bytes": os.path.getsize(args[0])}
    if kind == "queries":
        return {"queries": len(args[2])}
    return None


class Tracer:
    """Records spans as [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []
        self.missing = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`; returns fn's result."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, None])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, kind, bind_first):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            result = tracer.span(name, fn, *args, **kwargs)
            call_args = args[1:] if bind_first else args
            tracer.spans[idx][4] = _info(kind, call_args, kwargs, result)
            return result
        return wrapper

    def install(self, modules):
        """Wrap every target; `modules` maps module path to module object.
        Targets that are missing are listed in `self.missing`."""
        self.missing = []
        for mod_path, attr_path, name, kind in TARGETS:
            owner = modules.get(mod_path)
            *parents, attr = attr_path.split(".")
            try:
                for p in parents:
                    owner = getattr(owner, p)
                static = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.missing.append(f"{mod_path}.{attr_path}")
                continue
            if isinstance(static, classmethod):
                replacement = classmethod(self._wrap(static.__func__, name, kind, True))
            elif inspect.isclass(owner):
                replacement = self._wrap(static, name, kind, True)
            else:
                replacement = self._wrap(static, name, kind, False)
            self._installed.append((owner, attr, static))
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def layer_metrics(spans, missing=()):
    """Per-layer figures of one round (the timed pass's `once` commands
    plus one traced round of its `loop` commands), as {name: (value, unit)}.

    Command spans are named "cli.<command>"; the rest come from TARGETS.
    A metric that needs a span name whose target was missing is left out.
    """
    children = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)

    def dur(s):
        return s[2] - s[1]

    def by(name):
        return [s for s in spans if s[0] == name]

    def total(name):
        return sum(map(dur, by(name)))

    def mean_ms(ss):
        return 1e3 * sum(map(dur, ss)) / len(ss) if ss else None

    def self_time(i):
        return dur(spans[i]) - sum(dur(spans[c]) for c in children.get(i, ()))

    em = by("trainer.em_step")
    fits = [i for i, s in enumerate(spans) if s[0] == "trainer.fit"]
    fit_sweeps = sum(spans[c][0] == "trainer.em_step" for i in fits for c in children.get(i, ()))
    commands = [i for i, s in enumerate(spans) if s[0].startswith("cli.")]
    query_lsa = [s for i in commands if spans[i][0] == "cli.query"
                 for s in _descendants(spans, children, i) if s[0].startswith("lsa.")]
    rank = by("retrieval.rank_all")
    ser = by("serialize.save") + by("serialize.load")
    every = {t[2] for t in TARGETS}
    table = (
        ("trainer.em_step_ms", "ms", {"trainer.em_step"},
         lambda: mean_ms([s for s in em if s[4]["beta"] == 1.0])),
        ("trainer.em_step_tempered_ms", "ms", {"trainer.em_step"},
         lambda: mean_ms([s for s in em if s[4]["beta"] < 1.0])),
        ("trainer.em_steps", "count", {"trainer.em_step"}, lambda: len(em)),
        ("trainer.em_cells_per_s", "1/s", {"trainer.em_step"},
         lambda: sum(s[4]["cells"] for s in em) / sum(map(dur, em)) if em else None),
        ("trainer.fit_self_ms", "ms",
         {"trainer.fit", "trainer.em_step", "aspect_model.perplexity", "corpus.split"},
         lambda: 1e3 * sum(map(self_time, fits)) / fit_sweeps if fit_sweeps else None),
        ("aspect_model.perplexity_ms", "ms", {"aspect_model.perplexity"},
         lambda: mean_ms(by("aspect_model.perplexity"))),
        ("aspect_model.perplexity_calls", "count", {"aspect_model.perplexity"},
         lambda: len(by("aspect_model.perplexity"))),
        ("aspect_model.mixing_weights_ms", "ms", {"aspect_model.mixing_weights"},
         lambda: 1e3 * total("aspect_model.mixing_weights")),
        ("corpus.load_s", "s", {"corpus.load"}, lambda: total("corpus.load")),
        ("corpus.tokenize_s", "s", {"corpus.tokenize"}, lambda: total("corpus.tokenize")),
        ("corpus.save_s", "s", {"corpus.save"}, lambda: total("corpus.save")),
        ("corpus.split_s", "s", {"corpus.split"}, lambda: total("corpus.split")),
        ("corpus.nnz", "count", {"corpus.load"},
         lambda: max((s[4]["nnz"] for s in by("corpus.load") if s[4]), default=None)),
        ("trainer.fold_in_ms", "ms", {"trainer.fold_in"}, lambda: mean_ms(by("trainer.fold_in"))),
        ("trainer.fold_in_calls", "count", {"trainer.fold_in"}, lambda: len(by("trainer.fold_in"))),
        ("retrieval.rank_all_ms", "ms", {"retrieval.rank_all"},
         lambda: 1e3 * sum(map(dur, rank)) / sum(s[4]["queries"] for s in rank) if rank else None),
        ("retrieval.precision_recall_ms", "ms", {"retrieval.precision_recall"},
         lambda: 1e3 * total("retrieval.precision_recall")),
        ("lsa.query_ms", "ms", {"lsa.load", "lsa.doc_coords"},
         lambda: 1e3 * sum(map(dur, query_lsa))),
        ("lsa.svd_s", "s", {"lsa.svd"}, lambda: total("lsa.svd")),
        ("serialize.save_ms", "ms", {"serialize.save"}, lambda: 1e3 * total("serialize.save")),
        ("serialize.load_ms", "ms", {"serialize.load"}, lambda: 1e3 * total("serialize.load")),
        ("serialize.bytes", "bytes", {"serialize.save", "serialize.load"},
         lambda: sum(s[4]["bytes"] for s in ser)),
        # any missing target moves its time into the commands' self time
        ("cli.self_s", "s", every, lambda: sum(map(self_time, commands))),
    )
    gone = {t[2] for t in TARGETS if f"{t[0]}.{t[1]}" in missing}
    out = {}
    for name, unit, needs, value in table:
        v = None if needs & gone else value()
        if v is not None:
            out[name] = (v, unit)
    return out


def _descendants(spans, children, i):
    stack = list(children.get(i, ()))
    while stack:
        j = stack.pop()
        yield spans[j]
        stack.extend(children.get(j, ()))


def median_metrics(rounds):
    """Median of each metric over rounds; keeps metrics present in all."""
    if not rounds:
        return {}
    names = set(rounds[0]).intersection(*rounds[1:])
    return {n: (median(r[n][0] for r in rounds), rounds[0][n][1]) for n in sorted(names)}
