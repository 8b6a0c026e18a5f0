"""Span tracer for the benchmark's traced run.

The tracer wraps the layer-boundary functions of ``ctlhom`` at run time and
restores them afterwards; nothing in the package changes.  Because
``chainalg`` and ``cli`` bind names such as ``smith_normal_form`` and
``is_locally_finite`` at import, every ``ctlhom`` module attribute (and
every module-level dict value, such as ``THEORY_DRIVERS``) that refers to a
wrapped function is replaced, not just the defining one.

Spans are kept in memory.  A span's self time is its duration minus the
time its child spans cover; bookkeeping the tracer does after a child ends
(counting matrix entries, say) is charged to no span.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter

THEORY_DRIVERS = ("chainalg.homology", "chainalg.bm_homology",
                  "chainalg.cohomology", "chainalg.cohomology_c")


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    query: str | None
    start: float = 0.0
    end: float = 0.0
    covered: float = 0.0
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.covered

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


def _snf_counts(args, result):
    m = args[0]
    return {"entries": m.rows * m.cols,
            "nnz": sum(1 for row in m.data for x in row if x)}


def _matmul_counts(args, result):
    a, b = args
    return {"mults": a.rows * a.cols * b.cols}


def _truncate_counts(args, result):
    space, depth = args
    cells = result.complex.cell_count() if result is not None else 0
    return {"space": id(space), "depth": depth, "cells": cells}


def _driver_counts(args, result):
    return {"depth_used": getattr(result, "depth_used", None)}


def _iso_counts(args, result):
    return {"iso": bool(result)}


def _laws_counts(args, result):
    return {"cases": sum(r.cases for r in result or ())}


class Tracer:
    """Records spans while installed; ``query`` labels the spans it makes."""

    def __init__(self):
        self.spans = []
        self.query = None
        self._stack = []
        self._undo = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.query)
            stack.append(span)
            result = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = perf_counter()
                stack.pop()
                if count is not None:
                    span.counts = count(args, result)
                spans.append(span)
                if parent is not None:
                    parent.covered += perf_counter() - span.start

        traced.__wrapped__ = fn
        return traced

    def install(self):
        from ctlhom import chainalg, cli, corpus, laws, snf, sset

        functions = [
            ("snf.smith_normal_form", snf, "smith_normal_form", _snf_counts),
            ("chainalg.present_homology", chainalg, "present_homology", None),
            ("chainalg.is_transition_isomorphism", chainalg,
             "is_transition_isomorphism", _iso_counts),
            ("chainalg.convert_group", chainalg, "convert_group", None),
            ("chainalg.homology", chainalg, "homology", _driver_counts),
            ("chainalg.bm_homology", chainalg, "bm_homology", _driver_counts),
            ("chainalg.cohomology", chainalg, "cohomology", _driver_counts),
            ("chainalg.cohomology_c", chainalg, "cohomology_c", _driver_counts),
            ("chainalg.pairing_matrix", chainalg, "pairing_matrix", None),
            ("sset.is_locally_finite", sset, "is_locally_finite", None),
            ("corpus.build", corpus, "build", None),
            ("corpus.load_space", corpus, "load_space", None),
            ("corpus.save_space", corpus, "save_space", None),
            ("cli.main", cli, "main", None),
            ("laws.run_all", laws, "run_all", _laws_counts),
        ]
        methods = [
            ("snf.matmul", snf.IntMatrix, "__matmul__", _matmul_counts),
            ("sset.Exhaustion.truncate", sset.Exhaustion, "truncate", _truncate_counts),
            ("sset.FiniteSimplicialSet", sset.FiniteSimplicialSet, "__init__", None),
        ]
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "ctlhom" or n.startswith("ctlhom."))]
        for name, module, attr, count in functions:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append((value.__setitem__, k, original))
        for name, cls, attr, count in methods:
            original = cls.__dict__[attr]
            self._set(cls, attr, self.wrap(name, original, count), original)

    def _set(self, owner, key, value, original):
        setattr(owner, key, value)
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), key, original))

    def uninstall(self):
        while self._undo:
            restore, key, original = self._undo.pop()
            restore(key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# --------------------------------------------------------------------------
# per-layer metrics from a list of spans

SELF_TIMED = [
    "snf.smith_normal_form", "snf.matmul", "chainalg.present_homology",
    "chainalg.is_transition_isomorphism", "chainalg.convert_group",
    "sset.Exhaustion.truncate", "sset.is_locally_finite", "sset.FiniteSimplicialSet",
    "corpus.build", "corpus.load_space", "corpus.save_space", "cli.main",
    "laws.run_all",
]
INCLUSIVE = THEORY_DRIVERS + ("chainalg.pairing_matrix",)


def layer_metrics(spans) -> dict:
    """Every per-layer metric of one pass, as {name: value}."""
    calls = dict.fromkeys(SELF_TIMED + list(INCLUSIVE), 0)
    self_s = dict.fromkeys(SELF_TIMED, 0.0)
    inclusive = dict.fromkeys(INCLUSIVE, 0.0)
    sums = {"entries": 0, "nnz": 0, "mults": 0, "cases": 0, "iso": 0}
    chain_map_check_s = 0.0
    chain_map_mults = 0
    pairing_presents = 0
    stages = {}       # (query, space, depth) -> cells
    drivers = {}      # driver span -> the stages truncated under it
    for span in spans:
        calls[span.name] += 1
        if span.name in self_s:
            self_s[span.name] += span.self_s
        if span.name in inclusive:
            inclusive[span.name] += span.duration
        counts = span.counts or {}
        for key in sums:
            sums[key] += counts.get(key, 0)
        if span.name == "snf.matmul" and span.parent is not None \
                and span.parent.name in THEORY_DRIVERS:
            chain_map_check_s += span.duration
            chain_map_mults += counts["mults"]
        if span.name == "chainalg.present_homology" and any(
                a.name == "chainalg.pairing_matrix" for a in span.ancestors()):
            pairing_presents += 1
        if span.name == "sset.Exhaustion.truncate":
            key = (span.query, counts["space"], counts["depth"])
            stages[key] = counts["cells"]
            driver = next((a for a in span.ancestors() if a.name in THEORY_DRIVERS), None)
            if driver is not None:
                drivers.setdefault(driver, set()).add(key)
    useful = sum(d.counts["depth_used"] + 1 for d in drivers
                 if d.counts["depth_used"] is not None)
    probed = sum(len(keys) for keys in drivers.values())

    out = {}
    for name in SELF_TIMED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in INCLUSIVE:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = inclusive[name]
    out["snf.smith_normal_form.entries"] = sums["entries"]
    out["snf.smith_normal_form.nnz"] = sums["nnz"]
    out["snf.matmul.mults"] = sums["mults"]
    iso_calls = calls["chainalg.is_transition_isomorphism"]
    out["chainalg.is_transition_isomorphism.iso_ratio"] = (
        sums["iso"] / iso_calls if iso_calls else 0.0)
    out["chainalg.chain_map_check_s"] = chain_map_check_s
    out["chainalg.chain_map_check.mults"] = chain_map_mults
    out["chainalg.stage_useful_ratio"] = useful / probed if probed else 0.0
    out["chainalg.pairing_matrix.present_calls"] = pairing_presents
    out["sset.Exhaustion.truncate.cells"] = sum(stages.values())
    out["laws.run_all.cases"] = sums["cases"]
    return out
