"""Span recorder for the traced run.

The traced run replays a workload's queries in one process through
``preimages.cli.main``.  While a replay is traced, every function listed in
``SPANS`` is replaced, in each ``preimages.*`` module namespace that binds
it (or on its class, for methods), by a wrapper that records a span: name,
start, end, parent span and query id, plus counts read from the arguments,
the return value and the ``stats`` dict the CLI passes down.  Spans stay in
memory until the run ends.  The package itself is not modified.

A span's self time is its duration minus the durations of its direct child
spans.  Work done in unwrapped helpers (``preimage_word``, ``image_bits``,
...) counts toward the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "fileformat", "automaton", "pairs", "extend", "avoid", "resize", "oracle",
          "report")


def _derived_missing(key):
    return lambda args, kwargs: key not in args[0]._derived


def _stats_counts(*keys):
    def post(args, kwargs, result, before):
        stats = kwargs.get("stats") or {}
        return {key: stats.get(key, 0) for key in keys}
    return post


# name -> (pre hook or None, post hook or None).  The pre hook runs before the
# call and its value reaches the post hook, which returns the span's counts.
SPANS = {
    "cli.main": (None, None),
    "fileformat.parse_automaton_file": (None, None),
    "automaton.scc": (None, None),
    "automaton.is_strongly_connected": (None, None),
    "automaton.is_permutation_automaton": (None, None),
    "automaton.sink_state": (None, None),
    "pairs.pair_table": (
        _derived_missing("pair_table"),
        lambda a, kw, res, fresh: {"pairs": a[0].n * (a[0].n - 1) // 2 if fresh else 0}),
    "pairs.is_synchronizing": (None, None),
    "pairs.minimal_rank_word": (
        _derived_missing("min_rank"),
        lambda a, kw, res, fresh: {"letters": len(res.word) if fresh else 0}),
    "pairs.greedy_reset_word": (
        None, lambda a, kw, res, before: {"letters": len(res) if res is not None else 0}),
    "pairs.avoidable_state": (None, None),
    "extend.shortest_extending_word_small": (None, _stats_counts("nodes")),
    "extend.totally_extending_word_small": (None, _stats_counts("nodes")),
    "extend.totally_extensible_synchronizing": (None, None),
    "avoid.avoiding_word": (None, _stats_counts("nodes")),
    "resize.shortest_resizing_word": (None, _stats_counts("nodes", "basis_size")),
    "resize.resizable_decision_fast": (None, None),
    "resize.RationalBasis.insert": (
        None, lambda a, kw, res, before: {"accepted": int(res is not None)}),
    "oracle.backward_subset_bfs": (None, lambda a, kw, res, before: {"subsets": len(res.reached)}),
    "oracle.forward_subset_bfs": (None, lambda a, kw, res, before: {"subsets": len(res.reached)}),
    "oracle.oracle_shortest": (None, None),
    "oracle.oracle_shortest_reset": (None, None),
    "report.witness_holds": (None, None),
    "report.WitnessReport.to_json": (None, None),
}

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, QUERY, COUNTS, ERROR, CHILD_S = range(8)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = None
        self.budget_errors: list[tuple] = []  # (query id, innermost span name)
        self._last_error = None

    def wrap(self, name, fn, pre, post):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.query, None, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter()
                span[ERROR] = type(exc).__name__
                if type(exc).__name__ == "BudgetExceededError" and exc is not self._last_error:
                    self._last_error = exc
                    self.budget_errors.append((self.query, name))
                raise
            else:
                span[END] = perf_counter()
                if post:
                    span[COUNTS] = post(args, kwargs, result, before)
                return result
            finally:
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += span[END] - span[START]
        return wrapper


@contextmanager
def traced(rec: Recorder, query_id: str):
    """Install the wrappers for one replay and remove them afterwards."""
    owners = {layer: importlib.import_module("preimages." + layer) for layer in LAYERS}
    modules = [m for name, m in list(sys.modules.items())
               if name == "preimages" or name.startswith("preimages.")]
    undo = []
    try:
        for name, (pre, post) in SPANS.items():
            module_name, attr = name.split(".", 1)
            owner = owners[module_name]
            if "." in attr:  # a method: patch the class once
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[method]
                undo.append((cls, method, fn))
                setattr(cls, method, rec.wrap(name, fn, pre, post))
                continue
            fn = getattr(owner, attr)
            wrapper = rec.wrap(name, fn, pre, post)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, key, fn))
                        setattr(module, key, wrapper)
        rec.query = query_id
        yield rec
    finally:
        rec.query = None
        for obj, key, fn in reversed(undo):
            setattr(obj, key, fn)


def totals(rec: Recorder) -> dict[str, dict]:
    """Per span name: self seconds, calls and summed counts."""
    out: dict[str, dict] = {}
    for span in rec.spans:
        entry = out.setdefault(span[NAME], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += span[END] - span[START] - span[CHILD_S]
        entry["calls"] += 1
        for key, value in (span[COUNTS] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out


def layer_shares(by_name: dict[str, dict]) -> dict[str, float]:
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for name, entry in by_name.items():
        self_by_layer[name.split(".", 1)[0]] += entry["self_s"]
    total = sum(self_by_layer.values()) or 1.0
    return {layer: s / total for layer, s in self_by_layer.items()}


def per_layer_metrics(by_name: dict[str, dict], import_s: float, overhead_frac: float,
                      budget_errors: int) -> dict[str, tuple[float, str]]:
    def self_s(*names):
        return sum(by_name.get(n, {}).get("self_s", 0.0) for n in names)

    def count(name, key):
        return by_name.get(name, {}).get(key, 0)

    ext_nodes = count("extend.shortest_extending_word_small", "nodes")
    ext_s = self_s("extend.shortest_extending_word_small")
    inserts = count("resize.RationalBasis.insert", "calls")
    m = {
        "cli.import.s": (import_s, "s"),
        "cli.main.s": (self_s("cli.main"), "s"),
        "fileformat.parse_automaton_file.s": (self_s("fileformat.parse_automaton_file"), "s"),
        "automaton.classify.s": (self_s("automaton.scc", "automaton.is_strongly_connected",
                                        "automaton.is_permutation_automaton",
                                        "automaton.sink_state"), "s"),
        "pairs.pair_table.s": (self_s("pairs.pair_table"), "s"),
        "pairs.pair_table.pairs": (count("pairs.pair_table", "pairs"), "count"),
        "pairs.minimal_rank_word.s": (self_s("pairs.minimal_rank_word"), "s"),
        "pairs.minimal_rank_word.letters": (count("pairs.minimal_rank_word", "letters"), "count"),
        "pairs.greedy_reset_word.s": (self_s("pairs.greedy_reset_word"), "s"),
        "pairs.greedy_reset_word.letters": (count("pairs.greedy_reset_word", "letters"), "count"),
        "extend.totally_extensible_synchronizing.s": (
            self_s("extend.totally_extensible_synchronizing"), "s"),
        "extend.shortest_extending_word_small.s": (ext_s, "s"),
        "extend.shortest_extending_word_small.nodes": (ext_nodes, "count"),
        "extend.shortest_extending_word_small.nodes_per_s": (
            ext_nodes / ext_s if ext_s else 0.0, "1/s"),
        "extend.totally_extending_word_small.s": (self_s("extend.totally_extending_word_small"), "s"),
        "extend.totally_extending_word_small.nodes": (
            count("extend.totally_extending_word_small", "nodes"), "count"),
        "avoid.avoiding_word.s": (self_s("avoid.avoiding_word"), "s"),
        "avoid.avoiding_word.nodes": (count("avoid.avoiding_word", "nodes"), "count"),
        "resize.shortest_resizing_word.s": (self_s("resize.shortest_resizing_word"), "s"),
        "resize.shortest_resizing_word.nodes": (count("resize.shortest_resizing_word", "nodes"), "count"),
        "resize.shortest_resizing_word.basis_size": (
            count("resize.shortest_resizing_word", "basis_size"), "count"),
        "resize.RationalBasis.insert.s": (self_s("resize.RationalBasis.insert"), "s"),
        "resize.RationalBasis.insert.calls": (inserts, "count"),
        "resize.insert_accept_ratio": (
            count("resize.RationalBasis.insert", "accepted") / inserts if inserts else 0.0, "ratio"),
        "oracle.backward_subset_bfs.s": (self_s("oracle.backward_subset_bfs"), "s"),
        "oracle.backward_subset_bfs.subsets": (count("oracle.backward_subset_bfs", "subsets"), "count"),
        "oracle.forward_subset_bfs.s": (self_s("oracle.forward_subset_bfs"), "s"),
        "oracle.forward_subset_bfs.subsets": (count("oracle.forward_subset_bfs", "subsets"), "count"),
        "oracle.oracle_shortest.s": (self_s("oracle.oracle_shortest"), "s"),
        "report.witness_holds.s": (self_s("report.witness_holds"), "s"),
        "report.WitnessReport.to_json.s": (self_s("report.WitnessReport.to_json"), "s"),
        "errors.budget_exceeded": (budget_errors, "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    for layer, share in layer_shares(by_name).items():
        m[f"share.{layer}"] = (share, "ratio")
    return m


def dump(rec: Recorder, path) -> None:
    """Write every span as one JSON line, times relative to the first span."""
    t0 = rec.spans[0][START] if rec.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(rec.spans):
            fh.write(json.dumps({
                "id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                "parent": s[PARENT], "query": s[QUERY], "self_s": s[END] - s[START] - s[CHILD_S],
                "counts": s[COUNTS], "error": s[ERROR]}) + "\n")
