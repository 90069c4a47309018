"""Span tracer for the traced benchmark run.

The tracer wraps the package from the outside and changes nothing
under ``src/``. Every public function of a library module becomes a
span named ``<module>.<function>``; because modules import each other
with ``from .weyl import bruhat_leq``, the wrapper is installed under
every name that binds the function, in every module's namespace, and
each installed copy remembers the namespace it was found in (``via``),
which tells calls from ``reduction`` apart from calls inside ``weyl``.
The CLI contributes its entry point ``main``, and the ``lift`` methods
of the reduction step classes share the span ``reduction.lift``.
``AffineElement.__mul__`` and ``AffineElement.length`` run 10^5 times
per problem and are only counted.

Spans stay in memory as ``[name, via, start, end, parent, problem,
measure]`` lists until the run ends. A span's self time is its
duration minus the durations of its direct children; calls nest
strictly in one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
import types

LIBRARY = ("reduction", "superbasic", "acceptable", "newton", "weyl")

# Per-span summaries of the return value, for the ratios that need one.
MEASURES = {
    "weyl.bruhat_leq": bool,
    "superbasic.sharp_peel": lambda cert: len(cert.chain),
    "acceptable.adm_enumerate": len,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {"weyl.mul": 0, "weyl.length": 0}
        self.problem = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers ------------------------------------------------------------

    def _span(self, name: str, via: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = MEASURES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, via, clock(), 0.0, stack[-1] if stack else -1, tracer.problem, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if measure is not None:
                rec[6] = measure(result)
            return result

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, extra=()) -> None:
        """Wrap the package; ``extra`` lists further ``(via, module)``
        namespaces that imported package functions by name."""
        modules = {m: importlib.import_module(f"bgmu.{m}") for m in LIBRARY + ("cli",)}
        names: dict[int, str] = {}
        for short in LIBRARY:
            mod = modules[short]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    names[id(obj)] = f"{short}.{attr}"
        names[id(modules["cli"].main)] = "cli.main"
        namespaces = list(modules.items()) + list(extra)
        for via, ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in names and not attr.startswith("__"):
                    self._patch(ns, attr, self._span(names[id(obj)], via, obj))
        reduction = modules["reduction"]
        for cls in vars(reduction).values():
            if isinstance(cls, type) and cls.__module__ == reduction.__name__ and "lift" in vars(cls):
                self._patch(cls, "lift", self._span("reduction.lift", "reduction", vars(cls)["lift"]))
        element = modules["weyl"].AffineElement
        self._patch(element, "__mul__", self._count("weyl.mul", vars(element)["__mul__"]))
        self._patch(element, "length", self._count("weyl.length", vars(element)["length"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # --- output ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def memo_info():
    """(hits, misses, entries) of the process-wide Bruhat memo, or None
    once the memo is gone."""
    core = getattr(importlib.import_module("bgmu.weyl"), "_bruhat_core", None)
    info = getattr(core, "cache_info", None)
    if info is None:
        return None
    i = info()
    return i.hits, i.misses, i.currsize


def layer_metrics(tracer: Tracer, problem_n: dict[int, int], wall: dict[int, float],
                  memo_before, memo_after, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, per attempted problem.

    ``problem_n`` maps problem ids to their rank and ``wall`` to their
    wall time in the traced loop.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    via_calls: dict[tuple[str, str], int] = {}
    tried = hits = 0
    adm_big = leq_big = 0.0
    for rec, own in zip(spans, selfs):
        name, via, start, end, parent, pid, measure = rec
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        via_calls[name, via] = via_calls.get((name, via), 0) + 1
        if name == "weyl.bruhat_leq":
            if parent >= 0 and spans[parent][0] == "acceptable.adm_member":
                tried += 1
                hits += bool(measure)
            if problem_n.get(pid, 0) >= 16:
                leq_big += end - start
        elif name == "acceptable.adm_member" and problem_n.get(pid, 0) >= 8:
            adm_big += end - start

    def total_measure(name):
        return sum(rec[6] for rec in spans if rec[0] == name and rec[6] is not None)

    count = max(len(wall), 1)

    def per(x):
        return x / count

    wall_big8 = sum(t for pid, t in wall.items() if problem_n[pid] >= 8)
    wall_big16 = sum(t for pid, t in wall.items() if problem_n[pid] >= 16)
    out = {
        "acceptable.adm_member.calls": per(calls.get("acceptable.adm_member", 0)),
        "acceptable.adm_member.self_s": per(self_s.get("acceptable.adm_member", 0.0)),
        "acceptable.adm_member.points_tried": per(tried),
        "acceptable.adm_member.hit_ratio": hits / tried if tried else 0.0,
        "acceptable.adm_member.share_n_ge_8": adm_big / wall_big8 if wall_big8 else 0.0,
        "weyl.bruhat_leq.calls": per(calls.get("weyl.bruhat_leq", 0)),
        "weyl.bruhat_leq.self_s": per(self_s.get("weyl.bruhat_leq", 0.0)),
        "weyl.bruhat_leq.share_n_ge_16": leq_big / wall_big16 if wall_big16 else 0.0,
        "weyl.left_descent.calls": per(calls.get("weyl.left_descent", 0)),
        "weyl.left_descent.self_s": per(self_s.get("weyl.left_descent", 0.0)),
        "weyl.length.calls": per(tracer.counts["weyl.length"]),
        "weyl.mul.calls": per(tracer.counts["weyl.mul"]),
        "superbasic.bruhat_lt.calls": per(via_calls.get(("weyl.bruhat_lt", "superbasic"), 0)),
        "superbasic.sharp_peel.self_s": per(self_s.get("superbasic.sharp_peel", 0.0)),
        "superbasic.sharp_peel.chain_steps": per(total_measure("superbasic.sharp_peel")),
        "superbasic.superbasic_witness.self_s": per(self_s.get("superbasic.superbasic_witness", 0.0)),
        "weyl.bruhat_lower_set.self_s": per(self_s.get("weyl.bruhat_lower_set", 0.0)),
        "weyl.reduced_word.self_s": per(self_s.get("weyl.reduced_word", 0.0)),
        "acceptable.adm_enumerate.self_s": per(self_s.get("acceptable.adm_enumerate", 0.0)),
        "acceptable.adm_enumerate.elements": per(total_measure("acceptable.adm_enumerate")),
        "acceptable.enumerate_acceptable.self_s": per(self_s.get("acceptable.enumerate_acceptable", 0.0)),
        "acceptable.maximal_newton_state.self_s": per(self_s.get("acceptable.maximal_newton_state", 0.0)),
        "newton.newton_point.calls": per(calls.get("newton.newton_point", 0)),
        "newton.newton_point.self_s": per(self_s.get("newton.newton_point", 0.0)),
        "newton.dominant_rep.calls": per(calls.get("newton.dominant_rep", 0)),
        "reduction.lift.calls": per(calls.get("reduction.lift", 0)),
        "reduction.lift.self_s": per(self_s.get("reduction.lift", 0.0)),
        "reduction.bruhat_leq.calls": per(via_calls.get(("weyl.bruhat_leq", "reduction"), 0)),
        "reduction.solve.self_s": per(self_s.get("reduction.solve", 0.0)),
        "reduction.parabolic_reduce.self_s": per(self_s.get("reduction.parabolic_reduce", 0.0)),
        "reduction.product_split.self_s": per(self_s.get("reduction.product_split", 0.0)),
        "reduction.factor_witness.self_s": per(self_s.get("reduction.factor_witness", 0.0)),
        "cli.main.self_s": per(self_s.get("cli.main", 0.0)),
        "cli.stdout_bytes": per(stdout_bytes),
    }
    if memo_before is not None and memo_after is not None:
        lookups = (memo_after[0] - memo_before[0]) + (memo_after[1] - memo_before[1])
        out["weyl.bruhat_memo.hit_ratio"] = (memo_after[0] - memo_before[0]) / lookups if lookups else 0.0
        out["weyl.bruhat_memo.entries"] = per(memo_after[2])
    else:  # the memo is gone: reported as 0 and flagged absent in the report
        out["weyl.bruhat_memo.hit_ratio"] = 0.0
        out["weyl.bruhat_memo.entries"] = 0.0
    return out
