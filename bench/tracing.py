"""Span tracing of the cohiggs layers from outside the package.

``Tracer.install`` replaces the layer-boundary functions listed in
``TARGETS`` with wrappers that record one span per call: name, start, end,
parent span and op id.  Spans stay in memory in flat arrays until the pass
ends.  Self time is derived from the span tree afterwards, so the wrappers do
no arithmetic beyond reading the clock.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, module, attribute path).  A generator function gets one span
# per ``next()``, so the work done while producing each item is attributed
# to it.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("lie.parse_group", "lie", "parse_group"),
    ("lie.build_root_system", "lie", "build_root_system"),
    ("lie.all_root_values", "lie", "all_root_values"),
    ("strata.enumerate_strata", "strata", "enumerate_strata"),
    ("strata.dim_cohiggs_space", "strata", "dim_cohiggs_space"),
    ("strata.dim_automorphisms", "strata", "dim_automorphisms"),
    ("strata.dim_stratum", "strata", "dim_stratum"),
    ("criterion.evaluate_criterion", "criterion", "evaluate_criterion"),
    ("criterion.adjoint_splitting", "criterion", "adjoint_splitting"),
    ("glr.SplittingType", "glr", "SplittingType.__init__"),
    ("glr.splitting_to_hn", "glr", "splitting_to_hn"),
    ("symplectic.sp_to_hn", "symplectic", "sp_to_hn"),
    ("poly.HomogPoly.new", "poly", "HomogPoly.__init__"),
    ("poly.HomogPoly.mul", "poly", "HomogPoly.__mul__"),
    ("poly.HomogPoly.gcd", "poly", "HomogPoly.gcd"),
    ("poly.gcd_many", "poly", "gcd_many"),
    ("oracle.CoHiggsMatrix", "oracle", "CoHiggsMatrix.__init__"),
    ("oracle.transpose_dual", "oracle", "CoHiggsMatrix.transpose_dual"),
    ("oracle.semistability_oracle", "oracle", "semistability_oracle"),
    ("oracle.enumerate_line_subbundles", "oracle", "enumerate_line_subbundles"),
    ("oracle.is_invariant", "oracle", "is_invariant"),
    ("oracle.apply_field", "oracle", "apply_field"),
)

_ENUM = "oracle.enumerate_line_subbundles"

# Per-layer metrics: (name, unit, better).  ``X.calls`` counts spans of X and
# ``X.self_s`` sums their self time.  The comments name the end-to-end
# metric and workload each group is expected to move.
PER_LAYER = (
    # latency_p50_ms on criterion; no change on oracle-sweep, which skips the cli
    ("cli.main.self_s", "s", "lower"),
    ("lie.parse_group.self_s", "s", "lower"),
    # wall_s and latency_p90_ms on criterion; about 0 on strata
    ("lie.build_root_system.calls", "count", "lower"),
    ("lie.build_root_system.self_s", "s", "lower"),
    # wall_s on strata
    ("lie.all_root_values.calls", "count", "lower"),
    ("lie.all_root_values.self_s", "s", "lower"),
    ("lie.root_values_emitted", "count", "lower"),
    # wall_s and peak_rss_mb on strata
    ("strata.enumerate_strata.self_s", "s", "lower"),
    ("strata.dim_cohiggs_space.self_s", "s", "lower"),
    ("strata.dim_automorphisms.self_s", "s", "lower"),
    ("strata.dim_stratum.self_s", "s", "lower"),
    ("strata.records", "count", "higher"),
    # all_root_values calls per stratum: 5 with one pass per dimension
    ("strata.root_value_passes_per_record", "ratio", "lower"),
    # latency_p50_ms on criterion
    ("criterion.evaluate_criterion.calls", "count", "lower"),
    ("criterion.evaluate_criterion.self_s", "s", "lower"),
    ("criterion.adjoint_splitting.self_s", "s", "lower"),
    ("glr.SplittingType.calls", "count", "lower"),
    ("glr.SplittingType.self_s", "s", "lower"),
    ("glr.splitting_to_hn.self_s", "s", "lower"),
    ("symplectic.sp_to_hn.self_s", "s", "lower"),
    # wall_s on oracle-certify; latency_p50_ms on oracle-sweep
    ("poly.HomogPoly.mul.calls", "count", "lower"),
    ("poly.HomogPoly.mul.self_s", "s", "lower"),
    ("poly.HomogPoly.gcd.calls", "count", "lower"),
    ("poly.HomogPoly.gcd.self_s", "s", "lower"),
    ("poly.gcd_many.calls", "count", "lower"),
    ("poly.gcd_many.self_s", "s", "lower"),
    ("poly.HomogPoly.new.calls", "count", "lower"),
    ("poly.HomogPoly.new.self_s", "s", "lower"),
    # wall_s and latency_p90_ms on oracle-certify
    ("oracle.semistability_oracle.calls", "count", "lower"),
    ("oracle.semistability_oracle.self_s", "s", "lower"),
    ("oracle.enumerate_line_subbundles.self_s", "s", "lower"),
    ("oracle.lines_yielded", "count", "lower"),
    ("oracle.is_invariant.calls", "count", "lower"),
    ("oracle.is_invariant.self_s", "s", "lower"),
    ("oracle.apply_field.self_s", "s", "lower"),
    ("oracle.transpose_dual.calls", "count", "lower"),
    # lines yielded per gcd_many call inside the enumeration: wasted candidates
    ("oracle.saturated_ratio", "ratio", "higher"),
    # latency_p50_ms on oracle-sweep
    ("oracle.CoHiggsMatrix.self_s", "s", "lower"),
    # FAILS verdicts per verdict: a property of the workload
    ("oracle.fails_ratio", "ratio", "higher"),
    # traced minus untraced wall_ref_s of the same op list
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


class Tracer:
    """Records spans of the wrapped functions for one pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: array = array("H")
        self.parents: array = array("i")
        self.ops: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name_id: int) -> int:
        i = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        count = _COUNT_RESULT.get(name)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    self.counts[name] += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count:
                self.counts[count[0]] += count[1](result)
            return result
        return traced

    def install(self, package: str = "cohiggs") -> None:
        """Wrap every target, rebinding each name wherever the package's
        modules imported it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name, module, path in TARGETS:
            owner = sys.modules[f"{package}.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            if not cls_path:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_ids]

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.starts),
                  "arrays": ["name_id:H", "parent:i", "op:i", "start:d", "end:d"]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for a in (self.name_ids, self.parents, self.ops, self.starts, self.ends):
                a.tofile(f)

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.span_names(), self.parents, self.starts, self.ends,
                             self.counts)


# Counters taken from return values: span name -> (counter, function).
_COUNT_RESULT = {
    "lie.all_root_values": ("lie.root_values_emitted", len),
    "strata.enumerate_strata": ("strata.records", len),
    "oracle.semistability_oracle": ("oracle.fails", lambda v: not v.passes),
}


def self_times(parents, starts, ends) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    Spans are given as parallel sequences, each parent listed before its
    children (parent index -1 for a root).  Spans come from one thread, so
    the children of a span are disjoint and lie inside it, and their
    durations add up to the part of the parent they cover.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for p, s, e in zip(parents, starts, ends):
        if p >= 0:
            out[p] -= e - s
    return out


def layer_totals(names, parents, starts, ends) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, total self time)."""
    calls: Counter = Counter(names)
    self_s = dict.fromkeys(calls, 0.0)
    for name, t in zip(names, self_times(parents, starts, ends)):
        self_s[name] += t
    return {name: (calls[name], self_s[name]) for name in calls}


def count_under(names, parents, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    inside = [False] * len(names)
    n = 0
    for i, p in enumerate(parents):
        inside[i] = p >= 0 and (inside[p] or names[p] == ancestor)
        n += inside[i] and names[i] == name
    return n


def layer_metrics(names, parents, starts, ends, counts: Counter) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead."""
    totals = layer_totals(names, parents, starts, ends)
    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s"):
            calls, self_s = totals.get(base, (0, 0.0))
            out[metric] = calls if kind == "calls" else self_s
    records = counts["strata.records"]
    lines = counts[_ENUM]
    gcds_in_enum = count_under(names, parents, "poly.gcd_many", _ENUM)
    verdicts = totals.get("oracle.semistability_oracle", (0, 0.0))[0]
    root_value_passes = totals.get("lie.all_root_values", (0, 0.0))[0]
    out["lie.root_values_emitted"] = counts["lie.root_values_emitted"]
    out["strata.records"] = records
    out["strata.root_value_passes_per_record"] = root_value_passes / records if records else 0.0
    out["oracle.lines_yielded"] = lines
    out["oracle.saturated_ratio"] = lines / gcds_in_enum if gcds_in_enum else 0.0
    out["oracle.fails_ratio"] = counts["oracle.fails"] / verdicts if verdicts else 0.0
    out["trace.spans"] = len(names)
    return out
