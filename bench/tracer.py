"""Outside-in tracer: wraps public ffgs functions without changing ffgs.

Each traced function is replaced at every binding: module attributes
(ffgs modules import each other with ``from .x import f``, so one function
object can sit in several modules) and class attributes for methods.
A call made while the same function is already open is not recorded, so
a recursive function (``order_p_subgroup`` over Zloc) counts once, as its
outermost span.  Spans are kept in memory as
(name, start, end, parent, task, ok) and written out by ``dump``.

The self time of a span is its duration minus the durations of its direct
children.  Work done inside untraced helpers, such as ring arithmetic,
counts toward the traced function that called it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, qualified name, statistics reported for it)
CALLS_SELF = ("calls", "self_s")
CALLS_INCL = ("calls", "incl_s")
TARGETS = [
    ("linalg", "echelon", ("calls", "self_s", "cells_in", "max_cols", "rank_per_row")),
    ("linalg", "reduce_mod_span", CALLS_SELF),
    ("linalg", "member", CALLS_SELF),
    ("linalg", "member_with_coeffs", CALLS_SELF),
    ("linalg", "row_kernel", CALLS_SELF),
    ("constructions", "ClosedSubgroup.verify_hopf_ideal", CALLS_INCL),
    ("constructions", "is_normal", CALLS_INCL),
    ("constructions", "quotient", CALLS_INCL),
    ("constructions", "ideal_closure", CALLS_INCL),
    ("constructions", "ClosedSubgroup.scheme", CALLS_INCL),
    ("constructions", "extension_witness", CALLS_INCL),
    ("constructions", "kernel", CALLS_INCL),
    ("constructions", "image", CALLS_INCL),
    ("structure", "theorem_decompose", ("incl_s",)),
    ("structure", "fiber_report", ("incl_s",)),
    ("structure", "locus_report", ("incl_s",)),
    ("structure", "order_p_subgroup", ("incl_s",)),
    ("structure", "p_primary_decompose", ("incl_s",)),
    ("structure", "internal_product", ("incl_s",)),
    ("structure", "hochschild_split", ("incl_s",)),
    ("structure", "splitting_points", ("incl_s",)),
    ("structure", "etale_unique_subgroup", ("incl_s",)),
    ("structure", "identity_component", ("incl_s",)),
    ("structure", "common_refinement", ("incl_s",)),
    ("structure", "is_etale", ("calls",)),
    ("hopf", "GroupScheme.verify", CALLS_SELF),
    ("hopf", "GroupScheme.tensor_mul", CALLS_SELF),
    ("hopf", "GroupScheme.mul_vec", CALLS_SELF),
    ("hopf", "GroupScheme.comult_vec", CALLS_SELF),
    ("hopf", "GroupScheme.base_change", CALLS_SELF),
    ("hopf", "GroupScheme.from_dict", CALLS_SELF),
    ("hopf", "GroupScheme.to_dict", CALLS_SELF),
    ("hopf", "power_map_alg", CALLS_INCL),
    ("hopf", "convolution", CALLS_INCL),
    ("hopf", "cartier_dual", CALLS_INCL),
    ("hopf", "trace_discriminant", CALLS_INCL),
    ("hopf", "points", ("calls", "incl_s", "self_s", "failed", "points_out", "ok_ratio")),
    ("hopf", "characters", CALLS_SELF),
    ("hopf", "hom_on_points", CALLS_SELF),
    ("testrings", "test_ring_family", ("calls", "incl_s", "rings_out")),
    ("rings", "find_hom", CALLS_SELF),
    ("rings", "spectrum", CALLS_SELF),
    ("rings", "parse_ring", CALLS_SELF),
    ("rings", "hom_preimage", CALLS_SELF),
    ("oracle", "AbstractGroup.identify", CALLS_INCL),
    ("oracle", "subgroup_lattice", CALLS_INCL),
    ("cli", "main", ("incl_s",)),
    ("cli", "load_scheme", ("incl_s",)),
    ("cli", "emit", ("incl_s",)),
]
MODULES = ("cli", "rings", "linalg", "hopf", "constructions", "structure",
           "oracle", "testrings")

UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "cells_in": "count",
         "max_cols": "count", "rank_per_row": "ratio", "failed": "count",
         "points_out": "count", "ok_ratio": "ratio", "rings_out": "count"}
HIGHER_IS_BETTER = {"rank_per_row", "ok_ratio"}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for mod, qual, stats in TARGETS:
        for stat in stats:
            out.append((f"{mod}.{qual}.{stat}", UNITS[stat],
                        "higher" if stat in HIGHER_IS_BETTER else "lower"))
    out += [(f"{mod}.self_s", "s", "lower") for mod in MODULES]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def _echelon_counts(counts, args, out):
    rows = args[1]
    if rows:
        counts["cells_in"] += len(rows) * len(rows[0])
        counts["max_cols"] = max(counts["max_cols"], len(rows[0]))
        counts["rows_in"] += len(rows)
        counts["rows_out"] += len(out[0])


def _points_counts(counts, args, out):
    counts["points_out"] += out.order


def _family_counts(counts, args, out):
    counts["rings_out"] += len(out)


PROBES = {"linalg.echelon": _echelon_counts, "hopf.points": _points_counts,
          "testrings.test_ring_family": _family_counts}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.open: set[str] = set()
        self.counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self.enabled = False
        self.task = None
        self._undo: list = []

    # -- recording -----------------------------------------------------
    def wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or name in self.open:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            self.open.add(name)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.open.discard(name)
                self.spans[idx] = (name, t0, t1, parent, self.task, ok)
            if probe is not None:
                probe(self.counts[name], args, out)
            return out

        return traced

    def install(self, package="ffgs"):
        """Patch every binding of every target; ``uninstall`` undoes it."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == package or n.startswith(package + "."))]
        for mod, qual, _ in TARGETS:
            owner = sys.modules[f"{package}.{mod}"]
            name = f"{mod}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._patch(cls, attr, raw, new)
                continue
            fn = getattr(owner, qual)
            new = self.wrap(name, fn)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, attr, fn, new)

    def _patch(self, obj, attr, old, new):
        setattr(obj, attr, new)
        self._undo.append((obj, attr, old))

    def uninstall(self):
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()

    # -- reporting -----------------------------------------------------
    def dump(self, path):
        """Write the spans as gzipped JSON lines; returns how many."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "task", "ok"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        return len(self.spans)

    def metrics(self):
        return layer_metrics(self.spans, self.counts)


def self_times(spans):
    """Self time of every span: duration minus its direct children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans, counts):
    """Per-layer metric values from spans and probe counts (no overhead
    ratio; the caller adds it)."""
    own = self_times(spans)
    agg = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                               "failed": 0})
    for s, t in zip(spans, own):
        a = agg[s[0]]
        a["calls"] += 1
        a["incl_s"] += s[2] - s[1]
        a["self_s"] += t
        a["failed"] += not s[5]
    values = {}
    module_self = defaultdict(float)
    for mod, qual, stats in TARGETS:
        name = f"{mod}.{qual}"
        a, c = agg[name], counts.get(name, {})
        module_self[mod] += a["self_s"]
        for stat in stats:
            if stat == "rank_per_row":
                v = c.get("rows_out", 0) / c["rows_in"] if c.get("rows_in") else 0.0
            elif stat == "ok_ratio":
                v = (a["calls"] - a["failed"]) / a["calls"] if a["calls"] else 1.0
            elif stat in a:
                v = a[stat]
            else:
                v = c.get(stat, 0)
            values[f"{name}.{stat}"] = v
    for mod in MODULES:
        values[f"{mod}.self_s"] = module_self[mod]
    return values
