"""Span tracing of qdouble's layers, installed from outside the package.

Each traced function is replaced, as the module or class attribute its
callers look up, by a wrapper that records a span: name, start, end, parent
span and command id.  Spans stay in memory until the run writes them out.
Leaf functions called up to a million times per command (``contains``,
``centralize``) are aggregated per (name, parent, command) instead of kept one
by one, so memory stays flat; their time still counts as child time of the
parent span.  ``Cyclo.__mul__`` and ``oracle.fusion_closure`` only count
calls, so the closure oracle's time is the self time of ``all_closed_sets``.

A layer's self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import qdouble.cli
import qdouble.doubledata
import qdouble.oracle
import qdouble.subcats
from qdouble.cyclotomic import Cyclo
from qdouble.doubledata import TwistedDouble
from qdouble.groups import FiniteGroup

_now = time.perf_counter

# (owner, attribute, span name); functions looked up as module globals are
# wrapped in the module of their callers
_FUNCTIONS = (
    (qdouble.cli, "_cmd_verify", "cli.verify"),
    (qdouble.cli, "_cmd_lattice", "cli.lattice_export"),
    (qdouble.cli, "_hasse_edges", "cli.hasse_edges"),
    (qdouble.cli, "validate", "cocycles.validate"),
    (qdouble.cli, "check_identities", "cocycles.check_identities"),
    (qdouble.doubledata, "projective_table", "characters.projective_table"),
    (FiniteGroup, "centralizing_pairs", "groups.centralizing_pairs"),
    (qdouble.subcats, "enumerate_all", "subcats.enumerate_all"),
    (qdouble.subcats, "bicharacters", "subcats.bicharacters"),
    (qdouble.subcats, "subcat_members", "subcats.subcat_members"),
    (qdouble.subcats, "classify", "subcats.classify"),
    (qdouble.oracle, "centralizing_simples", "oracle.centralizing_simples"),
)
_HOT = (
    (qdouble.subcats, "contains", "subcats.contains"),
    (TwistedDouble, "centralize", "doubledata.centralize"),
)
# cached properties: a span only when the cache attribute is still empty
_PROPERTIES = (("gamma", "_gamma"), ("s_matrix", "_smatrix"), ("fusion", "_fusion"))

COUNTERS = ("cyclotomic.mul.calls", "oracle.fusion_closure.calls",
            "linmod.solve_mod.equations", "linmod.solve_mod.unknowns",
            "linmod.solve_mod.solutions", "doubledata.fusion.coefficients",
            "oracle.all_closed_sets.closed_sets")
SPAN_NAMES = tuple(name for _, _, name in _FUNCTIONS + _HOT) + tuple(
    f"doubledata.{attr}" for attr, _ in _PROPERTIES) + (
    "linmod.solve_mod", "oracle.all_closed_sets")


class Tracer:
    """Spans and counters of one traced pass; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one row per span: [name id, start, end, parent row or -1, command, child time]
        self.spans: list[list] = []
        # (name id, parent row, command) -> [calls, total time]
        self.hot: dict[tuple[int, int, int], list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.command = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _enter(self, nid: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        row = len(self.spans)
        self.spans.append([nid, _now(), 0.0, parent, self.command, 0.0])
        self._stack.append(row)
        return row

    def _exit(self, row: int) -> None:
        span = self.spans[row]
        span[2] = _now()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def _span(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            row = self._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(row)
        return traced

    def _hot_span(self, name: str, fn):
        nid = self._id(name)
        stack, spans, hot = self._stack, self.spans, self.hot

        def traced(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                parent = stack[-1] if stack else -1
                agg = hot[(nid, parent, self.command)]
                agg[0] += 1
                agg[1] += dt
                if parent >= 0:
                    spans[parent][5] += dt
        return traced

    def _cold_property(self, name: str, cache_attr: str, prop: property) -> property:
        fget, traced = prop.fget, self._span(name, prop.fget)
        counts = self.counts

        def get(obj):
            if getattr(obj, cache_attr) is not None:
                return fget(obj)
            value = traced(obj)
            if name == "doubledata.fusion":
                counts["doubledata.fusion.coefficients"] += len(value) ** 3
            return value
        return property(get, doc=prop.__doc__)

    # -- installing -------------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for owner, attr, name in _FUNCTIONS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for owner, attr, name in _HOT:
            self._patch(owner, attr, self._hot_span(name, getattr(owner, attr)))
        for attr, cache_attr in _PROPERTIES:
            self._patch(TwistedDouble, attr, self._cold_property(
                f"doubledata.{attr}", cache_attr, TwistedDouble.__dict__[attr]))
        counts = self.counts

        mul = Cyclo.__mul__

        def counted_mul(a, b):
            counts["cyclotomic.mul.calls"] += 1
            return mul(a, b)
        self._patch(Cyclo, "__mul__", counted_mul)
        self._patch(Cyclo, "__rmul__", counted_mul)

        closure = qdouble.oracle.fusion_closure

        def fusion_closure(dd, seed):
            counts["oracle.fusion_closure.calls"] += 1
            return closure(dd, seed)
        self._patch(qdouble.oracle, "fusion_closure", fusion_closure)

        solve = self._span("linmod.solve_mod", qdouble.subcats.solve_mod)

        def solve_mod(equations, n_unknowns, N):
            equations = list(equations)
            sols = solve(equations, n_unknowns, N)
            counts["linmod.solve_mod.equations"] += len(equations)
            counts["linmod.solve_mod.unknowns"] += n_unknowns
            counts["linmod.solve_mod.solutions"] += len(sols)
            return sols
        self._patch(qdouble.subcats, "solve_mod", solve_mod)

        closed_sets = self._span("oracle.all_closed_sets", qdouble.oracle.all_closed_sets)

        def all_closed_sets(dd):
            result = closed_sets(dd)
            counts["oracle.all_closed_sets.closed_sets"] += len(result)
            return result
        self._patch(qdouble.oracle, "all_closed_sets", all_closed_sets)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, float], Counter]:
        """Self time and call count per span name."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for nid, start, end, _, _, child in self.spans:
            self_s[self.names[nid]] += (end - start) - child
            calls[self.names[nid]] += 1
        for (nid, _, _), (n, total) in self.hot.items():
            self_s[self.names[nid]] += total
            calls[self.names[nid]] += n
        return dict(self_s), calls

    def write(self, path: str, commands: list[str]) -> None:
        doc = {"names": self.names,
               "commands": commands,
               "span_fields": ["name", "start_s", "end_s", "parent", "command"],
               "spans": [[s[0], s[1], s[2], s[3], s[4]] for s in self.spans],
               "aggregated_fields": ["name", "parent", "command", "calls", "total_s"],
               "aggregated": [[k[0], k[1], k[2], v[0], v[1]]
                              for k, v in self.hot.items()],
               "counters": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
