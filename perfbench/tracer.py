"""Outside-in tracing of pcml's layers, used only by traced passes.

Each wrapped public function records a span (name, start, end, parent).
Spans are aggregated in memory per (name, parent) into a call count,
total time and self time (total minus the time of child spans).  A
wrapper replaces the module attribute and every ``from .x import f``
binding of the same function object in the other pcml modules, so calls
between modules are seen too.  Nothing inside pcml is edited.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Any, Callable, Dict, Optional

# (module, attribute, span name); several functions may share one name.  Only
# functions some metric reads are wrapped: a span nothing reports would take
# its self time out of its parent's.
SPANS = (
    ("graphs", "components_within", "graphs.components_within"),
    ("core", "bracket", "core.bracket"),
    ("core", "act", "core.act"),
    ("core", "monomial_normal_form", "core.monomial_normal_form"),
    ("core", "basis_monomials_of_multidegree", "core.basis_monomials"),
    ("core", "basis_monomials_of_degree", "core.basis_monomials"),
    ("core", "basis_monomial_with_start", "core.basis_monomials"),
    ("core", "is_basis_monomial", "core.is_basis_monomial"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "in_rowspan", "linalg.in_rowspan"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "integer_clear", "linalg.integer_clear"),
    ("linalg", "same_rowspan", "linalg.same_rowspan"),
    ("linalg", "intersect_rowspans", "linalg.intersect_rowspans"),
    ("oracle", "certify_basis", "oracle.certify_basis"),
    ("oracle", "ideal_member", "oracle.ideal_member"),
    ("centralizer", "derived_centralizer", "centralizer.derived_centralizer"),
    ("centralizer", "check_intersection_theorem", "centralizer.check_intersection_theorem"),
    ("equivalence", "eval_theta", "equivalence.eval_theta"),
    ("equivalence", "search_theta_witness", "equivalence.search_theta_witness"),
    ("equivalence", "phi_lambda", "equivalence.phi_lambda"),
    ("equivalence", "lambda_zero", "equivalence.lambda_zero"),
    ("equivalence", "gamma_closure", "equivalence.gamma_closure"),
    ("textio", "parse_element", "textio.parse_element"),
)

LINALG_CALLS = ("kernel_basis", "in_rowspan", "intersect_rowspans", "same_rowspan")


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


class Tracer:
    def __init__(self, pcml):
        self.pcml = pcml
        self.recording = False
        self.stack = [["", 0.0]]  # frames: [span name, time spent in child spans]
        self.spans: Dict[tuple, list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.tallies: Counter = Counter()
        self.distinct = defaultdict(set)
        self.matrix = Counter()  # cells summed, maxima of rows, cols, entry bits

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn: Callable, before: Optional[Callable] = None,
             tally: Optional[Callable[[Any], float]] = None) -> Callable:
        tracer, stack, spans, clock = self, self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if before is not None:
                # bookkeeping time is kept out of every span's self time
                h0 = clock()
                before(args)
                parent[1] += clock() - h0
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                rec = spans.get((name, parent[0]))
                if rec is None:
                    rec = spans[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if tally is not None:
                tracer.tallies[name] += tally(out)
            return out

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        tracer, counts = self, self.counts

        def wrapper(*args):
            if tracer.recording:
                counts[name] += 1
            return fn(*args)

        return wrapper

    # -- hooks -------------------------------------------------------------

    def _components_args(self, args) -> None:
        graph, vertices = args[0], args[1]
        self.distinct["graphs.components_within"].add((graph.n, graph.edges, frozenset(vertices)))

    def _rref_args(self, args) -> None:
        rows = args[0]
        if not rows:
            return
        m = self.matrix
        nrows, ncols = len(rows), len(rows[0])
        m["cells"] += nrows * ncols
        m["max_rows"] = max(m["max_rows"], nrows)
        m["max_cols"] = max(m["max_cols"], ncols)
        m["max_entry_bits"] = max(m["max_entry_bits"], max(_bits(x) for row in rows for x in row))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPANS, plus a call counter on Graph.__eq__."""
        pcml = self.pcml
        modules = [m for k, m in sys.modules.items() if k == "pcml" or k.startswith("pcml.")]
        hooks = {"graphs.components_within": self._components_args, "linalg.rref": self._rref_args}
        tallies = {
            "centralizer.derived_centralizer": lambda s: len(s.elements),
            "equivalence.eval_theta": lambda r: 1 if r.holds else 0,
            "equivalence.gamma_closure": len,
        }
        for module_name, attr, name in SPANS:
            original = getattr(getattr(pcml, module_name), attr)
            wrapper = self.span(name, original, hooks.get(name), tallies.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        pcml.graphs.Graph.__eq__ = self.counter("graphs.eq", pcml.graphs.Graph.__eq__)

    # -- per-layer metrics -------------------------------------------------

    def _calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def _self(self, name: str) -> float:
        return sum((rec[2] for (n, _), rec in self.spans.items() if n == name), 0.0)

    def metrics(self) -> Dict[str, float]:
        pcml = self.pcml
        out: Dict[str, float] = {}

        def calls_and_self(name):
            out[name + ".calls"] = self._calls(name)
            out[name + ".self_s"] = self._self(name)

        calls_and_self("graphs.components_within")
        calls = out["graphs.components_within.calls"]
        distinct = len(self.distinct["graphs.components_within"])
        out["graphs.components_within.repeat_ratio"] = 1 - distinct / calls if calls else 0.0
        out["graphs.eq.calls"] = self.counts["graphs.eq"]
        for name in ("core.bracket", "core.act", "core.monomial_normal_form",
                     "core.basis_monomials", "core.is_basis_monomial"):
            calls_and_self(name)
        _cache_metrics(out, "core.nf_cache", getattr(pcml.core, "_monomial_nf", None))

        out["linalg.self_s"] = sum(rec[2] for (n, _), rec in self.spans.items() if n.startswith("linalg."))
        out["linalg.eliminations"] = self._calls("linalg.rref")
        for fn in LINALG_CALLS:
            out[f"linalg.{fn}.calls"] = self._calls(f"linalg.{fn}")
        for key in ("cells", "max_rows", "max_cols", "max_entry_bits"):
            out[f"linalg.{key}"] = self.matrix[key]

        calls_and_self("oracle.certify_basis")
        calls_and_self("oracle.ideal_member")
        _cache_metrics(out, "oracle.slice_cache", getattr(pcml.oracle, "_ideal_slice", None))

        calls_and_self("centralizer.derived_centralizer")
        calls_and_self("centralizer.check_intersection_theorem")
        out["centralizer.bracket_check_s"] = sum(
            (rec[1] for key, rec in self.spans.items()
             if key == ("core.bracket", "centralizer.derived_centralizer")), 0.0)
        out["centralizer.basis_elements"] = self.tallies["centralizer.derived_centralizer"]

        calls_and_self("equivalence.eval_theta")
        evals = out["equivalence.eval_theta.calls"]
        out["equivalence.eval_theta.hold_ratio"] = (
            self.tallies["equivalence.eval_theta"] / evals if evals else 0.0)
        out["equivalence.search_theta_witness.self_s"] = self._self("equivalence.search_theta_witness")
        for name in ("equivalence.phi_lambda", "equivalence.lambda_zero", "equivalence.gamma_closure"):
            calls_and_self(name)
        closures = out["equivalence.gamma_closure.calls"]
        out["equivalence.gamma_closure.size"] = (
            self.tallies["equivalence.gamma_closure"] / closures if closures else 0.0)
        calls_and_self("textio.parse_element")
        return out


def _cache_metrics(out: Dict[str, float], prefix: str, cached) -> None:
    """Hit ratio and entry count of an lru_cache; absent if the cache is gone."""
    if not hasattr(cached, "cache_info"):
        return
    info = cached.cache_info()
    requests = info.hits + info.misses
    out[prefix + ".hit_ratio"] = info.hits / requests if requests else 0.0
    out[prefix + ".entries"] = info.currsize
