"""Spans around bugshare functions, installed from outside by module-attribute name.

``Tracer`` replaces each target function with a wrapper that records a span
(name, parent, start, end, work count) and rebinds every alias of the same
function object in the loaded bugshare modules, because callers resolve names
in their own module (``simulate`` calls its imported ``draw``).  A target that
no longer exists is reported as absent.  ``uninstall`` puts every original
back.  Spans are recorded only while ``active`` is set, so that the runner's
own cross-checks stay out of them.  Spans stay in memory; ``layer_metrics``
turns them into the per-layer metrics and ``dump`` writes them out.  The
span stack assumes one thread, as the benchmark runs with BUGSHARE_THREADS
unset.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np


def _rows(args, kwargs, result):
    return int(np.shape(args[0])[0])


def _values(args, kwargs, result):
    return int(np.size(result))


def _groupings(args, kwargs, result):
    return int(np.shape(result[0])[0])


def _nnz(matrix) -> int:
    if matrix is None:
        return 0
    return int(matrix.nnz) if hasattr(matrix, "nnz") else int(np.count_nonzero(matrix))


def _solve(args, kwargs, result):
    nnz = _nnz(kwargs.get("A_ub")) + _nnz(kwargs.get("A_eq"))
    return (int(getattr(result, "nit", 0)), nnz)


def _violations(args, kwargs, result):
    return len(getattr(result, "violations", ()))


# (span name, module, attribute, work counter).  The span's layer is the part
# of its name before the first dot.  Building an LP has two phases, the
# constraint model and its dense arrays, and both are ``lowerbound.build``
# spans; the model validation inside ``solve_lp`` stays in the sum bound's
# self time.
TARGETS = (
    ("distributions.draw", "bugshare.distributions", "draw", _values),
    ("distributions.discretize", "bugshare.distributions", "discretize", None),
    ("simulate.estimate", "bugshare.simulate", "estimate", None),
    ("simulate.kernel.cs", "bugshare.simulate", "batch_cs_delays", _rows),
    ("simulate.kernel.gcsod", "bugshare.simulate", "batch_gcsod_delays", _rows),
    ("simulate.exact_grouping", "bugshare.simulate", "_exact_grouping_delays", _rows),
    ("mechanisms.allocate", "bugshare.mechanisms", "cs_allocate", None),
    ("mechanisms.allocate", "bugshare.mechanisms", "csd_allocate", None),
    ("mechanisms.allocate", "bugshare.mechanisms", "csod_allocate", None),
    ("mechanisms.allocate", "bugshare.mechanisms", "gcsod_allocate", None),
    ("mechanisms.grouping_table", "bugshare.mechanisms", "grouping_table", _groupings),
    ("mechanisms.gcsod_expected", "bugshare.mechanisms", "gcsod_expected", None),
    ("lowerbound.max_bound", "bugshare.lowerbound", "max_delay_lower_bound", None),
    ("lowerbound.sum_bound", "bugshare.lowerbound", "sum_delay_lower_bound", None),
    ("lowerbound.build", "bugshare.lowerbound", "build_common_constraints", None),
    ("lowerbound.build", "bugshare.lowerbound", "_arrays", None),
    ("lowerbound.solve", "bugshare.lowerbound", "linprog", _solve),
    ("audit.check", "bugshare.audit", "check_sp", _violations),
    ("audit.check", "bugshare.audit", "check_monotonicity", _violations),
    ("audit.check", "bugshare.audit", "myerson_payment", _violations),
    ("audit.check", "bugshare.audit", "check_competitive_max", _violations),
    ("audit.check", "bugshare.audit", "check_competitive_sum", _violations),
)

# Spans a rule evaluation opens; an audit probe is one of these directly under an audit span.
PROBE_SPANS = ("mechanisms.allocate", "mechanisms.gcsod_expected")


@dataclass(slots=True)
class Span:
    id: int
    parent: int  # -1 at the top
    name: str
    start_ns: int
    end_ns: int = 0
    work: object = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.active = False  # spans are recorded only while this is set
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(len(spans), stack[-1].id if stack else -1, name, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if counter is not None:
                span.work = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items()) if name.split(".")[0] == "bugshare"
        ]
        for span_name, module_name, attr, counter in self.targets:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "work"],
            "spans": [[s.id, s.parent, s.name, s.start_ns, s.end_ns, s.work] for s in self.spans],
        }


def _layer(name: str) -> str:
    return name.split(".")[0]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer that did nothing reports 0."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.seconds

    def parent(s: Span) -> Span | None:
        return spans[s.parent] if s.parent >= 0 else None

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(group) -> float:
        return sum(s.seconds for s in group)

    def self_s(group) -> float:
        return sum(s.seconds - child_s[s.id] for s in group)

    def work(group) -> int:  # a call that raised has no work count
        return sum(s.work for s in group if s.work is not None)

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    def in_layer(layer: str) -> list[Span]:
        return [s for s in spans if _layer(s.name) == layer]

    def under(s: Span, name: str) -> bool:
        p = parent(s)
        while p is not None:
            if p.name == name:
                return True
            p = parent(p)
        return False

    draw = named("distributions.draw")
    cs = named("simulate.kernel.cs")
    gcsod = named("simulate.kernel.gcsod")
    exact = named("simulate.exact_grouping")
    # Rules call rules (cs -> csd); count only the outermost allocation.
    allocate = [
        s for s in named("mechanisms.allocate")
        if parent(s) is None or parent(s).name != "mechanisms.allocate"
    ]
    table = named("mechanisms.grouping_table")
    build = named("lowerbound.build")
    solve = named("lowerbound.solve")
    solved = [s.work for s in solve if s.work is not None]
    solve_ms = np.array([s.seconds * 1e3 for s in solve]) if solve else np.zeros(1)
    max_bounds = named("lowerbound.max_bound")
    bounds = len(max_bounds) + len(named("lowerbound.sum_bound"))
    checks = [
        s for s in named("audit.check")
        if parent(s) is None or _layer(parent(s).name) != "audit"
    ]
    probes = [
        s for s in spans
        if s.name in PROBE_SPANS and parent(s) is not None and _layer(parent(s).name) == "audit"
    ]
    return {
        "distributions.draw.calls": len(draw),
        "distributions.draw.values": work(draw),
        "distributions.draw.self_s": self_s(draw),
        "distributions.draw.ns_per_value": per(self_s(draw), work(draw), 1e9),
        "distributions.discretize.self_s": self_s(named("distributions.discretize")),
        "simulate.estimate.calls": len(named("simulate.estimate")),
        "simulate.estimate.self_s": self_s(named("simulate.estimate")),
        "simulate.kernel.cs.rows": work(cs),
        "simulate.kernel.cs.ns_per_row": per(total(cs), work(cs), 1e9),
        "simulate.kernel.gcsod.rows": work(gcsod),
        "simulate.kernel.gcsod.ns_per_row": per(total(gcsod), work(gcsod), 1e9),
        "simulate.exact_grouping.profiles": work(exact),
        "simulate.exact_grouping.us_per_profile": per(total(exact), work(exact), 1e6),
        "mechanisms.allocate.calls": len(allocate),
        "mechanisms.allocate.us_per_call": per(total(allocate), len(allocate), 1e6),
        "mechanisms.grouping_table.calls": len(table),
        "mechanisms.grouping_table.rows": work(table),
        "mechanisms.grouping_table.ns_per_row": per(total(table), work(table), 1e9),
        "mechanisms.gcsod_expected.us_per_call": per(
            total(named("mechanisms.gcsod_expected")), len(named("mechanisms.gcsod_expected")), 1e6
        ),
        "lowerbound.build.calls": len(build),
        "lowerbound.build.ms_per_call": per(total(build), len(build), 1e3),
        "lowerbound.solve.calls": len(solve),
        "lowerbound.solve.ms_p50": float(np.percentile(solve_ms, 50)),
        "lowerbound.solve.ms_p90": float(np.percentile(solve_ms, 90)),
        "lowerbound.solve.iterations": sum(nit for nit, _ in solved),
        "lowerbound.solve.nnz": sum(nnz for _, nnz in solved),
        "lowerbound.solves_per_max_bound": per(
            sum(under(s, "lowerbound.max_bound") for s in solve), len(max_bounds)
        ),
        "lowerbound.useful_solve_ratio": per(bounds, len(solve)),
        "lowerbound.self_s": self_s(in_layer("lowerbound")),
        "audit.probes": len(probes),
        "audit.probes_per_s": per(len(probes), total(checks)),
        "audit.self_s": self_s(in_layer("audit")),
        "audit.violations": work(checks),
    }
