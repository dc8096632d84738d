"""Per-layer spans recorded from outside the package.

``Tracer`` replaces a public function at the attribute its caller looks up
(a module global such as ``polyteam.cli.eval_formula`` or a class attribute
such as ``polyteam.evaluator.BulkEvaluator.holds``) with a wrapper that
records one span per call, and puts every original back on exit.  No source
file changes.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from typing import NamedTuple, Optional

# span name, module, class (or None for a module attribute), attribute,
# and how to count the work a call did from its result (or None)
SPANS = (
    ("cli.load_team_csv", "polyteam.cli", None, "load_team_csv", len),
    ("cli.assemble_structure", "polyteam.cli", None, "assemble_structure", None),
    ("model.Team.relation", "polyteam.model", "Team", "relation", None),
    ("syntax.parse", "polyteam.cli", None, "parse", None),
    ("syntax.format_formula", "polyteam.cli", None, "format_formula", None),
    ("evaluator.eval_formula", "polyteam.cli", None, "eval_formula", None),
    ("evaluator.holds", "polyteam.evaluator", "BulkEvaluator", "holds", None),
    ("atoms.check_atom", "polyteam.atoms", None, "check_atom", None),
    ("atoms.pdep", "polyteam.atoms", None, "check_polydep", None),
    ("atoms.pinc", "polyteam.atoms", None, "check_polyinc", None),
    ("atoms.pexc", "polyteam.atoms", None, "check_polyexc", None),
    ("atoms.pind", "polyteam.atoms", None, "check_polyind", None),
    ("implication.decide", "polyteam.cli", None, "decide",
     lambda verdict: len(verdict.trace or ())),
    ("implication.replay_trace", "polyteam.cli", None, "replay_trace",
     lambda derivation: len(derivation.steps)),
    ("rewrite.rewrite_formula", "polyteam.cli", None, "rewrite_formula", None),
    ("rewrite.eliminate_global_disjunction", "polyteam.cli", None,
     "eliminate_global_disjunction", None),
    ("rewrite.decompose_by_sort", "polyteam.cli", None, "decompose_by_sort", None),
    ("oracle.equivalent", "polyteam.cli", None, "equivalent", None),
)

# the per-layer metrics, in report order, with their units
PER_LAYER = (
    ("cli.load_team_csv.s", "s"), ("cli.load_team_csv.rows", "count"),
    ("cli.assemble_structure.s", "s"),
    ("model.Team.relation.s", "s"), ("model.Team.relation.calls", "count"),
    ("syntax.parse.s", "s"), ("syntax.parse.calls", "count"),
    ("syntax.format_formula.s", "s"),
    ("evaluator.eval_formula.s", "s"), ("evaluator.self_s", "s"),
    ("evaluator.nodes", "count"), ("evaluator.cache_hits", "count"),
    ("evaluator.cache_hit_ratio", "ratio"), ("evaluator.exhausted", "count"),
    ("evaluator.holds.calls", "count"), ("evaluator.holds_us.p50", "us"),
    ("evaluator.holds_us.p99", "us"),
    ("atoms.check_atom.calls", "count"), ("atoms.check_atom.s", "s"),
    ("atoms.pdep.s", "s"), ("atoms.pinc.s", "s"), ("atoms.pexc.s", "s"),
    ("atoms.pind.s", "s"),
    ("implication.decide.s", "s"), ("implication.trace_len", "count"),
    ("implication.replay_trace.s", "s"), ("implication.replay_steps", "count"),
    ("rewrite.rewrite_formula.s", "s"), ("rewrite.eliminate_global_disjunction.s", "s"),
    ("rewrite.decompose_by_sort.s", "s"),
    ("oracle.equivalent.s", "s"), ("oracle.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span
    query: int             # index of the query that caused it
    count: int = 0         # work done, where the span has a counter

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around the functions in ``SPANS`` while active.

    Use as a context manager; ``query`` names the query whose calls are
    being recorded.  An attribute that no longer exists is skipped with a
    notice, so its metrics read zero instead of stopping the run.
    """

    def __init__(self):
        self.spans = []
        self.query = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for name, module, cls, attr, counter in SPANS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or not hasattr(owner, attr):
                path = ".".join(filter(None, (module, cls, attr)))
                print(f"notice: cannot trace {path}", file=sys.stderr)
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, name, function, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.query)
            if counter is not None:
                spans[index] = spans[index]._replace(count=counter(result))
            return result

        return traced


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - child_time[k] for k, span in enumerate(spans)]


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, passes: int, stats) -> dict:
    """Per-layer metrics per traced pass, from spans and the CLI's stats.

    ``stats`` lists the ``check`` payloads of the traced passes: their node
    and memo-hit counts and exhausted verdicts.
    """
    total, calls, counted, own = {}, {}, {}, {}
    holds_us = []
    for span, self_time in zip(spans, self_times(spans)):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        counted[span.name] = counted.get(span.name, 0) + span.count
        own[span.name] = own.get(span.name, 0.0) + self_time
        if span.name == "evaluator.holds":
            holds_us.append(span.duration * 1e6)
    nodes = sum(p.get("stats", {}).get("nodes_visited", 0) for p in stats)
    hits = sum(p.get("stats", {}).get("cache_hits", 0) for p in stats)
    exhausted = sum(p.get("verdict") == "resource_exhausted" for p in stats)
    per_pass = {
        "cli.load_team_csv.s": total.get("cli.load_team_csv", 0.0),
        "cli.load_team_csv.rows": counted.get("cli.load_team_csv", 0),
        "cli.assemble_structure.s": total.get("cli.assemble_structure", 0.0),
        "model.Team.relation.s": total.get("model.Team.relation", 0.0),
        "model.Team.relation.calls": calls.get("model.Team.relation", 0),
        "syntax.parse.s": total.get("syntax.parse", 0.0),
        "syntax.parse.calls": calls.get("syntax.parse", 0),
        "syntax.format_formula.s": total.get("syntax.format_formula", 0.0),
        "evaluator.eval_formula.s": total.get("evaluator.eval_formula", 0.0),
        "evaluator.self_s": own.get("evaluator.eval_formula", 0.0)
        + own.get("evaluator.holds", 0.0),
        "evaluator.nodes": nodes,
        "evaluator.cache_hits": hits,
        "evaluator.exhausted": exhausted,
        "evaluator.holds.calls": calls.get("evaluator.holds", 0),
        "atoms.check_atom.calls": calls.get("atoms.check_atom", 0),
        "atoms.check_atom.s": total.get("atoms.check_atom", 0.0),
        "atoms.pdep.s": total.get("atoms.pdep", 0.0),
        "atoms.pinc.s": total.get("atoms.pinc", 0.0),
        "atoms.pexc.s": total.get("atoms.pexc", 0.0),
        "atoms.pind.s": total.get("atoms.pind", 0.0),
        "implication.decide.s": total.get("implication.decide", 0.0),
        "implication.trace_len": counted.get("implication.decide", 0),
        "implication.replay_trace.s": total.get("implication.replay_trace", 0.0),
        "implication.replay_steps": counted.get("implication.replay_trace", 0),
        "rewrite.rewrite_formula.s": total.get("rewrite.rewrite_formula", 0.0),
        "rewrite.eliminate_global_disjunction.s":
            total.get("rewrite.eliminate_global_disjunction", 0.0),
        "rewrite.decompose_by_sort.s": total.get("rewrite.decompose_by_sort", 0.0),
        "oracle.equivalent.s": total.get("oracle.equivalent", 0.0),
        "oracle.self_s": own.get("oracle.equivalent", 0.0),
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    metrics["evaluator.cache_hit_ratio"] = hits / nodes if nodes else 0.0
    metrics["evaluator.holds_us.p50"] = _percentile(holds_us, 50)
    metrics["evaluator.holds_us.p99"] = _percentile(holds_us, 99)
    return metrics
