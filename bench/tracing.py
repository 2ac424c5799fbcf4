"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.install` replaces
public functions where another module imports them (for example
`parse_digraph` as `mret.cli` calls it, or `greedy_pair` as
`mret.solvers` calls it) with wrappers that time the call, and
`Tracer.uninstall` puts the originals back.  Each span is a tuple
(name, start, end, parent index, operation id); spans stay in memory
and are written out once, when the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Span names are the per-layer metric names without
the `_s` suffix.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median


def _parsed_bytes(counts, args):
    counts["graphs.bytes_parsed"] += len(args[0])


def _engine_work(counts, args):
    # computed from the graph's size, not measured: one forward and one
    # reverse pass, each one OR per edge over ceil(n/64)-word reach sets
    g = args[0]
    words = -(-g.node_count // 64)
    merges = 2 * g.edge_count
    counts["reachability.merges"] += merges
    counts["reachability.word_ops_computed"] += merges * words
    # each word op reads two words and writes one
    counts["reachability.bytes_moved_computed"] += merges * words * 8 * 3
    reach = 2 * g.node_count * words * 8
    counts["reachability.reach_bytes"] = max(counts["reachability.reach_bytes"], reach)


def wrap_targets(mret):
    """(owner, attribute, span name, counter hook) for every wrapped call site."""
    cli, graphs, astra = mret.cli, mret.graphs, mret.astra
    solvers, reduction = mret.solvers, mret.reduction
    return [
        (cli, "parse_digraph", "graphs.parse_digraph", _parsed_bytes),
        (reduction, "parse_digraph", "graphs.parse_digraph", _parsed_bytes),
        (cli, "parse_schedule", "graphs.parse_schedule", _parsed_bytes),
        (cli, "parse_times", "graphs.parse_times", _parsed_bytes),
        (graphs.Digraph, "__post_init__", "graphs.digraph_init", None),
        (reduction, "format_digraph", "graphs.format_digraph", None),
        (solvers, "is_strongly_connected", "graphs.is_strongly_connected", None),
        (astra, "is_strongly_connected", "graphs.is_strongly_connected", None),
        (cli, "evaluate_schedule", "reachability.evaluate_schedule", _engine_work),
        (solvers, "evaluate_schedule", "reachability.evaluate_schedule", _engine_work),
        (reduction, "evaluate_schedule", "reachability.evaluate_schedule", _engine_work),
        (cli, "evaluate_temporalisation", "reachability.evaluate_temporalisation",
         _engine_work),
        (cli, "solve_exact", "solvers.solve_exact", None),
        (cli, "solve_local", "solvers.solve_local", None),
        (cli, "solve_arborescence", "solvers.solve_arborescence", None),
        (solvers, "arborescence_order", "solvers.arborescence_order", None),
        (solvers, "greedy_pair", "astra.greedy_pair", None),
        (astra, "greedy_pair", "astra.greedy_pair", None),
        (astra, "exact_pair", "astra.exact_pair", None),
        (cli, "best_root", "astra.best_root", None),
        (cli, "build_instance", "reduction.build_instance", None),
        (reduction, "build_instance", "reduction.build_instance", None),
        (cli, "write_instance", "reduction.write_instance", None),
        (cli, "load_instance", "reduction.load_instance", None),
        (cli, "schedule_from_assignment", "reduction.schedule_from_assignment", None),
        (cli, "certify", "reduction.certify", None),
        (cli, "check_bounds", "reduction.check_bounds", None),
        (cli, "parse_dimacs", "cnf.parse_dimacs", None),
        (cli, "parse_assignment", "cnf.parse_assignment", None),
        (cli._Run, "read", "cli.read_hash", None),
        (cli, "_emit", "cli.emit", None),
    ]


class Tracer:
    """In-memory spans and counters, grouped by round."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.span_round: list[int] = []
        self.counts: dict[int, defaultdict] = {}
        self.round = 0
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _counts(self) -> defaultdict:
        return self.counts.setdefault(self.round, defaultdict(int))

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self.span_round.append(self.round)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def wrap(self, fn, name: str, hook=None):
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self._counts(), args)
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        for owner, attr, name, hook in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                # the program moved or renamed this call site: the layer
                # reads 0 until the benchmark follows it
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self.wrap(original, name, hook))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per span name, the median over rounds of its summed self time
        (`<name>_s`) and call count (`<name>_calls`); per counter, its
        median over rounds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rnd = self.span_round[i]
            self_s[name][rnd] += end - start - child[i]
            calls[name][rnd] += 1
        out: dict[str, float] = {}
        for name in self_s:
            out[name + "_s"] = median(self_s[name].values())
            out[name + "_calls"] = median(calls[name].values())
        counters: dict[str, list[int]] = defaultdict(list)
        for per_round in self.counts.values():
            for key, value in per_round.items():
                counters[key].append(value)
        for key, values in counters.items():
            out[key] = median(values)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "round": self.span_round[i],
                }) + "\n")
