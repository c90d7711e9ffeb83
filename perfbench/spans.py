"""Span tracing from outside the package, by wrapping module-level names.

Nothing is added to the package.  A traced op swaps selected module
attributes (``intersection.solve``, ``configuration.det``, ...) for wrappers
that record a span -- name, start, end, parent -- and restores them
afterwards.  Spans stay in memory until the run ends; per-layer metrics are
computed from them in one pass at the end.

Span names are ``<layer>.<what>``; the layer is one of the package modules
cli, linking, intersection, ratmat, configuration, combinatorics.  A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from linkparity import cli, combinatorics, configuration, intersection, linking


def _intersects(result):
    return result.intersects


def _found(result):
    return result is not None


def _attempts(result):
    return result.provenance.attempts


# (module, attribute, span name, payload kept from the result).  A payload of
# ``True`` keeps the result itself; ``len`` keeps the byte count of a report.
# The same function reached through two modules gets one wrapper per module,
# because each module looks the name up in its own globals.
SPANS = (
    (cli, "main", "cli.main", None),
    (cli, "verify_counterexample", "linking.verify", None),
    (cli, "counterexample_document", "linking.serialize", None),
    (cli, "dumps_canonical", "linking.serialize", len),
    (cli, "alternating_count_bruteforce", "combinatorics.bruteforce", None),
    (cli, "alternating_count_closed_form", "combinatorics.closed_form", None),
    (linking, "total_linked_parity", "linking.parity", None),
    (linking, "find_intersecting_pair", "linking.findpair", _found),
    (linking, "link_report_document", "linking.serialize", None),
    (linking, "dumps_canonical", "linking.serialize", len),
    (linking, "intersect_complementary", "intersection.complementary", _intersects),
    (linking, "find_degenerate_subset", "configuration.gp_check", None),
    (linking, "alternating_count_bruteforce", "combinatorics.bruteforce", None),
    (intersection, "solve", "ratmat.solve", True),
    (configuration, "det", "ratmat.det", None),
    (configuration, "find_degenerate_subset", "configuration.gp_check", None),
    (configuration, "sample_random_configuration", "configuration.sample", _attempts),
    (configuration, "write_points_text", "configuration.points_io", None),
    (configuration, "read_points_text", "configuration.points_io", None),
)

# Called 51,480 times per op on alternation_census (218,790 at --size paper):
# counted, not spanned.
COUNTERS = ((combinatorics, "alternates", "combinatorics.alternates"),)

LAYERS = ("cli", "linking", "intersection", "ratmat", "configuration", "combinatorics")


class Tracer:
    """In-memory span list plus call counters for one traced run."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, payload]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for _, _, name in COUNTERS}
        self._stack: list[int] = []

    def wrap(self, name, fn, keep=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if keep is True:
                record[4] = result
            elif keep is not None:
                record[4] = keep(result)
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Swap every traced name for its wrapper; restore them on exit."""
        saved = []
        try:
            for module, attr, name, keep in SPANS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, keep))
            for module, attr, name in COUNTERS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.count(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _solution_bits(result) -> int:
    if result.solution is None:
        return 0
    return max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for x in result.solution
    )


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each normalised per traced op unless its unit says otherwise.

    ``_s`` metrics are inclusive span time; ``self_s`` metrics subtract the
    time of child spans.  A span nested in a span of the same name (a
    serializer calling a serializer) counts once towards inclusive time.
    """
    spans = tracer.spans
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[idx]

    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for idx, (name, _, _, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if parent < 0 or spans[parent][0] != name:
            inclusive[name] = inclusive.get(name, 0.0) + duration[idx]
        self_by_layer[name.split(".", 1)[0]] += duration[idx] - child_time[idx]

    def payloads(name):
        return [span[4] for span in spans if span[0] == name and span[4] is not None]

    solves = payloads("ratmat.solve")
    hits = sum(payloads("intersection.complementary"))
    found_pairs = sum(payloads("linking.findpair"))
    findpair_ids = {i for i, span in enumerate(spans) if span[0] == "linking.findpair"}
    probes = sum(
        1 for span in spans
        if span[0] == "intersection.complementary" and span[3] in findpair_ids
    )
    # cli.dumps_canonical and linking.dumps_canonical keep byte counts; the
    # functions that assemble documents keep nothing.
    report_bytes = sum(payloads("linking.serialize"))
    n_intersect = calls.get("intersection.complementary", 0)
    per_op = max(ops, 1)

    def count(name):
        return calls.get(name, 0) / per_op

    def seconds(name):
        return inclusive.get(name, 0.0) / per_op

    return {
        "ratmat.solve_calls": (count("ratmat.solve"), "count/op"),
        "ratmat.solve_s": (seconds("ratmat.solve"), "s/op"),
        "ratmat.solve_singular": (
            sum(1 for r in solves if r.is_singular) / per_op, "count/op"),
        "ratmat.solution_max_bits": (
            max((_solution_bits(r) for r in solves), default=0), "bits"),
        "ratmat.det_calls": (count("ratmat.det"), "count/op"),
        "ratmat.det_s": (seconds("ratmat.det"), "s/op"),
        "intersection.calls": (n_intersect / per_op, "count/op"),
        "intersection.self_s": (self_by_layer["intersection"] / per_op, "s/op"),
        "intersection.hits": (hits / per_op, "count/op"),
        "intersection.hit_ratio": (hits / n_intersect if n_intersect else 0.0, "ratio"),
        "configuration.sample_calls": (count("configuration.sample"), "count/op"),
        "configuration.sample_attempts": (
            sum(payloads("configuration.sample")) / per_op, "count/op"),
        "configuration.gp_check_s": (seconds("configuration.gp_check"), "s/op"),
        "configuration.points_io_s": (seconds("configuration.points_io"), "s/op"),
        "combinatorics.bruteforce_calls": (count("combinatorics.bruteforce"), "count/op"),
        "combinatorics.bruteforce_s": (seconds("combinatorics.bruteforce"), "s/op"),
        "combinatorics.closed_form_calls": (count("combinatorics.closed_form"), "count/op"),
        "combinatorics.closed_form_s": (seconds("combinatorics.closed_form"), "s/op"),
        "combinatorics.alternates_calls": (
            tracer.counts["combinatorics.alternates"] / per_op, "count/op"),
        "linking.self_s": (self_by_layer["linking"] / per_op, "s/op"),
        "linking.serialize_s": (seconds("linking.serialize"), "s/op"),
        "linking.report_bytes": (report_bytes / per_op, "B/op"),
        "linking.findpair_calls": (count("linking.findpair"), "count/op"),
        "linking.findpair_probes": (
            probes / found_pairs if found_pairs else 0.0, "probes/pair"),
        "cli.self_s": (self_by_layer["cli"] / per_op, "s/op"),
    }
