"""Per-layer spans and work counts, recorded from outside ``inetkit``.

The tracer wraps the public names each ``inetkit`` module looks up when it
calls into the next layer (``inetkit.cli.parse_program``,
``inetkit.engine.substitute``, ...), records a span per call and restores
every original afterwards.  Nothing under ``src/`` is edited.  A name that a
later refactor removes is listed in ``missing`` and the metrics that depend
on it are reported as absent.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  A span's self
time is its duration minus the durations of its direct children, so the
self times of one op's spans add up to the op's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name): each call through the attribute is a span.
SPANNED = (
    ("inetkit.cli", "parse_program", "surface.parse"),
    ("inetkit.cli", "analyze_rules", "rules.analyze"),
    ("inetkit.rules", "validate_linearity", "rules.linearity"),
    ("inetkit.rules", "check_no_ambiguity", "rules.ambiguity"),
    ("inetkit.rules", "expand_variadic", "rules.expand"),
    ("inetkit.rules", "check_grc", "rules.grc"),
    ("inetkit.rules", "build_rule_table", "rules.table"),
    ("inetkit.cli", "normalize", "engine.normalize"),
    ("inetkit.engine", "normalize", "engine.normalize"),
    ("inetkit.cli", "confluence_probe", "engine.probe"),
    ("inetkit.engine", "lookup", "rules.lookup"),
    ("inetkit.engine", "instantiate_ordinary", "engine.instantiate"),
    ("inetkit.engine", "instantiate_fixed_generic", "engine.instantiate"),
    ("inetkit.engine", "step_communication", "engine.name_steps"),
    ("inetkit.engine", "step_substitution", "engine.name_steps"),
    ("inetkit.engine", "step_collect", "engine.name_steps"),
    ("inetkit.engine", "substitute", "core.substitute"),
    ("inetkit.engine", "canonicalize", "core.canonicalize"),
    ("inetkit.cli", "render_configuration", "surface.render"),
    ("inetkit.cli", "render_equation", "surface.render"),
)
# Counted, not timed: a term walk is a call from outside term_names itself.
COUNTED = (("inetkit.core", "term_names"), ("inetkit.engine", "term_names"))

ROOT = "cli.main"

# Span name -> the per-layer metric carrying its self time.
SELF_TIME_METRIC = {
    ROOT: "cli.self_ms",
    "surface.parse": "surface.parse_ms",
    "rules.analyze": "rules.analyze_ms",
    "rules.linearity": "rules.linearity_ms",
    "rules.ambiguity": "rules.ambiguity_ms",
    "rules.expand": "rules.expand_ms",
    "rules.grc": "rules.grc_ms",
    "rules.table": "rules.table_ms",
    "rules.lookup": "rules.lookup_ms",
    "engine.normalize": "engine.select_ms",
    "engine.probe": "engine.probe_ms",
    "engine.instantiate": "engine.instantiate_ms",
    "engine.name_steps": "engine.name_steps_ms",
    "core.substitute": "core.substitute_ms",
    "core.canonicalize": "core.canonicalize_ms",
    "surface.render": "surface.render_ms",
}

# Count metric -> the "module.attribute" names it needs.
COUNT_SOURCES = {
    "surface.source_bytes": ("inetkit.cli.parse_program",),
    "rules.expanded_rules": ("inetkit.cli.analyze_rules",),
    "rules.generic_pairs": ("inetkit.rules.check_grc",),
    "rules.lookup_calls": ("inetkit.engine.lookup",),
    "core.substitute_calls": ("inetkit.engine.substitute",),
    "core.canonicalize_calls": ("inetkit.engine.canonicalize",),
    "engine.probe_runs": ("inetkit.cli.confluence_probe",),
    "engine.steps": ("inetkit.cli.normalize", "inetkit.engine.normalize"),
    "engine.steps.interaction": ("inetkit.engine.instantiate_ordinary",
                                 "inetkit.engine.instantiate_fixed_generic"),
    "engine.steps.communication": ("inetkit.engine.step_communication",),
    "engine.steps.substitution": ("inetkit.engine.step_substitution",),
    "engine.steps.collect": ("inetkit.engine.step_collect",),
    "engine.interactions.ordinary": ("inetkit.engine.instantiate_ordinary",),
    "engine.interactions.generic": ("inetkit.engine.instantiate_fixed_generic",),
    "engine.fresh_names": ("inetkit.cli.normalize", "inetkit.engine.normalize"),
    "engine.peak_equations": ("inetkit.cli.normalize", "inetkit.engine.normalize",
                              "inetkit.engine.instantiate_ordinary",
                              "inetkit.engine.instantiate_fixed_generic",
                              "inetkit.engine.step_communication",
                              "inetkit.engine.step_substitution",
                              "inetkit.engine.step_collect"),
    "core.term_walks": ("inetkit.core.term_names", "inetkit.engine.term_names"),
}

_STEP_KIND = {
    "step_communication": "engine.steps.communication",
    "step_substitution": "engine.steps.substitution",
    "step_collect": "engine.steps.collect",
}


class Tracer:
    """Spans and counts for the ops run while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._normalizing = 0
        self._live = 0  # equations in the net being normalized
        self._peak = 0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, attr, span_name in SPANNED:
            module = sys.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self._spanned(span_name, attr, original))
        for module_name, attr in COUNTED:
            module = sys.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self._counted(original))

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True if each attribute holds it again."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        ok = all(getattr(m, a) is o for m, a, o in self._patched)
        self._patched = []
        return ok

    def absent(self, metric: str) -> bool:
        """A count is absent when any name it needs is gone, a self time
        when every name feeding its span is gone."""
        if metric in COUNT_SOURCES:
            return any(name in self.missing for name in COUNT_SOURCES[metric])
        spans = [name for name, m in SELF_TIME_METRIC.items() if m == metric and name != ROOT]
        feeders = [f"{mod}.{attr}" for mod, attr, name in SPANNED if name in spans]
        return bool(feeders) and all(f in self.missing for f in feeders)

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.op_id])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _spanned(self, span_name: str, attr: str, original):
        before, after = self._hooks(attr)

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            index = self.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after:
                after(args, kwargs, result, state)
            return result

        return wrapper

    def _counted(self, original):
        code = original.__code__
        getframe = sys._getframe
        counts = self.counts

        def wrapper(t):
            if self._normalizing and getframe(1).f_code is not code:
                counts["core.term_walks"] += 1
            return original(t)

        return wrapper

    def _hooks(self, attr: str):
        """Count-keeping code that runs around the call, outside its span."""
        counts = self.counts

        def bump(metric):
            def before(args, kwargs):
                counts[metric] += 1
            return before

        if attr == "parse_program":
            def before(args, kwargs):
                counts["surface.source_bytes"] += len(args[0].encode("utf-8"))
            return before, None
        if attr == "analyze_rules":
            def after(args, kwargs, result, state):
                counts["rules.expanded_rules"] += len(result.expanded_rules)
            return None, after
        if attr == "check_grc":
            def before(args, kwargs):
                g = sum(1 for r in args[0] if r.generic is not None)
                counts["rules.generic_pairs"] += g * (g - 1) // 2
            return before, None
        if attr == "lookup":
            return bump("rules.lookup_calls"), None
        if attr == "substitute":
            return bump("core.substitute_calls"), None
        if attr == "canonicalize":
            return bump("core.canonicalize_calls"), None
        if attr == "confluence_probe":
            def before(args, kwargs):
                counts["engine.probe_runs"] += len(args[2])
            return before, None
        if attr == "normalize":
            return self._normalize_hooks()
        if attr.startswith("instantiate_"):
            kind = "ordinary" if attr.endswith("ordinary") else "generic"

            def after(args, kwargs, result, state):
                counts["engine.steps.interaction"] += 1
                counts[f"engine.interactions.{kind}"] += 1
                self._grow(len(result) - 1)  # the active pair goes, its rhs comes
            return None, after
        if attr in _STEP_KIND:
            metric = _STEP_KIND[attr]

            def after(args, kwargs, result, state):
                counts[metric] += 1
                self._grow(-1)  # each name step consumes one equation
            return None, after
        return None, None

    def _normalize_hooks(self):
        counts = self.counts

        def before(args, kwargs):
            supply = kwargs.get("supply", args[5] if len(args) > 5 else None)
            self._normalizing += 1
            self._live = self._peak = len(args[0].equations)
            return supply, supply.next_id if supply is not None else None

        def after(args, kwargs, result, state):
            self._normalizing -= 1
            supply, start = state
            counts["engine.steps"] += result.steps
            if supply is not None:
                counts["engine.fresh_names"] += supply.next_id - start
            counts["engine.peak_equations"] = max(counts["engine.peak_equations"], self._peak)

        return before, after

    def _grow(self, delta: int) -> None:
        self._live += delta
        if self._live > self._peak:
            self._peak = self._live


def self_times(spans: list[list], first: int, last: int) -> dict[str, int]:
    """Self time in ns per span name over ``spans[first:last]``."""
    out: defaultdict[str, int] = defaultdict(int)
    for name, start, end, parent, _ in spans[first:last]:
        out[name] += end - start
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return out


def inclusive_times(spans: list[list], first: int, last: int, name: str) -> int:
    """Total ns inside outermost spans called ``name`` over ``spans[first:last]``."""
    total = 0
    for span in spans[first:last]:
        if span[0] == name and (span[3] < 0 or spans[span[3]][0] != name):
            total += span[2] - span[1]
    return total


def nesting_errors(spans: list[list], first: int, last: int) -> int:
    """Spans that end before they start or escape their parent's interval."""
    bad = 0
    for name, start, end, parent, _ in spans[first:last]:
        if end < start:
            bad += 1
        elif parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            bad += 1
    return bad
