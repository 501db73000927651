"""Confluence probing by one ``normalize`` per strategy: the reference
implementation for the library's probe.

The library's ``inetkit.engine.confluence_probe`` runs its seeded strategies
together, sharing the steps their schedules have in common and forking the
reducer where they part.  This module keeps the loop that probe replaced,
one independent run per strategy in the given order, so the tests can check
that both report the same runs, the same divergent pair and traces, and
raise the same errors.  It reads only the library's public names.
"""

from typing import Sequence

from inetkit.core import CanonicalConfiguration, Configuration, NameSupply, canonicalize
from inetkit.engine import ConfluenceReport, Reducer, RunSummary, Strategy, normalize
from inetkit.rules import RuleTable


def confluence_probe(
    config: Configuration,
    table: RuleTable,
    strategies: Sequence[Strategy],
    budget: int = 100_000,
) -> ConfluenceReport:
    """Normalize under every strategy and compare outcomes.

    All terminating runs must agree on status, canonical final configuration
    and step count; the first disagreeing pair is re-run with tracing on and
    reported as a counterexample.
    """
    # Each run gets its own supply, starting where a reducer's default
    # starts, so the names a run draws can be read off its supply (the
    # benchmark's tracer counts them so).
    start = Reducer(config, table).supply.next_id
    runs: list[RunSummary] = []
    # Canonical forms by literal final configuration (name ids included):
    # runs that end in the same configuration share one canonicalization.
    forms: dict[tuple, CanonicalConfiguration] = {}
    for strategy in strategies:
        outcome = normalize(
            config, table, strategy, budget, supply=NameSupply(start)
        )
        canonical = None
        if outcome.status != "budget_exhausted":
            final = outcome.final
            key = (tuple(final.interface), tuple(final.equations))
            canonical = forms.get(key)
            if canonical is None:
                canonical = forms[key] = canonicalize(final)
        runs.append(RunSummary(strategy, outcome.status, outcome.steps, canonical))

    finished = [r for r in runs if r.status != "budget_exhausted"]
    for other in finished[1:]:
        first = finished[0]
        if (
            other.status != first.status
            or other.steps != first.steps
            or other.canonical != first.canonical
        ):
            trace_a = normalize(
                config, table, first.strategy, budget, trace=True,
                supply=NameSupply(start),
            ).trace
            trace_b = normalize(
                config, table, other.strategy, budget, trace=True,
                supply=NameSupply(start),
            ).trace
            assert trace_a is not None and trace_b is not None
            return ConfluenceReport(False, runs, (first, other), (trace_a, trace_b))
    return ConfluenceReport(True, runs)
