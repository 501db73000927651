"""Complexity tests that count work, not seconds.

The rule analysis must expand variadic rules once per arity that occurs in
the program, however wide its widest agent.

Two counters are taken by wrapping names inside the library: calls to
``Reducer._classify`` (equations classified) and calls to ``term_names``
(term walks; ``term_names`` is iterative, so one call is one walk).  The
number of equations classified per step must not depend on how many
equations the net holds, and the number of walks per step must not depend
on how deep its terms are.
"""

import pytest

import inetkit.core
import inetkit.engine
from inetkit import Fifo, Lifo, Reducer, Seeded, normalize

from conftest import compile_text, eps_dup_text

ADD_RULES = """
agent Add/2; agent S/1; agent Z/0;
Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);
Add(y, r) >< Z => r~y;
"""

STRATEGIES = [Fifo(), Lifo(), Seeded(0), Seeded(5)]


def unary(n: int) -> str:
    return "S(" * n + "Z" + ")" * n


def wide_net(k: int) -> str:
    """``k`` independent ``Add 3+3`` pairs."""
    interface = ", ".join(f"r{i}" for i in range(k))
    pairs = ", ".join(f"Add({unary(3)}, r{i})~{unary(3)}" for i in range(k))
    return ADD_RULES + f"net ({interface}) | {pairs};"


def deep_net(n: int) -> str:
    """``Add n+n`` on unary numerals."""
    return ADD_RULES + f"net (r) | Add({unary(n)}, r)~{unary(n)};"


@pytest.fixture
def counts(monkeypatch):
    tally = {"classified": 0, "walks": 0}
    classify = Reducer._classify
    walk = inetkit.core.term_names

    def counting_classify(self, eid):
        tally["classified"] += 1
        return classify(self, eid)

    def counting_walk(t):
        tally["walks"] += 1
        return walk(t)

    monkeypatch.setattr(Reducer, "_classify", counting_classify)
    monkeypatch.setattr(inetkit.core, "term_names", counting_walk)
    monkeypatch.setattr(inetkit.engine, "term_names", counting_walk)
    return tally


def normalize_counts(text, strategy, counts):
    """Steps, equations classified and term walks of one ``normalize``."""
    program, analysis = compile_text(text)
    counts["classified"] = counts["walks"] = 0
    outcome = normalize(program.net, analysis.table, strategy)
    assert outcome.status == "normal_form"
    return outcome.steps, counts["classified"], counts["walks"]


def most_classified_in_one_step(text, strategy, counts) -> int:
    program, analysis = compile_text(text)
    reducer = Reducer(program.net, analysis.table, strategy)
    worst = 0
    while True:
        counts["classified"] = 0
        if reducer.step() is None:
            return worst
        worst = max(worst, counts["classified"])


@pytest.mark.parametrize("strategy", STRATEGIES, ids=str)
def test_classified_per_step_is_flat_in_net_width(strategy, counts):
    small = most_classified_in_one_step(wide_net(10), strategy, counts)
    large = most_classified_in_one_step(wide_net(160), strategy, counts)
    assert small == large <= 2
    steps_small, classified_small, _ = normalize_counts(wide_net(10), strategy, counts)
    steps_large, classified_large, _ = normalize_counts(wide_net(160), strategy, counts)
    assert (steps_small, steps_large) == (80, 1280)
    if not isinstance(strategy, Seeded):
        # Deterministic schedules do the same work on every pair.
        assert classified_small / steps_small == classified_large / steps_large


@pytest.mark.parametrize("strategy", STRATEGIES, ids=str)
def test_work_per_step_is_flat_in_term_depth(strategy, counts):
    assert most_classified_in_one_step(deep_net(10), strategy, counts) == \
        most_classified_in_one_step(deep_net(160), strategy, counts) <= 2
    steps_small, _, walks_small = normalize_counts(deep_net(10), strategy, counts)
    steps_large, _, walks_large = normalize_counts(deep_net(160), strategy, counts)
    assert (steps_small, steps_large) == (22, 322)
    # The walks include the index build at the start, one walk per agent side.
    assert walks_large / steps_large <= walks_small / steps_small <= 3


@pytest.mark.parametrize("strategy", STRATEGIES, ids=str)
def test_term_walks_per_step_are_flat_in_net_width(strategy, counts):
    steps_small, _, walks_small = normalize_counts(wide_net(10), strategy, counts)
    steps_large, _, walks_large = normalize_counts(wide_net(160), strategy, counts)
    assert walks_large / steps_large == walks_small / steps_small


@pytest.mark.parametrize("wide", [64, 8])
def test_expanded_rules_follow_the_arities_that_occur(wide):
    program, analysis = compile_text(eps_dup_text(wide))
    arities = {s.arity for s in program.symbols.values()}
    assert arities == {0, 2, wide}
    # Eps and Dup once per distinct arity, plus the ordinary Eps/Dup rule;
    # expanding 0..max would give 2 * (wide + 1) + 1.
    assert len(analysis.expanded_rules) == 2 * len(arities) + 1 == 7
