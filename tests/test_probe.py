"""The confluence probe against one ``normalize`` per strategy.

``confluence_probe`` runs its seeded strategies together, as one walk of
their schedule tree, and forks the reducer only where two seeds part.
``probe_oracle.confluence_probe`` normalizes under each strategy on its own,
in the given order.  Both must report the same runs (strategy, status, steps
and canonical form, position by position), the same verdict, the same
divergent pair with traces of the same lengths, and raise the same error.
"""

import random

import pytest

from inetkit import (
    Agent,
    Configuration,
    Equation,
    Fifo,
    IllFormedError,
    Lifo,
    Name,
    Seeded,
    Symbol,
    build_rule_table,
    confluence_probe,
    expand_variadic,
    parse_program,
)
from inetkit.core import NetError

import probe_oracle
import program_gen
from conftest import compile_corpus

CORPUS_NAMES = ["addition", "dup_erase", "maybe_pick", "map"]
PROBE = [Fifo(), Lifo()] + [Seeded(i) for i in range(200)]
GENERATED = 300
BUDGETS = (5, 30, 300)

# An asymmetric self rule: which ports get Z depends on which of the two
# equations around x0 and x1 communicates first.  Fifo and lifo agree on
# this net; seeds 1, 2 and 9 among 0-9 do not.
SELF_RULE = "agent G/2; agent Z/0; agent E/0; G(a, b) >< G(c, d) => a~Z, b~c, d~Z;"
SEEDED_ONLY_NET = "net (p6, p2, p4, p3) | x1~G(p4, w1), x1~G(p6, w0), x0~G(p2, p3), x0~G(w0, w1);"
# The same net with Y on the rule's last port: seed 1 ends with Y~Y and
# seeds 2, 9 and 11 with Z~Y, and each pair has a rule that uses an
# internal name three times.
ILL_FORMED = (
    "agent G/2; agent Z/0; agent Y/0; agent E/0;"
    "G(a, b) >< G(c, d) => a~Z, b~c, d~Y;"
    "Z >< Y => u~E, u~E, u~E; Y >< Y => v~E, v~E, v~E;" + SEEDED_ONLY_NET
)


def unvalidated(text: str):
    """The net and an unvalidated table of the program's rules, variadic
    ones expanded at its arities; ``None`` if there is no such table."""
    program = parse_program(text)
    if program.net is None or program.has_errors:
        return None
    arities = {s.arity for s in program.symbols.values()}
    rules = []
    try:
        for rule in program.rules:
            rules.extend(expand_variadic(rule, max(arities, default=0), arities=arities))
        return program.net, build_rule_table(rules, validate=False)
    except (NetError, ValueError):
        return None


def _summary(run) -> tuple:
    canonical = None if run.canonical is None else run.canonical.sort_key
    return run.strategy, run.status, run.steps, canonical


def _report(probe, config, table, strategies, budget):
    try:
        report = probe(config, table, strategies, budget)
    except Exception as exc:
        return type(exc), str(exc)
    divergence = report.divergence and tuple(map(_summary, report.divergence))
    traces = report.traces and tuple(len(trace) for trace in report.traces)
    return [_summary(run) for run in report.runs], report.consistent, divergence, traces


def same_as_oracle(config, table, strategies, budget=100_000):
    """The probe's report, or its error, after checking it is the oracle's."""
    got = _report(confluence_probe, config, table, strategies, budget)
    assert got == _report(probe_oracle.confluence_probe, config, table, strategies, budget)
    return got


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_programs_probe_as_the_oracle(name):
    program, analysis = compile_corpus(name)
    runs, consistent, _, _ = same_as_oracle(program.net, analysis.table, PROBE)
    assert consistent and len(runs) == len(PROBE)


def test_generated_programs_probe_as_the_oracle():
    """Each generated program at one budget, in turn 5, 30 and 300."""
    strategies = [Fifo(), Lifo()] + [Seeded(i) for i in range(4)]
    seen = set()
    programs, seed = 0, 0
    while programs < GENERATED:
        case = unvalidated(program_gen.program(random.Random(seed)))
        seed += 1
        if case is None:
            continue
        got = same_as_oracle(*case, strategies, BUDGETS[programs % len(BUDGETS)])
        programs += 1
        runs, consistent, _, _ = got
        seen.update(status for _, status, _, _ in runs)
        seen.add("consistent" if consistent else "divergent")
    assert seen == {"normal_form", "stuck", "budget_exhausted", "consistent", "divergent"}


def test_a_divergence_that_only_seeded_strategies_find():
    program = parse_program(SELF_RULE + SEEDED_ONLY_NET)
    table = build_rule_table(program.rules, validate=False)
    strategies = [Fifo(), Lifo()] + [Seeded(i) for i in range(10)]
    runs, consistent, divergence, traces = same_as_oracle(program.net, table, strategies)
    assert runs[0][1:] == runs[1][1:] == ("normal_form", 10, runs[0][3])
    assert not consistent
    assert divergence[0][0] == Fifo() and divergence[1][0] == Seeded(1)
    assert traces == (10, 9)


@pytest.mark.parametrize(
    "strategies",
    [
        [Seeded(3), Seeded(3)],
        [Seeded(1), Fifo(), Seeded(1), Seeded(0), Lifo(), Seeded(1)],
        [Seeded(9)] + [Seeded(i % 4) for i in range(12)],
    ],
    ids=["twice", "mixed", "many"],
)
@pytest.mark.parametrize("net", ["map", "seeded-only"])
def test_duplicate_strategies_are_runs_of_their_own(strategies, net):
    if net == "map":
        program, analysis = compile_corpus("map")
        config, table = program.net, analysis.table
    else:
        program = parse_program(SELF_RULE + SEEDED_ONLY_NET)
        config, table = program.net, build_rule_table(program.rules, validate=False)
    runs, _, _, _ = same_as_oracle(config, table, strategies)
    assert [run[0] for run in runs] == strategies


@pytest.mark.parametrize(
    "strategies, name",
    [
        # Seed 1 is the first to raise in the given order, seed 2 the
        # first in the schedule tree's order.
        ([Fifo(), Lifo()] + [Seeded(i) for i in range(12)], "v"),
        ([Fifo(), Lifo(), Seeded(11), Seeded(0), Seeded(1)], "u"),
        ([Seeded(1), Seeded(2)], "v"),
        ([Seeded(2), Seeded(1)], "u"),
    ],
)
def test_an_ill_formed_rule_raises_as_the_first_strategy_that_fires_it(strategies, name):
    program = parse_program(ILL_FORMED)
    table = build_rule_table(program.rules, validate=False)
    error = same_as_oracle(program.net, table, strategies)
    assert error == (IllFormedError, f"name {name} occurs more than twice")


def test_a_run_that_never_reaches_the_ill_formed_rule_does_not_raise():
    program = parse_program(ILL_FORMED)
    table = build_rule_table(program.rules, validate=False)
    runs, consistent, _, _ = same_as_oracle(program.net, table, [Fifo(), Seeded(0), Seeded(3)])
    assert [run[1] for run in runs] == ["normal_form"] * 3 and not consistent


def test_errors_before_any_step_are_the_oracles():
    x = Name(0, "x")
    a, b, c = (Agent(Symbol(s, 0)) for s in "ABC")
    thrice = Configuration([], [Equation(x, a), Equation(x, b), Equation(x, c)])
    table = build_rule_table([])
    error = same_as_oracle(thrice, table, [Seeded(0), Seeded(1)])
    assert error == (IllFormedError, "name x occurs more than twice")
    program, analysis = compile_corpus("addition")
    assert same_as_oracle(program.net, analysis.table, [Seeded(0)], budget=0)[0] is ValueError
    assert same_as_oracle(program.net, analysis.table, [])[:2] == ([], True)
