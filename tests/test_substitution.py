"""Binding substitution against the eager step it replaced.

The engine's substitution step binds the substituted name to its term;
``substitution_oracle.step_substitution`` rebuilds the target term instead.
With either in place, every run must record the same steps, end the same
way in the same configuration, and draw the same names.  A fork stepped
alternately with its parent must do so too, since the two hold their
bindings apart.
"""

import random

import pytest

import inetkit.engine
from inetkit import (
    Agent,
    Configuration,
    Equation,
    Fifo,
    Lifo,
    Name,
    NameSupply,
    Reducer,
    Seeded,
    StepResult,
    normalize,
)

import program_gen
import substitution_oracle
from conftest import compile_corpus, compile_text, eps_dup_text
from test_probe import GENERATED, unvalidated

STRATEGIES = [Fifo(), Lifo()] + [Seeded(i) for i in range(10)]
# Generated programs may grow terms without end, and a step re-sites the
# names of every term it moves, so longer budgets cost more than they find.
BUDGETS = (20, 40, 80)

ADD = """
agent Add/2; agent S/1; agent Z/0;
Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);
Add(y, r) >< Z => r~y;
"""


def add_text(n: int) -> str:
    unary = "S(" * n + "Z" + ")" * n
    return ADD + f"net (r) | Add({unary}, r)~{unary};"


def compiled_cases():
    """Name, net and table of every hand-picked input."""
    for name in ["addition", "dup_erase", "maybe_pick", "map"]:
        program, analysis = compile_corpus(name)
        yield name, program.net, analysis.table
    for label, text in [("eps_dup_16", eps_dup_text(16)), ("eps_dup_64", eps_dup_text(64)),
                        ("add_50", add_text(50)), ("add_400", add_text(400))]:
        program, analysis = compile_text(text)
        yield label, program.net, analysis.table


class Numbering:
    """Numbers terms so that equal terms, and only they, get equal numbers.

    Records of long runs repeat large terms that share most of their nodes.
    A node is entered once however often it is met, so comparing two runs
    by their numbered terms costs the nodes they build, not the nodes their
    records show.
    """

    def __init__(self):
        self._nodes: dict[int, tuple[object, int]] = {}  # id -> (node kept alive, number)
        self._shapes: dict[tuple, int] = {}

    def term(self, t) -> int:
        nodes, shapes = self._nodes, self._shapes
        stack = [t]
        while stack:
            u = stack[-1]
            if id(u) in nodes:
                stack.pop()
                continue
            if isinstance(u, Name):
                shape = ("N", u.id)
            else:
                pending = [a for a in u.__dict__["args"] if id(a) not in nodes]
                if pending:
                    stack.extend(pending)
                    continue
                shape = (u.symbol, tuple(nodes[id(a)][1] for a in u.__dict__["args"]))
            nodes[id(u)] = (u, shapes.setdefault(shape, len(shapes)))
            stack.pop()
        return nodes[id(t)][1]

    def freeze(self, x):
        """``x`` with its terms numbered and its records made tuples."""
        if isinstance(x, (Name, Agent)):
            return self.term(x)
        if isinstance(x, Equation):
            return self.term(x.left), self.term(x.right)
        if isinstance(x, Configuration):
            return self.freeze(x.interface), self.freeze(x.equations)
        if isinstance(x, StepResult):
            return (x.kind, x.rule_id, self.freeze(x.equation_before),
                    self.freeze(x.equations_after), x.fresh_names)
        if isinstance(x, (list, tuple)):
            return tuple(self.freeze(y) for y in x)
        return x


def as_oracle(run, monkeypatch):
    """``run()`` with the engine's substitution step, checked to be the
    same as with the oracle's."""
    got = run()
    with monkeypatch.context() as patched:
        patched.setattr(inetkit.engine, "step_substitution", substitution_oracle.step_substitution)
        expected = run()
    numbering = Numbering()
    assert numbering.freeze(got) == numbering.freeze(expected)
    return got


def normalized(config, table, strategy, budget=100_000, trace=True):
    """Outcome, trace and supply of one ``normalize``, or the error it
    raises."""
    supply = NameSupply(Reducer(config, table).supply.next_id)
    try:
        outcome = normalize(config, table, strategy, budget, trace=trace, supply=supply)
    except Exception as exc:
        return type(exc), str(exc)
    return (outcome.status, outcome.steps, outcome.final, outcome.stuck_equations,
            outcome.trace, supply.next_id)


def normalized_as_oracle(config, table, strategy, monkeypatch, budget=100_000):
    """``normalized`` traced, where each recorded step resolves what it
    reads, after checking that it and the untraced run, where bindings pile
    up until the end, are the oracle's.  The oracle binds nothing, so its
    traced run stands for its untraced one too."""
    untraced = normalized(config, table, strategy, budget, trace=False)
    traced = normalized(config, table, strategy, budget)
    with monkeypatch.context() as patched:
        patched.setattr(inetkit.engine, "step_substitution", substitution_oracle.step_substitution)
        expected = normalized(config, table, strategy, budget)
    numbering = Numbering()
    assert numbering.freeze(traced) == numbering.freeze(expected)
    if len(expected) == 6:  # an outcome, not an error: drop its trace
        expected = expected[:4] + (None,) + expected[5:]
    assert numbering.freeze(untraced) == numbering.freeze(expected)
    return traced


@pytest.mark.parametrize("case", list(compiled_cases()), ids=lambda case: case[0])
def test_normalize_is_the_oracles(case, monkeypatch):
    _, config, table = case
    substituted = 0
    for strategy in STRATEGIES:
        status, _, _, _, trace, _ = normalized_as_oracle(config, table, strategy, monkeypatch)
        assert status == "normal_form"
        substituted += sum(step.kind == "substitution" for step in trace)
    assert substituted > 0


def test_generated_programs_normalize_as_the_oracle(monkeypatch):
    """Each generated program at one budget, in turn 20, 40 and 80."""
    substituted = programs = seed = 0
    while programs < GENERATED:
        case = unvalidated(program_gen.program(random.Random(seed)))
        seed += 1
        if case is None:
            continue
        budget = BUDGETS[programs % len(BUDGETS)]
        programs += 1
        for strategy in STRATEGIES:
            got = normalized_as_oracle(*case, strategy, monkeypatch, budget)
            if len(got) == 6:
                substituted += sum(step.kind == "substitution" for step in got[4])
    assert substituted > 0


def alternated(config, table, seed: int, split: int, outstanding: list[int]):
    """Step a seeded reducer ``split`` steps unrecorded, fork it, then step the twin
    and the parent alternately until neither has a step: the twin
    unrecorded, so its bindings pile up, the parent recorded.  The ids the
    twin fires, the parent's records and both ends; the substitution
    bindings outstanding at the fork go into ``outstanding``."""
    reducer = Reducer(config, table, Seeded(seed))
    steps = []
    for _ in range(split):
        steps.append(eid := reducer._agenda.pick())
        reducer._fire(eid, record=False)
    outstanding.append(len(reducer._subst))
    twin = reducer._fork()
    twin._agenda._rng = random.Random(seed + 1)
    while True:
        eid = twin._agenda.pick()
        if eid is not None:
            twin._fire(eid, record=False)
        step = reducer.step()
        steps.append((eid, step))
        if eid is None and step is None:
            break
    ends = [(r.configuration, r.supply.next_id, r._outcome(0).status) for r in (reducer, twin)]
    return steps, ends


def test_a_fork_and_its_parent_step_as_the_oracle(monkeypatch):
    outstanding: list[int] = []
    for name, config, table in compiled_cases():
        if name == "add_400":
            continue
        total = normalize(config, table).steps
        for seed in range(10):
            for split in (1, total // 3, total // 2):
                as_oracle(lambda: alternated(config, table, seed, split, outstanding), monkeypatch)
    assert max(outstanding) > 0
