"""Compiled right-hand sides against the reference walk over the rule text.

Every rule of the corpus and of generated programs, expanded at the arities
its program uses, is fired through ``instantiate_ordinary`` or
``instantiate_fixed_generic`` (which run the rule's ``RhsProgram``) and
instantiated by ``rhs_oracle.instantiate_rhs``.  Both must build the same
equations, fresh-name ids and display hints included, draw the same number
of names, and fail with the same error.
"""

import random

import pytest

from inetkit import (
    Agent,
    Equation,
    Name,
    NameSupply,
    NetError,
    Symbol,
    expand_variadic,
    instantiate_fixed_generic,
    instantiate_ordinary,
    parse_program,
)
from inetkit.core import term_names
from inetkit.rules import RhsProgram

import program_gen
from conftest import corpus_text, oriented
from rhs_oracle import instantiate_rhs

CORPUS_NAMES = ["addition", "dup_erase", "maybe_pick", "map"]
GENERATED = 240


def _raw(t) -> str:
    """``t`` in flat preorder, with name ids and display hints."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Name):
            out.append(f"{u.id}:{u.display}")
        else:
            out.append(f"{u.symbol.name}/{u.symbol.arity}")
            stack.extend(reversed(u.args))
    return " ".join(out)


def _raw_equations(eqs) -> list[str]:
    return [f"{_raw(eq.left)} = {_raw(eq.right)}" for eq in eqs]


def expanded_rules(text: str):
    """The program's rules, variadic ones expanded at its arities, whether
    or not the program passes its checks."""
    program = parse_program(text)
    arities = {s.arity for s in program.symbols.values()}
    return [x for rule in program.rules for x in expand_variadic(rule, arities)]


def _corpus_rules():
    return [rule for name in CORPUS_NAMES for rule in expanded_rules(corpus_text(name))]


def _generated_rules():
    rules, programs, seed = [], 0, 0
    while programs < GENERATED:
        found = expanded_rules(program_gen.program(random.Random(seed)))
        seed += 1
        if found:
            rules.extend(found)
            programs += 1
    return rules


ARG_KINDS = ["names", "name-free agents", "deep agents"]


def _args(kind: str, count: int, supply: NameSupply) -> tuple:
    """``count`` argument terms of one kind."""
    if kind == "names":
        return tuple(supply.fresh(f"a{i}") for i in range(count))
    if kind == "name-free agents":
        return tuple(Agent(Symbol(f"K{i}", 0)) for i in range(count))
    deep = Symbol("D", 1)
    out = []
    for i in range(count):
        t = supply.fresh(f"d{i}")
        for _ in range(200):
            t = Agent(deep, (t,))
        out.append(t)
    return tuple(out)


def _same(fire, oracle):
    """Run both with equal supplies; both must agree, errors included."""
    supplies = NameSupply(50_000), NameSupply(50_000)
    results = []
    for run, supply in zip((fire, oracle), supplies):
        try:
            results.append(_raw_equations(run(supply)))
        except NetError as exc:
            results.append((type(exc), str(exc)))
    assert results[0] == results[1]
    if isinstance(results[0], list):
        assert supplies[0].next_id == supplies[1].next_id


def _check_rule(rule, kind):
    supply = NameSupply(10_000)
    left = Agent(rule.left.symbol, _args(kind, len(rule.left.params), supply))
    if rule.generic is None:
        right = Agent(rule.right.symbol, _args(kind, len(rule.right.params), supply))
        # A self rule binds the equation's left agent to its left pattern.
        self_rule = rule.left.symbol == rule.right.symbol
        for eq in (Equation(left, right), Equation(right, left)):
            args = eq.left.args + eq.right.args if self_rule else left.args + right.args
            _same(
                lambda s, eq=eq: instantiate_ordinary(rule, *oriented(rule, eq), s),
                lambda s, args=args: instantiate_rhs(rule, args, None, s),
            )
        return
    partner = Symbol("Prt", len(rule.generic.fixed_params))
    right = Agent(partner, _args(kind, partner.arity, supply))
    args = left.args + right.args
    # The wildcard binds the equation's right agent, then its left one.
    for eq in (Equation(left, right), Equation(right, left)):
        _same(
            lambda s, eq=eq: instantiate_fixed_generic(rule, *oriented(rule, eq), s),
            lambda s: instantiate_rhs(rule, args, partner, s),
        )


@pytest.mark.parametrize("kind", ARG_KINDS)
def test_program_matches_the_walk_on_corpus_rules(kind):
    rules = _corpus_rules()
    assert len(rules) >= 40
    for rule in rules:
        _check_rule(rule, kind)


@pytest.mark.parametrize("kind", ARG_KINDS)
def test_program_matches_the_walk_on_generated_rules(kind):
    rules = _generated_rules()
    assert sum(r.generic is not None for r in rules) > 50
    for rule in rules:
        _check_rule(rule, kind)


def test_program_sites_every_value_where_its_equations_hold_it():
    for rule in _corpus_rules() + _generated_rules():
        program = RhsProgram(rule)
        supply = NameSupply(10_000)
        args = tuple(supply.fresh() for _ in rule.params)
        slot_of = {a.id: i for i, a in enumerate(args)}
        first = supply.next_id
        partner = None if rule.generic is None else Symbol("Prt", len(rule.generic.fixed_params))
        try:
            eqs = program.run(args, partner, supply)
        except NetError:
            continue  # an ill-formed rule; the tests above compare its error
        fresh: dict[int, list] = {i: [] for i in range(first, supply.next_id)}
        for k, eq in enumerate(eqs):
            moves = []
            for side, t in ((0, eq.left), (1, eq.right)):
                for n in term_names(t):
                    if n.id in slot_of:
                        moves.append((slot_of[n.id], side, n is t))
                    else:
                        fresh[n.id].append((k, side, n is t))
            assert [m[1:] for m in program.moves if m[0] == k and m[1] is not None] == moves, rule.id
        assert [list(s) for s in program.fresh_sites] == list(fresh.values()), rule.id


@pytest.mark.parametrize(
    "text, partner",
    [
        # A range: variadic rules must be expanded first.
        ("agent Eps/0; Eps >< ANY([x]) => Eps~x';", Symbol("P", 2)),
        ("agent Eps/0; Dup(a, b) >< ANY([x]) => a~ANY([y]), b~ANY([z]), x'~Dup(y', z');",
         Symbol("P", 1)),
        # A wildcard without a partner, before and after an agent at the wrong arity.
        ("agent Z/0; G(a, b) >< G(c, d) => a~ANY(c, d), b~Z;", None),
        ("G(a, b) >< G(c, d) => a~H(c, d), b~ANY(H(Z));", None),
        ("G(a, b) >< G(c, d) => b~ANY(H(Z)), a~H(c, d);", None),
        # An agent at the wrong arity, with a partner.
        ("G(a, b) >< G(c, d) => a~H(c, d), b~H(Z);", None),
        ("G(a, b) >< G(c, d) => b~H(Z), a~H(c, d);", None),
        # A wildcard whose arity the partner does not have.
        ("agent Jst/1; Ret(r) >< ANY(x) => r~Jst(ANY(x));", Symbol("P", 2)),
        ("agent Jst/1; Ret(r) >< ANY(x) => r~Jst(ANY(x));", Symbol("P", 1)),
    ],
)
def test_program_fails_like_the_walk(text, partner):
    (rule,) = parse_program(text).rules
    supply = NameSupply(10_000)
    args = tuple(supply.fresh() for _ in rule.params)
    program = RhsProgram(rule)  # compiling never fails; firing may
    _same(
        lambda s: program.run(args, partner, s),
        lambda s: instantiate_rhs(rule, args, partner, s),
    )

