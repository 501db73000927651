"""Compiled right-hand sides against the reference walk over the rule text.

Every rule of the corpus and of generated programs, expanded at the arities
its program uses, is fired through ``instantiate_ordinary`` or
``instantiate_fixed_generic`` (which run the rule's ``RhsProgram``) and
instantiated by ``rhs_oracle.instantiate_rhs``.  Both must build the same
equations, fresh-name ids and display hints included, draw the same number
of names, and fail with the same error.

An arity instance's program is stamped from its written rule's template,
without building the instance's right-hand side.  It must equal, slot for
slot, the program compiled from that right-hand side as
``expand_oracle.expand_at`` builds it, walking the rule text eagerly.  The
instance's right-hand side, stamped from the same template, must equal the
oracle's too.
"""

import ast
import pathlib
import random
import sys

import pytest

from inetkit import (
    Agent,
    Equation,
    Name,
    NameSupply,
    NetError,
    RuleKind,
    Symbol,
    analyze_rules,
    expand_variadic,
    instantiate_fixed_generic,
    instantiate_ordinary,
    parse_program,
)
from inetkit.rules import _CLOSE, _RANGE, _WILD, RhsProgram, Rule

import expand_oracle
import program_gen
from conftest import corpus_text, eps_dup_text, oriented
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


def _generated_rules(make=program_gen.program):
    rules, programs, seed = [], 0, 0
    while programs < GENERATED:
        found = expanded_rules(make(random.Random(seed)))
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


@pytest.mark.parametrize("kind", ARG_KINDS)
def test_program_matches_the_walk_on_generated_variadic_rules(kind):
    """Instances whose replicated equations hold local names and whose
    wildcards take explicit arguments before their range."""
    rules = _generated_rules(program_gen.variadic_program)
    assert sum(r.instance_of is not None for r in rules) > 500
    for rule in rules:
        _check_rule(rule, kind)


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
        # ... and around one: the wildcard is read before its arguments.
        ("agent H/1; G(a, b) >< G(c, d) => a~c, b~ANY(H(d, Z));", None),
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


def test_program_without_faults_has_none_to_report():
    # ``run`` calls ``_fail`` only when a fault is certain; asked anyway, a
    # fault-free program says it has none rather than returning.
    (rule,) = parse_program("agent Jst/1; Ret(r) >< ANY(x) => r~Jst(ANY(x));").rules
    program = RhsProgram(rule)
    program.run((Name(0, "r"), Name(1, "x")), Symbol("P", 1), NameSupply(2))
    with pytest.raises(AssertionError, match="no fault to report"):
        program._fail(Symbol("P", 1))


def _fields(program: RhsProgram) -> tuple:
    return program.hints, program.code, program._need, program._faults


def _oracle_rhs(rule: Rule) -> tuple:
    """The right-hand side of the arity instance ``rule`` as the eager
    oracle expands its written rule.  The oracle recurses once per nesting
    level, and the deep test program nests 500 agents."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5_000))
    try:
        return expand_oracle.expand_at(rule.instance_of, len(rule.right.fixed_params)).rhs
    finally:
        sys.setrecursionlimit(limit)


def _check_stamped(instances) -> int:
    """Each instance's program equals the one compiled from a plain rule
    that holds the oracle's expansion as its right-hand side."""
    count = 0
    for rule in instances:
        if rule.instance_of is None:
            continue
        expanded = Rule(rule.id, rule.left, rule.right, _oracle_rhs(rule))
        assert _fields(rule.program) == _fields(RhsProgram(expanded)), rule.id
        count += 1
    return count


def _accepted_instances(text: str):
    """The rules of ``text`` expanded at every arity up to its largest, or
    ``None`` if ``analyze_rules`` rejects it."""
    program = parse_program(text)
    analysis = analyze_rules(program.rules, program.symbols.values(), all_arities=True)
    if program.has_errors or not analysis.ok:
        return None
    return analysis.expanded_rules


def test_stamped_instances_match_their_expansion_on_the_corpus():
    instances = [x for name in CORPUS_NAMES for x in _accepted_instances(corpus_text(name))]
    assert _check_stamped(instances) >= 20


def _check_stamped_generated(make) -> int:
    """The stamped instances of the first 400 programs ``make`` writes
    that ``analyze_rules`` accepts, checked and counted."""
    accepted, seed, count = 0, 0, 0
    while accepted < 400:
        instances = _accepted_instances(make(random.Random(seed)))
        seed += 1
        if instances is not None:
            accepted += 1
            count += _check_stamped(instances)
    return count


def test_stamped_instances_match_their_expansion_on_generated_programs():
    assert _check_stamped_generated(program_gen.program) > 400


def test_stamped_instances_match_their_expansion_on_generated_variadic_programs():
    assert _check_stamped_generated(program_gen.variadic_program) > 1000


def _variadic_test_programs() -> list[str]:
    """Every program with a variadic rule that the tests spell out in a
    string literal, with a wide and a deep one besides."""
    texts = {eps_dup_text(64)}
    deep = "S(" * 500 + "ANY(k, [y])" + ")" * 500
    texts.add(f"D(r) >< ANY([x]) => r~{deep}, x'~P(y', u, u), k~Z;")
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "[" in node.value:
                texts.add(node.value)
    return [
        text for text in sorted(texts)
        if any(r.kind is RuleKind.VARIADIC for r in parse_program(text).rules)
    ]


def test_stamped_instances_match_their_expansion_on_the_tests_programs():
    """Accepted or not, at every arity up to their largest and at least 3:
    an ill-formed rule, too, must stamp what it expands to."""
    texts = _variadic_test_programs()
    assert len(texts) >= 30
    count = 0
    for text in texts:
        program = parse_program(text)
        arities = range(max([3, *(s.arity for s in program.symbols.values())]) + 1)
        count += _check_stamped(x for r in program.rules for x in expand_variadic(r, arities))
    assert count > 300


# A range-tail agent among the explicit arguments of another: it closes
# first, so its range draws its fresh names first.
NESTED_TAILS = (
    "agent Eps/0; agent Q/2;"
    "D(r, s) >< ANY(a, [x]) => r~ANY(ANY(a, [z]), [y]), s~Eps, x'~Q(y', z');"
)


def _flat(rhs) -> list[tuple]:
    """``rhs`` in flat preorder: each agent's head, argument count and range
    tail, each name's id and display hint.  Unlike ``==`` on the terms, it
    does not recurse, so it reads the deep test program."""
    return [
        (u.id, u.display) if isinstance(u, Name) else (u.head, len(u.args), u.range_tail)
        for eq in rhs
        for u in expand_oracle._eq_parts(eq)
    ]


def test_instances_expand_like_the_oracle_on_the_tests_programs():
    """Accepted or not, at every arity up to their largest and at least 3,
    each instance's right-hand side, stamped from its written rule's
    template, equals the oracle's eager expansion, name ids and display
    hints included."""
    texts = _variadic_test_programs()
    assert NESTED_TAILS in texts
    count = 0
    for text in texts:
        program = parse_program(text)
        arities = range(max([3, *(s.arity for s in program.symbols.values())]) + 1)
        for rule in (x for r in program.rules for x in expand_variadic(r, arities)):
            if rule.instance_of is not None:
                assert _flat(rule.rhs) == _flat(_oracle_rhs(rule)), rule.id
                count += 1
    assert count > 300


def test_a_written_variadic_rule_faults_at_each_range_without_reading_its_agent():
    """Compiled as written, a range-tail agent is one range fault: its
    wildcard and its arguments are not read, so ``k`` is first seen in the
    second equation.  Each variadic name is another range fault."""
    (rule,) = parse_program(
        "agent H/1; agent Q/2; agent Z/0;"
        "G(a, b) >< ANY([x]) => a~ANY(k, [y]), b~H(ANY(k)), x'~Q(y', w), w~Z;"
    ).rules
    H, Q, Z = Symbol("H", 1), Symbol("Q", 2), Symbol("Z", 0)
    assert _fields(rule.program) == (
        ("k", "w"),
        (0, None, 1, 2, (None, 1), (H, 1), None, 3, (Q, 2), None, 3, (Z, 0), None),
        None,
        ((_RANGE,), (_WILD,), (_CLOSE, None, 1), (_RANGE,), (_RANGE,)),
    )
    with pytest.raises(NetError, match="range or variadic name in an unexpanded RHS"):
        rule.program.run((Name(0, "a"), Name(1, "b")), None, NameSupply(10))
