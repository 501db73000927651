"""Acceptance suite: one test per shipped criterion, exact expectations.

Each test prints a single PASS line once its assertions hold, so a verbose
run doubles as the acceptance report.
"""

import random

import pytest

from inetkit import (
    Agent,
    Configuration,
    Equation,
    Fifo,
    Lifo,
    NameSupply,
    Reducer,
    RuleKind,
    Seeded,
    Symbol,
    analyze_rules,
    canonicalize,
    check_no_ambiguity,
    confluence_probe,
    expand_variadic,
    instantiate_fixed_generic,
    normalize,
    occurrence_violations,
    parse_configuration,
    parse_program,
)
from inetkit.rules import errors_in

from conftest import compile_corpus, compile_text, corpus_text
from variadic_oracle import ArityUnderflowError, instantiate_variadic

CORPUS_NAMES = ["addition", "dup_erase", "maybe_pick", "map"]

S = Symbol("S", 1)
Z = Symbol("Z", 0)


def sz(n: int):
    t = Agent(Z)
    for _ in range(n):
        t = Agent(S, (t,))
    return t


def nat_of(t) -> int:
    """Independent unary decoder: count successor constructors."""
    n = 0
    while isinstance(t, Agent) and t.symbol == S:
        t = t.args[0]
        n += 1
    assert isinstance(t, Agent) and t.symbol == Z
    return n


def test_criterion_01_addition():
    program, analysis = compile_corpus("addition")
    outcome = normalize(program.net, analysis.table)
    assert outcome.status == "normal_form"
    assert canonicalize(outcome.final) == canonicalize(Configuration([sz(2)], []))

    # 2 + 3, checked against plain integer arithmetic as the oracle
    m, n = 2, 3
    lit = lambda k: "S(" * k + "Z" + ")" * k
    text = "\n".join(
        line for line in corpus_text("addition").splitlines() if not line.startswith("net")
    ) + f"\nnet (r) | Add({lit(m)}, r)~{lit(n)};"
    program2, analysis2 = compile_text(text)
    outcome2 = normalize(program2.net, analysis2.table)
    assert outcome2.status == "normal_form"
    (result,) = outcome2.final.interface
    assert nat_of(result) == m + n
    assert canonicalize(outcome2.final) == canonicalize(Configuration([sz(m + n)], []))
    print("criterion 1: addition normal forms (1+1 exact, 2+3 vs oracle): PASS")


def test_criterion_02_pipeline_trace():
    program, analysis = compile_corpus("maybe_pick")
    outcome = normalize(program.net, analysis.table, Fifo(), trace=True)
    assert outcome.status == "normal_form"
    assert outcome.steps == 5
    assert [s.kind for s in outcome.trace] == [
        "interaction",
        "communication",
        "interaction",
        "interaction",
        "collect",
    ]
    expected = Configuration([Agent(Symbol("No", 0))], [])
    assert canonicalize(outcome.final) == canonicalize(expected)
    print("criterion 2: bind/pick pipeline reduces to < No | > in 5 steps "
          "(int, com, int, int, col): PASS")


def test_criterion_03_variadic_erase_instantiation():
    program = parse_program("Eps >< ANY([x]) => Eps~x';")
    (rule,) = program.rules
    sup = program.supply
    u, v, t = sup.fresh("u"), sup.fresh("v"), sup.fresh("t")
    eq = Equation(Agent(Symbol("Eps", 0)), Agent(Symbol("A", 3), (u, v, t)))
    eps = Agent(Symbol("Eps", 0))
    expected = sorted(
        [Equation(eps, u), Equation(eps, v), Equation(eps, t)],
        key=lambda e: e.right.id,
    )
    out = instantiate_variadic(rule, eq, NameSupply(sup.next_id))
    assert sorted(out, key=lambda e: e.right.id) == expected
    # The shipped path: expand at arity 3, then instantiate the fixed rule.
    (at3,) = expand_variadic(rule, [3])
    shipped = instantiate_fixed_generic(at3, eq.left, eq.right, NameSupply(sup.next_id))
    assert sorted(shipped, key=lambda e: e.right.id) == expected
    print("criterion 3: erase rule against a 3-port partner yields one "
          "equation per port, directly and via expansion: PASS")


def test_criterion_04_variadic_duplicate_instantiation():
    program = parse_program(
        "Dup(d1, d2) >< ANY([x]) => d1~ANY([y]), d2~ANY([z]), x'~Dup(y', z');"
    )
    (rule,) = program.rules
    sup = program.supply
    d1, d2, u, v, t = (sup.fresh(h) for h in ("d1", "d2", "u", "v", "t"))
    A = Symbol("A", 3)
    dup = Symbol("Dup", 2)
    eq = Equation(Agent(dup, (d1, d2)), Agent(A, (u, v, t)))
    out = instantiate_variadic(rule, eq, NameSupply(sup.next_id))
    assert len(out) == 5

    exp = NameSupply(5000)
    y = [exp.fresh(f"y{i}") for i in range(3)]
    z = [exp.fresh(f"z{i}") for i in range(3)]
    expected = [
        Equation(d1, Agent(A, tuple(y))),
        Equation(d2, Agent(A, tuple(z))),
        Equation(u, Agent(dup, (y[0], z[0]))),
        Equation(v, Agent(dup, (y[1], z[1]))),
        Equation(t, Agent(dup, (y[2], z[2]))),
    ]
    anchor = [d1, d2, u, v, t]
    assert canonicalize(Configuration(anchor, out)) == canonicalize(
        Configuration(anchor, expected)
    )
    # The shipped path: expand at arity 3, then instantiate the fixed rule.
    (at3,) = expand_variadic(rule, [3])
    shipped = instantiate_fixed_generic(at3, eq.left, eq.right, NameSupply(sup.next_id))
    assert len(shipped) == 5
    assert canonicalize(Configuration(anchor, shipped)) == canonicalize(
        Configuration(anchor, expected)
    )
    print("criterion 4: duplicate rule against a 3-port partner yields the "
          "5-equation net up to fresh renaming, directly and via expansion: PASS")


def test_criterion_05_grc_gate():
    full = parse_program(corpus_text("maybe_pick"))
    analysis = analyze_rules(full.rules, full.symbols.values())
    assert analysis.ok and errors_in(analysis.diagnostics) == []

    pruned_text = "\n".join(
        line for line in corpus_text("maybe_pick").splitlines()
        if not line.startswith("Aux >< Ret")
    )
    pruned = parse_program(pruned_text)
    bad = errors_in(analyze_rules(pruned.rules, pruned.symbols.values()).diagnostics)
    assert [d.code for d in bad] == ["E_GRC_OVERLAP"]
    assert "r1" in bad[0].message and "r4" in bad[0].message
    assert "(Ret, Aux)" in bad[0].message
    print("criterion 5: generic-overlap gate rejects the rule set without its "
          "disambiguating rule, naming both generic rules: PASS")


def test_criterion_06_ordinary_priority_observable():
    base = "\n".join(
        line for line in corpus_text("maybe_pick").splitlines() if not line.startswith("net")
    )
    aux, ret = Symbol("Aux", 0), Symbol("Ret", 1)
    for net in ["net (x) | Aux~Ret(x);", "net (x) | Ret(x)~Aux;"]:
        program, analysis = compile_text(base + "\n" + net)
        # the competing generic slot must actually exist for the priority
        # claim to mean anything
        assert (aux.arity, ret.name) in analysis.table.generic
        outcome = normalize(program.net, analysis.table, trace=True)
        applied = [
            s for s in outcome.trace
            if s.kind == "interaction"
            and {s.equation_before.left.symbol, s.equation_before.right.symbol}
            == {aux, ret}
        ]
        assert applied, "the (Aux, Ret) pair never fired"
        assert all(s.rule_id == "r5" for s in applied)
    print("criterion 6: every trace step on the contested pair records the "
          "ordinary rule, never the generic one: PASS")


def _random_term(rng, pool, symbols, depth=2):
    if depth == 0 or rng.random() < 0.35:
        if pool and rng.random() < 0.6:
            return pool.pop()
        return Agent(symbols[0])
    sym = rng.choice(symbols[1:])
    return Agent(sym, tuple(_random_term(rng, pool, symbols, depth - 1) for _ in range(sym.arity)))


def test_criterion_07_expansion_matches_direct_instantiation():
    rng = random.Random(20240917)
    arg_symbols = [Symbol("G0", 0), Symbol("G1", 1), Symbol("G2", 2)]
    cases = 0
    for name in CORPUS_NAMES:
        program, analysis = compile_corpus(name)
        variadic = [r for r in program.rules if r.kind is RuleKind.VARIADIC]
        top = max(s.arity for s in program.symbols.values())
        for rule in variadic:
            f = len(rule.generic.fixed_params)
            expanded = {
                int(r.id.rsplit("@", 1)[1]): r
                for r in expand_variadic(rule, range(top + 1))
            }
            for k in range(0, top + 1):
                partner = Symbol(f"Prt{k}", k)
                if k < f:
                    assert k not in expanded
                    supply = NameSupply(10_000)
                    args = tuple(supply.fresh(f"a{i}") for i in range(k))
                    bad_eq = Equation(
                        Agent(rule.left.symbol, tuple(supply.fresh() for _ in rule.left.params)),
                        Agent(partner, args),
                    )
                    with pytest.raises(ArityUnderflowError):
                        instantiate_variadic(rule, bad_eq, supply)
                    continue
                for _ in range(6):
                    supply = NameSupply(10_000)
                    pool = [supply.fresh(f"p{i}") for i in range(12)]
                    ord_args = tuple(
                        _random_term(rng, pool, arg_symbols) for _ in rule.left.params
                    )
                    gen_args = tuple(_random_term(rng, pool, arg_symbols) for _ in range(k))
                    eq = Equation(
                        Agent(rule.left.symbol, ord_args), Agent(partner, gen_args)
                    )
                    # each free name occurs once in the equation; anchoring
                    # them in an interface makes both results comparable
                    anchor = [
                        n for t in (eq.left, eq.right) for n in _term_names(t)
                    ]
                    direct = instantiate_variadic(rule, eq, NameSupply(supply.next_id))
                    via_expanded = instantiate_fixed_generic(
                        expanded[k], eq.left, eq.right, NameSupply(supply.next_id + 10_000)
                    )
                    lhs = canonicalize(Configuration(list(anchor), direct))
                    rhs = canonicalize(Configuration(list(anchor), via_expanded))
                    assert lhs == rhs, (name, rule.id, k)
                    cases += 1
    assert cases >= 100
    print(f"criterion 7: expansion agrees with direct variadic instantiation "
          f"on {cases} randomized cases: PASS")


def _term_names(t):
    from inetkit.core import term_names

    return term_names(t)


def test_criterion_08_uniform_confluence_suite():
    strategies = [Fifo(), Lifo()] + [Seeded(i) for i in range(198)]
    assert len(strategies) == 200
    for name in CORPUS_NAMES:
        program, analysis = compile_corpus(name)
        report = confluence_probe(program.net, analysis.table, strategies)
        assert report.consistent, name
        finished = report.terminated
        assert len(finished) == 200
        assert len({r.steps for r in finished}) == 1
        assert len({r.canonical for r in finished}) == 1
    print("criterion 8: 200 strategies agree on one canonical normal form and "
          "one step count for every corpus program: PASS")


def test_criterion_09_self_rule_symmetry():
    symmetric = parse_program("G(a, b) >< G(c, d) => a~c, b~d;")
    assert check_no_ambiguity(symmetric.rules) == []
    asymmetric = parse_program("agent Z/0; G(a, b) >< G(c, d) => a~Z, b~c, d~Z;")
    codes = [d.code for d in check_no_ambiguity(asymmetric.rules)]
    assert codes == ["E_SELF_ASYM"]
    print("criterion 9: symmetric self rule accepted, asymmetric one rejected "
          "with E_SELF_ASYM: PASS")


def test_criterion_10_map_corpus():
    program, analysis = compile_corpus("map")
    outcome = normalize(program.net, analysis.table)
    assert outcome.status == "normal_form"
    expected = parse_configuration("< Cons(S(Z), Cons(S(S(Z)), Nil)) | >")
    assert canonicalize(outcome.final) == canonicalize(expected)
    print("criterion 10: map with the increment function over [Z, S(Z)] yields "
          "Cons(S(Z), Cons(S(S(Z)), Nil)): PASS")


def test_criterion_11_occurrence_invariant():
    checked_steps = 0
    strategies = [Fifo(), Lifo()] + [Seeded(i) for i in range(40)]
    for name in CORPUS_NAMES:
        program, analysis = compile_corpus(name)
        assert occurrence_violations(program.net) == []
        for strategy in strategies:
            reducer = Reducer(program.net, analysis.table, strategy)
            while reducer.step() is not None:
                assert occurrence_violations(reducer.configuration) == [], (name, strategy)
                checked_steps += 1
    assert checked_steps >= 1000
    print(f"criterion 11: no name ever exceeded two occurrences across "
          f"{checked_steps} checked reductions: PASS")
