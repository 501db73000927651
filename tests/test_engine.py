import pytest

from inetkit import (
    Agent,
    Configuration,
    Equation,
    Fifo,
    IllFormedError,
    Lifo,
    Name,
    NameSupply,
    Reducer,
    Seeded,
    Symbol,
    build_rule_table,
    canonicalize,
    classify,
    confluence_probe,
    instantiate_fixed_generic,
    instantiate_ordinary,
    normalize,
    occurrence_violations,
    parse_program,
    reduce_once,
    step_collect,
    step_communication,
    step_substitution,
    strategy_from_spec,
)
from inetkit.core import term_names
from inetkit.engine import _default_supply

from conftest import compile_corpus, compile_text
from variadic_oracle import ArityUnderflowError, instantiate_variadic

S = Symbol("S", 1)
Z = Symbol("Z", 0)
ADD = Symbol("Add", 2)
EMPTY_TABLE = build_rule_table([])


def nm(i, d="x"):
    return Name(i, d)


def sz(n: int):
    t = Agent(Z)
    for _ in range(n):
        t = Agent(S, (t,))
    return t


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_interaction():
    r = nm(0, "r")
    eq = Equation(Agent(ADD, (sz(1), r)), sz(1))
    config = Configuration([r], [eq])
    assert classify(eq, config, EMPTY_TABLE) == "interaction"


def test_classify_collect():
    x = nm(0, "x")
    eq = Equation(x, Agent(Z))
    config = Configuration([x], [eq])
    assert classify(eq, config, EMPTY_TABLE) == "collect"


def test_classify_communication():
    x, y, r = nm(0, "x"), nm(1, "y"), nm(2, "r")
    eq1 = Equation(x, Agent(Z))
    eq2 = Equation(x, Agent(ADD, (y, r)))
    config = Configuration([y, r], [eq1, eq2])
    assert classify(eq1, config, EMPTY_TABLE) == "communication"


def test_classify_substitution():
    x, y = nm(0, "x"), nm(1, "y")
    eq1 = Equation(x, Agent(Z))
    eq2 = Equation(Agent(S, (x,)), y)
    config = Configuration([y], [eq1, eq2])
    assert classify(eq1, config, EMPTY_TABLE) == "substitution"


def test_classify_none_for_isolated_name_equation():
    x = nm(0, "x")
    eq = Equation(x, Agent(Z))
    config = Configuration([], [eq])
    assert classify(eq, config, EMPTY_TABLE) is None


def test_classify_none_for_degenerate_loop():
    x = nm(0, "x")
    eq = Equation(x, x)
    config = Configuration([], [eq])
    assert classify(eq, config, EMPTY_TABLE) is None


# ---------------------------------------------------------------------------
# the three name-resolution steps
# ---------------------------------------------------------------------------

def test_step_communication():
    x, y, r = nm(0, "x"), nm(1, "y"), nm(2, "r")
    t, u = Agent(Z), Agent(ADD, (y, r))
    config = Configuration([y, r], [Equation(x, t), Equation(x, u)])
    out = step_communication(config, x, t, u)
    assert out.equations == [Equation(t, u)]
    assert occurrence_violations(out) == []


def test_step_communication_names_only():
    a, b, c = nm(0, "a"), nm(1, "b"), nm(2, "c")
    config = Configuration([b, c], [Equation(a, b), Equation(a, c)])
    out = step_communication(config, a, b, c)
    assert out.equations == [Equation(b, c)]


def test_step_substitution():
    w, r = nm(0, "w"), nm(1, "r")
    config = Configuration([r], [Equation(w, sz(1)), Equation(r, Agent(S, (w,)))])
    target = config.equations[1]
    out = step_substitution(config, w, sz(1), target)
    assert out.equations == [Equation(r, sz(2))]


def test_step_substitution_inside_left_side():
    x, q, r = nm(0, "x"), nm(1, "q"), nm(2, "r")
    target = Equation(Agent(ADD, (x, r)), Agent(S, (q,)))
    config = Configuration([q, r], [Equation(x, Agent(Z)), target])
    out = step_substitution(config, x, Agent(Z), target)
    assert out.equations == [Equation(Agent(ADD, (Agent(Z), r)), Agent(S, (q,)))]


def test_step_collect():
    x = nm(0, "x")
    config = Configuration([x], [Equation(x, sz(1))])
    out = step_collect(config, x, sz(1))
    assert out.interface == [sz(1)] and out.equations == []


def test_step_collect_other_entries_untouched():
    a, x = nm(0, "a"), nm(1, "x")
    config = Configuration([a, x], [Equation(x, Agent(Z))])
    out = step_collect(config, x, Agent(Z))
    assert out.interface == [a, Agent(Z)]


def test_step_collect_nested_occurrence():
    x, r = nm(0, "x"), nm(1, "r")
    config = Configuration([Agent(S, (x,))], [Equation(x, Agent(Z))])
    out = step_collect(config, x, Agent(Z))
    assert out.interface == [sz(1)]


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

ADDITION = """
agent Add/2; agent S/1; agent Z/0;
Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);
Add(y, r) >< Z => r~y;
"""


def test_instantiate_ordinary_successor_rule():
    program = parse_program(ADDITION)
    rule = program.rules[0]
    r = program.supply.fresh("r")
    eq = Equation(Agent(ADD, (sz(1), r)), sz(1))
    out = instantiate_ordinary(rule, eq, NameSupply(program.supply.next_id))
    w = out[0].left.args[1]
    assert isinstance(w, Name) and w != r  # freshened
    assert out == [
        Equation(Agent(ADD, (sz(1), w)), Agent(Z)),
        Equation(r, Agent(S, (w,))),
    ]


def test_instantiate_ordinary_zero_rule_flipped():
    program = parse_program(ADDITION)
    rule = program.rules[1]
    r = program.supply.fresh("r")
    eq = Equation(Agent(Z), Agent(ADD, (sz(1), r)))  # flipped orientation
    out = instantiate_ordinary(rule, eq, NameSupply(program.supply.next_id))
    assert out == [Equation(r, sz(1))]


def test_instantiate_ordinary_empty_rhs():
    program = parse_program("agent A/0; agent B/0; A >< B => ();")
    out = instantiate_ordinary(
        program.rules[0],
        Equation(Agent(Symbol("A", 0)), Agent(Symbol("B", 0))),
        NameSupply(100),
    )
    assert out == []


def test_instantiate_fixed_generic_rewrites_wildcard():
    program = parse_program("agent Jst/1; Ret(r) >< ANY(x) => r~Jst(ANY(x));")
    rule = program.rules[0]
    r, t = program.supply.fresh("r"), program.supply.fresh("t")
    eq = Equation(Agent(Symbol("Ret", 1), (r,)), Agent(S, (t,)))
    out = instantiate_fixed_generic(rule, eq, NameSupply(program.supply.next_id))
    assert out == [Equation(r, Agent(Symbol("Jst", 1), (Agent(S, (t,)),)))]


def test_instantiate_fixed_generic_without_wildcard_in_rhs():
    program = parse_program("agent No/0; Aux >< ANY(r) => r~No;")
    rule = program.rules[0]
    u = program.supply.fresh("u")
    eq = Equation(Agent(Symbol("Aux", 0)), Agent(Symbol("Jst", 1), (u,)))
    out = instantiate_fixed_generic(rule, eq, NameSupply(program.supply.next_id))
    assert out == [Equation(u, Agent(Symbol("No", 0)))]


def test_instantiate_variadic_erase():
    program = parse_program("Eps >< ANY([x]) => Eps~x';")
    rule = program.rules[0]
    sup = program.supply
    u, v, t = sup.fresh("u"), sup.fresh("v"), sup.fresh("t")
    eq = Equation(Agent(Symbol("Eps", 0)), Agent(Symbol("A", 3), (u, v, t)))
    out = instantiate_variadic(rule, eq, NameSupply(sup.next_id))
    eps = Agent(Symbol("Eps", 0))
    assert out == [Equation(eps, u), Equation(eps, v), Equation(eps, t)]


def test_instantiate_variadic_fixed_port_binds_first_argument():
    program = parse_program(
        "agent No/0; agent Eps/0; Aux >< ANY(r, [x]) => Eps~x', No~r;"
    )
    rule = program.rules[0]
    sup = program.supply
    r0 = sup.fresh("r0")
    eq = Equation(Agent(Symbol("Aux", 0)), Agent(Symbol("Pick", 2), (r0, Agent(Z))))
    out = instantiate_variadic(rule, eq, NameSupply(sup.next_id))
    assert out == [
        Equation(Agent(Symbol("Eps", 0)), Agent(Z)),
        Equation(Agent(Symbol("No", 0)), r0),
    ]


def test_instantiate_variadic_underflow():
    program = parse_program("agent No/0; agent Eps/0; Aux >< ANY(r, [x]) => Eps~x', No~r;")
    rule = program.rules[0]
    eq = Equation(Agent(Symbol("Aux", 0)), Agent(Z))  # arity 0 < 1 fixed port
    with pytest.raises(ArityUnderflowError):
        instantiate_variadic(rule, eq, NameSupply(100))


def test_instantiation_freshens_names_in_preorder_with_their_hints():
    program = parse_program("A(p) >< B(q) => C(u, v)~C(w, z), p~D(u, w), q~D(v, z);")
    assert not program.has_errors
    rule = program.rules[0]
    a, b = program.supply.fresh("a"), program.supply.fresh("b")
    start = program.supply.next_id
    eq = Equation(Agent(Symbol("A", 1), (a,)), Agent(Symbol("B", 1), (b,)))
    out = instantiate_ordinary(rule, eq, NameSupply(start))
    names = [n for e in out for side in (e.left, e.right) for n in term_names(side)]
    fresh = list(dict.fromkeys(n for n in names if n not in (a, b)))
    assert [(n.id, n.display) for n in fresh] == [
        (start, "u"), (start + 1, "v"), (start + 2, "w"), (start + 3, "z")
    ]


def test_instantiation_inserts_bound_terms_without_walking_them():
    program = parse_program(ADDITION)
    deep = sz(5000)
    r = program.supply.fresh("r")
    out = instantiate_ordinary(
        program.rules[1], Equation(Agent(ADD, (deep, r)), Agent(Z)), NameSupply(100)
    )
    assert out[0].right is deep


@pytest.mark.parametrize("name", ["addition", "dup_erase", "maybe_pick", "map"])
def test_instantiation_is_independent_of_equation_orientation(name):
    program, analysis = compile_corpus(name)
    assert analysis.expanded_rules
    for rule in analysis.expanded_rules:
        supply = NameSupply(10_000)
        left = Agent(rule.left.symbol, tuple(supply.fresh() for _ in rule.left.params))
        if rule.generic is None:
            right_symbol = rule.right.symbol
            instantiate = instantiate_ordinary
        else:
            right_symbol = Symbol("Prt", len(rule.generic.fixed_params))
            instantiate = instantiate_fixed_generic
        right = Agent(right_symbol, tuple(supply.fresh() for _ in range(right_symbol.arity)))
        anchor = list(left.args + right.args)
        forward = instantiate(rule, Equation(left, right), NameSupply(supply.next_id))
        backward = instantiate(rule, Equation(right, left), NameSupply(supply.next_id))
        assert canonicalize(Configuration(anchor, forward)) == canonicalize(
            Configuration(anchor, backward)
        ), rule.id


# ---------------------------------------------------------------------------
# reduce_once / normalize
# ---------------------------------------------------------------------------

def test_reduce_once_first_step_of_pipeline():
    program, analysis = compile_corpus("maybe_pick")
    config = program.net.copy()
    step = reduce_once(config, analysis.table, Fifo(), NameSupply(program.supply.next_id))
    assert step is not None
    assert step.kind == "interaction" and step.rule_id == "r3"
    assert [e for e in step.equations_after] == [config.equations[-1]]


def test_reduce_once_normal_form_is_exhausted():
    config = Configuration([sz(1)], [])
    assert reduce_once(config, EMPTY_TABLE) is None


def test_reduce_once_skips_stuck_pairs():
    r = nm(0, "r")
    config = Configuration(
        [r], [Equation(Agent(Symbol("A", 0)), Agent(Symbol("B", 0))), Equation(r, sz(1))]
    )
    step = reduce_once(config, EMPTY_TABLE)
    assert step is not None and step.kind == "collect"
    assert reduce_once(config, EMPTY_TABLE) is None  # only the stuck pair remains


@pytest.mark.parametrize("name", ["addition", "dup_erase", "maybe_pick", "map"])
def test_stepping_a_reducer_follows_normalize(name):
    program, analysis = compile_corpus(name)
    before = program.net.copy()
    for strategy in [Fifo(), Lifo()] + [Seeded(i) for i in range(10)]:
        expected = normalize(program.net, analysis.table, strategy, trace=True)
        reducer = Reducer(program.net, analysis.table, strategy)
        steps = []
        while (step := reducer.step()) is not None:
            steps.append(step)
        assert steps == expected.trace, strategy
        assert reducer.configuration == expected.final
    assert program.net == before


def test_reducer_rejects_a_third_occurrence():
    x = nm(0, "x")
    config = Configuration([x], [Equation(x, Agent(S, (x,)))])
    with pytest.raises(IllFormedError):
        Reducer(config, EMPTY_TABLE)


def test_normalize_addition():
    program, analysis = compile_corpus("addition")
    outcome = normalize(program.net, analysis.table)
    assert outcome.status == "normal_form"
    assert canonicalize(outcome.final) == canonicalize(Configuration([sz(2)], []))


def test_normalize_pipeline_trace():
    program, analysis = compile_corpus("maybe_pick")
    outcome = normalize(program.net, analysis.table, trace=True)
    assert outcome.status == "normal_form"
    assert outcome.steps == 5
    kinds = [s.kind for s in outcome.trace]
    assert kinds == ["interaction", "communication", "interaction", "interaction", "collect"]
    expected = Configuration([Agent(Symbol("No", 0))], [])
    assert canonicalize(outcome.final) == canonicalize(expected)


def test_normalize_already_normal():
    x = nm(0, "x")
    outcome = normalize(Configuration([x], []), EMPTY_TABLE)
    assert outcome.status == "normal_form" and outcome.steps == 0


def test_normalize_budget_exhaustion():
    program, analysis = compile_corpus("addition")
    outcome = normalize(program.net, analysis.table, budget=1, trace=True)
    assert outcome.status == "budget_exhausted"
    assert outcome.steps == 1 and len(outcome.trace) == 1


def test_normalize_reports_stuck_pairs():
    program, analysis = compile_text(
        "agent A/0; agent B/0; agent Z/0; net (r) | A~B, r~Z;"
    )
    outcome = normalize(program.net, analysis.table)
    assert outcome.status == "stuck"
    assert [e for e in outcome.stuck_equations] == [
        Equation(Agent(Symbol("A", 0)), Agent(Symbol("B", 0)))
    ]
    assert outcome.final.interface == [Agent(Z)]  # reducible part still ran


def test_normalize_reports_degenerate_loop_as_stuck():
    program, analysis = compile_text(
        """
        agent A/2; agent B/0;
        A(x, y) >< B => x~y;
        net () | A(w, w)~B;
        """
    )
    outcome = normalize(program.net, analysis.table)
    assert outcome.status == "stuck"
    (eq,) = outcome.stuck_equations
    assert eq.left == eq.right


def test_normalize_reports_nested_self_reference_as_stuck():
    program, analysis = compile_text(
        """
        agent A/2; agent S/1; agent B/0;
        A(x, y) >< B => x~S(y);
        net () | A(w, w)~B;
        """
    )
    outcome = normalize(program.net, analysis.table)
    assert outcome.status == "stuck"
    (eq,) = outcome.stuck_equations
    assert isinstance(eq.left, Name) or isinstance(eq.right, Name)


def test_shared_table_across_threads():
    import threading

    program, analysis = compile_corpus("map")
    table = analysis.table
    results = [None] * 8
    def worker(i):
        outcome = normalize(program.net, table, Seeded(i))
        results[i] = canonicalize(outcome.final)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


def test_addition_scales_to_larger_operands():
    m, n = 30, 40
    lit = lambda k: "S(" * k + "Z" + ")" * k
    program, analysis = compile_text(
        f"""
        agent Add/2; agent S/1; agent Z/0;
        Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);
        Add(y, r) >< Z => r~y;
        net (r) | Add({lit(m)}, r)~{lit(n)};
        """
    )
    outcome = normalize(program.net, analysis.table)
    assert outcome.status == "normal_form"
    expected = Configuration([sz(m + n)], [])
    assert canonicalize(outcome.final) == canonicalize(expected)


def test_normalize_does_not_mutate_input():
    program, analysis = compile_corpus("addition")
    before = list(program.net.equations)
    normalize(program.net, analysis.table)
    assert program.net.equations == before


def test_strategy_from_spec():
    assert strategy_from_spec("fifo") == Fifo()
    assert strategy_from_spec("lifo") == Lifo()
    assert strategy_from_spec("seed:42") == Seeded(42)
    with pytest.raises(ValueError):
        strategy_from_spec("random")


def test_seeded_runs_are_reproducible():
    program, analysis = compile_corpus("map")
    a = normalize(program.net, analysis.table, Seeded(7), trace=True)
    b = normalize(program.net, analysis.table, Seeded(7), trace=True)
    assert [s.kind for s in a.trace] == [s.kind for s in b.trace]
    assert canonicalize(a.final) == canonicalize(b.final)


def test_step_equation_count_arithmetic():
    # communication, substitution and collect each remove one equation net;
    # interaction trades one equation for the rule's right-hand side
    for name in ["addition", "dup_erase", "maybe_pick", "map"]:
        program, analysis = compile_corpus(name)
        config = program.net.copy()
        supply = _default_supply(config, analysis.table)
        while True:
            before = len(config.equations)
            step = reduce_once(config, analysis.table, Fifo(), supply)
            if step is None:
                break
            delta = len(config.equations) - before
            if step.kind == "interaction":
                assert delta == len(step.equations_after) - 1
            else:
                assert delta == -1


def test_fresh_names_never_collide_with_configuration():
    program, analysis = compile_corpus("map")
    config = program.net.copy()
    supply = _default_supply(config, analysis.table)
    seen = {n.id for eq in config.equations for n in _names(eq)}
    while True:
        step = reduce_once(config, analysis.table, Fifo(), supply)
        if step is None:
            break
        for n in step.fresh_names:
            assert n.id not in seen
            seen.add(n.id)


def _names(eq):
    from inetkit.core import term_names

    return list(term_names(eq.left)) + list(term_names(eq.right))


# ---------------------------------------------------------------------------
# confluence probing
# ---------------------------------------------------------------------------

def test_confluence_probe_addition():
    program, analysis = compile_corpus("addition")
    strategies = [Fifo(), Lifo()] + [Seeded(i) for i in range(50)]
    report = confluence_probe(program.net, analysis.table, strategies)
    assert report.consistent
    assert len({r.steps for r in report.terminated}) == 1


def test_confluence_probe_trivial_config():
    report = confluence_probe(Configuration([], []), EMPTY_TABLE, [Fifo(), Lifo()])
    assert report.consistent
    assert all(r.steps == 0 for r in report.runs)


def test_confluence_probe_detects_divergence():
    # An asymmetric self rule is the canonical ambiguity: the result depends
    # on the orientation in which the active pair is assembled, which in turn
    # depends on which communication fires first.
    program = parse_program(
        """
        agent G/2; agent Z/0;
        G(a, b) >< G(c, d) => a~Z, b~c, d~Z;
        net (a, b, c, d) | x~G(a, b), x~G(c, d);
        """
    )
    (rule,) = program.rules
    table = build_rule_table([rule], validate=False)
    report = confluence_probe(program.net, table, [Fifo(), Lifo()])
    assert not report.consistent
    assert report.divergence is not None
    assert report.traces is not None and all(report.traces)
