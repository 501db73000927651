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
    NameSupply,
    NetError,
    Reducer,
    Seeded,
    Symbol,
    analyze_rules,
    build_rule_table,
    canonicalize,
    confluence_probe,
    instantiate_fixed_generic,
    instantiate_ordinary,
    normalize,
    occurrence_violations,
    parse_program,
    strategy_from_spec,
)
from inetkit.core import term_names
from inetkit.engine import _draw, _resolve

import probe_oracle
import program_gen
from conftest import compile_corpus, compile_text, oriented
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
# classification: the kind of a reducer's first step
# ---------------------------------------------------------------------------

def step_once(config):
    """The kind of a reducer's first step over ``config`` (``None`` when no
    step applies), and the configuration it leaves."""
    reducer = Reducer(config, EMPTY_TABLE)
    step = reducer.step()
    return None if step is None else step.kind, reducer.configuration


def test_classify_collect():
    x = nm(0, "x")
    assert step_once(Configuration([x], [Equation(x, Agent(Z))]))[0] == "collect"


def test_classify_communication():
    x, y, r = nm(0, "x"), nm(1, "y"), nm(2, "r")
    eq1 = Equation(x, Agent(Z))
    eq2 = Equation(x, Agent(ADD, (y, r)))
    assert step_once(Configuration([y, r], [eq1, eq2]))[0] == "communication"


def test_classify_substitution():
    x, y = nm(0, "x"), nm(1, "y")
    eq1 = Equation(x, Agent(Z))
    eq2 = Equation(Agent(S, (x,)), y)
    assert step_once(Configuration([y], [eq1, eq2]))[0] == "substitution"


def test_classify_none_for_isolated_name_equation():
    x = nm(0, "x")
    assert step_once(Configuration([], [Equation(x, Agent(Z))]))[0] is None


def test_classify_none_for_degenerate_loop():
    x = nm(0, "x")
    assert step_once(Configuration([], [Equation(x, x)]))[0] is None


# ---------------------------------------------------------------------------
# the three name-resolution steps
# ---------------------------------------------------------------------------

def test_step_communication():
    x, y, r = nm(0, "x"), nm(1, "y"), nm(2, "r")
    t, u = Agent(Z), Agent(ADD, (y, r))
    kind, after = step_once(Configuration([y, r], [Equation(x, t), Equation(x, u)]))
    assert kind == "communication"
    assert after.equations == [Equation(t, u)]
    assert occurrence_violations(after) == []


def test_step_communication_names_only():
    a, b, c = nm(0, "a"), nm(1, "b"), nm(2, "c")
    kind, after = step_once(Configuration([b, c], [Equation(a, b), Equation(a, c)]))
    assert kind == "communication"
    assert after.equations == [Equation(b, c)]


def test_step_substitution():
    w, r = nm(0, "w"), nm(1, "r")
    kind, after = step_once(Configuration([r], [Equation(w, sz(1)), Equation(r, Agent(S, (w,)))]))
    assert kind == "substitution"
    assert after.equations == [Equation(r, sz(2))]


def test_step_substitution_inside_left_side():
    x, q, r = nm(0, "x"), nm(1, "q"), nm(2, "r")
    target = Equation(Agent(ADD, (x, r)), Agent(S, (q,)))
    kind, after = step_once(Configuration([q, r], [Equation(x, Agent(Z)), target]))
    assert kind == "substitution"
    assert after.equations == [Equation(Agent(ADD, (Agent(Z), r)), Agent(S, (q,)))]


def test_step_collect():
    x = nm(0, "x")
    kind, after = step_once(Configuration([x], [Equation(x, sz(1))]))
    assert kind == "collect"
    assert after.interface == [sz(1)] and after.equations == []


def test_step_collect_other_entries_untouched():
    a, x = nm(0, "a"), nm(1, "x")
    kind, after = step_once(Configuration([a, x], [Equation(x, Agent(Z))]))
    assert kind == "collect"
    assert after.interface == [a, Agent(Z)]


def test_step_collect_nested_occurrence():
    x = nm(0, "x")
    kind, after = step_once(Configuration([Agent(S, (x,))], [Equation(x, Agent(Z))]))
    assert kind == "collect"
    assert after.interface == [sz(1)]


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
    out = instantiate_ordinary(rule, eq.left, eq.right, NameSupply(program.supply.next_id))
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
    out = instantiate_ordinary(rule, *oriented(rule, eq), NameSupply(program.supply.next_id))
    assert out == [Equation(r, sz(1))]


def test_instantiate_ordinary_empty_rhs():
    program = parse_program("agent A/0; agent B/0; A >< B => ();")
    out = instantiate_ordinary(
        program.rules[0], Agent(Symbol("A", 0)), Agent(Symbol("B", 0)), NameSupply(100)
    )
    assert out == []


def test_instantiate_fixed_generic_rewrites_wildcard():
    program = parse_program("agent Jst/1; Ret(r) >< ANY(x) => r~Jst(ANY(x));")
    rule = program.rules[0]
    r, t = program.supply.fresh("r"), program.supply.fresh("t")
    eq = Equation(Agent(Symbol("Ret", 1), (r,)), Agent(S, (t,)))
    out = instantiate_fixed_generic(rule, eq.left, eq.right, NameSupply(program.supply.next_id))
    assert out == [Equation(r, Agent(Symbol("Jst", 1), (Agent(S, (t,)),)))]


def test_instantiate_fixed_generic_without_wildcard_in_rhs():
    program = parse_program("agent No/0; Aux >< ANY(r) => r~No;")
    rule = program.rules[0]
    u = program.supply.fresh("u")
    eq = Equation(Agent(Symbol("Aux", 0)), Agent(Symbol("Jst", 1), (u,)))
    out = instantiate_fixed_generic(rule, eq.left, eq.right, NameSupply(program.supply.next_id))
    assert out == [Equation(u, Agent(Symbol("No", 0)))]


def test_instantiate_ordinary_rejects_agents_that_do_not_fit():
    rule = parse_program(ADDITION).rules[0]  # Add(y, r) >< S(x)
    u, v, w = nm(0, "u"), nm(1, "v"), nm(2, "w")
    add, succ = Agent(ADD, (u, v)), Agent(S, (w,))
    # The wrong symbol on either side, and the right ones the other way round.
    for a, b in ((Agent(Z), succ), (add, Agent(Z)), (succ, add)):
        with pytest.raises(NetError, match=r"^equation does not match rule r1$"):
            instantiate_ordinary(rule, a, b, NameSupply(100))


def test_instantiate_fixed_generic_rejects_agents_that_do_not_fit():
    program = parse_program("agent Jst/1; Ret(r) >< ANY(x) => r~Jst(ANY(x));")
    rule = program.rules[0]
    r, t = program.supply.fresh("r"), program.supply.fresh("t")
    ret, partner = Agent(Symbol("Ret", 1), (r,)), Agent(S, (t,))
    # The wrong concrete symbol, and the right agents the other way round.
    for a, b in ((Agent(Symbol("Jst", 1), (r,)), partner), (partner, ret)):
        with pytest.raises(NetError, match=r"^equation does not match rule r1$"):
            instantiate_fixed_generic(rule, a, b, NameSupply(100))


def test_instantiate_fixed_generic_rejects_a_partner_of_the_wrong_arity():
    program = parse_program("agent Jst/1; Ret(r) >< ANY(x) => r~Jst(ANY(x));")
    ret = Agent(Symbol("Ret", 1), (program.supply.fresh("r"),))
    with pytest.raises(NetError, match=r"^rule r1: arity mismatch against Z/0$"):
        instantiate_fixed_generic(program.rules[0], ret, Agent(Z), NameSupply(100))

    program = parse_program("agent No/0; Aux >< ANY(r) => r~No;")
    rule = program.rules[0]
    u, v = program.supply.fresh("u"), program.supply.fresh("v")
    aux, pick = Agent(Symbol("Aux", 0)), Agent(Symbol("Pick", 2), (u, v))
    # The program alone would bind r to Pick's first port and drop the second.
    assert rule.program.run(aux.args + pick.args, pick.symbol, NameSupply(100)) == [
        Equation(u, Agent(Symbol("No", 0)))
    ]
    with pytest.raises(NetError, match=r"^rule r1: arity mismatch against Pick/2$"):
        instantiate_fixed_generic(rule, aux, pick, NameSupply(100))


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
    out = instantiate_ordinary(rule, eq.left, eq.right, NameSupply(start))
    names = [n for e in out for side in (e.left, e.right) for n in term_names(side)]
    fresh = list(dict.fromkeys(n for n in names if n not in (a, b)))
    assert [(n.id, n.display) for n in fresh] == [
        (start, "u"), (start + 1, "v"), (start + 2, "w"), (start + 3, "z")
    ]


def test_instantiation_inserts_bound_terms_without_walking_them():
    program = parse_program(ADDITION)
    deep = sz(5000)
    r = program.supply.fresh("r")
    out = instantiate_ordinary(program.rules[1], Agent(ADD, (deep, r)), Agent(Z), NameSupply(100))
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
        start = supply.next_id
        forward = instantiate(rule, *oriented(rule, Equation(left, right)), NameSupply(start))
        backward = instantiate(rule, *oriented(rule, Equation(right, left)), NameSupply(start))
        assert canonicalize(Configuration(anchor, forward)) == canonicalize(
            Configuration(anchor, backward)
        ), rule.id


# ---------------------------------------------------------------------------
# stepping a reducer / normalize
# ---------------------------------------------------------------------------

def test_reducer_first_step_of_pipeline():
    program, analysis = compile_corpus("maybe_pick")
    reducer = Reducer(program.net, analysis.table, Fifo(), NameSupply(program.supply.next_id))
    step = reducer.step()
    assert step is not None
    assert step.kind == "interaction" and step.rule_id == "r3"
    assert [e for e in step.equations_after] == [reducer.configuration.equations[-1]]


def test_reducer_step_in_normal_form_is_none():
    assert Reducer(Configuration([sz(1)], []), EMPTY_TABLE).step() is None


def test_reducer_step_skips_stuck_pairs():
    r = nm(0, "r")
    config = Configuration(
        [r], [Equation(Agent(Symbol("A", 0)), Agent(Symbol("B", 0))), Equation(r, sz(1))]
    )
    reducer = Reducer(config, EMPTY_TABLE)
    step = reducer.step()
    assert step is not None and step.kind == "collect"
    assert reducer.step() is None  # only the stuck pair remains


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


def _raw_equations(eqs) -> str:
    return "; ".join(f"{_raw(eq.left)} = {_raw(eq.right)}" for eq in eqs)


def _raw_configuration(config) -> str:
    return " | ".join(_raw(t) for t in config.interface) + " || " + _raw_equations(config.equations)


# Digest of every step and every configuration passed through while stepping
# one Reducer over each corpus program under fifo, lifo and seeds 0-4, raw
# name ids included.  Recorded with a reducer that substituted collected
# terms straight into the interface.  Beside the corpus, a net whose interface nests names that
# are collected in turn.
NESTED_INTERFACE = """
agent Add/2; agent S/1; agent Z/0; agent P/2;
Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);
Add(y, r) >< Z => r~y;
net (P(a, S(b)), c, S(d)) | Add(S(Z), a)~S(S(Z)), Add(c, b)~S(Z), d~e, Add(Z, e)~S(S(Z));
"""

STEP_DIGESTS = {
    "addition": (63, "7d4acac79e690ae34113f5d20b303d6ba58fde7e029eec685b8ed7d66221b1e3"),
    "dup_erase": (119, "ca513fbdd69bf91d40de851dcd5e96141d2be08f09728b5c89c7ee159cfc9045"),
    "map": (217, "cb2f404eb6a13acc9004014dd5841662cbeccd488f0c69fdf140556a65d5d41a"),
    "maybe_pick": (77, "cb39888f27943c6a17cfba0aa38144a36c76772299985a378bf29efbbdadd1c7"),
    "nested_interface": (245, "909579e7dfa5d02339264aaf7bcb6a8ead29fcf473b7943d010e780402dadb8f"),
}


@pytest.mark.parametrize("name", sorted(STEP_DIGESTS))
def test_steps_and_configurations_are_pinned_with_name_ids(name):
    import hashlib

    if name == "nested_interface":
        program, analysis = compile_text(NESTED_INTERFACE)
    else:
        program, analysis = compile_corpus(name)
    digest = hashlib.sha256()
    count = 0

    def record(line: str) -> None:
        nonlocal count
        digest.update(line.encode() + b"\n")
        count += 1

    for strategy in [Fifo(), Lifo()] + [Seeded(s) for s in range(5)]:
        reducer = Reducer(program.net, analysis.table, strategy)
        record(_raw_configuration(reducer.configuration))
        while (step := reducer.step()) is not None:
            record(" # ".join([
                step.kind,
                str(step.rule_id),
                _raw_equations([step.equation_before]),
                _raw_equations(step.equations_after),
                " ".join(f"{n.id}:{n.display}" for n in step.fresh_names),
            ]))
            record(_raw_configuration(reducer.configuration))
    assert (count, digest.hexdigest()) == STEP_DIGESTS[name]


def _index_by_walk(reducer) -> dict:
    """The occurrence index a walk over the reducer's net gives, its terms
    resolved through the bindings."""
    occ: dict[int, list] = {}
    bound = dict(reducer._subst)  # a copy: resolving consumes it
    for slot, t in enumerate(reducer._interface):
        for n in term_names(_resolve(t, bound)):
            occ.setdefault(n.id, []).append((-1, slot, False))
    for eid, eq in reducer._eqs.items():
        for side, t in ((0, eq.left), (1, eq.right)):
            t = _resolve(t, bound)
            for n in term_names(t):
                occ.setdefault(n.id, []).append((eid, side, n is t))
    return {i: sorted(sites) for i, sites in occ.items()}


def _bound_names_in_net(reducer) -> set[int]:
    """Ids of the bound names a walk over the net's terms meets, entering
    the term behind each bound name it meets."""
    bound = reducer._subst
    met: set[int] = set()
    stack = list(reducer._interface)
    stack.extend(t for eq in reducer._eqs.values() for t in (eq.left, eq.right))
    while stack:
        u = stack.pop()
        if isinstance(u, Agent):
            stack.extend(u.args)
        elif u.id in bound:
            met.add(u.id)
            stack.append(bound[u.id])
    return met


# Interactions the corpus does not show: a fresh name that is a whole left
# side and recurs in its own equation, a name both agents of the active pair
# hold, and argument terms that hold names.
INDEX_RULES = {
    "self_wired": """agent A/1; agent B/0; agent C/1; agent D/0;
A(x) >< B => w~C(w), x~D, v~C(u), u~v;
net (r) | A(r)~B;""",
    "shared_name": """agent A/2; agent B/2; agent C/1; agent D/0;
A(p, s) >< B(q, t) => C(p)~q, s~t;
net (r) | A(x, r)~B(x, D), A(y, z)~B(y, z);""",
    "named_args": """agent A/1; agent B/1; agent C/1; agent D/2; agent Z/0;
A(p) >< B(q) => p~C(w), D(w, v)~q, v~Z;
C(a) >< C(b) => a~b;
net (r, s) | A(C(D(r, Z)))~B(C(D(Z, s)));""",
}


def _accepted_generated(count: int) -> list:
    """The nets and tables of the first ``count`` generated programs that
    pass analysis and fire an interaction under fifo."""
    found, seed = [], 0
    while len(found) < count:
        program = parse_program(program_gen.program(random.Random(seed)))
        seed += 1
        if program.has_errors or program.net is None:
            continue
        analysis = analyze_rules(program.rules, program.symbols.values())
        if not analysis.ok:
            continue
        trace = normalize(program.net, analysis.table, budget=60, trace=True).trace
        if any(step.kind == "interaction" for step in trace):
            found.append((program.net, analysis.table))
    return found


def _assert_index_matches_a_walk(net, table, strategies, records, budget=None):
    for strategy in strategies:
        # A recorded step resolves what it reads; unrecorded, bindings stay.
        for record in records:
            reducer = Reducer(net, table, strategy)
            steps = 0
            while steps != budget and (eid := reducer._agenda.pick()) is not None:
                reducer._fire(eid, record)
                steps += 1
                index = {i: sorted(sites) for i, sites in reducer._occ.items()}
                assert index == _index_by_walk(reducer), strategy
                # The binding map holds only names that still occur.
                assert set(reducer._subst) <= _bound_names_in_net(reducer), strategy


@pytest.mark.parametrize(
    "name", ["addition", "dup_erase", "maybe_pick", "map", "generated"] + sorted(INDEX_RULES)
)
def test_occurrence_index_matches_a_walk_after_every_step(name):
    # Interactions and communications index the equations they create
    # through Reducer._add, the names they hold moving from the equations
    # the step consumed; substitution and collect re-site a bound term's.
    if name == "generated":
        for net, table in _accepted_generated(12):
            _assert_index_matches_a_walk(net, table, [Fifo(), Lifo(), Seeded(0)], (False,), 60)
        return
    if name in INDEX_RULES:
        program, analysis = compile_text(INDEX_RULES[name])
    else:
        program, analysis = compile_corpus(name)
    strategies = [Fifo(), Lifo()] + [Seeded(s) for s in range(5)]
    _assert_index_matches_a_walk(program.net, analysis.table, strategies, (True, False))


def test_reducer_rejects_a_third_occurrence():
    x = nm(0, "x")
    config = Configuration([x], [Equation(x, Agent(S, (x,)))])
    with pytest.raises(IllFormedError):
        Reducer(config, EMPTY_TABLE)


def test_firing_a_rule_that_uses_a_name_three_times_is_ill_formed():
    # Only an unvalidated table can hold such a rule.
    program = parse_program("agent A/0; agent B/0; agent E/0; A >< B => w~E, w~E, w~E;")
    table = build_rule_table(program.rules)
    config = Configuration([], [Equation(Agent(Symbol("A", 0)), Agent(Symbol("B", 0)))])
    with pytest.raises(IllFormedError, match="name w occurs more than twice"):
        normalize(config, table)


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


# 1, 2, 3, and each power of two up to 2**20 with its two neighbours,
# shuffled so that small and large bounds alternate.
DRAW_BOUNDS = random.Random(99).sample(
    [1, 2, 3] + [m for e in range(2, 21) for m in (2**e - 1, 2**e, 2**e + 1)], 60
)


def test_draw_is_randrange():
    """A seeded strategy picks with _draw, which must draw what
    randrange draws: should randrange change, every seeded schedule and its
    golden trace would change with it, so this fails first."""
    for seed in range(10):
        ours, theirs = random.Random(seed), random.Random(seed)
        bounds = DRAW_BOUNDS * 3
        assert [_draw(ours, n) for n in bounds] == [theirs.randrange(n) for n in bounds], seed
        assert ours.getstate() == theirs.getstate(), seed


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
        reducer = Reducer(program.net, analysis.table)
        before = len(program.net.equations)
        while (step := reducer.step()) is not None:
            after = len(reducer.configuration.equations)
            delta, before = after - before, after
            if step.kind == "interaction":
                assert delta == len(step.equations_after) - 1
            else:
                assert delta == -1


def test_fresh_names_never_collide_with_configuration():
    program, analysis = compile_corpus("map")
    reducer = Reducer(program.net, analysis.table)
    seen = {n.id for eq in program.net.equations for n in _names(eq)}
    while (step := reducer.step()) is not None:
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
    table = build_rule_table([rule])
    report = confluence_probe(program.net, table, [Fifo(), Lifo()])
    assert not report.consistent
    assert report.divergence is not None
    assert report.traces is not None and all(report.traces)


def test_confluence_probe_detects_divergence_behind_an_equal_interface():
    # The same asymmetric self rule, with every port ending in a stuck pair:
    # both finals have the empty interface and differ only in equations.
    program = parse_program(
        """
        agent G/2; agent Z/0; agent K1/0; agent K2/0; agent K3/0; agent K4/0;
        G(a, b) >< G(c, d) => a~Z, b~c, d~Z;
        net () | x~G(a, b), x~G(c, d), a~K1, b~K2, c~K3, d~K4;
        """
    )
    table = build_rule_table(program.rules)
    report = confluence_probe(program.net, table, [Fifo(), Lifo()])
    assert [run.status for run in report.runs] == ["stuck", "stuck"]
    assert not report.consistent


@pytest.mark.parametrize(
    "text, distinct",
    [
        (ADDITION + "net (r) | Add(S(Z), r)~S(S(Z));", 1),
        # Each strategy issues the two fresh wires in its own order, so the
        # finals differ in name ids but not canonically.
        ("agent A/1; agent Z/0; agent P/2; A(r) >< Z => r~P(w, w);"
         "net (p, q) | A(p)~Z, A(q)~Z;", 2),
    ],
)
def test_confluence_probe_canonicalizes_each_distinct_final_once(text, distinct, monkeypatch):
    """A final equal to the previous one reuses its canonical form and any
    other is looked up by its literal configuration.  On both nets some
    runs take each way."""
    import inetkit.engine

    program, analysis = compile_text(text)
    strategies = [Fifo(), Lifo()] + [Seeded(i) for i in range(10)]
    finals = [normalize(program.net, analysis.table, s).final for s in strategies]
    assert len({(tuple(f.interface), tuple(f.equations)) for f in finals}) == distinct
    calls = []
    monkeypatch.setattr(
        inetkit.engine, "canonicalize", lambda config: calls.append(config) or canonicalize(config)
    )
    report = confluence_probe(program.net, analysis.table, strategies)
    assert report.consistent
    assert len(calls) == distinct
    assert [run.canonical for run in report.runs] == [canonicalize(f) for f in finals]
    assert report == probe_oracle.confluence_probe(program.net, analysis.table, strategies)
