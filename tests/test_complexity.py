"""Complexity tests that count work, not seconds.

The rule analysis must expand variadic rules once per arity that occurs in
the program, however wide its widest agent.

Two counters are taken by wrapping names inside the library: calls to
``Reducer._classify`` (equations classified) and calls to ``term_names``
(term walks; ``term_names`` is iterative, so one call is one walk).  The
number of equations classified per step must not depend on how many
equations the net holds, and the number of walks per step must not depend
on how deep its terms are.

A third counter counts ``Agent`` nodes: each one built and each read of an
agent's arguments.  The most nodes one step builds or visits must not
depend on how deep the net's terms are either, nor, for a recorded step,
on how many equations the net holds.

A fourth counter counts re-sites: ``Reducer._move`` calls that replace
one of a name's sites.  Under fifo and lifo, the most one step makes must
not depend on n, over six families of nets sized by n.

Rule lookups (calls to ``lookup``) are counted too: each happens once per
rule table, not once per step.  Right-hand-side compilations happen once
per rule: a self rule's program serves both the analysis's swap check and
every interaction.  An arity instance's program is stamped from its
written rule's template when the instance first fires, so ``check`` builds
none, and only ``expand`` builds an instance's right-hand side.

A net's agents are built on the first read of ``SourceProgram.net``:
``check`` and ``expand`` never read it and build none, and ``run`` builds
each once.

A net's names are made on that first read too: ``parse_program``,
``check`` and ``expand`` make the rules' ``Name``s only, however wide the
net, and ``run`` makes each net name once.

A confluence probe fires each interaction of its seeded strategies'
schedule tree once, and for k seeds makes at most k - 1 reducer forks and
keeps at most floor(log2 k) + 1 reducers alive.  Of its seeded runs, one
that ends out of budget reads no configuration, and one that ends in the
normal form the last resolved run ended in builds no outcome.
"""

import weakref
from collections import Counter

import pytest

import inetkit.core
import inetkit.engine
import inetkit.rules
import inetkit.surface
from inetkit import (
    Agent,
    Fifo,
    Lifo,
    Name,
    Reducer,
    RuleKind,
    Seeded,
    build_rule_table,
    confluence_probe,
    normalize,
    parse_program,
)
from inetkit.cli import main
from inetkit.surface import render_term

import probe_oracle
from conftest import (
    compile_corpus,
    compile_text,
    corpus_rules,
    corpus_text,
    dup_text,
    eps_dup_text,
    many_instances_text,
)

# The slot descriptor of ``Agent.args``, bound before ``agent_nodes``
# replaces it with a counting property, so the counters read the slot itself.
ARGS = Agent.__dict__["args"]

ADD_RULES = """
agent Add/2; agent S/1; agent Z/0;
Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);
Add(y, r) >< Z => r~y;
"""

STRATEGIES = [Fifo(), Lifo(), Seeded(0), Seeded(5)]


def unary(n: int) -> str:
    return "S(" * n + "Z" + ")" * n


def wide_net(k: int, m: int = 3) -> str:
    """``k`` independent ``Add m+m`` pairs."""
    interface = ", ".join(f"r{i}" for i in range(k))
    pairs = ", ".join(f"Add({unary(m)}, r{i})~{unary(m)}" for i in range(k))
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


@pytest.fixture
def agent_nodes(monkeypatch):
    """Counts ``Agent`` nodes built and visited (reads of ``args``), and
    separately those of them built and those spent resolving a step's
    record."""
    tally = {"nodes": 0, "built": 0, "record": 0}
    init = Agent.__init__
    resolve_equation = inetkit.engine._resolve_equation

    def counting_resolve_equation(*args):
        before = tally["nodes"]
        out = resolve_equation(*args)
        tally["record"] += tally["nodes"] - before
        return out

    def counting_init(self, *args, **kwargs):
        tally["nodes"] += 1
        tally["built"] += 1
        init(self, *args, **kwargs)

    def read_args(self):
        tally["nodes"] += 1
        return ARGS.__get__(self)

    def write_args(self, value):  # for construction through object.__setattr__
        ARGS.__set__(self, value)

    monkeypatch.setattr(Agent, "__init__", counting_init)
    monkeypatch.setattr(Agent, "args", property(read_args, write_args))
    monkeypatch.setattr(inetkit.engine, "_resolve_equation", counting_resolve_equation)
    return tally


def agents_holding_names(t) -> int:
    """Agents of ``t`` with a name somewhere below them."""
    holds: dict[int, bool] = {}
    stack = [(t, False)]
    while stack:
        u, done = stack.pop()
        if not isinstance(u, Agent):
            continue
        args = ARGS.__get__(u)  # not counted
        if done:
            holds[id(u)] = any(isinstance(a, Name) or holds[id(a)] for a in args)
        else:
            stack.append((u, True))
            stack.extend((a, False) for a in args)
    return sum(holds.values())


def most_agent_nodes_in_one_step(n, strategy, tally) -> tuple[int, int]:
    """The most ``Agent`` nodes one step of ``Add n+n`` builds or visits:
    as counted, and leaving out those resolving the step's record and one per
    agent holding a name in the equations the step reads or writes.

    Reading the final configuration is not a step and is not counted.
    """
    program, analysis = compile_text(deep_net(n))
    reducer = Reducer(program.net, analysis.table, strategy)
    worst = charged = 0
    while True:
        tally["nodes"] = tally["record"] = 0
        step = reducer.step()
        if step is None:
            break
        named = sum(
            agents_holding_names(t)
            for eq in (step.equation_before, *step.equations_after)
            for t in (eq.left, eq.right)
        )
        worst = max(worst, tally["nodes"])
        charged = max(charged, tally["nodes"] - tally["record"] - named)
    [result] = reducer.configuration.interface
    expected = program.net.equations[0].right  # S^n(Z), to be S^2n(Z)
    for _ in range(n):
        expected = Agent(expected.symbol, (expected,))
    assert result == expected
    return worst, charged


@pytest.mark.parametrize("strategy", [Fifo(), Lifo(), Seeded(0)], ids=str)
def test_agent_nodes_per_step_are_flat_in_term_depth(strategy, agent_nodes):
    worst_small, charged_small = most_agent_nodes_in_one_step(50, strategy, agent_nodes)
    worst_large, charged_large = most_agent_nodes_in_one_step(400, strategy, agent_nodes)
    if isinstance(strategy, Seeded):
        # A seeded schedule may fire several interactions before collecting
        # their results, substituting each into the last: r~S(w) and w~S(v)
        # give r~S(w) with w bound to S(v).  Such chains grow with the length
        # of the run.  Resolving a recorded step rebuilds the chain it reads,
        # and finding a chain's names costs one node per agent, so those
        # nodes are left out.
        assert charged_small == charged_large
    else:
        assert worst_small == worst_large


def most_agent_nodes_in_one_untraced_step(text, strategy, tally) -> int:
    """The most ``Agent`` nodes one unrecorded step builds or visits, the
    steps driven as :func:`seeded_interaction_edges` drives them."""
    program, analysis = compile_text(text)
    reducer = Reducer(program.net, analysis.table, strategy)
    worst = 0
    while (eid := reducer._agenda.pick()) is not None:
        tally["nodes"] = 0
        reducer._fire(eid, record=False)
        worst = max(worst, tally["nodes"])
    assert reducer._outcome(0).status == "normal_form"
    return worst


@pytest.mark.parametrize("strategy", [Fifo(), Lifo()], ids=str)
def test_agent_nodes_per_untraced_step_are_flat_in_binding_chains(strategy, agent_nodes):
    """Duplicating ``S^n(Z)`` under lifo substitutes bottom-up: each
    substitution consumes an equation whose term holds the name the one
    before it bound.  A step resolves the equation it consumes, so it
    follows that one binding, never a chain of them.

    Seeded strategies are left out: a random schedule may leave chains of
    bindings for one step to resolve whose longest grows with the length of
    the run, while the nodes per step stay flat on average."""
    assert most_agent_nodes_in_one_untraced_step(dup_text(50), strategy, agent_nodes) == \
        most_agent_nodes_in_one_untraced_step(dup_text(400), strategy, agent_nodes)


def most_agent_nodes_in_one_recorded_step(text, strategy, tally) -> int:
    program, analysis = compile_text(text)
    reducer = Reducer(program.net, analysis.table, strategy)
    worst = 0
    while True:
        tally["nodes"] = 0
        if reducer.step() is None:
            return worst
        worst = max(worst, tally["nodes"])


@pytest.mark.parametrize("strategy", STRATEGIES, ids=str)
def test_agent_nodes_per_recorded_step_are_flat_in_net_width(strategy, agent_nodes):
    """A recorded step resolves and reads only the equations it touches,
    however many pairs the net holds."""
    assert most_agent_nodes_in_one_recorded_step(wide_net(10), strategy, agent_nodes) == \
        most_agent_nodes_in_one_recorded_step(wide_net(160), strategy, agent_nodes)


def substitution_work(text, strategy, tally, monkeypatch) -> list[tuple[int, int]]:
    """Agents built and ``args`` read by each ``step_substitution`` call
    while ``text``'s net is normalized."""
    calls = []
    step_substitution = inetkit.engine.step_substitution

    def counting_step(*args):
        nodes, built = tally["nodes"], tally["built"]
        out = step_substitution(*args)
        built = tally["built"] - built
        calls.append((built, tally["nodes"] - nodes - built))
        return out

    program, analysis = compile_text(text)
    with monkeypatch.context() as patched:
        patched.setattr(inetkit.engine, "step_substitution", counting_step)
        assert normalize(program.net, analysis.table, strategy).status == "normal_form"
    return calls


@pytest.mark.parametrize("strategy", [Fifo(), Lifo()] + [Seeded(i) for i in range(10)], ids=str)
def test_substitution_is_flat_in_target_width_and_depth(strategy, agent_nodes, monkeypatch):
    """A substitution binds its name: it builds no agent, however deep or
    wide its target, and reads as many agents at arity 16 as at 64."""
    reads = {}
    for label, text in [("depth 50", deep_net(50)), ("depth 400", deep_net(400)),
                        ("arity 16", eps_dup_text(16)), ("arity 64", eps_dup_text(64))]:
        calls = substitution_work(text, strategy, agent_nodes, monkeypatch)
        assert all(built == 0 for built, _ in calls), label
        reads[label] = max((read for _, read in calls), default=0)
    assert reads["arity 16"] == reads["arity 64"]


def cons_list(items: list[str]) -> str:
    return "".join(f"Cons({item}, " for item in items) + "Nil" + ")" * len(items)


def resite_family(family: str, n: int) -> tuple[str, list[str]]:
    """The net of ``family`` sized by ``n``, and its normal form's interface."""
    if family == "addition":
        return deep_net(n), [unary(2 * n)]
    if family == "dup":
        return dup_text(n), [unary(n)] * 2
    if family == "erase":
        return corpus_rules("dup_erase") + f"\nnet () | Eps~{unary(n)};", []
    if family == "map":
        net = f"\nnet (res) | Map(Inc(res))~{cons_list(['Z'] * n)};"
        return corpus_rules("map") + net, [cons_list(["S(Z)"] * n)]
    if family == "pick":
        items = ["Z"] * (n - 1) + ["S(Z)"]
        net = f"\nnet (r) | Pick(r, {unary(n - 1)})~{cons_list(items)};"
        return corpus_rules("maybe_pick") + net, ["Jst(S(Z))"]
    assert family == "wide"
    return wide_net(n, 1), [unary(2)] * n


# The reversal of n free ports is left out: re-siting a moved term's names
# grows with the term there (ROADMAP direction 4).
RESITE_FAMILIES = ["addition", "dup", "erase", "map", "pick", "wide"]


@pytest.fixture
def resites(monkeypatch):
    """Counts ``Reducer._move`` calls that replace one of a name's sites,
    rather than giving a name its first or second one."""
    tally = {"resites": 0}
    move = Reducer._move

    def counting_move(self, n, old, site, touched):
        sites = self._occ.get(n.id)
        if sites is not None and any(s[0] == old for s in sites):
            tally["resites"] += 1
        return move(self, n, old, site, touched)

    monkeypatch.setattr(Reducer, "_move", counting_move)
    return tally


def most_resites_in_one_step(family: str, n: int, strategy, tally) -> int:
    """The most sites one unrecorded step replaces while ``family``'s net
    of size ``n`` is reduced to its normal form."""
    text, interface = resite_family(family, n)
    program, analysis = compile_text(text)
    reducer = Reducer(program.net, analysis.table, strategy)
    worst = 0
    while (eid := reducer._agenda.pick()) is not None:
        tally["resites"] = 0
        reducer._fire(eid, record=False)
        worst = max(worst, tally["resites"])
    outcome = reducer._outcome(0)
    assert outcome.status == "normal_form"
    assert [render_term(t) for t in outcome.final.interface] == interface
    assert not outcome.final.equations
    return worst


@pytest.mark.parametrize("strategy", [Fifo(), Lifo()], ids=str)
@pytest.mark.parametrize("family", RESITE_FAMILIES)
def test_resites_per_step_are_flat_in_n(family, strategy, resites):
    """Seeded strategies are left out: under a random schedule the most
    sites one step replaces creeps up with the length of the run."""
    assert most_resites_in_one_step(family, 50, strategy, resites) == \
        most_resites_in_one_step(family, 400, strategy, resites)


CORPUS_NAMES = ["addition", "dup_erase", "maybe_pick", "map"]
PROBE = [Fifo(), Lifo()] + [Seeded(i) for i in range(200)]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_each_symbol_pair_is_looked_up_once_per_table(name, monkeypatch):
    """Over a whole confluence probe, each ordered symbol pair is looked up
    once, for all strategies."""
    program, analysis = compile_corpus(name)
    calls = Counter()
    lookup = inetkit.engine.lookup

    def counting_lookup(table, a, b):
        calls[id(table), a, b] += 1
        return lookup(table, a, b)

    monkeypatch.setattr(inetkit.engine, "lookup", counting_lookup)
    report = confluence_probe(program.net, analysis.table, PROBE)
    assert report.consistent and len(report.runs) == len(PROBE)
    assert calls and set(calls.values()) == {1}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_each_rule_is_compiled_once_per_table(name, monkeypatch):
    """Over a whole confluence probe, each rule that fires is compiled once."""
    program, analysis = compile_corpus(name)
    calls = Counter()
    compile_rule = inetkit.rules.RhsProgram.__init__

    def counting_compile(self, rule):
        calls[id(rule)] += 1
        compile_rule(self, rule)

    monkeypatch.setattr(inetkit.rules.RhsProgram, "__init__", counting_compile)
    report = confluence_probe(program.net, analysis.table, PROBE)
    assert report.consistent
    assert calls and set(calls.values()) == {1}


@pytest.fixture
def builds(monkeypatch):
    """Counts by rule id what is built: the right-hand sides of arity
    instances (``rhs``), the templates of written rules (``template``)
    and the programs of all rules (``program``)."""
    calls = {"rhs": Counter(), "template": Counter(), "program": Counter()}
    for kind, attr in (("rhs", "_expand_at"), ("template", "_template")):
        def counting_build(rule, _kind=kind, _build=getattr(inetkit.rules, attr)):
            calls[_kind][rule.id] += 1
            return _build(rule)

        monkeypatch.setattr(inetkit.rules, attr, counting_build)
    compile_rule = inetkit.rules.RhsProgram.__init__

    def counting_compile(self, rule):
        calls["program"][rule.id] += 1
        compile_rule(self, rule)

    monkeypatch.setattr(inetkit.rules.RhsProgram, "__init__", counting_compile)
    return calls


def fired_rules(text: str, strategies) -> set[str]:
    """The ids of the rules that fire under any of ``strategies``."""
    fired = set()
    for strategy in strategies:
        program, analysis = compile_text(text)
        outcome = normalize(program.net, analysis.table, strategy, trace=True)
        fired |= {s.rule_id for s in outcome.trace if s.rule_id}
    return fired


@pytest.mark.parametrize(
    "command, strategies",
    [
        (["check"], []),
        (["run"], [Fifo()]),
        (["fuzz", "--seeds", "20"], [Fifo(), Lifo()] + [Seeded(i) for i in range(20)]),
    ],
    ids=["check", "run", "fuzz"],
)
def test_each_fired_instance_is_built_once_per_command(
    command, strategies, builds, tmp_path, capsys
):
    """``check`` compiles no program.  ``run`` compiles each rule that
    fires once, and ``fuzz`` each that fires under any of its strategies
    once, since they share one table.  An arity instance's program is
    stamped from its written rule's template, walked once per written rule
    that fires, so no command builds an instance's right-hand side."""
    text = eps_dup_text(64)
    fired = fired_rules(text, strategies)
    assert bool(fired) == bool(strategies)
    assert all("@" in rule_id for rule_id in fired)
    path = tmp_path / "eps_dup.inet"
    path.write_text(text, encoding="utf-8")
    for calls in builds.values():
        calls.clear()
    assert main([command[0], str(path), *command[1:]]) == 0
    assert builds["rhs"] == Counter()
    assert builds["program"] == Counter(dict.fromkeys(fired, 1))
    written = {rule_id.partition("@")[0] for rule_id in fired}
    assert builds["template"] == Counter(dict.fromkeys(written, 1))


def test_expand_builds_each_instance_once(builds, tmp_path, capsys):
    """``expand`` prints every instance, from 0 up to the largest arity,
    and so builds each one's right-hand side once, stamped from its written
    rule's template, which is built once per written rule; it compiles
    nothing."""
    text = eps_dup_text(64)
    program, _ = compile_text(text)
    variadic = [rule.id for rule in program.rules if rule.kind is RuleKind.VARIADIC]
    assert len(variadic) == 2
    path = tmp_path / "eps_dup.inet"
    path.write_text(text, encoding="utf-8")
    for calls in builds.values():
        calls.clear()
    assert main(["expand", str(path)]) == 0
    instances = [f"{rule_id}@{k}" for rule_id in variadic for k in range(65)]
    assert builds["rhs"] == Counter(dict.fromkeys(instances, 1))
    assert builds["template"] == Counter(dict.fromkeys(variadic, 1))
    assert builds["program"] == Counter()


@pytest.fixture
def instances(monkeypatch):
    """Counts by id the arity instances made: the rules made with a written
    rule as their ``instance_of``."""
    made = Counter()
    init = inetkit.rules.Rule.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.instance_of is not None:
            made[self.id] += 1

    monkeypatch.setattr(inetkit.rules.Rule, "__init__", counting_init)
    return made


@pytest.mark.parametrize(
    "text, options",
    [(eps_dup_text(64), []), (many_instances_text(20, 120), ["--max-arity", "200"])],
    ids=["eps_dup_64", "many_instances_20_120"],
)
def test_check_makes_no_arity_instance(text, options, instances, tmp_path, capsys):
    """``check`` works over the written rules: the overlap check names the
    instances it reasons about, and the table makes none until a lookup."""
    path = tmp_path / "program.inet"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), *options]) == 0
    assert capsys.readouterr().err.count("W_SELF_GENERIC") >= 2
    assert instances == Counter()


@pytest.fixture
def agents_built(monkeypatch):
    """Counts the ``Agent``s built."""
    tally = {"agents": 0}
    init = Agent.__init__

    def counting_init(self, *args, **kwargs):
        tally["agents"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Agent, "__init__", counting_init)
    return tally


NETS = {"deep_70": (deep_net(70), 1 + 2 * 71), "wide_100": (wide_net(100), 100 * 9)}


@pytest.mark.parametrize("command", ["check", "expand"])
@pytest.mark.parametrize("net", list(NETS))
def test_check_and_expand_build_no_net_agent(command, net, agents_built, tmp_path, capsys):
    """``check`` and ``expand`` never read the net, so its agents are
    never built; the parser reads it into a flat program only."""
    path = tmp_path / "program.inet"
    path.write_text(NETS[net][0], encoding="utf-8")
    assert main([command, str(path)]) == 0
    assert agents_built == {"agents": 0}


@pytest.mark.parametrize("net", list(NETS))
def test_run_builds_each_net_agent_once(net, agents_built, tmp_path, capsys, monkeypatch):
    """``run`` builds the net on its first read (``surface._build_net``)
    and reads the built net the second time: each of its agents is built
    once, before reduction starts, and nothing else is."""
    text, agents = NETS[net]
    path = tmp_path / "program.inet"
    path.write_text(text, encoding="utf-8")
    builds, built_before_reduction = [], []
    build, reduce = inetkit.surface._build_net, inetkit.cli.normalize

    def counting_build(*args):
        before = agents_built["agents"]
        net = build(*args)
        builds.append(agents_built["agents"] - before)
        return net

    def counting_normalize(*args, **kwargs):
        built_before_reduction.append(agents_built["agents"])
        return reduce(*args, **kwargs)

    monkeypatch.setattr(inetkit.surface, "_build_net", counting_build)
    monkeypatch.setattr(inetkit.cli, "normalize", counting_normalize)
    assert main(["run", str(path)]) == 0
    assert builds == [agents]
    assert built_before_reduction == [agents]


@pytest.fixture
def names_made(monkeypatch):
    """Counts the ``Name``s made."""
    tally = {"names": 0}
    init = Name.__init__

    def counting_init(self, *args, **kwargs):
        tally["names"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Name, "__init__", counting_init)
    return tally


RULE_NAMES = 6  # y, r, x and w of ADD_RULES' first rule; y and r of its second
NAME_NETS = {"deep_70": (deep_net(70), 1), "wide_100": (wide_net(100), 100),
             "wide_1000": (wide_net(1000), 1000)}


@pytest.mark.parametrize("command", ["parse_program", "check", "expand"])
@pytest.mark.parametrize("net", list(NAME_NETS))
def test_the_front_end_makes_no_net_name(command, net, names_made, tmp_path, capsys):
    """A net's names are slots until ``SourceProgram.net`` is first read:
    parsing, ``check`` and ``expand`` make the rules' names only, as many
    for a net of 1,000 names as for one of 1."""
    text = NAME_NETS[net][0]
    if command == "parse_program":
        assert not parse_program(text).has_errors
    else:
        path = tmp_path / "program.inet"
        path.write_text(text, encoding="utf-8")
        assert main([command, str(path)]) == 0
    assert names_made == {"names": RULE_NAMES}


@pytest.mark.parametrize("net", ["deep_70", "wide_100"])
def test_run_makes_each_net_name_once(net, names_made, tmp_path, capsys, monkeypatch):
    """``run`` makes each of the net's names once, when it builds the net
    on the first read of ``SourceProgram.net``, and no other name before
    reduction starts."""
    text, names = NAME_NETS[net]
    path = tmp_path / "program.inet"
    path.write_text(text, encoding="utf-8")
    builds, made_before_reduction = [], []
    build, reduce = inetkit.surface._build_net, inetkit.cli.normalize

    def counting_build(*args):
        before = names_made["names"]
        net = build(*args)
        builds.append(names_made["names"] - before)
        return net

    def counting_normalize(*args, **kwargs):
        made_before_reduction.append(names_made["names"])
        return reduce(*args, **kwargs)

    monkeypatch.setattr(inetkit.surface, "_build_net", counting_build)
    monkeypatch.setattr(inetkit.cli, "normalize", counting_normalize)
    assert main(["run", str(path)]) == 0
    assert builds == [names]
    assert made_before_reduction == [RULE_NAMES + names]


@pytest.mark.parametrize("name", ["eps_dup_64", *CORPUS_NAMES])
@pytest.mark.parametrize(
    "command, strategies",
    [
        (["run"], [Fifo()]),
        (["fuzz", "--seeds", "20"], [Fifo(), Lifo()] + [Seeded(i) for i in range(20)]),
    ],
    ids=["run", "fuzz"],
)
def test_each_fired_instance_is_made_once_per_command(
    command, strategies, name, instances, tmp_path, capsys
):
    """``run`` and ``fuzz`` make an arity instance the first time a lookup
    needs it, once per written rule and arity, and only those that fire."""
    text = eps_dup_text(64) if name == "eps_dup_64" else corpus_text(name)
    fired = {rule_id for rule_id in fired_rules(text, strategies) if "@" in rule_id}
    assert fired or name == "addition"
    path = tmp_path / "program.inet"
    path.write_text(text, encoding="utf-8")
    instances.clear()
    assert main([command[0], str(path), *command[1:]]) == 0
    assert instances == Counter(dict.fromkeys(fired, 1))


def test_a_self_rule_is_compiled_once_across_analysis_and_reduction(monkeypatch):
    """The swap check of ``analyze_rules`` and the reducer share one program."""
    calls = Counter()
    compile_rule = inetkit.rules.RhsProgram.__init__

    def counting_compile(self, rule):
        calls[rule.id] += 1
        compile_rule(self, rule)

    monkeypatch.setattr(inetkit.rules.RhsProgram, "__init__", counting_compile)
    program, analysis = compile_text(
        "agent A/2; A(a, b) >< A(c, d) => a~c, b~d;"
        "net (p, q, r, s) | A(p, q)~A(r, s);"
    )
    outcome = normalize(program.net, analysis.table)
    assert outcome.status == "normal_form" and outcome.steps > 0
    assert list(calls.values()) == [1]


def seeded_interaction_edges(config, table, seeds) -> set[tuple[int, ...]]:
    """The interaction edges of the seeded strategies' schedule tree.

    A seeded reducer's state depends only on the equation ids it has picked,
    so a node of the tree is a sequence of picked ids and an edge is such a
    sequence whose last pick fired an interaction.
    """
    edges = set()
    for seed in seeds:
        reducer = Reducer(config, table, Seeded(seed))
        picked: tuple[int, ...] = ()
        while (eid := reducer._agenda.pick()) is not None:
            picked += (eid,)
            if reducer._agenda.how[eid][0] == "interaction":
                edges.add(picked)
            reducer._fire(eid, record=False)
    return edges


@pytest.fixture
def interactions(monkeypatch):
    tally = Counter()
    for attr in ("instantiate_ordinary", "instantiate_fixed_generic"):
        def counting(*args, _original=getattr(inetkit.engine, attr), **kwargs):
            tally["fired"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(inetkit.engine, attr, counting)
    return tally


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_probe_fires_each_interaction_of_the_schedule_tree_once(name, interactions):
    """Seeded runs share the steps their schedules have in common: the probe
    fires one interaction per interaction edge of their schedule tree, plus
    those of fifo and lifo."""
    program, analysis = compile_corpus(name)
    seeds = range(200)
    edges = seeded_interaction_edges(program.net, analysis.table, seeds)
    linear = [
        sum(step.kind == "interaction"
            for step in normalize(program.net, analysis.table, strategy, trace=True).trace)
        for strategy in (Fifo(), Lifo())
    ]
    interactions.clear()
    report = confluence_probe(program.net, analysis.table, PROBE)
    assert report.consistent
    assert interactions["fired"] == len(edges) + sum(linear)
    # Without sharing, each seeded run would fire all of its own.
    assert len(edges) < len(seeds) * linear[0]


@pytest.fixture
def reducers(monkeypatch):
    """Forks made, and the most reducers alive at any fired step."""
    tally = Counter()
    alive = weakref.WeakSet()
    init, fork, fire = Reducer.__init__, Reducer._fork, Reducer._fire

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.add(self)

    def counting_fork(self):
        twin = fork(self)
        tally["forks"] += 1
        alive.add(twin)
        return twin

    def counting_fire(self, eid, record):
        tally["most_alive"] = max(tally["most_alive"], len(alive))
        return fire(self, eid, record)

    monkeypatch.setattr(Reducer, "__init__", counting_init)
    monkeypatch.setattr(Reducer, "_fork", counting_fork)
    monkeypatch.setattr(Reducer, "_fire", counting_fire)
    return tally


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 200])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_the_seeded_walk_forks_and_keeps_few_reducers(name, k, reducers):
    """k seeded strategies make at most k - 1 forks and keep at most
    floor(log2 k) + 1 reducers alive."""
    program, analysis = compile_corpus(name)
    report = confluence_probe(program.net, analysis.table, [Seeded(i) for i in range(k)])
    assert report.consistent
    assert reducers["forks"] <= k - 1
    assert reducers["most_alive"] <= k.bit_length()
    if k == 200:
        assert reducers["forks"] > 0


def test_fuzz_with_one_seed_makes_no_fork(corpus_dir, reducers, capsys):
    assert main(["fuzz", str(corpus_dir / "map.inet"), "--seeds", "1"]) == 0
    assert capsys.readouterr().out.startswith("confluence: 3 strategies")
    assert reducers["forks"] == 0


@pytest.fixture
def ends(monkeypatch):
    """Outcomes built and configurations read by reducers."""
    tally = Counter()
    outcome, configuration = Reducer._outcome, Reducer.configuration

    def counting_outcome(self, *args, **kwargs):
        tally["outcomes"] += 1
        return outcome(self, *args, **kwargs)

    def counting_configuration(self):
        tally["configurations"] += 1
        return configuration.fget(self)

    monkeypatch.setattr(Reducer, "_outcome", counting_outcome)
    monkeypatch.setattr(Reducer, "configuration", property(counting_configuration))
    return tally


@pytest.mark.parametrize("name", ["dup_erase", "map"])
def test_seeded_runs_that_end_alike_are_resolved_once(name, ends):
    """Every seeded run of a corpus net ends in the same normal form, so
    only the first end is resolved; the others read their interfaces
    against it."""
    program, analysis = compile_corpus(name)
    report = confluence_probe(program.net, analysis.table, [Seeded(i) for i in range(200)])
    assert report.consistent
    assert {run.status for run in report.runs} == {"normal_form"}
    assert ends["outcomes"] == 1


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_seeded_run_out_of_budget_resolves_nothing(name, ends):
    program, analysis = compile_corpus(name)
    report = confluence_probe(program.net, analysis.table, [Seeded(i) for i in range(200)], budget=3)
    assert {(run.status, run.steps) for run in report.runs} == {("budget_exhausted", 3)}
    assert ends["configurations"] == 0


# A self rule whose instance wires the interface one way or the other
# depending on which of the two equations around x communicates first: the
# seeded runs end with no equation, in interfaces that differ only in which
# names are wired together.
REWIRING_RULE = "agent G/3; G(a, b, e) >< G(c, d, f) => a~b, c~e, d~f;"
REWIRING_NET = "net (p, q, s, r, t, u) | x~G(p, q, s), x~G(r, t, u);"


def test_seeded_ends_that_differ_only_in_wiring_diverge():
    program = parse_program(REWIRING_RULE + REWIRING_NET)
    table = build_rule_table(program.rules, ())
    seeds = [Seeded(i) for i in range(8)]
    report = confluence_probe(program.net, table, seeds)
    forms = {run.canonical for run in report.runs}
    assert {run.status for run in report.runs} == {"normal_form"} and len(forms) == 2
    assert not report.consistent
    oracle = probe_oracle.confluence_probe(program.net, table, seeds)
    assert report.runs == oracle.runs
