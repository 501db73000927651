"""inetkit's records behave as the dataclasses they stand for: each is
checked against a mirror that ``dataclasses.make_dataclass`` builds from the
field list below, on instances taken from the corpus.  Each also survives
copying, deep copying and pickling."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import sys
from collections import defaultdict
from dataclasses import FrozenInstanceError, field

import pytest

import inetkit
from inetkit import (
    Agent,
    Analysis,
    CanonicalConfiguration,
    ConfluenceReport,
    Configuration,
    Diagnostic,
    Equation,
    Fifo,
    GenericPattern,
    GenericRef,
    Lifo,
    Match,
    Name,
    NameSupply,
    NormalizeOutcome,
    OrdinaryPattern,
    RAgent,
    Rule,
    RuleEquation,
    RuleKind,
    RuleTable,
    Seeded,
    SourceProgram,
    Span,
    StepResult,
    Symbol,
    VarName,
    analyze_rules,
    confluence_probe,
    expand_variadic,
    lookup,
    normalize,
    parse_program,
)
from inetkit.engine import RunSummary

from conftest import corpus_text

CORPUS_NAMES = ["addition", "dup_erase", "maybe_pick", "map"]

# Per record class: whether it is frozen, and its fields in order, each a
# name, a (name, default) pair or a (name, dataclasses.field) pair.
SPECS = {
    Symbol: (True, ["name", "arity"]),
    Name: (True, ["id", ("display", field(compare=False))]),
    Agent: (True, ["symbol", ("args", ())]),
    Equation: (True, ["left", "right"]),
    Configuration: (False, ["interface", "equations"]),
    CanonicalConfiguration: (True, ["interface", "equations"]),
    Fifo: (True, []),
    Lifo: (True, []),
    Seeded: (True, ["seed"]),
    StepResult: (True, ["kind", "rule_id", "equation_before", "equations_after", "fresh_names"]),
    NormalizeOutcome: (False, ["status", "final", "steps", "trace", ("stuck_equations", ())]),
    RunSummary: (False, ["strategy", "status", "steps", "canonical"]),
    ConfluenceReport: (False, ["consistent", "runs", ("divergence", None), ("traces", None)]),
    Span: (True, ["line", "col"]),
    Diagnostic: (True, ["severity", "code", "message", ("span", None)]),
    OrdinaryPattern: (True, ["symbol", "params"]),
    GenericPattern: (True, ["generic_name", ("fixed_params", ()), ("range_name", None)]),
    GenericRef: (True, ["name"]),
    VarName: (True, ["range_name"]),
    RAgent: (True, ["head", ("args", ()), ("range_tail", None)]),
    RuleEquation: (True, ["left", "right"]),
    Rule: (True, ["id", "left", "right", "rhs", ("origin", ""),
                  ("instance_of", field(default=None, compare=False, repr=False))]),
    Match: (True, ["rule", "swapped"]),
    RuleTable: (False, ["ordinary", "generic", ("max_name_id", -1),
                        ("matches", field(default_factory=dict, compare=False, repr=False))]),
    SourceProgram: (False, ["symbols", "rules", "net", "supply",
                            ("diagnostics", field(default_factory=list))]),
    Analysis: (False, ["diagnostics", "rules", "arities", "table"]),
}


def _mirror_class(cls):
    frozen, spec = SPECS[cls]
    fields = []
    for f in spec:
        if isinstance(f, str):
            fields.append((f, object))
        else:
            name, default = f
            fields.append((name, object, default if isinstance(default, dataclasses.Field)
                           else field(default=default)))
    # A canonical form compares by its sort key, not by its fields.
    eq = cls is not CanonicalConfiguration
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen, eq=eq)


MIRRORS = {cls: _mirror_class(cls) for cls in SPECS}


def mirror(x):
    m = MIRRORS[type(x)]
    return m(**{f.name: getattr(x, f.name) for f in dataclasses.fields(m)})


def _rule_text(rule: Rule) -> list:
    """The rule-text records of ``rule``: its equations, agents, wildcard
    references and variadic names."""
    out: list = list(rule.rhs)
    todo = [t for eq in rule.rhs for t in (eq.left, eq.right)]
    while todo:
        u = todo.pop()
        if isinstance(u, (RAgent, VarName)):
            out.append(u)
        if isinstance(u, RAgent):
            out.append(u.head)
            todo.extend(u.args)
    return out


def _terms(config) -> list:
    """The equations of ``config`` and every term in it, subterms included."""
    out: list = list(config.equations)
    todo = [*config.interface, *(t for eq in config.equations for t in (eq.left, eq.right))]
    while todo:
        u = todo.pop()
        out.append(u)
        if isinstance(u, Agent):
            todo.extend(u.args)
    return out


def corpus_records() -> dict[type, list]:
    """Instances of every record class, from parsing, checking, running and
    fuzzing the corpus, and from checking two ill-formed programs."""
    found = defaultdict(list)

    def add(*xs):
        for x in xs:
            found[type(x)].append(x)

    for text in [corpus_text(name) for name in CORPUS_NAMES] + [
        "agent Z/0; agent S/1; net () | x~Z, S(y)~Z;",  # a warning with a span
        "agent G/2; agent Z/0; G(a, b) >< G(c, d) => a~Z, b~c, d~Z;\n"  # a divergence
        "net (a, b, c, d) | x~G(a, b), x~G(c, d);",
        "agent W/3; agent Z/0; Z >< W(a, b, c) => a~b;",  # an error without one
    ]:
        program = parse_program(text)
        add(program, *program.symbols.values(), *program.diagnostics)
        add(*(d.span for d in program.diagnostics if d.span is not None))
        analysis = analyze_rules(program.rules, program.symbols.values())
        add(analysis, *analysis.diagnostics)
        rules = [*program.rules, *analysis.expanded_rules]
        for r in rules:
            add(r, r.left, r.right, *_rule_text(r))
        if analysis.table is None:
            continue
        add(analysis.table, *_terms(program.net))
        for a in program.symbols.values():
            for b in program.symbols.values():
                match = lookup(analysis.table, a, b)
                if match is not None:
                    add(match)
        strategies = [Fifo(), Lifo(), Seeded(0), Seeded(7)]
        add(*strategies)
        for s in strategies:
            outcome = normalize(program.net, analysis.table, s, trace=True)
            add(outcome, outcome.final, *outcome.trace, *_terms(outcome.final))
        report = confluence_probe(program.net, analysis.table, strategies)
        add(report, *report.runs, *(run.canonical for run in report.runs))
    return found


RECORDS = corpus_records()


@pytest.mark.parametrize("cls", list(SPECS), ids=lambda c: c.__name__)
def test_records_compare_hash_and_print_as_their_dataclass_mirrors(cls):
    xs = RECORDS[cls][:40]
    assert len(xs) >= 2, f"the corpus yields too few {cls.__name__} records"
    ms = [mirror(x) for x in xs]
    frozen, _ = SPECS[cls]
    for x, m in zip(xs, ms):
        if cls is not Name:  # Name(0:x): the id and the display, tersely
            assert repr(x) == repr(m)
        if frozen and cls not in (CanonicalConfiguration, Agent, RAgent):
            assert hash(x) == hash(m)
        assert x.__eq__(object()) is NotImplemented
        if frozen:
            for name in [f.name for f in dataclasses.fields(m)] + ["other"]:
                for act in (lambda o: setattr(o, name, None), lambda o: delattr(o, name)):
                    with pytest.raises(FrozenInstanceError) as mine:
                        act(x)
                    with pytest.raises(FrozenInstanceError) as theirs:
                        act(m)
                    assert str(mine.value) == str(theirs.value)
    if cls is not CanonicalConfiguration:
        for x, m in zip(xs, ms):
            for y, n in zip(xs, ms):
                assert (x == y) == (m == n)
                assert (x != y) == (m != n)
    if not frozen:
        assert cls.__hash__ is None and MIRRORS[cls].__hash__ is None
    if cls in (Agent, RAgent):
        # Each hashes a flat key: equal agents hash equal.
        for x in xs:
            for y in xs:
                assert x != y or hash(x) == hash(y)


@pytest.mark.parametrize("cls", list(SPECS), ids=lambda c: c.__name__)
def test_records_take_their_dataclass_mirrors_arguments_and_defaults(cls):
    m = MIRRORS[cls]
    assert list(inspect.signature(cls).parameters) == [f.name for f in dataclasses.fields(m)]
    # An agent takes as many arguments as its symbol's arity: sample a constant.
    sample = next(x for x in RECORDS[cls] if cls is not Agent or not x.args)
    required = [getattr(sample, f.name) for f in dataclasses.fields(m)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    x, y, mx = cls(*required), cls(*required), m(*required)
    for f in dataclasses.fields(m):
        assert getattr(x, f.name) == getattr(mx, f.name)
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(x, f.name) is not getattr(y, f.name)


def test_only_an_arity_instance_is_made_without_a_rhs():
    rules = parse_program(corpus_text("dup_erase")).rules
    written = next(r for r in rules if r.kind is RuleKind.VARIADIC)
    with pytest.raises(AssertionError, match="only an arity instance"):
        Rule("r", written.left, written.right)


def test_no_class_in_inetkit_is_a_dataclass():
    found = set()
    for info in pkgutil.iter_modules(inetkit.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"inetkit.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if dataclasses.is_dataclass(value):
                    found.add(name)
    assert found == set()


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("how", list(ROUND_TRIPS))
@pytest.mark.parametrize("cls", list(SPECS), ids=lambda c: c.__name__)
def test_records_survive_copy_deepcopy_and_pickle(cls, how):
    # Each corpus program's SourceProgram, Analysis and RuleTable are among
    # the records, taken after a run has filled the table's and the rules'
    # lazy parts.
    for x in RECORDS[cls][:40]:
        y = ROUND_TRIPS[how](x)
        assert y.__class__ is cls
        assert y == x
        # Slots that are not fields, such as an agent's holds_names, too.
        for name in cls.__slots__:
            assert getattr(y, name) == getattr(x, name)


def test_a_program_equals_itself_parsed_again():
    """A program's name supply compares by the id it would issue next, so
    a second parse of the same text gives an equal program."""
    text = corpus_text("map")
    program = parse_program(text)
    assert parse_program(text) == program
    assert program.supply == NameSupply(program.supply.next_id)
    assert program.supply != NameSupply(program.supply.next_id + 1)
    with pytest.raises(TypeError):
        hash(program.supply)


# A right-hand side that nests 500 agents: rule text as tests/test_rhs_program.py
# writes it, deep enough to exhaust the default recursion limit under recursion.
DEEP = "D(r) >< ANY([x]) => r~{}ANY(k, [y]){}, x'~P(y', u, u), k~Z;".format("S(" * 500, ")" * 500)


def test_deep_rule_text_compares_hashes_and_prints_without_recursion():
    written, twin = parse_program(DEEP).rules[0], parse_program(DEEP).rules[0]
    # Caught here: pytest's report of a RecursionError compares the locals
    # of every frame, deep terms included, which takes a long time.
    try:
        (a,), (b,) = expand_variadic(written, [3]), expand_variadic(twin, [3])
        results = (a == b, hash(a) == hash(b), hash(written) == hash(twin), repr(a), repr(written))
    except RecursionError:
        results = None
    assert results is not None, "rule text recursed"
    assert results[:3] == (True, True, True)
    # The dataclass text, from mirrors built with room to recurse.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        expected = [repr(_deep_mirror(r)) for r in (a, written)]
    finally:
        sys.setrecursionlimit(limit)
    assert list(results[3:]) == expected


def _deep_mirror(x):
    if isinstance(x, (tuple, list)):
        return type(x)(map(_deep_mirror, x))
    if type(x) not in (Rule, RuleEquation, RAgent):
        return x
    m = MIRRORS[type(x)]
    return m(**{f.name: _deep_mirror(getattr(x, f.name)) for f in dataclasses.fields(m)})
