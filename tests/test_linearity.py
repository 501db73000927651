"""The linearity check and the largest name ids against plain walks.

``validate_linearity``, ``_rule_max_name_id`` and ``_instance_max_name_id``
read one summary walked once per written rule.  ``linearity_oracle`` keeps
the walks they replaced.  Both must give the same diagnostics (severity,
code, message, order) and the same largest name ids, on the corpus, on
every rule program the tests spell out in a string literal, on generated
programs accepted or not, and on hand-written rules with several faults.
"""

import ast
import pathlib
import random

import pytest

from inetkit import expand_variadic, parse_program, validate_linearity
from inetkit.rules import _instance_max_name_id, _rule_max_name_id

import linearity_oracle as oracle
import program_gen
from conftest import CORPUS

# Rules with several faults each, so that the order of their diagnostics shows.
MULTI_FAULT = [
    # two agents at the wrong arity, and a dangling wire between them
    "agent A/1; agent B/1; G(a) >< Z => a~A(B(Z, Z), w), Z~B(w, Z), A(Z)~Z;",
    # a range and a variadic name in one equation, twice over
    "Dup(a, b) >< ANY([x]) => a~ANY([y]), b~P(x', ANY([y])), y'~ANY([z]);",
    # a parameter inside a replicated equation, beside a shared local
    "Dup(a, b) >< ANY(p, [x]) => x'~P(a, w), b~Q(w, p);",
    # a dangling range and a range used three times
    "Eps >< ANY([x]) => Eps~x', Z~ANY([y]), Q(ANY([z]))~R(ANY([z]), ANY([z]));",
    # a parameter bound twice and used twice, another never used
    "A(a, a) >< B(b, c) => a~b, a~Z;",
    # wildcards of every wrong shape in one rule
    "F(r) >< ANY(p, [x]) => r~ANY([x]), p~ANY(q, s, [x]), q~ANY(s);",
    "F(r) >< ANY(p) => r~ANY(p, [x]), Z~ANY;",
    "F(r) >< G => r~ANY, x'~Z;",
    # a range and a variadic name in one equation of a rule that is not variadic
    "F(r) >< G(s) => r~P(x', ANY([x])), s~Z;",
    # the left-hand range never used, names used three times
    "D(r) >< ANY(p, [x]) => r~P(p, u), u~u, Q(u)~Z;",
]


def _literal_rule_programs() -> list[str]:
    """Every string literal in the tests that parses to at least one rule."""
    texts = set()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.add(node.value)
    return [text for text in sorted(texts) if parse_program(text).rules]


def _compare(text: str) -> tuple[int, int]:
    """Diagnostics and largest name ids of ``text``'s rules, and of their
    arity instances up to arity 3 and at the program's arities, as the
    library and the oracle see them; the rules and instances compared."""
    program = parse_program(text)
    arities = set(range(4)) | {s.arity for s in program.symbols.values()}
    rules = instances = 0
    for rule in program.rules:
        assert validate_linearity(rule) == oracle.validate_linearity(rule), (text, rule.id)
        assert _rule_max_name_id(rule) == oracle.rule_max_name_id(rule), (text, rule.id)
        rules += 1
        for inst in expand_variadic(rule, arities):
            if inst.instance_of is None:
                continue
            assert _instance_max_name_id(inst) == oracle.instance_max_name_id(inst), inst.id
            assert validate_linearity(inst) == oracle.validate_linearity(inst), inst.id
            instances += 1
    return rules, instances


def _compare_all(texts) -> tuple[int, int]:
    totals = [0, 0]
    for text in texts:
        for i, n in enumerate(_compare(text)):
            totals[i] += n
    return totals[0], totals[1]


def test_linearity_matches_the_oracle_on_the_corpus():
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.inet"))]
    rules, instances = _compare_all(texts)
    assert rules >= 10 and instances >= 20


def test_linearity_matches_the_oracle_on_the_tests_programs():
    texts = _literal_rule_programs()
    assert len(texts) >= 100
    rules, instances = _compare_all(texts)
    assert rules >= 130 and instances >= 100


@pytest.mark.parametrize("make", [program_gen.program, program_gen.variadic_program],
                         ids=["program", "variadic_program"])
def test_linearity_matches_the_oracle_on_generated_programs(make):
    rules, instances = _compare_all(make(random.Random(seed)) for seed in range(400))
    assert rules >= 400 and instances >= 400


def test_linearity_matches_the_oracle_on_multi_fault_rules():
    for text in MULTI_FAULT:
        (rule,) = parse_program(text).rules
        assert len(oracle.validate_linearity(rule)) >= 2, text
    _compare_all(MULTI_FAULT)
