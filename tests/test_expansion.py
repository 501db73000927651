"""Arity instances built late against the eager expansion.

``analyze_rules`` makes each arity instance of a variadic rule from its
patterns, and the instance builds its right-hand side the first time it is
read.  ``expand_oracle`` expands whole instances up front.  Both must give
the same diagnostics, the same rules (right-hand sides and fresh name ids
included), the same largest name id, the same rule for every active pair,
and the same ``inet expand`` output; and analysis must build nothing.
"""

import contextlib
import io
import random

import pytest

from inetkit import analyze_rules, lookup, parse_program
from inetkit.cli import main
from inetkit.surface import render_rule

import program_gen
from conftest import corpus_text, eps_dup_text
from expand_oracle import _max_name_id, analyze_eagerly

CORPUS_NAMES = ["addition", "dup_erase", "maybe_pick", "map"]
GENERATED = 300

# The arity-2 instance keeps no extra port, so it drops the replicated
# equation's local name u, the rule's largest name id.
NO_EXTRA_PORTS = """
agent E/0; agent P/2;
E >< ANY(a, b, [x]) => a~b, x'~P(u, u);
"""
# The replicated equation reads two ranges that no earlier equation drew.
TWO_NEW_RANGES = """
agent D/2; agent P/2; agent W/2;
D(y1, z1) >< ANY([x]) => x'~P(y', z'), y1~ANY([y]), z1~ANY([z]);
net (p, q) | D(p, q)~W(p2, q2), p2~q2;
"""


def _unbuilt(rules) -> bool:
    return all("rhs" not in r.__dict__ for r in rules if r.instance_of is not None)


def _expand_stdout(path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(["expand", str(path)])
    return out.getvalue()


def assert_as_eager(text: str, path) -> None:
    program = parse_program(text)
    symbols = list(program.symbols.values())
    analysis = analyze_rules(program.rules, symbols)
    assert _unbuilt(analysis.expanded_rules)
    # Ids, patterns and kinds are there without the right-hand sides.
    [(r.id, r.left, r.right, r.origin, r.kind) for r in analysis.expanded_rules]
    assert _unbuilt(analysis.expanded_rules)

    diags, expanded, table = analyze_eagerly(program.rules, {s.arity for s in symbols})
    assert analysis.diagnostics == diags
    assert (analysis.table is None) == (table is None)
    if table is not None:
        assert analysis.table.max_name_id == table.max_name_id
        pairs = [(a, b) for a in symbols for b in symbols]
        got = [lookup(analysis.table, a, b) for a, b in pairs]
        assert _unbuilt(analysis.expanded_rules)
        # Compared with their right-hand sides, so built here, in pair order.
        assert got == [lookup(table, a, b) for a, b in pairs]
    assert analysis.expanded_rules == expanded

    path.write_text(text, encoding="utf-8")
    _, full, _ = analyze_eagerly(
        program.rules, {s.arity for s in symbols}, all_arities=True
    )
    lines = []  # a program with parse errors is not expanded
    for rule in [] if program.has_errors else full:
        origin = rule.origin if rule.origin.startswith("expanded-from") else "source"
        lines.append(f"{render_rule(rule)}  # {rule.id}: {origin}\n")
    assert _expand_stdout(path) == "".join(lines)


@pytest.mark.parametrize(
    "text",
    [corpus_text(name) for name in CORPUS_NAMES]
    + [eps_dup_text(wide) for wide in (0, 2, 64)]
    + [NO_EXTRA_PORTS, TWO_NEW_RANGES],
    ids=CORPUS_NAMES + ["eps_dup_0", "eps_dup_2", "eps_dup_64", "no_extra_ports", "two_new_ranges"],
)
def test_instances_built_late_equal_the_eager_expansion(text, tmp_path):
    assert_as_eager(text, tmp_path / "program.inet")


def test_generated_instances_built_late_equal_the_eager_expansion(tmp_path):
    for seed in range(GENERATED):
        assert_as_eager(program_gen.program(random.Random(seed)), tmp_path / "program.inet")


def test_an_instance_without_extra_ports_keeps_only_its_own_names():
    program = parse_program(NO_EXTRA_PORTS)
    analysis = analyze_rules(program.rules, program.symbols.values())
    (written,) = program.rules
    (instance,) = analysis.expanded_rules
    assert analysis.table.max_name_id == max(n.id for n in instance.params)
    assert analysis.table.max_name_id < _max_name_id(written)


def test_ranges_draw_their_names_in_reading_order():
    """The names of ranges first read in one replicated equation do not
    depend on string hashing: y's come before z's."""
    program = parse_program(TWO_NEW_RANGES)
    analysis = analyze_rules(program.rules, program.symbols.values())
    (at2,) = [r for r in analysis.expanded_rules if r.id.endswith("@2")]
    y, z = at2.rhs[0].right.args
    assert (y.display, z.display) == ("y1", "z1") and y.id < z.id
