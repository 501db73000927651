import pathlib

import pytest

from inetkit import analyze_rules, build_rule_table, lookup, parse_program

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "src" / "inetkit" / "corpus"


@pytest.fixture
def corpus_dir() -> pathlib.Path:
    return CORPUS


def corpus_text(name: str) -> str:
    return (CORPUS / f"{name}.inet").read_text(encoding="utf-8")


def compile_text(text: str):
    """Parse and fully analyze a program; fails the test on any error."""
    program = parse_program(text)
    assert not program.has_errors, [str(d) for d in program.diagnostics]
    analysis = analyze_rules(program.rules, program.symbols.values())
    assert analysis.ok, [str(d) for d in analysis.diagnostics]
    return program, analysis


def compile_corpus(name: str):
    return compile_text(corpus_text(name))


def oriented(rule, eq):
    """The two agents of ``eq`` in the order ``lookup`` binds them to
    ``rule``: the one for its left pattern first."""
    table = build_rule_table([rule])
    match = lookup(table, eq.left.symbol, eq.right.symbol)
    assert match is not None and match.rule is rule
    return (eq.right, eq.left) if match.swapped else (eq.left, eq.right)


def eps_dup_text(wide: int) -> str:
    """Variadic Eps/Dup duplicating one agent of arity ``wide``.

    Its symbols have the arities 0, 2 and ``wide``.
    """
    zeros = ", ".join(["Z"] * wide)
    return f"""
agent Eps/0; agent Dup/2; agent Z/0; agent W/{wide};
Eps >< ANY([x]) => Eps~x';
Dup(a, b) >< ANY([x]) => a~ANY([y]), b~ANY([z]), x'~Dup(y', z');
Eps >< Dup(a, b) => Eps~a, Eps~b;
net (p, q) | Dup(p, q)~W({zeros});
"""
