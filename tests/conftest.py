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


def corpus_rules(name: str) -> str:
    """The rules of a corpus program, without its net."""
    return "\n".join(line for line in corpus_text(name).splitlines() if not line.startswith("net"))


def dup_text(n: int) -> str:
    """The ``dup_erase`` corpus rules duplicating ``S^n(Z)`` into the
    interface.  Under lifo every ``Dup`` interaction fires before the
    substitutions that build the copies, bottom-up, so each substitution
    consumes an equation whose term holds the name the one before it
    bound."""
    return corpus_rules("dup_erase") + f"\nnet (p, q) | Dup(p, q)~{'S(' * n}Z{')' * n};\n"


def compile_corpus(name: str):
    return compile_text(corpus_text(name))


def oriented(rule, eq):
    """The two agents of ``eq`` in the order ``lookup`` binds them to
    ``rule``: the one for its left pattern first."""
    table = build_rule_table([rule], ())
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


def many_instances_text(k: int, top: int) -> str:
    """``k`` variadic rules over ``top - 1`` arities: ``Ei >< ANY([x])`` on
    ``k`` constants, an ordinary rule on each pair of them (their instances
    at arity 0 overlap), and agents ``Pa`` of every arity ``a`` in 2..top.
    A full expansion makes about ``k * top`` instances; check it with
    ``--max-arity`` at least ``top``."""
    lines = [f"agent E{i}/0;" for i in range(k)]
    lines += [f"E{i} >< ANY([x]) => E{i}~x';" for i in range(k)]
    lines += [f"E{i} >< E{j} => ();" for i in range(k) for j in range(i + 1, k)]
    lines += [f"agent P{a}/{a};" for a in range(2, top + 1)]
    return "\n".join(lines) + "\n"
