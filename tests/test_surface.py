import hashlib
import itertools
import json
import random

import pytest

from inetkit import (
    Agent,
    Configuration,
    Equation,
    Fifo,
    Name,
    RuleKind,
    Symbol,
    canonicalize,
    normalize,
    parse_configuration,
    parse_program,
    render_configuration,
    render_rule,
    render_trace,
)
from inetkit.rules import errors_in

import program_gen
from conftest import CORPUS, compile_corpus, corpus_text


def nm(i, d="x"):
    return Name(i, d)


# ---------------------------------------------------------------------------
# parse_program
# ---------------------------------------------------------------------------

def test_parse_ordinary_rule():
    program = parse_program("Add(r,y) >< S(x) => r~S(w), x~Add(w,y);")
    assert not program.has_errors
    assert program.symbols["Add"] == Symbol("Add", 2)
    assert program.symbols["S"] == Symbol("S", 1)
    (rule,) = program.rules
    assert rule.kind is RuleKind.ORDINARY
    assert rule.id == "r1"


def test_parse_variadic_rule():
    program = parse_program("Eps >< ANY([x]) => Eps~x';")
    assert not program.has_errors
    (rule,) = program.rules
    assert rule.kind is RuleKind.VARIADIC
    assert rule.generic.range_name == "x"
    assert rule.generic.fixed_params == ()


def test_parse_fixed_generic_rule():
    program = parse_program("agent Nothing/0; Aux >< ANY(r) => r~Nothing;")
    assert not program.has_errors
    (rule,) = program.rules
    assert rule.kind is RuleKind.FIXED_GENERIC
    assert len(rule.generic.fixed_params) == 1


def test_parse_generic_side_normalized_to_right():
    program = parse_program("ANY(r) >< Aux => r~Nothing; agent Nothing/0;")
    (rule,) = program.rules
    assert rule.left.symbol.name == "Aux"
    assert rule.generic is not None


def test_parse_rejects_two_generic_sides():
    program = parse_program("ANY(r) >< ANY([x]) => r~x';")
    assert any(d.code == "E_TWO_GENERIC" for d in program.diagnostics)


def test_parse_rejects_variadic_name_in_pattern():
    program = parse_program("A(x') >< B => x~B;")
    assert any(d.code == "E_VN_IN_LHS" for d in program.diagnostics)


def test_parse_arity_conflict():
    program = parse_program("agent S/1; A(r) >< S => r~S;")
    bad = errors_in(program.diagnostics)
    assert any(d.code == "E_ARITY_CONFLICT" and "S" in d.message for d in bad)


def test_parse_diagnostics_carry_spans():
    program = parse_program("agent A/;\nB(x >< C => x~x;")
    bad = errors_in(program.diagnostics)
    assert bad and all(d.span is not None for d in bad)
    assert bad[0].span.line == 1


def test_parse_recovers_after_bad_item():
    program = parse_program("agent /1;\nagent S/1;\n")
    assert program.has_errors
    assert program.symbols.get("S") == Symbol("S", 1)


def test_parse_net_occurrence_violation():
    program = parse_program("agent Z/0; net (x) | x~Z, x~Z;")
    assert any(d.code == "E_NAME_COUNT" for d in program.diagnostics)


def test_parse_net_dangling_name_warning():
    program = parse_program("agent Z/0; net () | x~Z;")
    warnings = [d for d in program.diagnostics if d.severity == "warning"]
    assert any(d.code == "W_DANGLING_NAME" for d in warnings)
    assert not program.has_errors


def test_parse_rejects_reserved_wildcard_declaration():
    program = parse_program("agent ANY/2;")
    assert program.has_errors


def test_parse_rejects_variadic_constructs_in_net():
    program = parse_program("agent Z/0; net () | x'~Z;")
    assert program.has_errors


def test_parse_at_most_one_net():
    program = parse_program("agent Z/0; net (x) | x~Z; net (y) | y~Z;")
    assert program.has_errors


def test_arity_inference_is_order_independent():
    lines = [
        "agent Add/2;",
        "Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);",
        "Add(y, r) >< Z => r~y;",
    ]
    outcomes = set()
    for perm in itertools.permutations(lines):
        program = parse_program("\n".join(perm))
        table = tuple(sorted((s.name, s.arity) for s in program.symbols.values()))
        codes = tuple(sorted(d.code for d in errors_in(program.diagnostics)))
        outcomes.add((table, codes))
    assert len(outcomes) == 1


def test_arity_conflict_set_is_order_independent():
    lines = ["A(x) >< Z => x~Z;", "A(x, y) >< S(q) => x~y, q~Z, Z~Z;"]
    results = set()
    for perm in itertools.permutations(lines):
        program = parse_program("agent Z/0; agent S/1;\n" + "\n".join(perm))
        results.add(
            tuple(
                sorted(
                    (d.code, "A" in d.message)
                    for d in errors_in(program.diagnostics)
                )
            )
        )
    assert len(results) == 1 and results.pop()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_configuration_examples():
    s = Symbol("S", 1)
    z = Agent(Symbol("Z", 0))
    assert render_configuration(Configuration([Agent(s, (Agent(s, (z,)),))], [])) == "< S(S(Z)) | >"
    r = nm(0, "r")
    no = Agent(Symbol("No", 0))
    assert render_configuration(Configuration([r], [Equation(no, r)])) == "< r | No~r >"
    assert render_configuration(Configuration([], [])) == "< | >"


def test_render_disambiguates_clashing_displays():
    a, b = nm(0, "w"), nm(1, "w")
    out = render_configuration(Configuration([a, b], [Equation(a, b)]))
    assert out == "< w, w_1 | w~w_1 >"


def test_configuration_round_trip_on_corpus():
    for path in sorted(CORPUS.glob("*.inet")):
        program, analysis = compile_corpus(path.stem)
        for config in [program.net, normalize(program.net, analysis.table).final]:
            text = render_configuration(config)
            assert canonicalize(parse_configuration(text)) == canonicalize(config), text


def test_corpus_parse_render_parse_fixed_point():
    for path in sorted(CORPUS.glob("*.inet")):
        program = parse_program(path.read_text())
        rendered = "\n".join(render_rule(r) for r in program.rules)
        reparsed = parse_program(rendered)
        assert not reparsed.has_errors
        assert [render_rule(r) for r in reparsed.rules] == [
            render_rule(r) for r in program.rules
        ]


def test_render_rule_surface_forms():
    program = parse_program(corpus_text("maybe_pick"))
    by_id = {r.id: r for r in program.rules}
    assert render_rule(by_id["r1"]) == "Ret(r) >< ANY([x]) => r~Jst(ANY([x]));"
    assert render_rule(by_id["r4"]) == "Aux >< ANY(r, [x]) => Eps~x', No~r;"


def test_render_trace_text_and_json():
    program, analysis = compile_corpus("maybe_pick")
    outcome = normalize(program.net, analysis.table, Fifo(), trace=True)
    text = render_trace(outcome.trace, "text")
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("0. ↪int [rule r3] ")
    assert lines[-1].startswith("4. ↪col ")

    payload = [json.loads(line) for line in render_trace(outcome.trace, "jsonLines").splitlines()]
    assert [p["index"] for p in payload] == [0, 1, 2, 3, 4]
    assert set(payload[0]) == {"index", "kind", "rule", "before", "after"}
    assert payload[0]["kind"] == "interaction" and payload[0]["rule"] == "r3"
    assert payload[1]["rule"] is None
    assert payload[4]["after"] == []


def test_render_trace_empty():
    assert render_trace([], "text") == ""
    assert render_trace([], "jsonLines") == ""


def test_render_trace_single_step():
    program, analysis = compile_corpus("addition")
    outcome = normalize(program.net, analysis.table, budget=1, trace=True)
    lines = render_trace(outcome.trace, "text").splitlines()
    assert len(lines) == 1 and lines[0].startswith("0. ")


def test_parse_configuration_rejects_garbage():
    with pytest.raises(ValueError):
        parse_configuration("< S(Z | >")


def test_parse_configuration_rejects_trailing_input():
    with pytest.raises(ValueError, match="E_PARSE: expected end of input, found 'trailing'"):
        parse_configuration("< Z | > trailing )( garbage")
    # Whitespace and comments after the closing '>' are still fine.
    assert parse_configuration("< Z | >  # done\n\n") == parse_configuration("< Z | >")


# ---------------------------------------------------------------------------
# front-end digest
# ---------------------------------------------------------------------------

def _front_end_record(text: str) -> list:
    """Everything the front end decides about ``text``, as plain strings."""
    program = parse_program(text)
    record: list = [str(d) for d in program.diagnostics]
    record += [(r.id, r.kind.name, r.origin, render_rule(r)) for r in program.rules]
    record.append([(s.name, s.arity) for s in program.symbols.values()])
    configs = [text]
    if program.net is not None:
        record.append(render_configuration(program.net))
        configs.append(render_configuration(program.net))
    for config in configs:
        try:
            record.append(render_configuration(parse_configuration(config)))
        except ValueError as exc:
            record.append(f"ValueError: {exc}")
    return record


def test_front_end_digest_over_generated_programs_and_soups():
    """Diagnostics (code, message, span), rules, nets, symbol tables and
    ``parse_configuration`` outcomes of 2,000 generated programs and 2,000
    token soups, pinned by one sha256 recorded before the lexer and parser
    were rewritten."""
    digest = hashlib.sha256()
    for seed in range(2_000):
        for make in (program_gen.program, program_gen.soup):
            text = make(random.Random(seed))
            digest.update(repr((text, _front_end_record(text))).encode())
    assert digest.hexdigest() == (
        "52054f5993cd5318d2d92aed7d7583fadafd02107ced3cd2a30e2c83b877f312"
    )
