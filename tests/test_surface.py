import hashlib
import importlib.util
import itertools
import json
import pathlib
import random
import sys

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
from inetkit import surface
from inetkit.cli import main
from inetkit.rules import errors_in
from inetkit.surface import render_term

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


# Spans read off token offsets: a diagnostic deep in a long program, and
# the first use of a symbol at an arity, in reading order.

_LONG_RULES = "".join(f"A{i}(x) >< Z => x~Éta(Z);\n" for i in range(200))
_LONG_PAIRS = ",\n".join(f"Add(S(Z), r{i})~S(Éta)" for i in range(300))


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "agent Éta/1; ²\n" + _LONG_RULES + "B(x) >< Z => x~S(Z, ;\n" + _LONG_RULES,
            ["error: E_PARSE: unexpected character '²' (1:14)",
             "error: E_PARSE: expected a term, found ';' (202:21)"],
        ),
        (
            "agent Éta/0;\nnet (r) | " + _LONG_PAIRS + ",\n Add(S(Z) r)~S(Z),\n" + _LONG_PAIRS + ";",
            ["error: E_PARSE: expected ')', found 'r' (302:11)"],
        ),
        # The arity-3 use of C opens before the arity-2 use inside it.
        (
            "agent C/2;net (C(C(Z, Z), Z, Z)) | ;",
            ["error: E_ARITY_CONFLICT: symbol C used with conflicting arities: 2, 3 (1:16)"],
        ),
        # ... and before another arity-3 use inside it.
        (
            "agent C/2;net (C(C(Z, Z, Z), Z, Z)) | ;",
            ["error: E_ARITY_CONFLICT: symbol C used with conflicting arities: 2, 3 (1:16)"],
        ),
        # A net before the rules: a rule's use comes first all the same.
        (
            "net (q, p) | A(q, p)~Z;\nA(r) >< Z => r~Z;\nB(x) >< Z => x~A(Z, Z);",
            ["error: E_ARITY_CONFLICT: symbol A used with conflicting arities: 1, 2 (3:16)"],
        ),
        (
            "net (q) | A(q, q)~Z; A(r) >< Z => r~Z;",
            ["error: E_ARITY_CONFLICT: symbol A used with conflicting arities: 1, 2 (1:11)"],
        ),
    ],
    ids=["rule", "net", "nested", "nested_same_arity", "net_first", "net_only"],
)
def test_diagnostic_spans_are_pinned(text, expected):
    assert [str(d) for d in parse_program(text).diagnostics] == expected


@pytest.mark.parametrize(
    "inserted, expected",
    [("S(", "expected ';', found 'S' (4:297786)"), ("\n  ~", "expected ';', found '~' (5:3)")],
    ids=["same_line", "next_line"],
)
def test_an_error_at_the_end_of_a_wide_net_keeps_its_span(inserted, expected):
    # The net is one item of 10,000 equations; the spans are those read
    # when every token kept its offset.
    text = program_gen.wide_net(10_000)
    end = text.rindex(";")
    diags = parse_program(text[:end] + inserted + text[end:]).diagnostics
    assert [str(d) for d in diags] == [f"error: E_PARSE: {expected}"]


def test_parse_configuration_names_the_first_conflict_in_reading_order():
    # B is read at arity 1, then A at 1, then B at 2: B conflicts first,
    # though the A inside the second B closes before it.
    with pytest.raises(ValueError, match="^symbol B used with conflicting arities$"):
        parse_configuration("< B(A(x)) | B(x, A(y, w))~Z >")


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
    assert render_term(Agent(s, (r,))) == "S(r)"  # no display map: names as they display


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
    with pytest.raises(ValueError, match="^symbol A used with conflicting arities$"):
        parse_configuration("< A(x) | A(y, z)~Z >")


def test_parse_configuration_rejects_trailing_input():
    with pytest.raises(ValueError, match="E_PARSE: expected end of input, found 'trailing'"):
        parse_configuration("< Z | > trailing )( garbage")
    # Whitespace and comments after the closing '>' are still fine.
    assert parse_configuration("< Z | >  # done\n\n") == parse_configuration("< Z | >")


# The parser reads a net into a flat program and builds no term of it; the
# diagnostics it reports about a net are those it reported when it built
# every agent as it read: code, message, span and order, and the exit code
# of ``check``.  Name counts run over first occurrences in reading order.
_NET_DIAGNOSTICS = {
    "any": ("agent Z/0;\nnet (a) | a~ANY(Z);",
            ["error: E_PARSE: ANY is not allowed here (2:13)"]),
    "range": ("agent A/2; agent Z/0;\nnet (a) | A(a, [x])~Z;",
              ["error: E_PARSE: ranges are not allowed here (2:16)"]),
    "variadic_name": ("agent Z/0;\nnet (a) | a~Z, x'~Z;",
                      ["error: E_PARSE: variadic names are not allowed here (2:17)"]),
    "missing_paren": ("agent S/1; agent Z/0;\nnet (a) | a~S(Z;",
                      ["error: E_PARSE: expected ')', found ';' (2:16)"]),
    # The first A/2 in reading order is the net's first; the second
    # equation's inner A/2 closes before its outer one.
    "arity_conflict": (
        "agent Z/0;\nA(x) >< Z => x~Z;\nnet (q) | A(q, Z)~Z, A(Z, A(Z, Z))~Z;",
        ["error: E_ARITY_CONFLICT: symbol A used with conflicting arities: 1, 2 (3:11)"]),
    "name_count": (
        "agent Z/0; agent P/2;\nnet () | P(b, a)~P(a, b), a~Z, b~Z, b~Z;",
        ["error: E_NAME_COUNT: name b occurs 4 times in the net (at most twice allowed) (2:1)",
         "error: E_NAME_COUNT: name a occurs 3 times in the net (at most twice allowed) (2:1)"]),
    "dangling": (
        "agent Z/0; agent P/2;\nnet (k, i) | P(u, w)~P(w, w), i~Z,\n  w~Z, v~Z;",
        ["warning: W_DANGLING_NAME: name u occurs once outside the interface (2:1)",
         "error: E_NAME_COUNT: name w occurs 4 times in the net (at most twice allowed) (2:1)",
         "warning: W_DANGLING_NAME: name v occurs once outside the interface (2:1)"]),
    "second_net": ("agent Z/0;\nnet (x) | x~Z;\nnet (y) | y~Z, q~Z;",
                   ["error: E_PARSE: a program may declare at most one net (3:1)"]),
}


@pytest.mark.parametrize("case", list(_NET_DIAGNOSTICS))
def test_net_diagnostics_are_pinned(case, tmp_path, capsys):
    text, expected = _NET_DIAGNOSTICS[case]
    program = parse_program(text)
    assert [str(d) for d in program.diagnostics] == expected
    # A net that holds what nets forbid, or an agent at a conflicting arity, is none.
    assert (program.net is None) == (case not in ("name_count", "dangling", "second_net"))
    path = tmp_path / f"{case}.inet"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == expected


def test_parse_configuration_reads_every_golden_normal_form():
    """Pinned by one sha256 of the configurations' ``repr``s."""
    digest = hashlib.sha256()
    for path in sorted((CORPUS / "golden").glob("*.run.txt")):
        text = path.read_text(encoding="utf-8")
        config = parse_configuration(text)
        assert render_configuration(config) + "\n" == text
        digest.update(repr((text, repr(config))).encode())
    assert digest.hexdigest() == (
        "53c72724dfe4625c6994b076f229e844758e8200125aa5689a00a9d7bea37b2c"
    )
    with pytest.raises(ValueError) as exc:
        parse_configuration("< ANY | >")
    assert str(exc.value) == "error: E_PARSE: ANY is not allowed here (1:3)"


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


# Hand cases for the name-id digest: where the order in which the parser
# reads a program and the order in which it numbers names part ways.
_ID_CASES = [
    # the net first, then rules, then another rule after a declaration
    "net (r) | Add(r, S(Z))~S(Z);\n"
    "Add(r, y) >< Z => r~y;\nagent S/1;\nAdd(r, y) >< S(x) => r~S(w), x~Add(w, y);",
    # the net between rules, with a dangling name
    "A(x, y) >< Z => x~y; net (a) | A(a, b)~Z; B(p) >< Z => p~Z;",
    # ANY written on the left, with names on both patterns
    "ANY(a, b) >< Dup(p, q) => p~ANY(c, d), q~ANY(e, f), a~Dup(c, e), b~Dup(d, f);"
    "net (u, v) | Dup(u, v)~P(Z, Z);",
    "ANY([x]) >< Era => Era~x'; net () | Era~P(Z, Z);",
    # symbols declared after their use
    "A(r) >< Z => r~Z; net (q) | A(q)~Z; agent A/1; agent Z/0;",
    # a concrete agent with a range tail: one resolves, one cannot
    "D(r) >< ANY([x]) => r~F(Z, [x]); agent F/2; net (q) | D(q)~Z;",
    "D(r) >< ANY([x]) => r~Q(Z, [x]), Era~R([y]); net (q) | D(q)~Z;",
    # conflicting arities in a pattern, in a right-hand side and in the net
    "A(x) >< B => x~Z; A(x, y) >< C => x~y; net (q) | A(q)~B;",
    "G(a, b) >< G(c, d) => a~H(c, d), b~H(Z); net (q) | G(q, Z)~G(Z, Z);",
    "A(r) >< Z => r~Z; net (q) | A(q, q)~Z;",
    "agent A/2; A(r, s) >< Z => r~s; net (q) | A(q)~Z;",
    # two nets, and nets around a net that does not parse
    "net (a) | A(a)~Z; B(x) >< Z => x~Z; net (b) | B(b)~Z;",
    "net (a) | A(a)~; net (b) | B(b)~Z; A(x) >< Z => x~Z; net (c) | A(c)~Z;",
    # constructs nets forbid
    "net (a) | A(a, [x])~Z; A(x) >< Z => x~Z;",
    "net (a) | A(a)~ANY(b); A(x) >< Z => x~Z;",
    "net (a) | A(a)~b'; A(x) >< Z => x~Z;",
    # two generic sides, and a rule after a rule that does not parse
    "ANY(a) >< ANY(b) => a~b; A(x) >< Z => x~Z;",
    "A(x) >< => x~Z; A(x) >< Z => x~Z; net (q) | A(q)~Z;",
]


def _name_id_record(text: str) -> list:
    """What the front end decides about ``text``, name ids included: the
    ``repr`` of the rules, the net, the symbols and the supply's next id
    for programs without errors; diagnostics, rule ids and whether there
    is a net for every input."""
    program = parse_program(text)
    record: list = [
        [str(d) for d in program.diagnostics],
        [r.id for r in program.rules],
        program.net is None,
    ]
    if not program.has_errors:
        record += [
            repr(program.rules),
            repr(program.net),
            repr(program.symbols),
            program.supply.next_id,
        ]
    return record


def test_name_id_digest_over_corpus_generated_programs_soups_and_hand_cases():
    """Name ids decide the ``_<id>`` suffixes of run and trace output and
    where fresh names start; pinned before the parser built typed terms
    directly, and unchanged by that."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.inet"))]
    texts += _ID_CASES
    for seed in range(2_000):
        texts += [program_gen.program(random.Random(seed)), program_gen.soup(random.Random(seed))]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(repr((text, _name_id_record(text))).encode())
    assert digest.hexdigest() == (
        "e53a0d5e06fbbbc66ba2b507e43367a9ab11cf051c00ddb90007925bb23ec6e9"
    )


# ---------------------------------------------------------------------------
# lexer: the split path against the token-at-a-time path
# ---------------------------------------------------------------------------

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workload_programs() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [text for name in workloads.WORKLOADS for seed in (1, 2, 3)
            for text in workloads.build(name, seed).files.values()]


_LEXER_CASES = [
    "", "   \n\t", "# only a comment", "A >< B => ();  # trailing comment",
    "agent A/0; # a ; inside a comment\nagent B/1;", "=><", "A =>< B", "1a", "agent A/1a;",
    "x1a 1_ _1", "<>", "< A | x~y >", "A >< B => x~y; =", "A>>B", "a;;b; ;",
    "agent Éta/1;", "ß~x # é", "A\x0bB", "A\x0cB", "A\u2028B", "agent A/٣;",
]


def _lexed(text: str) -> tuple:
    """What the lexer reads off ``text``: token texts, the recorded item
    starts and the diagnostics."""
    tokens = surface._Tokens(text)
    return tokens.texts, tokens._starts, [str(d) for d in tokens.diags]


def _token_starts(text: str) -> list[int]:
    """Every token's start, read off one pass of the token-at-a-time path."""
    found = (surface._pieces(m) for m in surface._TOKEN.finditer(text) if m.lastindex)
    return [offset for pieces in found for is_token, _, offset in pieces if is_token]


def test_both_lexer_paths_cut_alike(monkeypatch):
    corpus = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.inet"))]
    workload = _workload_programs()
    # The shipped and benchmarked programs, comments and all, are plain.
    assert len(corpus) == 4 and all("#" in text for text in corpus)
    assert all(surface._plain(text) is not None for text in corpus + workload)
    texts = corpus + workload + _LEXER_CASES
    for seed in range(375):
        rng = random.Random(seed)
        texts += [program_gen.program(rng), program_gen.variadic_program(rng)]
        texts += [program_gen.soup(rng), program_gen.sprinkle(rng, program_gen.soup(rng))]
    rng = random.Random(26)
    alphabet = " \t\n()[],;~|'/<>=#abZ019_x"
    for _ in range(20_000):
        texts.append("".join(rng.choices(alphabet, k=rng.randrange(30))))
    split = [_lexed(text) for text in texts]
    plain = sum(surface._plain(text) is not None for text in texts)
    assert len(texts) > plain > len(texts) // 4  # both paths are taken
    monkeypatch.setattr(surface, "_plain", lambda text: None)
    for text, cut in zip(texts, split):
        assert cut == _lexed(text), text


def test_a_token_that_opens_no_item_is_found_by_cutting_its_item_again():
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.inet"))]
    texts += _LEXER_CASES + [program_gen.program(random.Random(seed)) for seed in range(100)]
    texts += [program_gen.soup(random.Random(seed)) for seed in range(100)]
    for text in texts:
        every = _token_starts(text)
        forward, backward = surface._Tokens(text), surface._Tokens(text)
        assert [forward.start(at) for at in range(len(every))] == every, text
        assert [backward.start(at) for at in reversed(range(len(every)))] == every[::-1], text
