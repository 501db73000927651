import pytest

from inetkit import (
    Name,
    NetError,
    OrdinaryPattern,
    RAgent,
    Rule,
    RuleEquation,
    RuleKind,
    Symbol,
    analyze_rules,
    build_rule_table,
    check_grc,
    check_no_ambiguity,
    expand_variadic,
    lookup,
    parse_program,
    validate_linearity,
)
from inetkit.rules import errors_in
from inetkit.surface import render_rule

from conftest import compile_corpus, corpus_text, eps_dup_text

ADDITION_RULES = """
agent Add/2; agent S/1; agent Z/0;
Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);
Add(y, r) >< Z => r~y;
"""

DELTA_RULE = "Dup(d1, d2) >< ANY([x]) => d1~ANY([y]), d2~ANY([z]), x'~Dup(y', z');"


def rules_of(text):
    program = parse_program(text)
    assert not program.has_errors, [str(d) for d in program.diagnostics]
    return program.rules


# ---------------------------------------------------------------------------
# validate_linearity
# ---------------------------------------------------------------------------

def test_linearity_accepts_addition_rules():
    for rule in rules_of(ADDITION_RULES):
        assert validate_linearity(rule) == []


def test_linearity_rejects_duplication():
    (rule,) = rules_of("Add(y, r) >< Z => r~y, r~y;")
    codes = [d.code for d in validate_linearity(rule)]
    assert codes.count("E_LIN_DUP") == 2  # r and y both used twice


def test_linearity_accepts_duplicator_rule():
    (rule,) = rules_of(DELTA_RULE)
    assert rule.kind is RuleKind.VARIADIC
    assert validate_linearity(rule) == []


def test_linearity_rejects_erased_parameter():
    (rule,) = rules_of("agent Z/0; Add(y, r) >< Z => r~S(w), w~y, q~Z;")
    codes = {d.code for d in validate_linearity(rule)}
    assert "E_LIN_ERASED" in codes  # q dangles


def test_linearity_rejects_mixed_range_and_variadic_name():
    (rule,) = rules_of("agent C/2; A >< ANY([x]) => C(x', q)~ANY([y]), q~B;")
    codes = {d.code for d in validate_linearity(rule)}
    assert "E_MIXED" in codes


def test_linearity_rejects_variadic_constructs_outside_variadic_rules():
    (rule,) = rules_of("agent B/0; A(r) >< B => r~ANY([y]);")
    codes = {d.code for d in validate_linearity(rule)}
    assert "E_STRAY_GENERIC" in codes


def test_linearity_rejects_range_on_concrete_agent():
    (rule,) = rules_of("agent C/1; agent D/1; A >< ANY([x]) => Eps~x', C([y])~D([y]);")
    codes = {d.code for d in validate_linearity(rule)}
    assert "E_RANGE_CONCRETE" in codes


def test_linearity_rejects_parameter_in_replicated_equation():
    (rule,) = rules_of("agent C/2; A(p) >< ANY([x]) => C(p, x')~x';")
    codes = {d.code for d in validate_linearity(rule)}
    assert "E_VN_SPAN" in codes


@pytest.mark.parametrize(
    "text, diags",
    [
        (
            "agent E/0; agent D/1; D(r) >< ANY([x]) => r~ANY, x'~E;",
            ["E_GEN_ARITY: rule r1: generic occurrence in a variadic rule must carry the range"],
        ),
        (
            "agent E/0; agent D/1; D(r) >< ANY(a, [x]) => r~ANY(a, b, [x]), b~E;",
            ["E_GEN_ARITY: rule r1: generic occurrence has 2 fixed argument(s), LHS declares 1"],
        ),
        (
            "agent E/0; E >< ANY(a) => a~ANY([y]);",
            [
                "E_GEN_ARITY: rule r1: range on a generic occurrence of a fixed-generic rule",
                "E_STRAY_VARIADIC: rule r1: range or variadic name in a non-variadic rule",
                "E_LIN_ERASED: rule r1: range [y] occurs only once in the RHS (dangling bundle)",
            ],
        ),
        (
            "agent E/0; E >< ANY(a) => a~ANY(b, c), b~c;",
            ["E_GEN_ARITY: rule r1: generic occurrence has 2 argument(s), expected 1"],
        ),
        (
            "agent E/0; agent D/1; D(r) >< E => r~E, x'~E;",
            [
                "E_STRAY_VARIADIC: rule r1: range or variadic name in a non-variadic rule",
                "E_LIN_ERASED: rule r1: range [x] occurs only once in the RHS (dangling bundle)",
            ],
        ),
        (
            "agent E/0; agent D/2; D(a, a) >< E => a~E;",
            ["E_LIN_DUP: rule r1: parameter a bound more than once in the LHS"],
        ),
        (
            "agent E/0; agent D/1; D(a) >< E => ();",
            ["E_LIN_ERASED: rule r1: LHS parameter a is never used in the RHS"],
        ),
        (
            "agent E/0; E >< ANY([x]) => ();",
            ["E_LIN_ERASED: rule r1: LHS range [x] is never used in the RHS"],
        ),
        (
            "agent E/0; E >< ANY([x]) => x'~y', y'~E, y'~E;",
            ["E_LIN_DUP: rule r1: range [y] occurs 3 times in the RHS"],
        ),
    ],
    ids=[
        "generic-without-range",
        "generic-fixed-count-variadic",
        "generic-range-fixed",
        "generic-arg-count-fixed",
        "stray-variadic",
        "param-bound-twice",
        "param-unused",
        "lhs-range-unused",
        "range-overused",
    ],
)
def test_linearity_diagnostic_messages(text, diags):
    (rule,) = rules_of(text)
    assert [str(d) for d in validate_linearity(rule)] == [f"error: {d}" for d in diags]


def test_linearity_rejects_library_agent_at_the_wrong_arity():
    # The parser gives every agent its program's symbol, so only a rule
    # built by hand applies one at another arity.
    r = Name(0, "r")
    a = Symbol("A", 1)
    rule = Rule(
        "r1",
        OrdinaryPattern(a, (r,)),
        OrdinaryPattern(Symbol("Z", 0), ()),
        (RuleEquation(r, RAgent(a, ())),),
    )
    assert [str(d) for d in validate_linearity(rule)] == [
        "error: E_ARITY_CONFLICT: rule r1: agent A/1 applied to 0 argument(s)"
    ]


def test_ordinary_pattern_takes_one_parameter_per_port():
    with pytest.raises(NetError, match=r"^pattern S/1 has 0 parameter\(s\)$"):
        OrdinaryPattern(Symbol("S", 1), ())


# ---------------------------------------------------------------------------
# check_no_ambiguity
# ---------------------------------------------------------------------------

def test_no_ambiguity_accepts_addition_rules():
    assert check_no_ambiguity(rules_of(ADDITION_RULES)) == []


def test_no_ambiguity_rejects_duplicate_pair():
    rules = rules_of(
        """
        agent Add/2; agent Z/0;
        Add(y, r) >< Z => r~y;
        Z >< Add(y, r) => r~y;
        """
    )
    codes = [d.code for d in check_no_ambiguity(rules)]
    assert codes == ["E_DUP_PAIR"]


def test_no_ambiguity_swap_condition():
    symmetric = rules_of("G(a, b) >< G(c, d) => a~c, b~d;")
    assert check_no_ambiguity(symmetric) == []
    asymmetric = rules_of("agent Z/0; G(a, b) >< G(c, d) => a~Z, b~c, d~Z;")
    codes = [d.code for d in check_no_ambiguity(asymmetric)]
    assert codes == ["E_SELF_ASYM"]


def test_no_ambiguity_swap_condition_modulo_internal_names():
    # Symmetric up to renaming the rule-internal wires w and v.
    rules = rules_of("agent S/1; G(a, b) >< G(c, d) => a~S(w), c~S(v), w~v, b~d;")
    assert check_no_ambiguity(rules) == []


def test_no_ambiguity_tolerates_nonlinear_self_rule():
    # The swap check must not blow up on rules linearity already rejects.
    rules = rules_of("G(a, b) >< G(c, d) => a~w, b~w, c~w, d~w;")
    assert any(d.code == "E_LIN_DUP" for d in validate_linearity(rules[0]))
    check_no_ambiguity(rules)  # must not raise


def test_no_ambiguity_skips_self_rule_with_stray_wildcard():
    # Read as G(c, d), the stray ANY would make the rule asymmetric; the swap
    # check leaves the rule to validate_linearity instead.
    (rule,) = rules_of("G(a, b) >< G(c, d) => a~ANY(c, d), b~Z;")
    assert [d.code for d in validate_linearity(rule)] == ["E_STRAY_GENERIC"]
    assert check_no_ambiguity([rule]) == []


def test_no_ambiguity_skips_self_rule_applying_an_agent_at_the_wrong_arity():
    # H is used at arities 1 and 2, so H(c, d) applies H/1 to two arguments.
    program = parse_program("G(a, b) >< G(c, d) => a~H(c, d), b~H(Z);")
    assert [d.code for d in program.diagnostics] == ["E_ARITY_CONFLICT"]
    (rule,) = program.rules
    assert check_no_ambiguity([rule]) == []


def test_no_ambiguity_rejects_duplicate_generic_slot():
    rules = rules_of(
        """
        A >< ANY(x) => x~B;
        A >< ANY(y) => y~C;
        """
    )
    codes = [d.code for d in check_no_ambiguity(rules)]
    assert codes == ["E_DUP_GENERIC"]


def test_no_ambiguity_variadic_overlaps_fixed_slot():
    rules = rules_of(
        """
        A >< ANY(x, y) => x~y;
        A >< ANY([x]) => A~x';
        """
    )
    codes = [d.code for d in check_no_ambiguity(rules)]
    assert codes == ["E_DUP_GENERIC"]


# Generic rules on one concrete symbol: a fixed slot covers one partner
# arity, a variadic one every arity from its fixed-port count up.
FIXED_0 = "A >< ANY => ();"
FIXED_1 = "A >< ANY(x) => x~B;"
FIXED_2 = "A >< ANY(x, y) => x~y;"
VARIADIC_0 = "A >< ANY([x]) => A~x';"
VARIADIC_1 = "A >< ANY(r, [x]) => r~B, A~x';"


@pytest.mark.parametrize(
    "first, second, clash",
    [
        (FIXED_1, "A >< ANY(y) => y~C;", True),
        (FIXED_1, FIXED_2, False),
        (FIXED_2, VARIADIC_1, True),
        (VARIADIC_1, FIXED_2, True),
        (FIXED_1, VARIADIC_1, True),
        (VARIADIC_1, FIXED_1, True),
        (FIXED_0, VARIADIC_1, False),
        (VARIADIC_1, FIXED_0, False),
        (VARIADIC_0, VARIADIC_1, True),
        (FIXED_1, "C >< ANY(y) => y~B;", False),
        (VARIADIC_1, "C >< ANY(r, [x]) => r~B, C~x';", False),
    ],
    ids=[
        "fixed-same-arity", "fixed-other-arity",
        "fixed-above-variadic", "variadic-below-fixed",
        "fixed-at-variadic", "variadic-at-fixed",
        "fixed-below-variadic", "variadic-above-fixed",
        "two-variadic", "fixed-other-symbol", "variadic-other-symbol",
    ],
)
def test_no_ambiguity_generic_slot_clashes(first, second, clash):
    rules = rules_of(first + "\n" + second)
    assert all(r.generic is not None for r in rules)
    codes = [d.code for d in check_no_ambiguity(rules)]
    assert codes == (["E_DUP_GENERIC"] if clash else [])


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_expand_erase_rule():
    (rule,) = rules_of("Eps >< ANY([x]) => Eps~x';")
    out = expand_variadic(rule, [3, 1, 2, 0, 3])
    assert [r.id for r in out] == ["r1@0", "r1@1", "r1@2", "r1@3"]
    assert all(r.kind is RuleKind.FIXED_GENERIC for r in out)
    assert out[0].rhs == ()  # arity 0: zero copies
    assert render_rule(out[2]) == "Eps >< ANY(x1, x2) => Eps~x1, Eps~x2;"
    assert out[2].origin == "expanded-from(r1, 2)"


def test_expand_duplicator_rule_at_arity_3():
    (rule,) = rules_of(DELTA_RULE)
    (at3,) = expand_variadic(rule, [3])
    assert render_rule(at3) == (
        "Dup(d1, d2) >< ANY(x1, x2, x3) => "
        "d1~ANY(y1, y2, y3), d2~ANY(z1, z2, z3), "
        "x1~Dup(y1, z1), x2~Dup(y2, z2), x3~Dup(y3, z3);"
    )


def test_expand_non_variadic_rule_is_identity():
    rules = rules_of(ADDITION_RULES)
    assert expand_variadic(rules[0], range(6)) == [rules[0]]


def test_expand_respects_arity_cap():
    program = parse_program("agent Big/65; Eps >< ANY([x]) => Eps~x';")
    symbols = list(program.symbols.values())
    for all_arities in (False, True):
        analysis = analyze_rules(program.rules, symbols, all_arities=all_arities)
        assert [str(d) for d in analysis.diagnostics] == [
            "error: E_EXPAND_OVERFLOW: maximum arity 65 exceeds the expansion cap 64"
        ]
        assert not analysis.ok and analysis.expanded_rules == []
    analysis = analyze_rules(program.rules, symbols, arity_cap=65)
    assert analysis.ok
    assert [r.id for r in analysis.expanded_rules] == ["r1@0", "r1@65"]
    analysis = analyze_rules(program.rules, symbols, arity_cap=65, all_arities=True)
    assert analysis.ok and len(analysis.expanded_rules) == 66


def test_expand_leaves_non_variadic_rules_alone_above_the_cap():
    program = parse_program("agent Big/65; agent Z/0; Z >< Z => ();")
    for all_arities in (False, True):
        analysis = analyze_rules(program.rules, program.symbols.values(), all_arities=all_arities)
        assert analysis.ok and analysis.diagnostics == []
        assert analysis.expanded_rules == program.rules


def test_expansion_preserves_linearity():
    program, analysis = compile_corpus("map")
    for rule in analysis.expanded_rules:
        assert validate_linearity(rule) == [], rule.id


def test_validated_rules_have_exact_occurrence_profile():
    # every LHS parameter once, every internal wire exactly twice
    from collections import Counter

    from linearity_oracle import eq_names

    for name in ["addition", "dup_erase", "maybe_pick", "map"]:
        program, analysis = compile_corpus(name)
        for rule in analysis.expanded_rules:
            counts = Counter()
            for eq in rule.rhs:
                counts.update(eq_names(eq))
            params = set(rule.params)
            for n, c in counts.items():
                assert c == (1 if n in params else 2), (name, rule.id, n)
            assert params <= set(counts)


# ---------------------------------------------------------------------------
# check_grc
# ---------------------------------------------------------------------------

def grc_of(text):
    program = parse_program(text)
    assert not program.has_errors
    analysis = analyze_rules(program.rules, program.symbols.values())
    return analysis


def full_expansion_oracle(program):
    """Diagnostics and expanded rules of a full 0..max expansion."""
    rules = program.rules
    diags = [d for r in rules for d in validate_linearity(r)]
    diags += check_no_ambiguity(rules)
    top = max((s.arity for s in program.symbols.values()), default=0)
    full = [x for r in rules for x in expand_variadic(r, range(top + 1))]
    return diags + check_grc(full), full


def pruned_maybe_pick():
    return "\n".join(
        line for line in corpus_text("maybe_pick").splitlines()
        if not line.startswith("Aux >< Ret")
    )


EQUIVALENCE_PROGRAMS = {
    **{name: corpus_text(name) for name in ["addition", "dup_erase", "maybe_pick", "map"]},
    "pruned_maybe_pick": pruned_maybe_pick(),
    "self_generic": """
        agent K/1; agent Eps/0; agent T/3; agent F/2;
        K(a) >< ANY(p, [x]) => a~p, Eps~x';
        Eps >< ANY([x]) => Eps~x';
        F(a, b) >< ANY(x, y) => a~x, b~y;
        """,
    # Every symbol but P has fewer ports than K's rule fixes.
    "fixed_ports_above_arities": """
        agent K/2; agent Z/0; agent S/1; agent Eps/0; agent P/5;
        Eps >< ANY([x]) => Eps~x';
        K(a, b) >< ANY(p, q, r, [x]) => a~p, b~q, Eps~r, Eps~x';
        net (u, v) | K(u, v)~P(Z, S(Z), Z, Z, Z);
        """,
    "eps_dup_0_2_64": eps_dup_text(64),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_PROGRAMS))
def test_expanding_at_occurring_arities_matches_full_expansion(name):
    program = parse_program(EQUIVALENCE_PROGRAMS[name])
    assert not program.has_errors
    symbols = list(program.symbols.values())
    analysis = analyze_rules(program.rules, symbols)
    diags, full = full_expansion_oracle(program)
    assert analysis.diagnostics == diags
    arities = {s.arity for s in symbols}
    assert analysis.expanded_rules == [
        r for r in full
        if not r.origin.startswith("expanded-from")
        or len(r.generic.fixed_params) in arities
    ]
    if errors_in(diags):
        assert not analysis.ok
        return
    table = build_rule_table(full)
    for a in symbols:
        for b in symbols:
            assert lookup(analysis.table, a, b) == lookup(table, a, b), (a, b)


def test_equivalence_programs_exercise_the_diagnostics():
    codes = {
        name: {d.code for d in full_expansion_oracle(parse_program(text))[0]}
        for name, text in EQUIVALENCE_PROGRAMS.items()
    }
    assert "E_GRC_OVERLAP" in codes["pruned_maybe_pick"]
    assert {"W_SELF_GENERIC"} == codes["self_generic"]
    program = parse_program(EQUIVALENCE_PROGRAMS["self_generic"])
    warned = {d.message.split()[1] for d in full_expansion_oracle(program)[0]}
    assert warned == {"r1@1", "r2@0", "r3"}
    program = parse_program(EQUIVALENCE_PROGRAMS["fixed_ports_above_arities"])
    analysis = analyze_rules(program.rules, program.symbols.values())
    assert [r.id for r in analysis.expanded_rules if r.id.startswith("r2@")] == ["r2@5"]


def test_grc_flags_unresolved_overlap():
    text = "\n".join(
        line
        for line in corpus_text("maybe_pick").splitlines()
        if not line.startswith("Aux >< Ret")
    )
    analysis = grc_of(text)
    bad = errors_in(analysis.diagnostics)
    assert [d.code for d in bad] == ["E_GRC_OVERLAP"]
    assert "r1" in bad[0].message and "r4" in bad[0].message
    assert "(Ret, Aux)" in bad[0].message


def test_grc_accepts_full_corpus_rules():
    analysis = grc_of(corpus_text("maybe_pick"))
    assert analysis.ok
    assert errors_in(analysis.diagnostics) == []


def test_grc_single_generic_rule_is_fine():
    analysis = grc_of("Eps >< ANY([x]) => Eps~x'; agent A/2;")
    assert analysis.ok


def test_grc_self_generic_warning():
    analysis = grc_of("agent Eps/0; Eps >< ANY([x]) => Eps~x';")
    assert analysis.ok
    assert any(d.code == "W_SELF_GENERIC" for d in analysis.diagnostics)


def test_grc_leaves_an_identical_slot_to_the_ambiguity_check():
    # Both rules hold A's slot for ANY/1, and A has arity 1, so they would
    # overlap on (A, A); check_grc skips the pair, which is E_DUP_GENERIC.
    rules = rules_of("agent A/1; A(p) >< ANY(x) => p~x; A(q) >< ANY(y) => q~y;")
    assert [d.code for d in check_grc(rules)] == ["W_SELF_GENERIC", "W_SELF_GENERIC"]
    assert [d.code for d in check_no_ambiguity(rules)] == ["E_DUP_GENERIC"]


def test_grc_requires_expanded_rules():
    (rule,) = rules_of("Eps >< ANY([x]) => Eps~x';")
    with pytest.raises(ValueError):
        check_grc([rule])


# ---------------------------------------------------------------------------
# build_rule_table / lookup
# ---------------------------------------------------------------------------

def test_table_keys_for_addition():
    program = parse_program(ADDITION_RULES)
    table = build_rule_table(program.rules)
    assert set(table.ordinary) == {("Add", "S"), ("Add", "Z")}


def test_lookup_orientation_flip():
    program = parse_program(ADDITION_RULES)
    table = build_rule_table(program.rules)
    add, s = Symbol("Add", 2), Symbol("S", 1)
    straight = lookup(table, add, s)
    flipped = lookup(table, s, add)
    assert straight.rule.generic is None and not straight.swapped
    assert flipped.rule.generic is None and flipped.swapped
    assert straight.rule is flipped.rule


def test_empty_rule_set_builds_empty_table():
    table = build_rule_table([])
    assert table.ordinary == {} and table.generic == {}


def test_lookup_ordinary_beats_generic():
    program, analysis = compile_corpus("maybe_pick")
    table = analysis.table
    aux, ret = program.symbols["Aux"], program.symbols["Ret"]
    jst, bind = program.symbols["Jst"], program.symbols["Bind"]
    pick = program.symbols["Pick"]

    match = lookup(table, jst, bind)
    assert match.rule.generic is None and match.rule.id == "r2"

    # both an ordinary rule and an expanded generic slot exist for this pair
    assert (aux.arity, ret.name) in table.generic
    match = lookup(table, aux, ret)
    assert match.rule.generic is None and match.rule.id == "r5"

    match = lookup(table, aux, pick)
    assert match.rule.generic is not None
    assert match.rule.id == "r4@2"
    assert not match.swapped  # pick, on the right, is the wildcard-bound side

    match = lookup(table, pick, aux)
    assert match.rule.generic is not None and match.swapped


def test_lookup_no_match_is_none():
    table = build_rule_table([])
    assert lookup(table, Symbol("A", 0), Symbol("B", 0)) is None


def test_lookup_probe_order_prefers_left_generic_binding():
    # Both probes could serve (Eps, Eps); the first one must win.
    program, analysis = compile_corpus("dup_erase")
    eps = program.symbols["Eps"]
    match = lookup(analysis.table, eps, eps)
    assert match.rule.generic is not None and match.swapped  # the left Eps is the wildcard's


def test_table_refuses_variadic_rules():
    (rule,) = rules_of("Eps >< ANY([x]) => Eps~x';")
    with pytest.raises(ValueError):
        build_rule_table([rule])


def test_table_validation_raises_on_errors():
    # analyze_rules rejects the asymmetric self rule; build_rule_table,
    # which checks nothing, still indexes it.
    program = parse_program("agent Z/0; G(a, b) >< G(c, d) => a~Z, b~c, d~Z;")
    analysis = analyze_rules(program.rules, program.symbols.values())
    assert [d.code for d in analysis.diagnostics] == ["E_SELF_ASYM"]
    assert not analysis.ok
    (rule,) = program.rules
    assert build_rule_table(program.rules).ordinary == {("G", "G"): rule}


def test_at_most_one_rule_per_pair_after_validation():
    program, analysis = compile_corpus("maybe_pick")
    table = analysis.table
    symbols = list(program.symbols.values())
    for a in symbols:
        for b in symbols:
            applicable = []
            key = (a.name, b.name) if a.name <= b.name else (b.name, a.name)
            if key in table.ordinary:
                applicable.append(table.ordinary[key])
            for slot in {(a.arity, b.name), (b.arity, a.name)}:
                if slot in table.generic:
                    applicable.append(table.generic[slot])
            if len(applicable) > 1:
                # overlap must be resolved by an ordinary rule (checked), and
                # lookup must return exactly that rule
                assert key in table.ordinary
                match = lookup(table, a, b)
                assert match.rule.generic is None
                assert match.rule is table.ordinary[key]
