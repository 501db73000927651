import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from inetkit import (
    Analysis,
    analyze_rules,
    build_rule_table,
    occurrence_violations,
    parse_configuration,
)
from inetkit.cli import build_arg_parser, main

import program_gen
from conftest import CORPUS, corpus_text
from test_probe import SEEDED_ONLY_NET, SELF_RULE

CORPUS_NAMES = ["addition", "dup_erase", "maybe_pick", "map"]


def corpus_path(name: str) -> str:
    return str(CORPUS / f"{name}.inet")


@pytest.fixture
def tmp_program(tmp_path):
    def write(text: str) -> str:
        path = tmp_path / "program.inet"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_check_corpus_passes(name, capsys):
    assert main(["check", corpus_path(name)]) == 0
    assert "error" not in capsys.readouterr().err


def test_check_grc_gate(tmp_program, capsys):
    text = "\n".join(
        line for line in corpus_text("maybe_pick").splitlines()
        if not line.startswith("Aux >< Ret")
    )
    assert main(["check", tmp_program(text)]) == 1
    err = capsys.readouterr().err
    assert "E_GRC_OVERLAP" in err and "r1" in err and "r4" in err


def test_check_duplicate_pair(tmp_program, capsys):
    path = tmp_program(
        """
        agent Add/2; agent Z/0;
        Add(y, r) >< Z => r~y;
        Add(a, b) >< Z => b~a;
        """
    )
    assert main(["check", path]) == 1
    assert "E_DUP_PAIR" in capsys.readouterr().err


def test_check_parse_failure_exits_2(tmp_program, capsys):
    assert main(["check", tmp_program("agent /1;")]) == 2
    assert "E_PARSE" in capsys.readouterr().err


def test_check_reports_an_arity_past_the_int_digit_limit(tmp_program, capsys):
    # 5,000 digits used to reach int(), which raised past its 4,300-digit
    # limit; 4,000 are still read.
    assert main(["check", tmp_program("agent S/" + "9" * 5000 + ";")]) == 2
    err = capsys.readouterr().err
    assert err == "error: E_PARSE: arity literal too long: 5000 digits (at most 4300) (1:9)\n"
    assert main(["check", tmp_program("agent S/" + "9" * 4000 + ";")]) == 0
    assert capsys.readouterr().err == ""


def test_check_missing_file_exits_2(capsys):
    assert main(["check", "/nonexistent/x.inet"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "program.inet"
    path.write_bytes(b"agent Z/0;\xff\xfe net (Z) | ;")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and "Traceback" not in err


def test_check_non_variadic_rules_ignore_the_arity_cap(tmp_program, capsys):
    # Nothing here is variadic, so an agent above the cap has nothing to expand.
    assert main(["check", tmp_program("agent Big/65; agent Z/0; Z >< Z => ();")]) == 0
    assert "E_EXPAND_OVERFLOW" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, err",
    [
        (
            "agent A/²;",
            "error: E_PARSE: unexpected character '²' (1:9)\n"
            "error: E_PARSE: expected an arity, found ';' (1:10)\n",
        ),
        ("agent A/2²;", "error: E_PARSE: unexpected character '²' (1:10)\n"),
        # The decimal digits after it are still read, as the arity.
        ("agent A/²34;", "error: E_PARSE: unexpected character '²' (1:9)\n"),
    ],
)
def test_non_decimal_digits_are_unexpected_characters(text, err, tmp_program, capsys):
    # Arities are decimal digits; "²" is a digit to str.isdigit, not to int().
    assert main(["check", tmp_program(text)]) == 2
    assert capsys.readouterr() == ("", err)


def test_escaped_net_error_is_one_error_line(tmp_program, capsys):
    # canonicalize gives up on 8 interchangeable components (8! labellings).
    path = tmp_program(program_gen.symmetric_net(8))
    assert main(["fuzz", path, "--seeds", "0"]) == 1
    assert capsys.readouterr() == ("", "error: canonicalization branch limit exceeded\n")


@pytest.mark.parametrize(
    "argv, stream, code",
    [
        (["check"], "stderr", 2),
        (["run", "x.inet", "--max-steps", "0"], "stderr", 2),
        (["bogus"], "stderr", 2),
        (["fuzz", "--help"], "stdout", 0),
        (["run", "x.inet", "--max-steps", "abc"], "stderr", 2),
    ],
)
def test_usage_and_help_reach_the_current_streams_on_every_call(argv, stream, code):
    # main reuses one argument parser across calls.
    redirect = getattr(contextlib, f"redirect_{stream}")
    expected = io.StringIO()
    with redirect(expected), pytest.raises(SystemExit):
        build_arg_parser().parse_args(argv)
    for _ in range(2):
        got = io.StringIO()
        with redirect(got), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert got.getvalue() == expected.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--max-steps", "0"],
        ["check", "--max-arity", "-1"],
        ["fuzz", "--seeds", "-1"],
    ],
    ids=["max-steps-0", "max-arity-negative", "seeds-negative"],
)
def test_out_of_range_flags_are_usage_errors(argv, capsys):
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        main([command, corpus_path("addition"), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flags[0]}: must be at least" in err


@pytest.mark.parametrize(
    "seed",
    ["-5", "+5", " 5", "5 ", "", "5.0", "0x5", "٣", "1_0", "18446744073709551616"],
)
def test_seed_spec_outside_u64_decimal_is_a_usage_error(seed, capsys):
    # Signs, blanks, non-ASCII digits and underscores used to name another
    # seed's schedule (seed:-5 and seed:+5 ran that of seed:5), and 2**64
    # was taken although seeds are u64.
    with pytest.raises(SystemExit) as exc:
        main(["trace", corpus_path("addition"), "--strategy", f"seed:{seed}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --strategy: invalid seed" in err


def test_seed_spec_takes_every_u64(capsys):
    for seed in ["0", "5", "18446744073709551615"]:
        assert main(["trace", corpus_path("addition"), "--strategy", f"seed:{seed}"]) == 0
    assert capsys.readouterr().err == ""


def test_seed_spec_past_the_int_digit_limit_is_a_usage_error(capsys):
    # 5,000 digits used to reach int(), whose own 4,300-digit limit wrote
    # the message.
    with pytest.raises(SystemExit) as exc:
        main(["trace", corpus_path("addition"), "--strategy", "seed:" + "9" * 5000])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --strategy: invalid seed" in err
    assert "expected a decimal u64" in err and "Exceeds the limit" not in err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_addition(capsys):
    assert main(["run", corpus_path("addition")]) == 0
    assert capsys.readouterr().out == "< S(S(Z)) | >\n"


def test_run_pipeline_returns_no(capsys):
    assert main(["run", corpus_path("maybe_pick")]) == 0
    assert capsys.readouterr().out == "< No | >\n"


def test_run_stuck_pair_exits_3(tmp_program, capsys):
    path = tmp_program("agent A/0; agent B/0; net () | A~B;")
    assert main(["run", path]) == 3
    captured = capsys.readouterr()
    assert "A~B" in captured.err
    assert captured.out == "< | A~B >\n"


def test_run_stuck_lines_name_wires_as_the_configuration_does(tmp_program, capsys):
    # The two x of the stuck pair are different wires; the configuration
    # shows the second as x_4, and so must the stuck line.
    path = tmp_program(
        "agent A/1; agent D/0; agent P/2; agent Q/2; A(r) >< D => r~Q(x, x);"
        "net () | A(u)~D, u~P(x, x);"
    )
    assert main(["run", path]) == 3
    assert capsys.readouterr() == (
        "< | P(x, x)~Q(x_4, x_4) >\n",
        "stuck: P(x, x)~Q(x_4, x_4)\n",
    )


def test_run_without_net_fails(tmp_program, capsys):
    assert main(["run", tmp_program("agent Z/0;")]) == 1
    assert "no net" in capsys.readouterr().err


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_run_matches_golden(name, capsys):
    assert main(["run", corpus_path(name)]) == 0
    golden = (CORPUS / "golden" / f"{name}.run.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_run_is_reproducible(capsys):
    main(["run", corpus_path("map"), "--strategy", "seed:9"])
    first = capsys.readouterr().out
    main(["run", corpus_path("map"), "--strategy", "seed:9"])
    assert capsys.readouterr().out == first


def test_run_output_shows_distinct_names_distinctly(tmp_program, capsys):
    # A clashing name is shown as "<display>_<id>"; here that text is already
    # the free port's name, so the wire must get a longer one.
    path = tmp_program(
        "agent A/1; agent B/0; agent P/2; A(r) >< B => r~P(a, a);"
        "net (a_7, a, q1, q2, q3) | A(q1)~B, A(q2)~B, A(q3)~B;"
    )
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert out == "< a_7, a, P(a_7_7, a_7_7), P(a_8, a_8), P(a_9, a_9) | >\n"
    assert occurrence_violations(parse_configuration(out)) == []


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_pipeline_kinds(capsys):
    assert main(["trace", corpus_path("maybe_pick")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6  # five steps plus the final configuration
    kinds = [line.split()[1] for line in out[:5]]
    assert kinds == ["↪int", "↪com", "↪int", "↪int", "↪col"]
    assert out[-1] == "< No | >"


def test_trace_already_normal_net(tmp_program, capsys):
    path = tmp_program("agent Z/0; net (Z) | ;")
    assert main(["trace", path]) == 0
    assert capsys.readouterr().out == "< Z | >\n"


def test_trace_budget_one_step_exits_4(capsys):
    assert main(["trace", corpus_path("addition"), "--max-steps", "1"]) == 4
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].startswith("0. ")


def test_trace_json_lines(capsys):
    assert main(["trace", corpus_path("maybe_pick"), "--json"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    steps, meta = lines[:-1], lines[-1]
    assert [s["kind"] for s in steps] == [
        "interaction", "communication", "interaction", "interaction", "collect",
    ]
    assert [s["index"] for s in steps] == list(range(5))
    assert meta == {"status": "normal_form", "steps": 5, "final": "< No | >"}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_trace_matches_golden(name, capsys):
    main(["trace", corpus_path(name)])
    golden = (CORPUS / "golden" / f"{name}.trace.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def test_expand_erase_program(tmp_program, capsys):
    path = tmp_program("agent A/3; Eps >< ANY([x]) => Eps~x';")
    assert main(["expand", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # arities 0..3
    assert lines[2].startswith("Eps >< ANY(x1, x2) => Eps~x1, Eps~x2;")
    assert "expanded-from(r1, 2)" in lines[2]


def test_expand_echoes_plain_rules(tmp_program, capsys):
    path = tmp_program(corpus_text("addition"))
    assert main(["expand", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all("source" in line for line in lines)


def test_expand_prints_even_when_overlap_check_fails(tmp_program, capsys):
    path = tmp_program(
        """
        agent B/1;
        A >< ANY([x]) => A~x';
        B(q) >< ANY([x]) => Eps~x', A~q;
        agent Eps/0; Eps >< ANY([x]) => Eps~x';
        """
    )
    assert main(["expand", path]) == 1
    captured = capsys.readouterr()
    assert "E_GRC_OVERLAP" in captured.err
    assert "expanded-from" in captured.out  # expansion still shown


def test_expand_suffixes_names_from_each_equations_right_end(tmp_program, capsys):
    """Of two names shown with one text, the one met first walking each
    equation from its right end keeps the text; the other gets ``_<id>``."""
    path = tmp_program(
        "agent E/0; agent P/3; agent Eps/0; agent Q/2;"
        "E >< ANY([x]) => x'~P(y', y1, y1), Eps~ANY([y]);"
        "net () | E~Q(a, b), a~b;"
    )
    assert main(["expand", path]) == 0
    assert capsys.readouterr().out == (
        "E >< ANY => Eps~ANY;  # r1@0: expanded-from(r1, 0)\n"
        "E >< ANY(x1) => x1~P(y1_2, y1, y1), Eps~ANY(y1_2);  # r1@1: expanded-from(r1, 1)\n"
        "E >< ANY(x1, x2) => x1~P(y1_3, y1, y1), x2~P(y2, y1_6, y1_6), Eps~ANY(y1_3, y2);"
        "  # r1@2: expanded-from(r1, 2)\n"
        "E >< ANY(x1, x2, x3) => x1~P(y1_4, y1, y1), x2~P(y2, y1_8, y1_8),"
        " x3~P(y3, y1_9, y1_9), Eps~ANY(y1_4, y2, y3);  # r1@3: expanded-from(r1, 3)\n"
    )


def test_expand_duplicator_shape(capsys):
    assert main(["expand", corpus_path("dup_erase")]) == 0
    lines = capsys.readouterr().out.splitlines()
    (at2,) = [l for l in lines if l.startswith("Dup(a, b) >< ANY(x1, x2)")]
    # two range images plus one copy of the per-port equation per port
    assert at2.count("ANY(") == 3
    assert at2.count("~Dup(") == 2


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_fuzz_corpus_consistent(name, capsys):
    assert main(["fuzz", corpus_path(name), "--seeds", "20"]) == 0
    assert "confluence: 22 strategies" in capsys.readouterr().out


def test_fuzz_trivial_net(tmp_program, capsys):
    path = tmp_program("agent Z/0; net (Z) | ;")
    assert main(["fuzz", path, "--seeds", "3"]) == 0
    assert "0 step(s)" in capsys.readouterr().out


def test_fuzz_budget_starvation_exits_4(capsys):
    assert main(["fuzz", corpus_path("map"), "--seeds", "3", "--max-steps", "1"]) == 4
    assert "exhausted" in capsys.readouterr().out


def test_fuzz_divergence_exits_5(tmp_program, monkeypatch, capsys):
    # check rejects the asymmetric self rule (E_SELF_ASYM), so only an
    # unchecked table lets fuzz reach two strategies that disagree.
    import inetkit.cli

    def unchecked(rules, symbols, **options):
        analysis = analyze_rules(rules, symbols, **options)
        return Analysis(diagnostics=[], expanded_rules=analysis.expanded_rules,
                        table=build_rule_table(rules))

    monkeypatch.setattr(inetkit.cli, "analyze_rules", unchecked)
    path = tmp_program(SELF_RULE + SEEDED_ONLY_NET)
    assert main(["fuzz", path, "--seeds", "10"]) == 5
    assert capsys.readouterr() == (
        "divergence: strategy fifo reached < Z, Z, Z, Z | > in 10 step(s), "
        "strategy seed:1 reached < Z, Z, n0, n0 | Z~Z > in 9 step(s)\n"
        "--- trace under fifo\n"
        "0. ↪com x1~G(p4, w1) => G(p4, w1)~G(p6, w0)\n"
        "1. ↪com x0~G(p2, p3) => G(p2, p3)~G(w0, w1)\n"
        "2. ↪int [rule r1] G(p4, w1)~G(p6, w0) => p4~Z, w1~p6, w0~Z\n"
        "3. ↪int [rule r1] G(p2, p3)~G(w0, w1) => p2~Z, p3~w0, w1~Z\n"
        "4. ↪col p4~Z => ()\n"
        "5. ↪com w1~p6 => p6~Z\n"
        "6. ↪com w0~Z => Z~p3\n"
        "7. ↪col p2~Z => ()\n"
        "8. ↪col p6~Z => ()\n"
        "9. ↪col Z~p3 => ()\n"
        "--- trace under seed:1\n"
        "0. ↪com x1~G(p6, w0) => G(p6, w0)~G(p4, w1)\n"
        "1. ↪int [rule r1] G(p6, w0)~G(p4, w1) => p6~Z, w0~p4, w1~Z\n"
        "2. ↪com x0~G(p2, p3) => G(p2, p3)~G(w0, w1)\n"
        "3. ↪col p6~Z => ()\n"
        "4. ↪sub w1~Z => G(p2, p3)~G(w0, Z)\n"
        "5. ↪sub w0~p4 => G(p2, p3)~G(p4, Z)\n"
        "6. ↪int [rule r1] G(p2, p3)~G(p4, Z) => p2~Z, p3~p4, Z~Z\n"
        "7. ↪col p3~p4 => ()\n"
        "8. ↪col p2~Z => ()\n",
        "",
    )


def test_expand_output_reparses_cleanly(capsys):
    from inetkit import analyze_rules, parse_program

    assert main(["expand", corpus_path("dup_erase")]) == 0
    text = capsys.readouterr().out
    program = parse_program(text)
    assert not program.has_errors, [str(d) for d in program.diagnostics]
    analysis = analyze_rules(program.rules, program.symbols.values())
    assert analysis.ok


def test_check_warnings_do_not_fail(capsys):
    assert main(["check", corpus_path("dup_erase")]) == 0
    err = capsys.readouterr().err
    assert "W_SELF_GENERIC" in err and "error" not in err


# ---------------------------------------------------------------------------
# deep terms
# ---------------------------------------------------------------------------

def unary(n: int) -> str:
    return "S(" * n + "Z" + ")" * n


DEEP_ADD = f"""
agent Add/2; agent S/1; agent Z/0;
Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);
Add(y, r) >< Z => r~y;
net (r) | Add({unary(300)}, r)~{unary(300)};
"""


@pytest.fixture
def default_recursion_limit():
    """Python's default limit, which ``S^600(Z)`` is deeper than."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


def test_run_prints_a_deep_normal_form(tmp_program, capsys, default_recursion_limit):
    assert main(["run", tmp_program(DEEP_ADD)]) == 0
    assert capsys.readouterr().out == f"< {unary(600)} | >\n"


def test_fuzz_compares_deep_normal_forms(tmp_program, capsys, default_recursion_limit):
    assert main(["fuzz", tmp_program(DEEP_ADD), "--seeds", "2"]) == 0
    assert capsys.readouterr().out == (
        f"confluence: 4 strategies, 4 terminating, all agree on < {unary(600)} | > "
        "in 602 step(s)\n"
    )


def test_check_accepts_a_deep_net_literal(tmp_program, capsys, default_recursion_limit):
    text = f"agent S/1; agent Z/0; agent G/0; net () | G~{unary(10_000)};"
    assert main(["check", tmp_program(text)]) == 0
    assert capsys.readouterr().err == ""


def test_run_adds_deep_literals(tmp_program, capsys, default_recursion_limit):
    text = DEEP_ADD.replace(unary(300), unary(600))
    assert main(["run", tmp_program(text)]) == 0
    assert capsys.readouterr().out == f"< {unary(1200)} | >\n"


DEEP_RHS = f"""
agent S/1; agent Z/0; agent A/1;
A(r) >< Z => r~{unary(5_000)};
net (q) | A(q)~Z;
"""


@pytest.mark.parametrize("command", ["check", "expand"])
def test_deep_rule_right_hand_sides_check_and_expand(
    command, tmp_program, capsys, default_recursion_limit
):
    assert main([command, tmp_program(DEEP_RHS)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "expand":
        assert captured.out == f"A(r) >< Z => r~{unary(5_000)};  # r1: source\n"


def test_deep_rule_right_hand_side_runs(tmp_program, capsys, default_recursion_limit):
    assert main(["run", tmp_program(DEEP_RHS)]) == 0
    assert capsys.readouterr().out == f"< {unary(5_000)} | >\n"


def test_deep_rule_right_hand_side_fuzzes(tmp_program, capsys, default_recursion_limit):
    assert main(["fuzz", tmp_program(DEEP_RHS), "--seeds", "2"]) == 0
    assert capsys.readouterr().out == (
        f"confluence: 4 strategies, 4 terminating, all agree on < {unary(5_000)} | > "
        "in 2 step(s)\n"
    )


def test_deep_variadic_right_hand_side_expands(tmp_program, capsys, default_recursion_limit):
    deep = "S(" * 5_000 + "ANY([y])" + ")" * 5_000
    text = f"""
    agent Eps/0; agent S/1; agent Z/0; agent W/2; agent D/1;
    D(r) >< ANY([x]) => r~{deep}, x'~y';
    Eps >< ANY([x]) => Eps~x';
    Eps >< D(r) => Eps~r;
    net (q) | D(q)~W(Z, S(Z));
    """
    assert main(["expand", tmp_program(text)]) == 0
    out = capsys.readouterr().out
    wide = "S(" * 5_000 + "ANY(y1, y2)" + ")" * 5_000
    assert f"D(r) >< ANY(x1, x2) => r~{wide}, x1~y1, x2~y2;  # r1@2: expanded-from(r1, 2)" in out


# ---------------------------------------------------------------------------
# process-level behaviour
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["check", "run", "trace", "expand", "fuzz"])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_command_leaves_no_cyclic_garbage(name, command, capsys):
    """With the collector off, a command frees everything it made by
    reference counting.  The first call builds the argument parser, which
    is kept, so it runs once before the count."""
    argv = [command, corpus_path(name)]
    main(argv)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        main(argv)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_python_dash_m_runs_the_command_line():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "inetkit", "check", corpus_path("dup_erase")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "error" not in done.stderr


# ---------------------------------------------------------------------------
# output digest
# ---------------------------------------------------------------------------

_DIGEST_COMMANDS = [
    ["check"],
    ["run", "--max-steps", "60"],
    ["trace", "--max-steps", "60"],
    ["trace", "--json", "--max-steps", "60"],
    ["expand"],
    ["fuzz", "--seeds", "2", "--max-steps", "60"],
]

# Nets that share display names with rule locals, written before the rules
# and after them, so that name ids show in the output as suffixes.
_DIGEST_PROGRAMS = [
    "net (w, y) | Add(S(S(Z)), w)~S(S(Z)), Add(y, x)~x;\n"
    "Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);\nAdd(y, r) >< Z => r~y;",
    "Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);\n"
    "net (w, r) | Add(S(Z), w)~S(Z), Add(Z, r)~S(S(w0));\nAdd(y, r) >< Z => r~y;",
    "net (w) | Dup(w, x)~P(x, Z);\n"
    "Dup(a, b) >< ANY([x]) => a~ANY([y]), b~ANY([z]), x'~Dup(y', z');\n"
    "Eps >< ANY([x]) => Eps~x';\nEps >< Dup(a, b) => Eps~a, Eps~b;",
]


def test_output_digest_over_corpus_and_generated_programs(tmp_path, capsys):
    """Exit code, stdout and stderr of every command on the corpus and on
    generated programs, with small step budgets, pinned by one sha256.
    Fresh names show through their ``_<id>`` suffixes, so this pins the
    name ids the front end hands out as well."""
    texts = _DIGEST_PROGRAMS + [program_gen.program(random.Random(seed)) for seed in range(120)]
    paths = [corpus_path(name) for name in CORPUS_NAMES]
    for i, text in enumerate(texts):
        path = tmp_path / f"p{i}.inet"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    digest = hashlib.sha256()
    for i, path in enumerate(paths):
        for command in _DIGEST_COMMANDS:
            code = main([command[0], path, *command[1:]])
            out, err = capsys.readouterr()
            digest.update(repr((i, command, code, out, err)).encode())
    assert digest.hexdigest() == (
        "6de9f792e6474bbaae141037a18f4589ee26c2c65a581834e42a24cf698b6bc5"
    )
