"""Command-line driver: check, run, trace, expand, fuzz.

Exit codes are a stable contract: 0 success, 1 validation error, 2 parse or
I/O failure, 3 stuck configuration, 4 budget exhausted, 5 confluence
divergence.  A ``NetError`` that escapes a command is reported as
``error: <message>`` with exit 1.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from .core import NetError
from .engine import (
    Fifo,
    Lifo,
    Seeded,
    Strategy,
    confluence_probe,
    normalize,
    strategy_from_spec,
)
from .rules import (
    DEFAULT_ARITY_CAP,
    Analysis,
    analyze_rules,
)
from .surface import (
    SourceProgram,
    config_display,
    parse_program,
    render_configuration,
    render_equation,
    render_rule,
    render_trace,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_STUCK = 3
EXIT_BUDGET = 4
EXIT_DIVERGENT = 5


class _Exit(Exception):
    """Ends a command with the exit code it carries; the reason is printed
    where it is raised."""


def _print_diagnostics(diags) -> None:
    for d in diags:
        print(str(d), file=sys.stderr)


def _load(path: str) -> SourceProgram:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise _Exit(EXIT_INPUT)
    program = parse_program(text)
    if program.has_errors:
        _print_diagnostics(program.diagnostics)
        raise _Exit(EXIT_INPUT)
    return program


def _analyze(program: SourceProgram, cap: int, all_arities: bool = False) -> Analysis:
    analysis = analyze_rules(
        program.rules, program.symbols.values(), arity_cap=cap, all_arities=all_arities
    )
    _print_diagnostics(program.diagnostics)
    _print_diagnostics(analysis.diagnostics)
    return analysis


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _strategy(spec: str) -> Strategy:
    try:
        return strategy_from_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def cmd_check(args) -> int:
    return EXIT_OK if _analyze(_load(args.input), args.max_arity).ok else EXIT_VALIDATION


def _runnable(args):
    """The program's net, its rule table and its name supply.  Raises
    :class:`_Exit` if the program does not load, fails analysis or
    declares no net."""
    program = _load(args.input)
    analysis = _analyze(program, args.max_arity)
    if not analysis.ok:
        raise _Exit(EXIT_VALIDATION)
    if program.net is None:
        print("error: program declares no net to run", file=sys.stderr)
        raise _Exit(EXIT_VALIDATION)
    return program.net, analysis.table, program.supply


def _normalized(args, trace: bool):
    net, table, supply = _runnable(args)
    return normalize(net, table, args.strategy, budget=args.max_steps, trace=trace, supply=supply)


_STATUS_EXIT = {"normal_form": EXIT_OK, "stuck": EXIT_STUCK, "budget_exhausted": EXIT_BUDGET}


def cmd_run(args) -> int:
    outcome = _normalized(args, trace=False)
    print(render_configuration(outcome.final))
    if outcome.status == "stuck":
        disp = config_display(outcome.final)
        for eq in outcome.stuck_equations:
            print(f"stuck: {render_equation(eq, disp)}", file=sys.stderr)
    return _STATUS_EXIT[outcome.status]


def cmd_trace(args) -> int:
    outcome = _normalized(args, trace=True)
    assert outcome.trace is not None
    body = render_trace(outcome.trace, "jsonLines" if args.json else "text")
    if body:
        print(body)
    final = render_configuration(outcome.final)
    if args.json:
        final = json.dumps({"status": outcome.status, "steps": outcome.steps, "final": final})
    print(final)
    return _STATUS_EXIT[outcome.status]


def cmd_expand(args) -> int:
    analysis = _analyze(_load(args.input), args.max_arity, all_arities=True)
    # The expansion covers every arity up to the program's maximum, not just
    # those that occur, and is printed whenever the checks before the
    # overlap check pass, even if the overlap check then fails; seeing the
    # expanded rules is exactly what helps diagnose that failure.
    for rule in analysis.expanded_rules:
        origin = "source" if rule.instance_of is None else rule.origin
        print(f"{render_rule(rule)}  # {rule.id}: {origin}")
    return EXIT_OK if analysis.ok else EXIT_VALIDATION


def cmd_fuzz(args) -> int:
    net, table, _ = _runnable(args)
    strategies: list[Strategy] = [Fifo(), Lifo()]
    strategies.extend(Seeded(seed) for seed in range(args.seeds))
    report = confluence_probe(net, table, strategies, budget=args.max_steps)
    finished = report.terminated
    if not report.consistent:
        assert report.divergence is not None and report.traces is not None
        first, second = report.divergence
        print(
            f"divergence: strategy {first.strategy} reached "
            f"{render_configuration(first.canonical)} in {first.steps} step(s), "
            f"strategy {second.strategy} reached "
            f"{render_configuration(second.canonical)} in {second.steps} step(s)"
        )
        print(f"--- trace under {first.strategy}")
        print(render_trace(report.traces[0], "text"))
        print(f"--- trace under {second.strategy}")
        print(render_trace(report.traces[1], "text"))
        return EXIT_DIVERGENT
    if not finished:
        print(f"all {len(report.runs)} runs exhausted the step budget")
        return EXIT_BUDGET
    sample = finished[0]
    print(
        f"confluence: {len(report.runs)} strategies, {len(finished)} terminating, "
        f"all agree on {render_configuration(sample.canonical)} in {sample.steps} step(s)"
    )
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inet",
        description="Validate, expand, and reduce interaction-net programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_run_flags: bool = True) -> None:
        p.add_argument("input", help="path to a .inet program")
        p.add_argument(
            "--max-arity",
            type=_int_at_least(0),
            default=DEFAULT_ARITY_CAP,
            help="cap on the arity used for variadic expansion",
        )
        if with_run_flags:
            p.add_argument("--max-steps", type=_int_at_least(1), default=100_000)
            p.add_argument(
                "--strategy",
                type=_strategy,
                default=Fifo(),
                help="fifo | lifo | seed:<u64>",
            )

    p_check = sub.add_parser("check", help="validate a program")
    common(p_check, with_run_flags=False)
    p_check.set_defaults(handler=cmd_check)

    p_run = sub.add_parser("run", help="reduce the net to normal form")
    common(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_trace = sub.add_parser("trace", help="reduce and emit every step")
    common(p_trace)
    p_trace.add_argument("--json", action="store_true", help="one JSON object per line")
    p_trace.set_defaults(handler=cmd_trace)

    p_expand = sub.add_parser("expand", help="print the rule set after variadic expansion")
    common(p_expand, with_run_flags=False)
    p_expand.set_defaults(handler=cmd_expand)

    p_fuzz = sub.add_parser("fuzz", help="compare normal forms across strategies")
    common(p_fuzz)
    p_fuzz.add_argument(
        "--seeds", type=_int_at_least(0), default=200, help="number of seeded strategies"
    )
    p_fuzz.set_defaults(handler=cmd_fuzz)

    return parser


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing keeps no state in the parser, and usage
    # errors and help go to the sys.stderr and sys.stdout of the moment.
    return build_arg_parser()


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    # A command leaves no cyclic garbage, yet the cyclic collector would
    # rescan the growing heap while a wide net is parsed and reduced.  It is
    # off for the command and restored after, for callers in the process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except _Exit as exc:
        return exc.args[0]
    except NetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
