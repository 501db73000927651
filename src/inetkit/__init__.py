"""Interpreter and static checker for an interaction-net equation calculus
with generic and variadic rules."""

from .core import (
    Agent,
    CanonicalConfiguration,
    Configuration,
    Equation,
    IllFormedError,
    Name,
    NameSupply,
    NetError,
    Symbol,
    Term,
    canonicalize,
    occurrence_violations,
    occurrences,
    substitute,
)
from .engine import (
    ConfluenceReport,
    Fifo,
    Lifo,
    NormalizeOutcome,
    Reducer,
    Seeded,
    StepResult,
    Strategy,
    confluence_probe,
    instantiate_fixed_generic,
    instantiate_ordinary,
    normalize,
    strategy_from_spec,
)
from .rules import (
    Analysis,
    Diagnostic,
    GenericPattern,
    GenericRef,
    Match,
    OrdinaryPattern,
    RAgent,
    Rule,
    RuleEquation,
    RuleKind,
    RuleTable,
    Span,
    VarName,
    analyze_rules,
    build_rule_table,
    check_grc,
    check_no_ambiguity,
    expand_variadic,
    lookup,
    validate_linearity,
)
from .surface import (
    SourceProgram,
    parse_configuration,
    parse_program,
    render_configuration,
    render_equation,
    render_rule,
    render_term,
    render_trace,
)

__version__ = "0.1.0"
