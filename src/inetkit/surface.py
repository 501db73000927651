"""Textual program format: agent declarations, rules, and initial nets.

Items are ``;``-terminated, ``#`` starts a line comment.  Agent symbols are
uppercase-initial identifiers, names lowercase-initial.  A rule is written
``LhsPattern >< LhsPattern => eq, eq, ...;`` with ``~`` between the two sides
of an equation; ``ANY`` is the wildcard agent, ``[x]`` a port range and
``x'`` one arbitrary port of ``[x]``.  ``net (t, ...) | eq, ...;`` gives the
initial configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .core import (
    Agent,
    CanonicalConfiguration,
    Configuration,
    Equation,
    Name,
    NameSupply,
    NetError,
    Term,
    occurrences,
    term_names,
)
from .rules import (
    Diagnostic,
    GenericPattern,
    GenericRef,
    OrdinaryPattern,
    RAgent,
    RhsTerm,
    Rule,
    RuleEquation,
    RuleKind,
    Span,
    Symbol,
    VarName,
    errors_in,
)

GENERIC_KEYWORD = "ANY"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "nat" | "op" | "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col)


_SINGLE_OPS = set("()[],;~|'/<>")


def _tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("nat", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if text.startswith("><", i) or text.startswith("=>", i):
            tokens.append(Token("op", text[i : i + 2], line, start_col))
            i += 2
            col += 2
            continue
        if c in _SINGLE_OPS:
            tokens.append(Token("op", c, line, start_col))
            i += 1
            col += 1
            continue
        diags.append(
            Diagnostic("error", "E_PARSE", f"unexpected character {c!r}", Span(line, start_col))
        )
        i += 1
        col += 1
    tokens.append(Token("eof", "", line, col))
    return tokens, diags


def _is_agent_ident(text: str) -> bool:
    return text[0].isupper()


# ---------------------------------------------------------------------------
# Untyped parse pass
# ---------------------------------------------------------------------------
#
# Terms are parsed into light tuples first so that symbol arities can be
# inferred over the whole program before typed rules are built:
#   ("name", ident, span) | ("vname", ident, span)
#   ("agent", ident, [args], range_tail, span)   range_tail: str | None
#   ("any", [args], range_tail, span)

class _ParseFail(Exception):
    pass


@dataclass
class _RawRule:
    left: tuple
    right: tuple
    rhs: list[tuple]
    span: Span


@dataclass
class _RawNet:
    terms: list[tuple]
    eqs: list[tuple]
    span: Span


class _Parser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags
        self.decls: list[tuple[str, int, Span]] = []
        self.rules: list[_RawRule] = []
        self.nets: list[_RawNet] = []

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.take()
        self.fail(f"expected {text!r}", tok)

    def fail(self, message: str, tok: Optional[Token] = None) -> None:
        tok = tok or self.peek()
        shown = tok.text or "end of input"
        self.diags.append(
            Diagnostic("error", "E_PARSE", f"{message}, found {shown!r}", tok.span)
        )
        raise _ParseFail()

    def recover(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            self.take()
            if tok.kind == "op" and tok.text == ";":
                return

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> None:
        while self.peek().kind != "eof":
            try:
                self.parse_item()
            except _ParseFail:
                self.recover()

    def parse_item(self) -> None:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "agent":
            self.parse_agent_decl()
        elif tok.kind == "ident" and tok.text == "net":
            self.parse_net_decl()
        else:
            self.parse_rule_decl()

    def parse_agent_decl(self) -> None:
        self.take()  # agent
        tok = self.peek()
        if tok.kind != "ident" or not _is_agent_ident(tok.text):
            self.fail("expected an agent symbol (uppercase-initial)")
        if tok.text == GENERIC_KEYWORD:
            self.fail(f"{GENERIC_KEYWORD} is reserved for the wildcard agent")
        name = self.take()
        self.expect_op("/")
        arity_tok = self.peek()
        if arity_tok.kind != "nat":
            self.fail("expected an arity")
        self.take()
        self.expect_op(";")
        self.decls.append((name.text, int(arity_tok.text), name.span))

    def parse_rule_decl(self) -> None:
        span = self.peek().span
        left = self.parse_pattern()
        self.expect_op("><")
        right = self.parse_pattern()
        self.expect_op("=>")
        eqs = self.parse_eq_list(allow_variadic=True)
        self.expect_op(";")
        self.rules.append(_RawRule(left, right, eqs, span))

    def parse_net_decl(self) -> None:
        span = self.peek().span
        self.take()  # net
        self.expect_op("(")
        terms: list[tuple] = []
        if not self.at_op(")"):
            terms.append(self.parse_term(allow_variadic=False))
            while self.at_op(","):
                self.take()
                terms.append(self.parse_term(allow_variadic=False))
        self.expect_op(")")
        self.expect_op("|")
        eqs: list[tuple] = []
        if not self.at_op(";"):
            eqs = self.parse_eq_list(allow_variadic=False)
        self.expect_op(";")
        self.nets.append(_RawNet(terms, eqs, span))

    def parse_pattern(self) -> tuple:
        tok = self.peek()
        if tok.kind != "ident" or not _is_agent_ident(tok.text):
            self.fail("expected an agent symbol or ANY in a rule pattern")
        head = self.take()
        if head.text == GENERIC_KEYWORD:
            fixed: list[tuple[str, Span]] = []
            range_name: Optional[str] = None
            if self.at_op("("):
                self.take()
                while not self.at_op(")"):
                    if self.at_op("["):
                        self.take()
                        rng = self.peek()
                        if rng.kind != "ident" or _is_agent_ident(rng.text):
                            self.fail("expected a range name")
                        self.take()
                        self.expect_op("]")
                        range_name = rng.text
                        break
                    fixed.append(self.parse_pattern_name())
                    if self.at_op(","):
                        self.take()
                    else:
                        break
                self.expect_op(")")
            return ("anypat", fixed, range_name, head.span)
        params: list[tuple[str, Span]] = []
        if self.at_op("("):
            self.take()
            params.append(self.parse_pattern_name())
            while self.at_op(","):
                self.take()
                params.append(self.parse_pattern_name())
            self.expect_op(")")
        return ("pat", head.text, params, head.span)

    def parse_pattern_name(self) -> tuple[str, Span]:
        tok = self.peek()
        if tok.kind != "ident" or _is_agent_ident(tok.text):
            self.fail("expected a name (lowercase-initial) as a pattern parameter")
        self.take()
        if self.at_op("'"):
            self.diags.append(
                Diagnostic(
                    "error",
                    "E_VN_IN_LHS",
                    "variadic names may only appear in a rule right-hand side",
                    self.peek().span,
                )
            )
            self.take()
        return tok.text, tok.span

    def parse_eq_list(self, allow_variadic: bool) -> list[tuple]:
        if self.at_op("("):  # "()" denotes an empty right-hand side
            self.take()
            self.expect_op(")")
            return []
        eqs = [self.parse_equation(allow_variadic)]
        while self.at_op(","):
            self.take()
            eqs.append(self.parse_equation(allow_variadic))
        return eqs

    def parse_equation(self, allow_variadic: bool) -> tuple:
        left = self.parse_term(allow_variadic)
        self.expect_op("~")
        right = self.parse_term(allow_variadic)
        return (left, right)

    def parse_term(self, allow_variadic: bool) -> tuple:
        # Agents whose argument lists are open wait on a stack, each as
        # [head token, arguments so far, range tail], so term depth is not
        # bounded by the interpreter's recursion limit.
        open_agents: list[list] = []
        while True:
            tok = self.peek()
            if tok.kind != "ident":
                self.fail("expected a term")
            self.take()
            term: Optional[tuple] = None
            if not _is_agent_ident(tok.text):
                term = self._name_term(tok, allow_variadic)
            elif self.at_op("("):
                self.take()
                open_agents.append([tok, [], None])
            else:
                term = self._agent_term(tok, [], None, allow_variadic)
            # Hand finished terms to their agents until an argument is due.
            while True:
                if term is not None:
                    if not open_agents:
                        return term
                    open_agents[-1][1].append(term)
                    if not self.at_op(","):
                        term = self._close_agent(open_agents.pop(), allow_variadic)
                        continue
                    self.take()
                if self.at_op(")"):
                    term = self._close_agent(open_agents.pop(), allow_variadic)
                elif self.at_op("["):
                    open_agents[-1][2] = self._range_tail(allow_variadic)
                    term = self._close_agent(open_agents.pop(), allow_variadic)
                else:
                    break

    def _name_term(self, tok: Token, allow_variadic: bool) -> tuple:
        if self.at_op("'"):
            prime = self.take()
            if not allow_variadic:
                self.diags.append(
                    Diagnostic(
                        "error",
                        "E_PARSE",
                        "variadic names are not allowed here",
                        prime.span,
                    )
                )
            return ("vname", tok.text, tok.span)
        return ("name", tok.text, tok.span)

    def _range_tail(self, allow_variadic: bool) -> str:
        lb = self.take()
        rng = self.peek()
        if rng.kind != "ident" or _is_agent_ident(rng.text):
            self.fail("expected a range name")
        self.take()
        self.expect_op("]")
        if not allow_variadic:
            self.diags.append(
                Diagnostic(
                    "error",
                    "E_PARSE",
                    "ranges are not allowed here",
                    lb.span,
                )
            )
        return rng.text

    def _close_agent(self, frame: list, allow_variadic: bool) -> tuple:
        self.expect_op(")")
        tok, args, range_tail = frame
        return self._agent_term(tok, args, range_tail, allow_variadic)

    def _agent_term(self, tok: Token, args: list[tuple], range_tail: Optional[str],
                    allow_variadic: bool) -> tuple:
        if tok.text == GENERIC_KEYWORD:
            if not allow_variadic:
                self.diags.append(
                    Diagnostic(
                        "error",
                        "E_PARSE",
                        f"{GENERIC_KEYWORD} is not allowed here",
                        tok.span,
                    )
                )
            return ("any", args, range_tail, tok.span)
        return ("agent", tok.text, args, range_tail, tok.span)


# ---------------------------------------------------------------------------
# Symbol resolution and typed construction
# ---------------------------------------------------------------------------

@dataclass
class SourceProgram:
    symbols: dict[str, Symbol]
    rules: list[Rule]
    net: Optional[Configuration]
    supply: NameSupply
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        return bool(errors_in(self.diagnostics))


def _term_constraints(term: tuple, out: list[tuple[str, int, Span]]) -> None:
    """Append the (symbol, arity, span) use of every agent in ``term``, in
    preorder; iterative, so depth is unbounded."""
    stack = [term]
    while stack:
        t = stack.pop()
        kind = t[0]
        if kind == "agent":
            _, ident, args, range_tail, span = t
            if range_tail is None:
                out.append((ident, len(args), span))
            stack.extend(reversed(args))
        elif kind == "any":
            stack.extend(reversed(t[1]))


def parse_program(text: str) -> SourceProgram:
    """Parse a whole program; diagnostics collect instead of raising.

    Symbol arities may be declared (``agent Add/2;``) or inferred from
    consistent use; conflicting uses are errors.  A program with error
    diagnostics should not be run.
    """
    tokens, diags = _tokenize(text)
    parser = _Parser(tokens, diags)
    parser.parse_program()

    constraints: list[tuple[str, int, Span]] = list(parser.decls)
    for raw in parser.rules:
        for pat in (raw.left, raw.right):
            if pat[0] == "pat":
                constraints.append((pat[1], len(pat[2]), pat[3]))
        for left, right in raw.rhs:
            _term_constraints(left, constraints)
            _term_constraints(right, constraints)
    for net in parser.nets:
        for t in net.terms:
            _term_constraints(t, constraints)
        for left, right in net.eqs:
            _term_constraints(left, constraints)
            _term_constraints(right, constraints)

    symbols: dict[str, Symbol] = {}
    by_symbol: dict[str, dict[int, Span]] = {}
    for ident, arity, span in constraints:
        by_symbol.setdefault(ident, {}).setdefault(arity, span)
    for ident in sorted(by_symbol):
        arities = sorted(by_symbol[ident])
        if len(arities) > 1:
            listed = ", ".join(str(a) for a in arities)
            diags.append(
                Diagnostic(
                    "error",
                    "E_ARITY_CONFLICT",
                    f"symbol {ident} used with conflicting arities: {listed}",
                    by_symbol[ident][arities[-1]],
                )
            )
        symbols[ident] = Symbol(ident, arities[0])

    supply = NameSupply()
    builder = _Builder(symbols, supply, diags)

    rules: list[Rule] = []
    for idx, raw in enumerate(parser.rules, start=1):
        rule = builder.build_rule(raw, f"r{idx}")
        if rule is not None:
            rules.append(rule)

    net: Optional[Configuration] = None
    if len(parser.nets) > 1:
        diags.append(
            Diagnostic(
                "error",
                "E_PARSE",
                "a program may declare at most one net",
                parser.nets[1].span,
            )
        )
    if parser.nets:
        net = builder.build_net(parser.nets[0])

    return SourceProgram(symbols, rules, net, supply, diags)


class _BuildFail(Exception):
    """Typed construction failed; a diagnostic has already been emitted."""


class _Builder:
    def __init__(self, symbols: dict[str, Symbol], supply: NameSupply, diags: list[Diagnostic]):
        self.symbols = symbols
        self.supply = supply
        self.diags = diags

    def _name(self, scope: dict[str, Name], ident: str) -> Name:
        if ident not in scope:
            scope[ident] = self.supply.fresh(ident)
        return scope[ident]

    def _symbol(self, ident: str, span: Span) -> Symbol:
        sym = self.symbols.get(ident)
        if sym is None:
            # Only reachable for agents used exclusively with a range tail.
            self.diags.append(
                Diagnostic(
                    "error",
                    "E_ARITY_CONFLICT",
                    f"arity of {ident} cannot be inferred",
                    span,
                )
            )
            raise _BuildFail()
        return sym

    def build_rule(self, raw: _RawRule, rule_id: str) -> Optional[Rule]:
        left_raw, right_raw = raw.left, raw.right
        if left_raw[0] == "anypat" and right_raw[0] == "anypat":
            self.diags.append(
                Diagnostic(
                    "error",
                    "E_TWO_GENERIC",
                    f"rule {rule_id}: at most one side of an active pair may be generic",
                    raw.span,
                )
            )
            return None
        if left_raw[0] == "anypat":
            left_raw, right_raw = right_raw, left_raw

        scope: dict[str, Name] = {}
        try:
            assert left_raw[0] == "pat"
            _, ident, params, span = left_raw
            left = OrdinaryPattern(
                self._symbol(ident, span), tuple(self._name(scope, p) for p, _ in params)
            )
            right: Union[OrdinaryPattern, GenericPattern]
            if right_raw[0] == "anypat":
                _, fixed, range_name, _ = right_raw
                right = GenericPattern(
                    GENERIC_KEYWORD,
                    tuple(self._name(scope, p) for p, _ in fixed),
                    range_name,
                )
                kind = RuleKind.VARIADIC if range_name else RuleKind.FIXED_GENERIC
            else:
                _, ident2, params2, span2 = right_raw
                right = OrdinaryPattern(
                    self._symbol(ident2, span2),
                    tuple(self._name(scope, p) for p, _ in params2),
                )
                kind = RuleKind.ORDINARY
            rhs = tuple(
                RuleEquation(self._term(l, scope, rhs=True), self._term(r, scope, rhs=True))
                for l, r in raw.rhs
            )
        except _BuildFail:
            return None
        except NetError:
            # Pattern length disagrees with the symbol's resolved arity; the
            # conflicting uses were already reported.
            return None
        return Rule(rule_id, left, right, rhs, kind, origin=str(raw.span))

    def _term(self, raw: tuple, scope: dict[str, Name], rhs: bool = False) -> Union[Term, RhsTerm]:
        """Build a net term or, with ``rhs``, a right-hand-side term from a
        raw parse tree.  Names and symbols resolve in preorder."""
        # Per open agent: its head, its range tail, its raw arguments left to
        # build and its built arguments so far; iterative, so depth is
        # unbounded.
        frames: list[tuple[Union[Symbol, GenericRef], Optional[str], Iterator[tuple], list]] = []
        while True:
            kind = raw[0]
            term = None
            if kind == "name":
                term = self._name(scope, raw[1])
            elif kind == "agent" and (rhs or raw[3] is None):
                _, ident, args, range_tail, span = raw
                frames.append((self._symbol(ident, span), range_tail, iter(args), []))
            elif kind == "any" and rhs:
                _, args, range_tail, _ = raw
                frames.append((GenericRef(GENERIC_KEYWORD), range_tail, iter(args), []))
            elif kind == "vname" and rhs:
                term = VarName(raw[1])
            else:
                raise _BuildFail()  # parser already rejected variadic constructs here
            while True:
                if term is not None:
                    if not frames:
                        return term
                    frames[-1][3].append(term)
                head, range_tail, todo, done = frames[-1]
                nxt = next(todo, None)
                if nxt is not None:
                    raw = nxt
                    break
                frames.pop()
                term = RAgent(head, tuple(done), range_tail) if rhs else Agent(head, tuple(done))

    def build_net(self, raw: _RawNet) -> Optional[Configuration]:
        scope: dict[str, Name] = {}
        try:
            interface = [self._term(t, scope) for t in raw.terms]
            equations = [
                Equation(self._term(l, scope), self._term(r, scope))
                for l, r in raw.eqs
            ]
        except _BuildFail:
            return None
        except NetError:
            return None
        config = Configuration(interface, equations)
        counts = occurrences(config)
        interface_names = {n for t in interface for n in term_names(t)}
        for name, count in counts.items():
            if count > 2:
                self.diags.append(
                    Diagnostic(
                        "error",
                        "E_NAME_COUNT",
                        f"name {name.display} occurs {count} times in the net "
                        f"(at most twice allowed)",
                        raw.span,
                    )
                )
            elif count == 1 and name not in interface_names:
                self.diags.append(
                    Diagnostic(
                        "warning",
                        "W_DANGLING_NAME",
                        f"name {name.display} occurs once outside the interface",
                        raw.span,
                    )
                )
        return config


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

AnyConfiguration = Union[Configuration, CanonicalConfiguration]


def _display_names(names) -> dict[Name, str]:
    disp: dict[Name, str] = {}
    taken: set[str] = set()
    for n in names:
        if n in disp:
            continue
        text = n.display if n.display not in taken else f"{n.display}_{n.id}"
        disp[n] = text
        taken.add(text)
    return disp


def _config_display(config: AnyConfiguration) -> dict[Name, str]:
    names = []
    for t in config.interface:
        names.extend(term_names(t))
    for eq in config.equations:
        names.extend(term_names(eq.left))
        names.extend(term_names(eq.right))
    return _display_names(names)


def render_term(t: Term, disp: Optional[dict[Name, str]] = None) -> str:
    """``S(x, Z)`` form of a term; iterative, so depth is unbounded."""
    if isinstance(t, Name):
        return disp[t] if disp else t.display
    if not t.args:
        return t.symbol.name
    out: list[str] = []
    stack: list[Union[Term, str]] = [t]  # a str is literal punctuation
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, Name):
            out.append(disp[u] if disp else u.display)
        elif not u.args:
            out.append(u.symbol.name)
        else:
            out.append(u.symbol.name + "(")
            args = u.args
            stack.append(")")
            stack.append(args[-1])
            for a in args[-2::-1]:
                stack.append(", ")
                stack.append(a)
    return "".join(out)


def render_equation(eq: Equation, disp: Optional[dict[Name, str]] = None) -> str:
    return f"{render_term(eq.left, disp)}~{render_term(eq.right, disp)}"


def render_configuration(config: AnyConfiguration) -> str:
    """ASCII configuration form ``< t1, t2 | e1, e2 >``."""
    disp = _config_display(config)
    parts = ["<"]
    if config.interface:
        parts.append(", ".join(render_term(t, disp) for t in config.interface))
    parts.append("|")
    if config.equations:
        parts.append(", ".join(render_equation(eq, disp) for eq in config.equations))
    parts.append(">")
    return " ".join(parts)


def parse_configuration(text: str) -> Configuration:
    """Parse the ``< ... | ... >`` form produced by render_configuration."""
    tokens, diags = _tokenize(text)
    parser = _Parser(tokens, diags)
    try:
        parser.expect_op("<")
        terms: list[tuple] = []
        if not parser.at_op("|"):
            terms.append(parser.parse_term(allow_variadic=False))
            while parser.at_op(","):
                parser.take()
                terms.append(parser.parse_term(allow_variadic=False))
        parser.expect_op("|")
        eqs: list[tuple] = []
        if not parser.at_op(">"):
            eqs.append(parser.parse_equation(allow_variadic=False))
            while parser.at_op(","):
                parser.take()
                eqs.append(parser.parse_equation(allow_variadic=False))
        parser.expect_op(">")
    except _ParseFail:
        pass
    if errors_in(diags):
        raise ValueError("; ".join(str(d) for d in errors_in(diags)))

    constraints: list[tuple[str, int, Span]] = []
    for t in terms:
        _term_constraints(t, constraints)
    for l, r in eqs:
        _term_constraints(l, constraints)
        _term_constraints(r, constraints)
    symbols: dict[str, Symbol] = {}
    for ident, arity, _ in constraints:
        if ident in symbols and symbols[ident].arity != arity:
            raise ValueError(f"symbol {ident} used with conflicting arities")
        symbols.setdefault(ident, Symbol(ident, arity))
    builder = _Builder(symbols, NameSupply(), diags)
    scope: dict[str, Name] = {}
    return Configuration(
        [builder._term(t, scope) for t in terms],
        [Equation(builder._term(l, scope), builder._term(r, scope)) for l, r in eqs],
    )


def render_rhs_term(t: RhsTerm, disp: dict[Name, str]) -> str:
    """Surface form of a right-hand-side term; iterative, so depth is unbounded."""
    out: list[str] = []
    stack: list[Union[RhsTerm, str]] = [t]  # a str is literal text
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, Name):
            out.append(disp.get(u, u.display))
        elif isinstance(u, VarName):
            out.append(f"{u.range_name}'")
        else:
            head = GENERIC_KEYWORD if isinstance(u.head, GenericRef) else u.head.name
            inner: list[Union[RhsTerm, str]] = list(u.args)
            if u.range_tail is not None:
                inner.append(f"[{u.range_tail}]")
            if not inner:
                out.append(head)
                continue
            out.append(head + "(")
            stack.append(")")
            stack.append(inner[-1])
            for a in inner[-2::-1]:
                stack.append(", ")
                stack.append(a)
    return "".join(out)


def _pattern_display(p: Union[OrdinaryPattern, GenericPattern], disp: dict[Name, str]) -> str:
    if isinstance(p, OrdinaryPattern):
        if not p.params:
            return p.symbol.name
        return f"{p.symbol.name}({', '.join(disp.get(n, n.display) for n in p.params)})"
    inner = [disp.get(n, n.display) for n in p.fixed_params]
    if p.range_name is not None:
        inner.append(f"[{p.range_name}]")
    if not inner:
        return p.generic_name
    return f"{p.generic_name}({', '.join(inner)})"


def render_rule(rule: Rule) -> str:
    """Rule in surface syntax (without its trailing origin annotation)."""
    names = list(rule.params)
    for eq in rule.rhs:
        stack: list[RhsTerm] = [eq.left, eq.right]
        while stack:
            part = stack.pop()
            if isinstance(part, Name):
                names.append(part)
            elif isinstance(part, RAgent):
                stack.extend(part.args)
    disp = _display_names(names)
    body = ", ".join(
        f"{render_rhs_term(eq.left, disp)}~{render_rhs_term(eq.right, disp)}" for eq in rule.rhs
    )
    lhs = f"{_pattern_display(rule.left, disp)} >< {_pattern_display(rule.right, disp)}"
    return f"{lhs} => {body if body else '()'};"


_KIND_SHORT = {
    "communication": "com",
    "substitution": "sub",
    "collect": "col",
    "interaction": "int",
}


def render_trace(trace: Sequence, fmt: str = "text") -> str:
    """Line-oriented trace rendering: ``text`` or ``jsonLines``."""
    lines = []
    for i, step in enumerate(trace):
        names = list(term_names(step.equation_before.left))
        names += term_names(step.equation_before.right)
        for eq in step.equations_after:
            names += term_names(eq.left)
            names += term_names(eq.right)
        disp = _display_names(names)
        before = render_equation(step.equation_before, disp)
        after = [render_equation(eq, disp) for eq in step.equations_after]
        if fmt == "jsonLines":
            lines.append(
                json.dumps(
                    {
                        "index": i,
                        "kind": step.kind,
                        "rule": step.rule_id,
                        "before": before,
                        "after": after,
                    }
                )
            )
        else:
            rule_part = f" [rule {step.rule_id}]" if step.rule_id else ""
            shown = ", ".join(after) if after else "()"
            lines.append(f"{i}. ↪{_KIND_SHORT[step.kind]}{rule_part} {before} => {shown}")
    return "\n".join(lines)
