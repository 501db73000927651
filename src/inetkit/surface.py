"""Textual program format: agent declarations, rules, and initial nets.

Items are ``;``-terminated, ``#`` starts a line comment.  Agent symbols are
uppercase-initial identifiers, names lowercase-initial.  A rule is written
``LhsPattern >< LhsPattern => eq, eq, ...;`` with ``~`` between the two sides
of an equation; ``ANY`` is the wildcard agent, ``[x]`` a port range and
``x'`` one arbitrary port of ``[x]``.  ``net (t, ...) | eq, ...;`` gives the
initial configuration.
"""

from __future__ import annotations

import bisect
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

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
    Span,
    Symbol,
    VarName,
    errors_in,
)

GENERIC_KEYWORD = "ANY"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
#
# Identifiers start with an isalpha() character or "_" and go on with
# isalnum() characters or "_": exactly the characters of \w, so a run of \w
# that does not start with a decimal digit is one identifier, unless its
# first character is numeric but not decimal (such as "²").  Arities are runs
# of decimal digits (\d), which are what int() accepts.

_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"  # whitespace and comments
    r"(?:(><|=>|[()\[\],;~|'/<>])|([A-Za-z_]\w*)|(\d+)|(\w+|.)|\Z)",
    re.S,
)
_KIND = (None, "op", "ident", "nat")  # by group; group 4 goes through _scan


class _Tokens:
    """``text`` cut into tokens, as parallel lists of ``kinds`` ("ident",
    "nat", "op" or "eof"), ``texts`` and start offsets; characters that
    start no token are reported in ``diags``."""

    def __init__(self, text: str):
        self.text = text
        self.kinds: list[str] = []
        self.texts: list[str] = []
        self.starts: list[int] = []
        self.diags: list[Diagnostic] = []
        self._newlines: Optional[list[int]] = None
        kinds, texts, starts = self.kinds, self.texts, self.starts
        for m in _TOKEN.finditer(text):
            group = m.lastindex
            if group is None:  # end of input
                break
            if group < 4:
                kinds.append(_KIND[group])
                texts.append(m[group])
                starts.append(m.start(group))
            else:
                self._scan(m[group], m.start(group))
        # A comment does not advance the column, so input ending in a comment
        # ends where that comment starts.
        comment = text.find("#", text.rfind("\n") + 1)
        kinds.append("eof")
        texts.append("")
        starts.append(len(text) if comment < 0 else comment)

    def _scan(self, chunk: str, start: int) -> None:
        """Tokens of a run of word characters whose first is not ASCII, or of
        one character that starts no token, taken a character at a time."""
        i = 0
        while i < len(chunk) and not (chunk[i].isalpha() or chunk[i] == "_"):
            j = i + 1
            if chunk[i].isdecimal():
                while j < len(chunk) and chunk[j].isdecimal():
                    j += 1
                self.kinds.append("nat")
                self.texts.append(chunk[i:j])
                self.starts.append(start + i)
            else:
                self.diags.append(
                    Diagnostic(
                        "error", "E_PARSE", f"unexpected character {chunk[i]!r}", self.span(start + i)
                    )
                )
            i = j
        if i < len(chunk):
            self.kinds.append("ident")
            self.texts.append(chunk[i:])
            self.starts.append(start + i)

    def span(self, offset: int) -> Span:
        """Line and column of ``offset``; both count from 1."""
        if self._newlines is None:
            self._newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect.bisect_left(self._newlines, offset)
        line_start = self._newlines[line - 1] + 1 if line else 0
        return Span(line + 1, offset - line_start + 1)


# ---------------------------------------------------------------------------
# Untyped parse pass
# ---------------------------------------------------------------------------
#
# Terms are parsed into light tuples first so that symbol arities can be
# inferred over the whole program before typed rules are built:
#   ("name", ident) | ("vname", ident)
#   ("agent", ident, [args], range_tail, at)   range_tail: str | None
#   ("any", [args], range_tail, at)
# ``at`` is the index of the head's token.  While parsing, every agent used
# without a range tail is recorded in preorder as (symbol, arity, at).

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
    def __init__(self, tokens: _Tokens):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.pos = 0
        self.diags = tokens.diags
        self.decls: list[tuple[str, int, int]] = []
        self.rules: list[_RawRule] = []
        self.nets: list[_RawNet] = []
        # Agent uses (symbol, arity, at): of the item being parsed, with None
        # for agents that turned out to have a range tail, and of the rules
        # and nets parsed so far.
        self.uses: list[Optional[tuple[str, int, int]]] = []
        self.rule_uses: list[tuple[str, int, int]] = []
        self.net_uses: list[tuple[str, int, int]] = []

    # -- token helpers ------------------------------------------------------

    def span(self, at: int) -> Span:
        return self.tokens.span(self.tokens.starts[at])

    def take(self) -> int:
        at = self.pos
        if self.kinds[at] != "eof":
            self.pos += 1
        return at

    def at_op(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def at_name(self) -> bool:
        """At a lowercase-initial identifier."""
        return self.kinds[self.pos] == "ident" and not self.texts[self.pos][0].isupper()

    def expect_op(self, text: str) -> int:
        if self.texts[self.pos] == text:
            return self.take()
        self.fail(f"expected {text!r}")

    def fail(self, message: str) -> None:
        shown = self.texts[self.pos] or "end of input"
        self.diags.append(
            Diagnostic("error", "E_PARSE", f"{message}, found {shown!r}", self.span(self.pos))
        )
        raise _ParseFail()

    def recover(self) -> None:
        while True:
            if self.kinds[self.pos] == "eof":
                return
            if self.texts[self.take()] == ";":
                return

    def item_uses(self) -> list[tuple[str, int, int]]:
        return [u for u in self.uses if u is not None]

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> None:
        while self.kinds[self.pos] != "eof":
            self.uses = []
            try:
                self.parse_item()
            except _ParseFail:
                self.recover()

    def parse_item(self) -> None:
        text = self.texts[self.pos]
        if text == "agent":
            self.parse_agent_decl()
        elif text == "net":
            self.parse_net_decl()
        else:
            self.parse_rule_decl()

    def parse_agent_decl(self) -> None:
        self.take()  # agent
        if self.kinds[self.pos] != "ident" or self.at_name():
            self.fail("expected an agent symbol (uppercase-initial)")
        if self.texts[self.pos] == GENERIC_KEYWORD:
            self.fail(f"{GENERIC_KEYWORD} is reserved for the wildcard agent")
        name = self.take()
        self.expect_op("/")
        if self.kinds[self.pos] != "nat":
            self.fail("expected an arity")
        arity = self.take()
        self.expect_op(";")
        self.decls.append((self.texts[name], int(self.texts[arity]), name))

    def parse_rule_decl(self) -> None:
        span = self.span(self.pos)
        left = self.parse_pattern()
        self.expect_op("><")
        right = self.parse_pattern()
        self.expect_op("=>")
        eqs = self.parse_eq_list(allow_variadic=True)
        self.expect_op(";")
        self.rules.append(_RawRule(left, right, eqs, span))
        self.rule_uses += self.item_uses()

    def parse_net_decl(self) -> None:
        span = self.span(self.take())  # net
        self.expect_op("(")
        terms = self.parse_list(lambda: self.parse_term(allow_variadic=False), ")")
        self.expect_op(")")
        self.expect_op("|")
        eqs = [] if self.at_op(";") else self.parse_eq_list(allow_variadic=False)
        self.expect_op(";")
        self.nets.append(_RawNet(terms, eqs, span))
        self.net_uses += self.item_uses()

    def parse_pattern(self) -> tuple:
        if self.kinds[self.pos] != "ident" or self.at_name():
            self.fail("expected an agent symbol or ANY in a rule pattern")
        head = self.take()
        if self.texts[head] == GENERIC_KEYWORD:
            fixed: list[str] = []
            range_name: Optional[str] = None
            if self.at_op("("):
                self.take()
                while not self.at_op(")"):
                    if self.at_op("["):
                        self.take()
                        if not self.at_name():
                            self.fail("expected a range name")
                        range_name = self.texts[self.take()]
                        self.expect_op("]")
                        break
                    fixed.append(self.parse_pattern_name())
                    if self.at_op(","):
                        self.take()
                    else:
                        break
                self.expect_op(")")
            return ("anypat", fixed, range_name, head)
        params: list[str] = []
        if self.at_op("("):
            self.take()
            params.append(self.parse_pattern_name())
            while self.at_op(","):
                self.take()
                params.append(self.parse_pattern_name())
            self.expect_op(")")
        self.uses.append((self.texts[head], len(params), head))
        return ("pat", self.texts[head], params, head)

    def parse_pattern_name(self) -> str:
        if not self.at_name():
            self.fail("expected a name (lowercase-initial) as a pattern parameter")
        name = self.texts[self.take()]
        if self.at_op("'"):
            self.diags.append(
                Diagnostic(
                    "error",
                    "E_VN_IN_LHS",
                    "variadic names may only appear in a rule right-hand side",
                    self.span(self.take()),
                )
            )
        return name

    def parse_list(self, item: Callable[[], tuple], end: Optional[str]) -> list[tuple]:
        """Comma-separated items, none if at ``end``, which is not taken.
        ``end=None`` matches no token, so at least one item is parsed."""
        if self.at_op(end):
            return []
        items = [item()]
        while self.at_op(","):
            self.take()
            items.append(item())
        return items

    def parse_eq_list(self, allow_variadic: bool) -> list[tuple]:
        if self.at_op("("):  # "()" denotes an empty right-hand side
            self.take()
            self.expect_op(")")
            return []
        return self.parse_list(lambda: self.parse_equation(allow_variadic), None)

    def parse_equation(self, allow_variadic: bool) -> tuple:
        left = self.parse_term(allow_variadic)
        self.expect_op("~")
        right = self.parse_term(allow_variadic)
        return (left, right)

    def parse_term(self, allow_variadic: bool) -> tuple:
        # Agents whose argument lists are open wait on a stack, each as
        # [head, arguments so far, slot in self.uses], so term depth is not
        # bounded by the interpreter's recursion limit.  The position lives
        # in a local and is stored back before any call that reads it.
        kinds, texts, uses = self.kinds, self.texts, self.uses
        pos = self.pos
        open_agents: list[list] = []
        while True:
            if kinds[pos] != "ident":
                self.pos = pos
                self.fail("expected a term")
            head = pos
            text = texts[pos]
            pos += 1
            term: Optional[tuple] = None
            if not text[0].isupper():
                if texts[pos] == "'":
                    if not allow_variadic:
                        self._not_allowed("variadic names are not allowed here", pos)
                    pos += 1
                    term = ("vname", text)
                else:
                    term = ("name", text)
            elif texts[pos] == "(":
                pos += 1
                open_agents.append([head, [], len(uses)])
                uses.append(None)
            elif text == GENERIC_KEYWORD:
                if not allow_variadic:
                    self._not_allowed(f"{GENERIC_KEYWORD} is not allowed here", head)
                term = ("any", [], None, head)
            else:
                term = ("agent", text, [], None, head)
                uses.append((text, 0, head))
            # Hand finished terms to their agents until an argument is due.
            while True:
                if term is not None:
                    if not open_agents:
                        self.pos = pos
                        return term
                    open_agents[-1][1].append(term)
                    if texts[pos] == ",":
                        pos += 1
                        if texts[pos] != ")" and texts[pos] != "[":
                            break
                    elif texts[pos] != ")":
                        self.pos = pos
                        self.fail("expected ')'")
                elif texts[pos] != ")" and texts[pos] != "[":
                    break
                # Close the innermost agent, after its range tail if it has one.
                head, args, slot = open_agents.pop()
                range_tail = None
                if texts[pos] == "[":
                    self.pos = pos
                    range_tail = self._range_tail(allow_variadic)
                    pos = self.pos
                    if texts[pos] != ")":
                        self.fail("expected ')'")
                pos += 1
                text = texts[head]
                if text == GENERIC_KEYWORD:
                    if not allow_variadic:
                        self._not_allowed(f"{GENERIC_KEYWORD} is not allowed here", head)
                    term = ("any", args, range_tail, head)
                else:
                    term = ("agent", text, args, range_tail, head)
                    if range_tail is None:
                        uses[slot] = (text, len(args), head)

    def _not_allowed(self, message: str, at: int) -> None:
        self.diags.append(Diagnostic("error", "E_PARSE", message, self.span(at)))

    def _range_tail(self, allow_variadic: bool) -> str:
        lb = self.take()
        if not self.at_name():
            self.fail("expected a range name")
        name = self.texts[self.take()]
        self.expect_op("]")
        if not allow_variadic:
            self._not_allowed("ranges are not allowed here", lb)
        return name


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


def parse_program(text: str) -> SourceProgram:
    """Parse a whole program; diagnostics collect instead of raising.

    Symbol arities may be declared (``agent Add/2;``) or inferred from
    consistent use; conflicting uses are errors.  A program with error
    diagnostics should not be run.
    """
    parser = _Parser(_Tokens(text))
    parser.parse_program()
    diags = parser.diags

    symbols: dict[str, Symbol] = {}
    by_symbol: dict[str, dict[int, int]] = {}
    for ident, arity, at in parser.decls + parser.rule_uses + parser.net_uses:
        by_symbol.setdefault(ident, {}).setdefault(arity, at)
    for ident in sorted(by_symbol):
        arities = sorted(by_symbol[ident])
        if len(arities) > 1:
            listed = ", ".join(str(a) for a in arities)
            diags.append(
                Diagnostic(
                    "error",
                    "E_ARITY_CONFLICT",
                    f"symbol {ident} used with conflicting arities: {listed}",
                    parser.span(by_symbol[ident][arities[-1]]),
                )
            )
        symbols[ident] = Symbol(ident, arities[0])

    supply = NameSupply()
    builder = _Builder(symbols, supply, diags, parser.span)

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
    def __init__(self, symbols: dict[str, Symbol], supply: NameSupply, diags: list[Diagnostic],
                 span: Callable[[int], Span]):
        self.symbols = symbols
        self.supply = supply
        self.diags = diags
        self.span = span  # of a token index

    def _name(self, scope: dict[str, Name], ident: str) -> Name:
        if ident not in scope:
            scope[ident] = self.supply.fresh(ident)
        return scope[ident]

    def _symbol(self, ident: str, at: int) -> Symbol:
        sym = self.symbols.get(ident)
        if sym is None:
            # Only reachable for agents used exclusively with a range tail.
            self.diags.append(
                Diagnostic(
                    "error",
                    "E_ARITY_CONFLICT",
                    f"arity of {ident} cannot be inferred",
                    self.span(at),
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
            _, ident, params, at = left_raw
            left = OrdinaryPattern(
                self._symbol(ident, at), tuple(self._name(scope, p) for p in params)
            )
            right: Union[OrdinaryPattern, GenericPattern]
            if right_raw[0] == "anypat":
                _, fixed, range_name, _ = right_raw
                right = GenericPattern(
                    GENERIC_KEYWORD,
                    tuple(self._name(scope, p) for p in fixed),
                    range_name,
                )
            else:
                _, ident2, params2, at2 = right_raw
                right = OrdinaryPattern(
                    self._symbol(ident2, at2),
                    tuple(self._name(scope, p) for p in params2),
                )
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
        return Rule(rule_id, left, right, rhs, origin=str(raw.span))

    def _term(self, raw: tuple, scope: dict[str, Name], rhs: bool = False) -> Union[Term, RhsTerm]:
        """Build a net term or, with ``rhs``, a right-hand-side term from a
        raw parse tree.  Names and symbols resolve in preorder."""
        # Per open agent: its head, its range tail, its raw arguments left to
        # build and its built arguments so far; iterative, so depth is
        # unbounded.
        frames: list[tuple[Union[Symbol, GenericRef], Optional[str], Iterator[tuple], list]] = []
        while True:
            kind = raw[0]
            if kind == "name":
                term = self._name(scope, raw[1])
            elif kind == "vname" and rhs:
                term = VarName(raw[1])
            else:
                if kind == "agent" and (rhs or raw[3] is None):
                    _, ident, args, range_tail, at = raw
                    head = self._symbol(ident, at)
                elif kind == "any" and rhs:
                    _, args, range_tail, _ = raw
                    head = GenericRef(GENERIC_KEYWORD)
                else:
                    raise _BuildFail()  # parser already rejected variadic constructs here
                if args:
                    todo = iter(args)
                    raw = next(todo)
                    frames.append((head, range_tail, todo, []))
                    continue
                term = RAgent(head, (), range_tail) if rhs else Agent(head)
            # Hand the finished term to its agent until an argument is due.
            while frames:
                frame = frames[-1]
                frame[3].append(term)
                raw = next(frame[2], None)
                if raw is not None:
                    break
                frames.pop()
                head, range_tail, _, done = frame
                term = RAgent(head, tuple(done), range_tail) if rhs else Agent(head, tuple(done))
            else:
                return term

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
        text = n.display
        while text in taken:  # a suffixed text may itself be taken
            text += f"_{n.id}"
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
    parser = _Parser(_Tokens(text))
    diags = parser.diags
    try:
        parser.expect_op("<")
        terms = parser.parse_list(lambda: parser.parse_term(allow_variadic=False), "|")
        parser.expect_op("|")
        eqs = parser.parse_list(lambda: parser.parse_equation(allow_variadic=False), ">")
        parser.expect_op(">")
        if parser.kinds[parser.pos] != "eof":
            parser.fail("expected end of input")
    except _ParseFail:
        pass
    if errors_in(diags):
        raise ValueError("; ".join(str(d) for d in errors_in(diags)))

    symbols: dict[str, Symbol] = {}
    for ident, arity, _ in parser.item_uses():
        if ident in symbols and symbols[ident].arity != arity:
            raise ValueError(f"symbol {ident} used with conflicting arities")
        symbols.setdefault(ident, Symbol(ident, arity))
    builder = _Builder(symbols, NameSupply(), diags, parser.span)
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
