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
from typing import Callable, Optional, Sequence, Union

from .core import (
    Agent,
    CanonicalConfiguration,
    Configuration,
    Equation,
    Name,
    NameSupply,
    Term,
    config_names,
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
# Parser
# ---------------------------------------------------------------------------
#
# The parser builds typed terms as it reads: ``Agent``s and ``Equation``s in
# nets, patterns, ``RAgent``s and ``RuleEquation``s in rules.  An agent gets
# the symbol of the arity it is written with; ``parse_program`` settles the
# program's symbols once every item is read.  While parsing, every agent used
# without a range tail is recorded in preorder as (symbol, arity, at), ``at``
# being the index of its head's token.
#
# Each rule draws its name ids from where the rules before it stopped: its
# concrete pattern's parameters first, then the other pattern's, then the
# right-hand side in reading order.  A net draws its own from there too, and
# ``finish_net`` moves them behind the names of the rules read after it.

class _ParseFail(Exception):
    pass


_WILDCARD = GenericRef(GENERIC_KEYWORD)


class _Parser:
    def __init__(self, tokens: _Tokens):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.pos = 0
        self.diags = tokens.diags
        self.decls: list[tuple[str, int, int]] = []
        # Per rule: its patterns, right-hand side, span and the concrete
        # agents of its right-hand side with their head tokens.  Per net:
        # the configuration (None if it holds what nets forbid), its span,
        # the id of its first name, its names and its agent uses.
        self.rules: list[tuple] = []
        self.nets: list[tuple] = []
        # Agent uses (symbol, arity, at): of the item being parsed, with None
        # for agents that turned out to have a range tail, and of the rules
        # and nets parsed so far.
        self.uses: list[Optional[tuple[str, int, int]]] = []
        self.rule_uses: list[tuple[str, int, int]] = []
        self.net_uses: list[tuple[str, int, int]] = []
        self.interned: dict[tuple[str, int], Symbol] = {}
        self.next_id = 0  # of the first name of the next rule
        # Of the item being parsed: names by identifier, where they are
        # drawn from, the concrete agents of a right-hand side, and whether
        # the item uses a construct it may not.
        self.scope: dict[str, Name] = {}
        self.supply = NameSupply()
        self.heads: list[tuple[RAgent, int]] = []
        self.forbidden = False

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

    # -- typed construction -------------------------------------------------

    def begin_item(self) -> None:
        self.scope = {}
        self.supply = NameSupply(self.next_id)
        self.heads = []
        self.forbidden = False

    def name(self, ident: str) -> Name:
        name = self.scope.get(ident)
        if name is None:
            name = self.scope[ident] = self.supply.fresh(ident)
        return name

    def symbol(self, ident: str, arity: int) -> Symbol:
        """One shared ``Symbol`` per symbol and arity."""
        sym = self.interned.get((ident, arity))
        if sym is None:
            sym = self.interned[ident, arity] = Symbol(ident, arity)
        return sym

    def agent(self, head: int, args: tuple, range_tail: Optional[str], rhs: bool, slot: int):
        """The agent headed by token ``head``: an ``RAgent`` in a rule's
        right-hand side, else an ``Agent``.  Its use goes into ``slot`` of
        ``self.uses``."""
        text = self.texts[head]
        if text == GENERIC_KEYWORD:
            if rhs:
                return RAgent(_WILDCARD, args, range_tail)
            self._not_allowed(f"{GENERIC_KEYWORD} is not allowed here", head)
        elif range_tail is None:
            self.uses[slot] = (text, len(args), head)
        sym = self.symbol(text, len(args))
        if not rhs:
            return Agent(sym, args)
        # A range-tailed agent's symbol is known once the program is read.
        agent = RAgent(sym if range_tail is None else None, args, range_tail)
        self.heads.append((agent, head))
        return agent

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
        first = self.parse_pattern()
        self.expect_op("><")
        second = self.parse_pattern()
        self.expect_op("=>")
        if first[0] == GENERIC_KEYWORD:  # the wildcard goes on the right
            first, second = second, first
        self.begin_item()
        left, right = self.pattern(*first), self.pattern(*second)
        rhs = self.parse_eq_list(rhs=True)
        self.expect_op(";")
        self.rules.append((left, right, tuple(rhs), span, self.heads))
        self.rule_uses += self.item_uses()
        self.next_id = self.supply.next_id

    def parse_net_decl(self) -> None:
        span = self.span(self.take())  # net
        self.begin_item()
        self.expect_op("(")
        interface = self.parse_list(lambda: self.parse_term(rhs=False), ")")
        self.expect_op(")")
        self.expect_op("|")
        eqs = [] if self.at_op(";") else self.parse_eq_list(rhs=False)
        self.expect_op(";")
        config = None if self.forbidden else Configuration(interface, eqs)
        uses = self.item_uses()
        self.nets.append((config, span, self.next_id, self.scope, uses))
        self.net_uses += uses

    def parse_pattern(self) -> tuple[str, list[str], Optional[str]]:
        """A pattern's symbol, parameters and range; its names are drawn
        once both patterns are read."""
        if self.kinds[self.pos] != "ident" or self.at_name():
            self.fail("expected an agent symbol or ANY in a rule pattern")
        head = self.take()
        text = self.texts[head]
        params: list[str] = []
        range_name: Optional[str] = None
        if text == GENERIC_KEYWORD:
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
                    params.append(self.parse_pattern_name())
                    if self.at_op(","):
                        self.take()
                    else:
                        break
                self.expect_op(")")
            return text, params, range_name
        if self.at_op("("):
            self.take()
            params.append(self.parse_pattern_name())
            while self.at_op(","):
                self.take()
                params.append(self.parse_pattern_name())
            self.expect_op(")")
        self.uses.append((text, len(params), head))
        return text, params, None

    def pattern(self, text: str, params: list[str], range_name: Optional[str]):
        names = tuple(self.name(p) for p in params)
        if text == GENERIC_KEYWORD:
            return GenericPattern(GENERIC_KEYWORD, names, range_name)
        return OrdinaryPattern(self.symbol(text, len(names)), names)

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

    def parse_list(self, item: Callable[[], object], end: Optional[str]) -> list:
        """Comma-separated items, none if at ``end``, which is not taken.
        ``end=None`` matches no token, so at least one item is parsed."""
        if self.at_op(end):
            return []
        items = [item()]
        while self.at_op(","):
            self.take()
            items.append(item())
        return items

    def parse_eq_list(self, rhs: bool) -> list:
        if self.at_op("("):  # "()" denotes an empty right-hand side
            self.take()
            self.expect_op(")")
            return []
        return self.parse_list(lambda: self.parse_equation(rhs), None)

    def parse_equation(self, rhs: bool) -> Union[Equation, RuleEquation]:
        left = self.parse_term(rhs)
        self.expect_op("~")
        right = self.parse_term(rhs)
        return RuleEquation(left, right) if rhs else Equation(left, right)

    def parse_term(self, rhs: bool) -> Union[Term, RhsTerm]:
        """A right-hand-side term with ``rhs``, else a net term."""
        # Agents whose argument lists are open wait on a stack, each as
        # [head, arguments so far, slot in self.uses], so term depth is not
        # bounded by the interpreter's recursion limit.  The position lives
        # in a local and is stored back before any call that reads it.
        kinds, texts, uses, scope = self.kinds, self.texts, self.uses, self.scope
        pos = self.pos
        open_agents: list[list] = []
        while True:
            if kinds[pos] != "ident":
                self.pos = pos
                self.fail("expected a term")
            head = pos
            text = texts[pos]
            pos += 1
            term = None
            if not text[0].isupper():
                if texts[pos] == "'":
                    if rhs:
                        term = VarName(text)
                    else:
                        self._not_allowed("variadic names are not allowed here", pos)
                    pos += 1
                if term is None:
                    term = scope.get(text) or self.name(text)
            elif texts[pos] == "(":
                pos += 1
                open_agents.append([head, [], len(uses)])
                uses.append(None)
            else:
                uses.append(None)
                term = self.agent(head, (), None, rhs, len(uses) - 1)
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
                    range_tail = self._range_tail(rhs)
                    pos = self.pos
                    if texts[pos] != ")":
                        self.fail("expected ')'")
                pos += 1
                term = self.agent(head, tuple(args), range_tail, rhs, slot)

    def _not_allowed(self, message: str, at: int) -> None:
        self.forbidden = True
        self.diags.append(Diagnostic("error", "E_PARSE", message, self.span(at)))

    def _range_tail(self, rhs: bool) -> str:
        lb = self.take()
        if not self.at_name():
            self.fail("expected a range name")
        name = self.texts[self.take()]
        self.expect_op("]")
        if not rhs:
            self._not_allowed("ranges are not allowed here", lb)
        return name

    # -- once every item is read ----------------------------------------------

    def finish_rule(self, rule_id: str, symbols: dict[str, Symbol], left, right,
                    rhs: tuple[RuleEquation, ...], span: Span,
                    heads: list[tuple[RAgent, int]]) -> Optional[Rule]:
        """The rule, given the program's symbols; None, with a diagnostic
        unless the arity conflict behind it was reported already, if it has
        two wildcards, a pattern at another arity than its symbol's, or a
        range-tailed agent whose arity cannot be inferred."""
        if isinstance(left, GenericPattern):
            self.diags.append(
                Diagnostic(
                    "error",
                    "E_TWO_GENERIC",
                    f"rule {rule_id}: at most one side of an active pair may be generic",
                    span,
                )
            )
            return None
        for p in (left, right):
            if isinstance(p, OrdinaryPattern) and symbols[p.symbol.name] != p.symbol:
                return None
        unknown = [at for _, at in heads if self.texts[at] not in symbols]
        if unknown:
            at = min(unknown)  # the first in reading order
            self.diags.append(
                Diagnostic(
                    "error",
                    "E_ARITY_CONFLICT",
                    f"arity of {self.texts[at]} cannot be inferred",
                    self.span(at),
                )
            )
            return None
        # Right-hand-side agents take the program's symbol, even where they
        # are written at a conflicting arity.  Only such agents and those
        # with a range tail get a new head, in place, before anything reads it.
        for agent, at in heads:
            sym = symbols[self.texts[at]]
            if agent.head is not sym:
                object.__setattr__(agent, "head", sym)
        return Rule(rule_id, left, right, rhs, origin=str(span))

    def finish_net(self, symbols: dict[str, Symbol], config: Optional[Configuration],
                   span: Span, start: int, scope: dict[str, Name],
                   uses: list[tuple[str, int, int]]) -> Optional[Configuration]:
        """The net, its names numbered behind every rule's; None if it
        holds a construct nets forbid or an agent at a conflicting arity."""
        if config is None or any(symbols[ident].arity != arity for ident, arity, _ in uses):
            return None
        shift = self.next_id - start  # ids drawn by rules read after the net
        if shift:
            for name in scope.values():
                object.__setattr__(name, "id", name.id + shift)
        self.next_id += len(scope)
        counts = occurrences(config)
        interface_names = {n for t in config.interface for n in term_names(t)}
        for name, count in counts.items():
            if count > 2:
                self.diags.append(
                    Diagnostic(
                        "error",
                        "E_NAME_COUNT",
                        f"name {name.display} occurs {count} times in the net "
                        f"(at most twice allowed)",
                        span,
                    )
                )
            elif count == 1 and name not in interface_names:
                self.diags.append(
                    Diagnostic(
                        "warning",
                        "W_DANGLING_NAME",
                        f"name {name.display} occurs once outside the interface",
                        span,
                    )
                )
        return config


# ---------------------------------------------------------------------------
# Programs
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
        symbols[ident] = parser.symbol(ident, arities[0])

    rules: list[Rule] = []
    for idx, item in enumerate(parser.rules, start=1):
        rule = parser.finish_rule(f"r{idx}", symbols, *item)
        if rule is not None:
            rules.append(rule)

    if len(parser.nets) > 1:
        diags.append(
            Diagnostic(
                "error",
                "E_PARSE",
                "a program may declare at most one net",
                parser.nets[1][1],
            )
        )
    net = parser.finish_net(symbols, *parser.nets[0]) if parser.nets else None
    return SourceProgram(symbols, rules, net, NameSupply(parser.next_id), diags)


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


def render_term(t: Union[Term, RhsTerm], disp: Optional[dict[Name, str]] = None) -> str:
    """``S(x, Z)`` form of a net or right-hand-side term, names shown as in
    ``disp`` where it has them; iterative, so depth is unbounded."""
    if disp is None:
        disp = {}
    out: list[str] = []
    stack: list[Union[Term, RhsTerm, str]] = [t]  # a str is literal text
    while stack:
        u = stack.pop()
        cls = u.__class__
        if cls is str:
            out.append(u)
        elif cls is Name:
            out.append(disp.get(u, u.display))
        elif cls is VarName:
            out.append(f"{u.range_name}'")
        else:
            if cls is Agent:
                head, inner = u.symbol.name, u.args
            else:
                head = GENERIC_KEYWORD if u.head.__class__ is GenericRef else u.head.name
                inner = u.args if u.range_tail is None else (*u.args, f"[{u.range_tail}]")
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


def render_equation(eq: Union[Equation, RuleEquation],
                    disp: Optional[dict[Name, str]] = None) -> str:
    return f"{render_term(eq.left, disp)}~{render_term(eq.right, disp)}"


def render_configuration(config: AnyConfiguration) -> str:
    """ASCII configuration form ``< t1, t2 | e1, e2 >``."""
    disp = _display_names(config_names(config))
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
    try:
        parser.expect_op("<")
        interface = parser.parse_list(lambda: parser.parse_term(rhs=False), "|")
        parser.expect_op("|")
        eqs = parser.parse_list(lambda: parser.parse_equation(rhs=False), ">")
        parser.expect_op(">")
        if parser.kinds[parser.pos] != "eof":
            parser.fail("expected end of input")
    except _ParseFail:
        pass
    if errors_in(parser.diags):
        raise ValueError("; ".join(str(d) for d in errors_in(parser.diags)))
    arities: dict[str, int] = {}
    for ident, arity, _ in parser.item_uses():
        if arities.setdefault(ident, arity) != arity:
            raise ValueError(f"symbol {ident} used with conflicting arities")
    return Configuration(interface, eqs)


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
    body = ", ".join(render_equation(eq, disp) for eq in rule.rhs)
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
