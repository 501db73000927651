"""Textual program format: agent declarations, rules, and initial nets.

Items are ``;``-terminated, ``#`` starts a line comment.  Agent symbols are
uppercase-initial identifiers, names lowercase-initial.  A rule is written
``LhsPattern >< LhsPattern => eq, eq, ...;`` with ``~`` between the two sides
of an equation; ``ANY`` is the wildcard agent, ``[x]`` a port range and
``x'`` one arbitrary port of ``[x]``.  ``net (t, ...) | eq, ...;`` gives the
initial configuration.  :func:`parse_program` reads the net into a flat
program whose names are slots; its terms and names are made on the first
read of :attr:`SourceProgram.net`.
"""

from __future__ import annotations

import bisect
import json
import re
import sys
from collections import Counter
from typing import Callable, Optional, Sequence, Union

from .core import (
    Agent,
    CanonicalConfiguration,
    Configuration,
    Equation,
    Name,
    NameSupply,
    Record,
    Term,
    config_names,
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
    stamp,
)

GENERIC_KEYWORD = "ANY"

# The most digits int() reads; 0, as on Pythons before 3.10.7, for no limit.
_int_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
#
# Identifiers start with an isalpha() character or "_" and go on with
# isalnum() characters or "_": exactly the characters of \w, so a run of \w
# that does not start with a decimal digit is one identifier, unless its
# first character is numeric but not decimal (such as "²").  Arities are runs
# of decimal digits (\d), which are what int() accepts.  So a token's kind is
# its first character's: an operator character, a letter or "_" (an
# identifier), or a decimal digit (an arity); the parser reads it from there.
#
# Text is cut on one of two paths, which give the same tokens.  Plain text,
# which is all the shipped and generated programs, is cut by str methods:
# outside comments it holds only ASCII whitespace, letters, digits, "_" and
# the operator characters; "<", ">" and "=" only inside "><" and "=>", and
# no "=><", whose cut depends on reading from the left; and no digit run
# that runs into a letter, such as "1a", which is a number and a name.
# Spaced around every operator, such text splits into its tokens.  Any
# other text goes through _TOKEN a token at a time: only that loop cuts
# non-ASCII identifiers, reports characters that start no token, and finds
# the offset of a token that opens no item (_Tokens.start).

_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"  # whitespace and comments
    r"(?:(><|=>|[()\[\],;~|'/<>])|([A-Za-z_]\w*)|(\d+)|(\w+|.)|\Z)",
    re.S,
)
_COMMENT = re.compile(r"#[^\n]*")
_ITEM_END = re.compile(r";[ \t\r\n]*")  # a ";" and the space after it
_NUMBER_NAME = re.compile(r"\b[0-9]+[A-Za-z_]")
_OPERATORS = ("(", ")", "[", "]", ",", ";", "~", "|", "'", "/")
# Each ASCII character's class in plain text: "a" a letter or "_", "0" a
# digit, " " a space or an operator character, "?" any other.
_SHAPE = str.maketrans({
    **dict.fromkeys(map(chr, range(128)), "?"),
    **dict.fromkeys(" \t\r\n()[],;~|'/<>=", " "),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "a"),
    **dict.fromkeys("0123456789", "0"),
})


def _plain(text: str) -> Optional[str]:
    """``text`` with its comments blanked out, if it is plain (see above),
    else None."""
    if "#" in text:
        text = _COMMENT.sub(lambda comment: " " * len(comment[0]), text)
    if not text.isascii():
        return None
    shape = text.translate(_SHAPE)
    # A digit before a letter is mostly inside a name, such as "x1a".
    if "?" in shape or "0a" in shape and _NUMBER_NAME.search(text):
        return None
    cuts, arrows = text.count("><"), text.count("=>")
    if (text.count("<") != cuts or text.count("=") != arrows
            or text.count(">") != cuts + arrows or "=><" in text):
        return None
    return text


class _Tokens:
    """``text`` cut into the token ``texts``, the last of them "" for the
    end of input; characters that start no token are reported in
    ``diags``.  Start offsets are kept only for the tokens that open an
    item, the first and each right after a ``;``: outside a diagnostic, no
    other token's span is read.  :meth:`start` finds any other by cutting
    its item again.

    Plain text (see above) is cut by str methods: spaced around every
    operator, then split.  Any other text is cut a token at a time by
    :data:`_TOKEN`, the one path that knows every character; it stays for
    such text, for its diagnostics, and to find the offsets the split does
    not record."""

    def __init__(self, text: str):
        self.text = text
        self.diags: list[Diagnostic] = []
        self._newlines: Optional[list[int]] = None
        # By token index: the starts of the tokens that open an item, of
        # "eof", and of those :meth:`start` found; their indices in order.
        self._starts: dict[int, int] = {}
        self._known: Optional[list[int]] = None
        plain = _plain(text)
        if plain is None:
            self._scan(text)
        else:
            self._cut(plain)
        # A comment does not advance the column, so input ending in a comment
        # ends where that comment starts.
        comment = text.find("#", text.rfind("\n") + 1)
        self._starts[len(self.texts)] = len(text) if comment < 0 else comment
        self.texts.append("")

    def _cut(self, plain: str) -> None:
        """Cut ``plain``, text as :func:`_plain` returns it."""
        spaced = plain.replace("><", " >< ").replace("=>", " => ")
        for op in _OPERATORS:
            spaced = spaced.replace(op, f" {op} ")
        self.texts = texts = spaced.split()
        starts = self._starts
        if texts:
            starts[0] = len(plain) - len(plain.lstrip())
        at = 0
        for m in _ITEM_END.finditer(plain):
            at = texts.index(";", at) + 1
            starts[at] = m.end()

    def _scan(self, text: str) -> None:
        """Cut ``text`` a token at a time."""
        self.texts = texts = []
        starts = self._starts
        opens = True  # the next token opens an item
        for m in _TOKEN.finditer(text):
            group = m.lastindex
            if group is None:  # end of input
                break
            if group < 4:
                if opens:
                    starts[len(texts)] = m.start(group)
                token = m[group]
                opens = token == ";"
                texts.append(token)
                continue
            for is_token, token, offset in _pieces(m):
                if not is_token:
                    message = f"unexpected character {token!r}"
                    self.diags.append(Diagnostic("error", "E_PARSE", message, self.span(offset)))
                    continue
                if opens:
                    starts[len(texts)] = offset
                opens = False
                texts.append(token)

    def start(self, at: int) -> int:
        """The offset at which token ``at`` starts."""
        starts = self._starts
        if at in starts:
            return starts[at]
        # Both paths cut alike, so _TOKEN cuts again from the nearest start
        # known before ``at``.  The starts of ``at`` and of every 64th token
        # on the way are kept, so that many diagnostics in one long item, in
        # any order, cut it about once.
        if self._known is None:
            self._known = list(starts)  # in token order
        known = self._known
        i = bisect.bisect(known, at)
        index = known[i - 1]
        passed: list[int] = []
        for m in _TOKEN.finditer(self.text, starts[index]):
            for is_token, _, offset in _pieces(m):
                if not is_token:
                    continue
                if index == at or index & 63 == 0 and index not in starts:
                    starts[index] = offset
                    passed.append(index)
                    if index == at:
                        known[i:i] = passed
                        return offset
                index += 1

    def span(self, offset: int) -> Span:
        """Line and column of ``offset``; both count from 1."""
        if self._newlines is None:
            self._newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect.bisect_left(self._newlines, offset)
        line_start = self._newlines[line - 1] + 1 if line else 0
        return Span(line + 1, offset - line_start + 1)


def _pieces(m: re.Match) -> list[tuple[bool, str, int]]:
    """The tokens of the match ``m`` of :data:`_TOKEN`, as (whether it is a
    token, text, offset); a character that starts no token is not.  A run
    of word characters whose first is not ASCII, or one character that
    starts no token, is taken a character at a time."""
    group = m.lastindex
    start = m.start(group)
    if group < 4:
        return [(True, m[group], start)]
    chunk = m[group]
    out: list[tuple[bool, str, int]] = []
    i = 0
    while i < len(chunk) and not (chunk[i].isalpha() or chunk[i] == "_"):
        j = i + 1
        if chunk[i].isdecimal():
            while j < len(chunk) and chunk[j].isdecimal():
                j += 1
            out.append((True, chunk[i:j], start + i))
        else:
            out.append((False, chunk[i], start + i))
        i = j
    if i < len(chunk):
        out.append((True, chunk[i:], start + i))
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
#
# The parser builds patterns, ``RAgent``s and ``RuleEquation``s as it reads
# rules; a net it reads into a postfix program of ``RhsProgram.code``'s ops,
# which ``rules.stamp`` builds.  An agent gets the symbol of the arity it is
# written with; ``parse_program`` settles the program's symbols once every
# item is read.  While parsing, each symbol and arity that an agent without
# a range tail is written at is recorded once per item, in ``closes``, with
# ``at``, the index of the head token of its first use in reading order;
# then once for the declarations, once for the rules and once per net.
#
# Each rule draws its name ids from where the rules before it stopped: its
# concrete pattern's parameters first, then the other pattern's, then the
# right-hand side in reading order.  A net's names are slots, numbered in
# reading order; ``finish_net`` gives them the ids behind every rule's
# names, and each ``Name`` is made once, when the net is built.

class _ParseFail(Exception):
    pass


_WILDCARD = GenericRef(GENERIC_KEYWORD)


class _Parser:
    def __init__(self, tokens: _Tokens):
        self.tokens = tokens
        self.texts = tokens.texts
        self.pos = 0
        self.diags = tokens.diags
        # Per rule: its patterns, right-hand side, span and the concrete
        # agents of its right-hand side with their head tokens.  Per net:
        # its program (None if it holds what nets forbid), how many slots its
        # interface takes, span, slots by identifier and agent uses.
        self.rules: list[tuple] = []
        self.nets: list[tuple] = []
        # Agent uses, the first ``at`` by (symbol, arity): of the
        # declarations and of the rules so far.
        self.decls: dict[tuple[str, int], int] = {}
        self.rule_uses: dict[tuple[str, int], int] = {}
        self.interned: dict[tuple[str, int], Symbol] = {}
        self.next_id = 0  # of the first name of the next rule
        self.begin_item()

    # -- token helpers ------------------------------------------------------

    def span(self, at: int) -> Span:
        return self.tokens.span(self.tokens.start(at))

    def take(self) -> int:
        at = self.pos
        if self.texts[at]:  # not at the end
            self.pos += 1
        return at

    def at_op(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def at_symbol(self) -> bool:
        """At an uppercase-initial identifier."""
        return self.texts[self.pos][:1].isupper()

    def at_name(self) -> bool:
        """At an identifier that is not uppercase-initial."""
        first = self.texts[self.pos][:1]
        return first == "_" or first.isalpha() and not first.isupper()

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
            if not self.texts[self.pos]:
                return
            if self.texts[self.take()] == ";":
                return

    # -- typed construction -------------------------------------------------

    def begin_item(self) -> None:
        # Of the item being parsed: a rule's names or a net's slots by
        # identifier, where a rule's names are drawn from, a right-hand side's
        # concrete agents, a net's program, the agent uses as [close op,
        # first ``at``] by (symbol, arity), and whether it uses what it may not.
        self.scope: dict[str, Union[Name, int]] = {}
        self.supply = NameSupply(self.next_id)
        self.heads: list[tuple[RAgent, int]] = []
        self.code: list = []
        self.closes: dict[tuple[str, int], list] = {}
        self.forbidden = False

    def name(self, ident: str) -> Name:
        name = self.scope.get(ident)
        if name is None:
            name = self.scope[ident] = self.supply.fresh(ident)
        return name

    def symbol(self, key: tuple[str, int]) -> Symbol:
        """One shared ``Symbol`` per (symbol, arity) ``key``."""
        sym = self.interned.get(key)
        if sym is None:
            sym = self.interned[key] = Symbol(*key)
        return sym

    def agent(self, head: int, args: Sequence, range_tail: Optional[str], rhs: bool):
        """The agent headed by token ``head``, made once its arguments are read: an
        ``RAgent`` in a rule's right-hand side; in a net, its close op, put in its program."""
        text = self.texts[head]
        key = (text, len(args))
        sym = None  # a range-tailed agent's symbol is known once the program is read
        if text == GENERIC_KEYWORD:
            if rhs:
                return RAgent(_WILDCARD, tuple(args), range_tail)
            self._not_allowed(f"{GENERIC_KEYWORD} is not allowed here", head)
        elif range_tail is None:  # agents close inner first: keep the use read first
            use = self.closes.get(key)
            if use is None:
                use = self.closes[key] = [(self.symbol(key), key[1]), head]
            elif head < use[1]:
                use[1] = head
            if not rhs:
                self.code.append(use[0])
            sym = use[0][0]
        if not rhs:
            return key
        agent = RAgent(sym, tuple(args), range_tail)
        self.heads.append((agent, head))
        return agent

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> None:
        while self.texts[self.pos]:
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
        if not self.at_symbol():
            self.fail("expected an agent symbol (uppercase-initial)")
        if self.texts[self.pos] == GENERIC_KEYWORD:
            self.fail(f"{GENERIC_KEYWORD} is reserved for the wildcard agent")
        name = self.take()
        self.expect_op("/")
        if not self.texts[self.pos].isdecimal():
            self.fail("expected an arity")
        arity = self.take()
        self.expect_op(";")
        digits, limit = self.texts[arity], _int_digits()
        if limit and len(digits) > limit:  # int() would refuse it
            message = f"arity literal too long: {len(digits)} digits (at most {limit})"
            self.diags.append(Diagnostic("error", "E_PARSE", message, self.span(arity)))
            return
        self.decls.setdefault((self.texts[name], int(digits)), name)

    def parse_rule_decl(self) -> None:
        span = self.span(self.pos)
        self.begin_item()
        first = self.parse_pattern()
        self.expect_op("><")
        second = self.parse_pattern()
        self.expect_op("=>")
        if first[0] == GENERIC_KEYWORD:  # the wildcard goes on the right
            first, second = second, first
        left, right = self.pattern(*first), self.pattern(*second)
        rhs = self.parse_eq_list(rhs=True)
        self.expect_op(";")
        self.rules.append((left, right, tuple(rhs), span, self.heads))
        for key, (_, at) in self.closes.items():
            self.rule_uses.setdefault(key, at)
        self.next_id = self.supply.next_id

    def parse_net_decl(self) -> None:
        span = self.span(self.take())  # net
        self.begin_item()
        self.expect_op("(")
        self.parse_list(lambda: self.parse_term(rhs=False), ")")
        self.expect_op(")")
        interface = len(self.scope)
        self.expect_op("|")
        if not self.at_op(";"):
            self.parse_eq_list(rhs=False)
        self.expect_op(";")
        code = None if self.forbidden else self.code
        uses = {key: at for key, (_, at) in self.closes.items()}
        self.nets.append((code, interface, span, self.scope, uses))

    def parse_pattern(self) -> tuple[str, list[str], Optional[str]]:
        """A pattern's symbol, parameters and range; its names are drawn
        once both patterns are read."""
        if not self.at_symbol():
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
        key = (text, len(params))
        self.closes.setdefault(key, [(self.symbol(key), key[1]), head])  # read first in the item
        return text, params, None

    def pattern(self, text: str, params: list[str], range_name: Optional[str]):
        names = tuple(self.name(p) for p in params)
        if text == GENERIC_KEYWORD:
            return GenericPattern(GENERIC_KEYWORD, names, range_name)
        return OrdinaryPattern(self.symbol((text, len(names))), names)

    def parse_pattern_name(self) -> str:
        if not self.at_name():
            self.fail("expected a name (lowercase-initial) as a pattern parameter")
        name = self.texts[self.take()]
        if self.at_op("'"):
            message = "variadic names may only appear in a rule right-hand side"
            self.diags.append(Diagnostic("error", "E_VN_IN_LHS", message, self.span(self.take())))
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

    def parse_equation(self, rhs: bool) -> Optional[RuleEquation]:
        left = self.parse_term(rhs)
        self.expect_op("~")
        right = self.parse_term(rhs)
        return RuleEquation(left, right) if rhs else self.code.append(None)

    def parse_term(self, rhs: bool):
        """A right-hand-side term with ``rhs``, else a net term, read into the net's program."""
        # Agents whose argument lists are open wait on a stack, each as
        # [head, arguments so far], so term depth is not bounded by the
        # interpreter's recursion limit.  The position lives in a local and
        # is stored back before any call that reads it.  A net's name op is
        # its slot, the order it was first read in.
        texts, scope, code = self.texts, self.scope, self.code
        pos = self.pos
        open_agents: list[list] = []
        while True:
            head = pos
            text = texts[pos]
            first = text[:1]
            pos += 1
            term = None
            if first.isupper():  # an agent
                if texts[pos] == "(":
                    pos += 1
                    open_agents.append([head, []])
                else:
                    term = self.agent(head, (), None, rhs)
            elif first.isalpha() or first == "_":  # a name
                if texts[pos] == "'":
                    if rhs:
                        term = VarName(text)
                    else:
                        self._not_allowed("variadic names are not allowed here", pos)
                    pos += 1
                if term is None and rhs:
                    term = scope.get(text) or self.name(text)
                elif term is None:
                    term = scope.setdefault(text, len(scope))
                    code.append(term)
            else:
                self.pos = head
                self.fail("expected a term")
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
                head, args = open_agents.pop()
                range_tail = None
                if texts[pos] == "[":
                    self.pos = pos
                    range_tail = self._range_tail(rhs)
                    pos = self.pos
                    if texts[pos] != ")":
                        self.fail("expected ')'")
                pos += 1
                term = self.agent(head, args, range_tail, rhs)

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
            message = f"rule {rule_id}: at most one side of an active pair may be generic"
            self.diags.append(Diagnostic("error", "E_TWO_GENERIC", message, span))
            return None
        for p in (left, right):
            if isinstance(p, OrdinaryPattern) and symbols[p.symbol.name] != p.symbol:
                return None
        unknown = [at for _, at in heads if self.texts[at] not in symbols]
        if unknown:
            at = min(unknown)  # the first in reading order
            message = f"arity of {self.texts[at]} cannot be inferred"
            self.diags.append(Diagnostic("error", "E_ARITY_CONFLICT", message, self.span(at)))
            return None
        # Right-hand-side agents take the program's symbol, even where they
        # are written at a conflicting arity.  Only such agents and those
        # with a range tail get a new head, in place, before anything reads it.
        for agent, at in heads:
            sym = symbols[self.texts[at]]
            if agent.head is not sym:
                object.__setattr__(agent, "head", sym)
        return Rule(rule_id, left, right, rhs, origin=str(span))

    def finish_net(self, symbols: dict[str, Symbol], code: Optional[list], interface: int,
                   span: Span, scope: dict[str, int],
                   uses: dict[tuple[str, int], int]) -> Optional[tuple[list, list[str], int]]:
        """The net's program, its names' identifiers by slot and the id of the
        first, numbered behind every rule's; None if it holds a construct nets
        forbid or an agent at a conflicting arity."""
        if code is None or any(symbols[ident].arity != arity for ident, arity in uses):
            return None
        first = self.next_id
        self.next_id += len(scope)
        # Slots and counts go by first occurrence, the interface's names first.
        idents = list(scope)
        for slot, count in Counter(op for op in code if op.__class__ is int).items():
            if count > 2:
                message = (f"name {idents[slot]} occurs {count} times in the net "
                           f"(at most twice allowed)")
                self.diags.append(Diagnostic("error", "E_NAME_COUNT", message, span))
            elif count == 1 and slot >= interface:
                message = f"name {idents[slot]} occurs once outside the interface"
                self.diags.append(Diagnostic("warning", "W_DANGLING_NAME", message, span))
        return code, idents, first


def _build_net(code: list, idents: list[str], first: int) -> Configuration:
    """A net's program built, slot ``i`` a new name ``idents[i]`` of id ``first + i``:
    what its equations leave on the stack is its interface."""
    names = [Name(i, ident) for i, ident in enumerate(idents, first)]
    interface: list[Term] = []
    return Configuration(interface, stamp(code, names, None, interface))


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

class SourceProgram(Record):
    """A parsed program; a ``net`` given as ``finish_net``'s triple is built on first read."""

    _fields = ("symbols", "rules", "net", "supply", "diagnostics")

    def __init__(self, symbols: dict[str, Symbol], rules: list[Rule],
                 net: Union[Configuration, tuple, None], supply: NameSupply,
                 diagnostics: Optional[list[Diagnostic]] = None) -> None:
        self.symbols = symbols
        self.rules = rules
        self._net = net
        self.supply = supply
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def net(self) -> Optional[Configuration]:
        if self._net.__class__ is tuple:
            self._net = _build_net(*self._net)
        return self._net

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
    for uses in (parser.decls, parser.rule_uses, *(net[-1] for net in parser.nets)):
        for (ident, arity), at in uses.items():
            by_symbol.setdefault(ident, {}).setdefault(arity, at)
    for ident in sorted(by_symbol):
        arities = sorted(by_symbol[ident])
        if len(arities) > 1:
            listed = ", ".join(str(a) for a in arities)
            message = f"symbol {ident} used with conflicting arities: {listed}"
            at = parser.span(by_symbol[ident][arities[-1]])
            diags.append(Diagnostic("error", "E_ARITY_CONFLICT", message, at))
        symbols[ident] = parser.symbol((ident, arities[0]))

    rules: list[Rule] = []
    for idx, item in enumerate(parser.rules, start=1):
        rule = parser.finish_rule(f"r{idx}", symbols, *item)
        if rule is not None:
            rules.append(rule)

    if len(parser.nets) > 1:
        message = "a program may declare at most one net"
        diags.append(Diagnostic("error", "E_PARSE", message, parser.nets[1][2]))
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


def config_display(config: AnyConfiguration) -> dict[Name, str]:
    """The text :func:`render_configuration` shows for each name of
    ``config``, to render a part of it, such as a stuck equation, alike."""
    return _display_names(config_names(config))


def render_configuration(config: AnyConfiguration) -> str:
    """ASCII configuration form ``< t1, t2 | e1, e2 >``."""
    disp = config_display(config)
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
        parser.parse_list(lambda: parser.parse_term(rhs=False), "|")
        parser.expect_op("|")
        parser.parse_list(lambda: parser.parse_equation(rhs=False), ">")
        parser.expect_op(">")
        if parser.texts[parser.pos]:
            parser.fail("expected end of input")
    except _ParseFail:
        pass
    if errors_in(parser.diags):
        raise ValueError("; ".join(str(d) for d in errors_in(parser.diags)))
    arities: dict[str, int] = {}
    closes = parser.closes
    for ident, arity in sorted(closes, key=lambda key: closes[key][1]):  # in reading order
        if arities.setdefault(ident, arity) != arity:
            raise ValueError(f"symbol {ident} used with conflicting arities")
    return _build_net(parser.code, list(parser.scope), 0)


def render_rule(rule: Rule) -> str:
    """Rule in surface syntax (without its trailing origin annotation); its
    patterns print through :func:`render_term`, as the agents they match."""
    # Each equation's names from its right end: that order decides which of
    # two names with one text gets the ``_<id>`` suffix.
    _, _, eqs, _ = rule.summary
    disp = _display_names([*rule.params, *(n for _, _, names in eqs for n in reversed(names))])
    body = ", ".join(render_equation(eq, disp) for eq in rule.rhs)
    g = rule.generic
    left = RAgent(rule.left.symbol, rule.left.params)
    if g is None:
        right = RAgent(rule.right.symbol, rule.right.params)
    else:
        right = RAgent(_WILDCARD, g.fixed_params, g.range_name)
    lhs = f"{render_term(left, disp)} >< {render_term(right, disp)}"
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
        disp = config_display(Configuration([], [step.equation_before, *step.equations_after]))
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
