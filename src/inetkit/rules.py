"""Interaction rules: patterns, validation, generic resolution, rule table.

A rule rewrites an active pair (an equation between two agent terms) into a
multiset of right-hand-side equations.  Three kinds exist:

* ordinary      - both pattern sides name concrete symbols;
* fixed generic - one side matches any agent of one specific arity;
* variadic      - one side matches any agent with at least ``f`` ports, the
                  remainder of its ports covered by a range ``[x]``.

:func:`analyze_rules` is the one checker of a rule set: it runs every
static check in order and builds the table only if all pass.  The checks
and the table work over the rules as written; :func:`build_rule_table`
indexes whatever it is given, so tests can build ill-formed tables.  They
read a written rule's right-hand side from one walk over it, its summary
(:attr:`Rule.summary`): name counts, the largest name id, each equation's
ranges, variadic names and names, and every agent.

A variadic rule stands for one fixed generic rule per partner arity, its
arity instances (:func:`expand_variadic`), made from its patterns only.
Two written generic rules overlap in at most one pair of instances, so the
overlap check makes none; the table makes one the first time a lookup
needs it, and ``inet expand`` makes them all.  Every rule compiles its
right-hand side into a flat :class:`RhsProgram` the first time its program
is read (:attr:`Rule.program`), stamped from a template of the written
rule (:attr:`Rule.template`), as is an instance's right-hand side
(:attr:`Rule.rhs`), which only ``inet expand`` builds.  The rule table
memoizes lookups per symbol pair.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import chain, combinations, islice
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence, Union

from .core import (
    Agent,
    CanonicalConfiguration,
    Configuration,
    Equation,
    FrozenRecord,
    Name,
    NameSupply,
    NetError,
    Record,
    Symbol,
    Term,
    _built_once,
    canonicalize,
    nested_repr,
)

DEFAULT_ARITY_CAP = 64


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

class Span(FrozenRecord):
    __slots__ = _fields = ("line", "col")

    def __init__(self, line: int, col: int) -> None:
        _SPAN_LINE(self, line)
        _SPAN_COL(self, col)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Diagnostic(FrozenRecord):
    __slots__ = _fields = ("severity", "code", "message", "span")

    def __init__(self, severity: str, code: str, message: str, span: Optional[Span] = None) -> None:
        # severity: "error" | "warning"
        _DIAGNOSTIC_SEVERITY(self, severity)
        _DIAGNOSTIC_CODE(self, code)
        _DIAGNOSTIC_MESSAGE(self, message)
        _DIAGNOSTIC_SPAN(self, span)

    def __str__(self) -> str:
        where = f" ({self.span})" if self.span else ""
        return f"{self.severity}: {self.code}: {self.message}{where}"


def errors_in(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diags if d.severity == "error"]


# ---------------------------------------------------------------------------
# Rule shapes
# ---------------------------------------------------------------------------

class OrdinaryPattern(FrozenRecord):
    """A concrete agent pattern: symbol plus one parameter name per port."""

    __slots__ = _fields = ("symbol", "params")

    def __init__(self, symbol: Symbol, params: tuple[Name, ...]) -> None:
        if len(params) != symbol.arity:
            raise NetError(
                f"pattern {symbol.name}/{symbol.arity} has {len(params)} parameter(s)"
            )
        _ORDINARY_SYMBOL(self, symbol)
        _ORDINARY_PARAMS(self, params)


class GenericPattern(FrozenRecord):
    """A wildcard agent pattern.

    Without a range it matches any agent of arity ``len(fixed_params)``.
    With a range it matches any agent of arity >= ``len(fixed_params)``; the
    fixed parameters bind the partner's first ports in order and the range
    stands for all remaining ports.
    """

    __slots__ = _fields = ("generic_name", "fixed_params", "range_name")

    def __init__(self, generic_name: str, fixed_params: tuple[Name, ...] = (),
                 range_name: Optional[str] = None) -> None:
        _GENERIC_NAME(self, generic_name)
        _GENERIC_FIXED_PARAMS(self, fixed_params)
        _GENERIC_RANGE_NAME(self, range_name)

    @property
    def is_variadic(self) -> bool:
        return self.range_name is not None


class GenericRef(FrozenRecord):
    """Occurrence of the rule's wildcard agent inside a right-hand side."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _GENERIC_REF_NAME(self, name)


class VarName(FrozenRecord):
    """One arbitrary port of a range: ``x'`` stands for a single port of [x]."""

    __slots__ = _fields = ("range_name",)

    def __init__(self, range_name: str) -> None:
        _VAR_NAME_RANGE(self, range_name)


class RAgent(FrozenRecord):
    """Right-hand-side agent application.

    ``range_tail`` splices a whole range behind the explicit arguments, so
    ``phi(s, [y])`` is ``RAgent(GenericRef(...), (s,), "y")``.
    """

    __slots__ = _fields = ("head", "args", "range_tail")

    def __init__(self, head: Union[Symbol, GenericRef], args: tuple["RhsTerm", ...] = (),
                 range_tail: Optional[str] = None) -> None:
        _RAGENT_HEAD(self, head)
        _RAGENT_ARGS(self, args)
        _RAGENT_RANGE_TAIL(self, range_tail)

    # As for core's Agent, equality and hashing go through a flat key and
    # repr walks one explicit stack, so nesting is not bounded by the
    # interpreter's recursion limit.

    def _key(self) -> tuple:
        """Flat preorder: each agent's head, argument count and range tail,
        and each name and variadic name itself; equal keys mean equal
        terms, since the class of an item says which it is."""
        out: list = []
        stack = [self]
        while stack:
            u = stack.pop()
            if u.__class__ is RAgent:
                out += (u.head, len(u.args), u.range_tail)
                stack.extend(reversed(u.args))
            else:
                out.append(u)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return nested_repr(self, lambda u: f"RAgent(head={u.head!r}, args=(",
                           lambda u: f", range_tail={u.range_tail!r})")


RhsTerm = Union[Name, VarName, RAgent]


class RuleEquation(FrozenRecord):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: RhsTerm, right: RhsTerm) -> None:
        _RULE_EQUATION_LEFT(self, left)
        _RULE_EQUATION_RIGHT(self, right)


_SPAN_LINE = Span.line.__set__
_SPAN_COL = Span.col.__set__
_DIAGNOSTIC_SEVERITY = Diagnostic.severity.__set__
_DIAGNOSTIC_CODE = Diagnostic.code.__set__
_DIAGNOSTIC_MESSAGE = Diagnostic.message.__set__
_DIAGNOSTIC_SPAN = Diagnostic.span.__set__
_ORDINARY_SYMBOL = OrdinaryPattern.symbol.__set__
_ORDINARY_PARAMS = OrdinaryPattern.params.__set__
_GENERIC_NAME = GenericPattern.generic_name.__set__
_GENERIC_FIXED_PARAMS = GenericPattern.fixed_params.__set__
_GENERIC_RANGE_NAME = GenericPattern.range_name.__set__
_GENERIC_REF_NAME = GenericRef.name.__set__
_VAR_NAME_RANGE = VarName.range_name.__set__
_RAGENT_HEAD = RAgent.head.__set__
_RAGENT_ARGS = RAgent.args.__set__
_RAGENT_RANGE_TAIL = RAgent.range_tail.__set__
_RULE_EQUATION_LEFT = RuleEquation.left.__set__
_RULE_EQUATION_RIGHT = RuleEquation.right.__set__


class RuleKind(str, Enum):
    ORDINARY = "ordinary"
    FIXED_GENERIC = "fixed-generic"
    VARIADIC = "variadic"


class Rule(FrozenRecord):
    """One interaction rule.

    A generic side, when present, is always stored on the right; parsers and
    builders normalize the orientation (equations are undirected anyway).

    An arity instance of a variadic rule is made from its patterns alone,
    with the written rule as ``instance_of`` and no ``rhs``: its right-hand
    side (:attr:`rhs`) is stamped from the written rule's :attr:`template`
    the first time it is read, the way :attr:`program` is stamped from the
    same template.  Equality, hashing and ``repr`` read the right-hand side,
    but firing does not; ``instance_of`` takes no part in them.

    The checks, the expansion and the rule table read the right-hand side
    through :attr:`summary`, one walk over it, and the wildcard through
    :attr:`generic`, read off the patterns once.
    """

    _fields = ("id", "left", "right", "rhs", "origin")
    _ports: tuple[Name, ...] = ()  # a variadic rule's instances' extra ports

    def __init__(self, id: str, left: OrdinaryPattern, right: Union[OrdinaryPattern, GenericPattern],
                 rhs: Optional[tuple[RuleEquation, ...]] = None, origin: str = "",
                 instance_of: Optional["Rule"] = None) -> None:
        # Not stored through ``__dict__``, which would cost the instance its
        # inline attribute storage and make every later attribute read slower.
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if rhs is not None:
            object.__setattr__(self, "rhs", rhs)
        else:
            assert instance_of is not None, "only an arity instance comes without a RHS"
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "instance_of", instance_of)

    @_built_once
    def rhs(self) -> tuple[RuleEquation, ...]:
        """An arity instance's right-hand side, stamped from its written
        rule's template by :func:`_expand_at` the first time it is read."""
        return _expand_at(self)

    @_built_once
    def generic(self) -> Optional[GenericPattern]:
        """The wildcard pattern, or ``None``; read off once."""
        return self.right if isinstance(self.right, GenericPattern) else None

    @property
    def kind(self) -> RuleKind:
        """Read off the patterns: a wildcard makes the rule generic, and a
        wildcard's range makes it variadic."""
        g = self.generic
        if g is None:
            return RuleKind.ORDINARY
        return RuleKind.VARIADIC if g.is_variadic else RuleKind.FIXED_GENERIC

    @property
    def params(self) -> tuple[Name, ...]:
        if isinstance(self.right, GenericPattern):
            return self.left.params + self.right.fixed_params
        return self.left.params + self.right.params

    @_built_once
    def program(self) -> "RhsProgram":
        """The compiled right-hand side, built the first time it is read.

        Sharing a rule across threads stays safe: compiling is a pure
        function of the rule, so a repeated build stores an equal program.
        """
        return RhsProgram(self)

    @_built_once
    def summary(self) -> tuple:
        """The right-hand side walked once, the first time it is read; the
        checks, the expansion and the rule table read it (:func:`_summary`)."""
        return _summary(self)

    @_built_once
    def template(self) -> tuple:
        """The written right-hand side as template ops, walked once the
        first time it is read; every program stamped from this rule reads
        it, an arity instance's included (:class:`RhsProgram`)."""
        return _template(self)


_ID = attrgetter("id")


def _summary(rule: Rule) -> tuple[dict[int, int], int, tuple, list[RAgent]]:
    """What the checks, the expansion and the rule table read of the
    right-hand side of ``rule``, from one walk in preorder, the left side of
    each equation first, on an explicit stack, so depth is unbounded.  Read
    it as :attr:`Rule.summary`: ``(counts, max_id, eqs, agents)``.

    * ``counts``: the occurrences of each name id, in first-seen order;
    * ``max_id``: the largest name id, the parameters' included;
    * ``eqs``: per equation, its ranges, its variadic names and its names;
    * ``agents``: every agent, for its head, argument count and range tail.
    """
    counts: dict[int, int] = {}
    top = -1
    for p in rule.params:
        if p.id > top:
            top = p.id
    eqs = []
    agents: list[RAgent] = []
    for eq in rule.rhs:
        names: list[Name] = []
        ranges: list[str] = []
        varnames: list[str] = []
        todo = [eq.right, eq.left]
        while todo:
            u = todo.pop()
            cls = u.__class__
            if cls is Name:
                names.append(u)
                i = u.id
                c = counts.get(i)
                if c is None:
                    counts[i] = 1
                    if i > top:
                        top = i
                else:
                    counts[i] = c + 1
            elif cls is RAgent:
                agents.append(u)
                if u.range_tail is not None:
                    ranges.append(u.range_tail)
                if u.args:
                    todo.extend(u.args[::-1])
            else:
                varnames.append(u.range_name)
        eqs.append((ranges, varnames, names))
    return counts, top, tuple(eqs), agents


def _first(names: Iterable[Name], name_id: int) -> Name:
    """The first of ``names`` with id ``name_id``: the one a message shows."""
    return next(n for n in names if n.id == name_id)


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------

# A fault the rule text may hit when it fires, in the order it is read: a
# range or variadic name, a wildcard agent (it needs a partner), and the
# close of an agent (it must have its symbol's arity).
_RANGE, _WILD, _CLOSE = range(3)

# Template ops.  A :class:`Name` is a name every copy of its equation
# shares; any other op is a 4-tuple tagged by its first item: a name local
# to each copy of a replicated equation, a variadic name (with its range),
# the open of a wildcard or range-tail agent (whether it is the wildcard,
# its range, and how many ops follow up to its close), and the close of any
# agent (its symbol, ``None`` for the wildcard, its explicit argument count
# and its range).
_LOCAL, _VAR, _OPEN, _SHUT = range(4)


def _template(rule: Rule) -> tuple[tuple[bool, tuple], ...]:
    """The written right-hand side of ``rule`` as template ops, one entry
    per equation: whether a variadic name replicates it, as its summary
    says (:attr:`Rule.summary`), and its ops, the left side's before the
    right's, depth first, each agent's arguments before its close.  Read it
    as :attr:`Rule.template`."""
    params = {p.id for p in rule.params}
    out = []
    for eq, (_, replicated, _) in zip(rule.rhs, rule.summary[2]):
        ops: list = []
        for t in (eq.left, eq.right):
            todo: list = [t]  # terms to read; a tuple closes an agent
            while todo:
                u = todo.pop()
                cls = u.__class__
                if cls is Name:
                    ops.append((_LOCAL, u, None, None) if replicated and u.id not in params else u)
                elif cls is VarName:
                    ops.append((_VAR, u.range_name, None, None))
                elif cls is RAgent:
                    opened = -1
                    if u.head.__class__ is GenericRef or u.range_tail is not None:
                        opened = len(ops)
                        ops.append(None)  # filled in at the close
                    todo.append((u, opened))
                    todo.extend(reversed(u.args))
                else:
                    u, opened = u
                    wild = u.head.__class__ is GenericRef
                    ops.append((_SHUT, None if wild else u.head, len(u.args), u.range_tail))
                    if opened >= 0:
                        ops[opened] = (_OPEN, wild, u.range_tail, len(ops) - opened - 1)
        out.append((bool(replicated), tuple(ops)))
    return tuple(out)


class RhsProgram:
    """A rule's right-hand side, compiled once into a flat instantiation
    program; read it as :attr:`Rule.program`.  It keeps only its rule's
    id, for fault messages, so rule and program form no cycle.

    The program is stamped from a template of the written rule
    (:attr:`Rule.template`).  An ordinary or fixed-generic rule is stamped
    from its own, as written.  An arity instance of a variadic rule is
    stamped from its written rule's at its ``m`` extra ports, as
    :func:`_expand_at` stamps the instance's right-hand side from it: each
    range splices ``m`` names behind the explicit arguments, and each
    equation that holds a variadic name is copied once per extra port, with
    fresh locals per copy.  Stamped as written, a range or variadic name is
    a fault.

    Values live in numbered slots: first the rule's parameters, in the order
    of ``rule.params``, then its other names, each freshened on first sight
    (the left side of each equation before the right, depth first, with its
    display hint).  ``code`` is one postfix sequence for all the equations,
    each side's ops followed by the next side's.  An op is a slot number
    (push the value), a ``(symbol, arity)`` pair (pop ``arity`` values and
    push the agent; a ``None`` symbol is the wildcard agent, which becomes
    the matched partner), or ``None`` (pop two sides and emit their
    equation).  The ops run on an explicit stack, so a right-hand side may
    be as deep as it likes.  Where the names land is the engine's to index.
    """

    __slots__ = ("rule_id", "hints", "code", "_need", "_faults")

    def __init__(self, rule: Rule):
        self.rule_id = rule.id
        src = rule.instance_of
        if src is None:
            src, m = rule, None  # as written: a range is a fault
        else:
            m = len(rule.right.fixed_params) - len(src.generic.fixed_params)
        written = src.params
        slots: dict = {p.id: i for i, p in enumerate(written)}  # name key -> slot
        n_params = len(written)
        # The left-hand range's ports are the instance's last parameters.
        if m:
            lhs_range = src.generic.range_name
            slots.update(((lhs_range, j), n_params + j) for j in range(m))
            n_params += m
        hints: list[str] = []
        faults: list[tuple] = []
        # The partner arity the wildcard agents take, checked before the
        # program runs: -1 with no wildcard, None when a fault always occurs
        # (a range, or wildcards of two arities).  A concrete agent at the
        # wrong arity fails as it is built, in reading order.
        need: Optional[int] = -1
        code: list = []

        def see(key, hint: Optional[str]) -> None:
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = n_params + len(hints)
                # A name a range stands for is hinted by the range and port.
                hints.append(f"{key[0]}{key[1] + 1}" if hint is None else hint)
            code.append(slot)

        # A written name is keyed by its id, a copy's local by its id and
        # port, and a name a range stands for by the range and port.
        for replicated, ops in src.template:
            for i in range(m) if replicated and m is not None else (None,):
                it = iter(ops)
                for op in it:
                    if op.__class__ is Name:
                        see(op.id, op.display)
                        continue
                    tag, a, b, c = op
                    if tag == _SHUT:
                        if c is not None:
                            for j in range(m):
                                see((c, j), None)
                            b += m
                        if a is None:
                            faults.append((_CLOSE, None, b))
                            need = b if need in (-1, b) else None
                        elif a.arity != b:
                            faults.append((_CLOSE, a, b))
                        code.append((a, b))
                    elif tag == _OPEN:
                        if b is not None and m is None:
                            # As written, the program never runs; the
                            # range's agent is not read.
                            faults.append((_RANGE,))
                            need = None
                            next(islice(it, c, c), None)
                        elif a:
                            faults.append((_WILD,))
                    elif tag == _LOCAL:
                        see(a.id if i is None else (a.id, i), a.display)
                    elif i is not None:  # a variadic name, in its copy
                        see((a, i), None)
                    else:  # a variadic name as written: the program never runs
                        faults.append((_RANGE,))
                        need = None
                code.append(None)

        self.hints = tuple(hints)
        self.code = tuple(code)
        self._need = need
        self._faults = tuple(faults)

    def run(
        self, args: Sequence[Term], partner: Optional[Symbol], supply: NameSupply
    ) -> list[Equation]:
        """The right-hand side as net equations.

        ``args`` are the argument terms of the two matched agents in the
        order of ``rule.params``, the rule's left pattern first; each is
        inserted where its parameter occurs and never walked.  The fresh
        names are drawn from ``supply`` in slot order.  The wildcard agent
        becomes ``partner``, the matched symbol.

        Raises :class:`NetError` on a range or variadic name (a variadic
        rule compiled as written, not its instances), on a wildcard when
        ``partner`` is ``None``, and on an agent applied at the wrong arity,
        whichever comes first in reading order.
        """
        need = self._need
        if need != -1 and (partner is None or partner.arity != need):
            self._fail(partner)
        return stamp(self.code, [*args, *map(supply.fresh, self.hints)], partner, [])

    def _fail(self, partner: Optional[Symbol]) -> None:
        rule_id = self.rule_id
        for fault in self._faults:
            if fault[0] == _RANGE:
                raise NetError(f"rule {rule_id}: range or variadic name in an unexpanded RHS")
            if fault[0] == _WILD:
                if partner is None:
                    raise NetError(f"rule {rule_id}: wildcard agent without a matched partner")
                continue
            symbol = partner if fault[1] is None else fault[1]
            if symbol.arity != fault[2]:
                # Agent's own message for the same fault.
                raise NetError(
                    f"agent {symbol.name}/{symbol.arity} applied to {fault[2]} argument(s)"
                )
        raise AssertionError(f"rule {rule_id}: no fault to report")


def stamp(code: Sequence, vals: Sequence[Term], partner: Optional[Symbol],
          stack: list[Term]) -> list[Equation]:
    """The equations of postfix ``code`` (:attr:`RhsProgram.code`'s ops), slot ``i`` being
    ``vals[i]`` and the wildcard ``partner``; terms no equation takes stay on ``stack``."""
    out: list[Equation] = []
    push, pop = stack.append, stack.pop
    for op in code:
        if op.__class__ is int:
            push(vals[op])
        elif op is None:
            right = pop()
            out.append(Equation(pop(), right))
        else:
            symbol, n = op
            if n > 1:
                agent_args = tuple(stack[-n:])
                del stack[-n:]
            else:
                agent_args = (pop(),) if n else ()
            push(Agent(partner if symbol is None else symbol, agent_args))
    return out


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_linearity(rule: Rule) -> list[Diagnostic]:
    """Port-discipline check for a single rule.

    Every left-hand parameter must be used exactly once on the right, every
    other right-hand name exactly twice; ranges and variadic names follow the
    same discipline (a left-hand range is a parameter, a right-hand-only
    range is an internal wire bundle).  It reads :attr:`Rule.summary`, and
    reports names by id, each as its first occurrence shows it.
    """
    diags: list[Diagnostic] = []

    def err(code: str, message: str) -> None:
        diags.append(Diagnostic("error", code, f"rule {rule.id}: {message}"))

    params = rule.params
    param_ids = {p.id for p in params}
    if len(param_ids) < len(params):
        for i, count in Counter(map(_ID, params)).items():
            if count > 1:
                shown = _first(params, i).display
                err("E_LIN_DUP", f"parameter {shown} bound more than once in the LHS")

    counts, _, eqs, agents = rule.summary
    for p in params:
        c = counts.get(p.id, 0)
        if c == 0:
            err("E_LIN_ERASED", f"LHS parameter {p.display} is never used in the RHS")
        elif c > 1:
            err("E_LIN_DUP", f"LHS parameter {p.display} used {c} times in the RHS")
    for i, c in counts.items():
        if c == 2 or i in param_ids:
            continue
        shown = _first(chain.from_iterable(names for _, _, names in eqs), i).display
        if c == 1:
            err("E_LIN_ERASED", f"name {shown} occurs only once in the RHS (dangling wire)")
        else:
            err("E_LIN_DUP", f"name {shown} occurs {c} times in the RHS")

    # Agents: a generic occurrence must agree with the LHS wildcard shape,
    # a concrete one with its symbol.
    g = rule.generic
    for part in agents:
        head, n = part.head, len(part.args)
        if head.__class__ is GenericRef:
            if g is None:
                err("E_STRAY_GENERIC", "generic agent in the RHS of a non-generic rule")
            elif g.is_variadic and part.range_tail is None:
                err("E_GEN_ARITY", "generic occurrence in a variadic rule must carry the range")
            elif not g.is_variadic and part.range_tail is not None:
                err("E_GEN_ARITY", "range on a generic occurrence of a fixed-generic rule")
            elif n != len(g.fixed_params) and g.is_variadic:
                err(
                    "E_GEN_ARITY",
                    f"generic occurrence has {n} fixed argument(s), "
                    f"LHS declares {len(g.fixed_params)}",
                )
            elif n != len(g.fixed_params):
                err(
                    "E_GEN_ARITY",
                    f"generic occurrence has {n} argument(s), expected {len(g.fixed_params)}",
                )
        elif part.range_tail is not None:
            # A range stands for the partner's remaining ports, so its
            # width varies with the match; a concrete agent cannot
            # absorb that.
            err("E_RANGE_CONCRETE", f"range argument on concrete agent {head.name}")
        elif n != head.arity:
            err(
                "E_ARITY_CONFLICT",
                f"agent {head.name}/{head.arity} applied to {n} argument(s)",
            )

    # Ranges and variadic names.
    variadic = g is not None and g.is_variadic
    lhs_range = g.range_name if variadic else None
    range_count: dict[str, int] = {}
    for ranges, varnames, names in eqs:
        if not (ranges or varnames):
            continue
        for rng in ranges + varnames:
            range_count[rng] = range_count.get(rng, 0) + 1
        if ranges and varnames:
            err("E_MIXED", "an equation may not contain both a range and a variadic name")
        if not variadic:
            err("E_STRAY_VARIADIC", "range or variadic name in a non-variadic rule")
        if varnames:
            # A replicated equation is instantiated once per covered port, so
            # a plain name may not wire it to the rest of the rule and the
            # LHS parameters may not be captured by every copy.
            local: dict[int, int] = {}
            for n in names:
                local[n.id] = local.get(n.id, 0) + 1
            for i, c in local.items():
                shown = _first(names, i).display
                if i in param_ids:
                    err("E_VN_SPAN", f"parameter {shown} inside a replicated equation")
                elif counts[i] != c or c != 2:
                    err(
                        "E_VN_SPAN",
                        f"name {shown} is shared between a replicated equation and the rest of the rule",
                    )

    for rng, c in range_count.items():
        if rng == lhs_range:
            if c > 1:
                err("E_LIN_DUP", f"LHS range [{rng}] used {c} times in the RHS")
        else:
            if c == 1:
                err("E_LIN_ERASED", f"range [{rng}] occurs only once in the RHS (dangling bundle)")
            elif c > 2:
                err("E_LIN_DUP", f"range [{rng}] occurs {c} times in the RHS")
    if variadic and range_count.get(lhs_range, 0) == 0:
        err("E_LIN_ERASED", f"LHS range [{lhs_range}] is never used in the RHS")

    return diags


def _self_rule_symmetric(rule: Rule) -> bool:
    """Does swapping the two parameter vectors leave the RHS net unchanged?

    The rule is instantiated against its own parameters, as ``(xs, ys)`` and
    as ``(ys, xs)``, and the two nets are compared canonically: the
    parameter names are anchored in an interface so only internal names may
    be renamed.  Alpha-equivalent right-hand sides instantiate to literally
    identical nets, so accepting them is sound.
    """
    assert isinstance(rule.right, OrdinaryPattern)
    xs, ys = rule.left.params, rule.right.params
    anchor = list(xs + ys)

    def form(args: tuple[Name, ...]) -> CanonicalConfiguration:
        supply = NameSupply(_rule_max_name_id(rule) + 1)
        return canonicalize(Configuration(anchor, rule.program.run(args, None, supply)))

    return form(xs + ys) == form(ys + xs)


def _pair_key(a: str, b: str) -> tuple[str, str]:
    """The unordered key of a symbol pair, by name: the one the rule table
    stores ordinary rules under and the checks compare them by."""
    return (a, b) if a <= b else (b, a)


def check_no_ambiguity(rules: Sequence[Rule]) -> list[Diagnostic]:
    """Reject rule sets in which one active pair could match two rules.

    Checks ordinary pair uniqueness, the swap condition on self rules, and
    generic slot uniqueness (a variadic rule occupies every slot from its
    fixed-port count upward).
    """
    diags: list[Diagnostic] = []

    seen_pairs: dict[tuple[str, str], Rule] = {}
    for rule in rules:
        if not isinstance(rule.right, OrdinaryPattern):
            continue
        a, b = rule.left.symbol.name, rule.right.symbol.name
        key = _pair_key(a, b)
        if key in seen_pairs:
            message = (f"rules {seen_pairs[key].id} and {rule.id} both rewrite the pair "
                       f"({key[0]}, {key[1]})")
            diags.append(Diagnostic("error", "E_DUP_PAIR", message))
        else:
            seen_pairs[key] = rule
        if a == b:
            try:
                symmetric = _self_rule_symmetric(rule)
            except NetError:
                continue  # nonlinear rule; validate_linearity reports it
            if not symmetric:
                message = (f"rule {rule.id}: self rule on {a} is not invariant under "
                           f"swapping its two parameter vectors")
                diags.append(Diagnostic("error", "E_SELF_ASYM", message))

    generics = [(r, r.generic) for r in rules if r.generic is not None]
    for (r1, g1), (r2, g2) in combinations(generics, 2):
        symbol = r1.left.symbol.name
        if symbol != r2.left.symbol.name:
            continue
        # Both slots cover the larger fixed-port count, and so clash, unless
        # one of them is a fixed slot for a smaller arity.
        top = max(len(g1.fixed_params), len(g2.fixed_params))
        if all(g.is_variadic or len(g.fixed_params) == top for g in (g1, g2)):
            message = f"rules {r1.id} and {r2.id} occupy the same generic slot for symbol {symbol}"
            diags.append(Diagnostic("error", "E_DUP_GENERIC", message))
    return diags


# ---------------------------------------------------------------------------
# Variadic expansion
# ---------------------------------------------------------------------------

def _rule_max_name_id(rule: Rule) -> int:
    return rule.summary[1]


def expand_variadic(rule: Rule, arities: Iterable[int]) -> list[Rule]:
    """Translate a variadic rule into fixed generic rules, one per arity.

    The instances cover the given ``arities`` at or above the rule's
    fixed-port count ``f``, in ascending order.  A non-variadic rule comes
    back unchanged.  Nothing here bounds the arities: the expansion cap is
    :func:`analyze_rules`' to check.

    The arity-``k`` instance is the rule instantiated against an abstract
    partner with ``k`` ports: the left-hand range becomes ``k - f`` explicit
    parameters, fresh names numbered from just above the rule's largest
    name id.  Only the instance's patterns are made here (:func:`_instance`);
    its right-hand side is stamped from the rule's template by
    :func:`_expand_at` the first time it is read, and its program from the
    same template the first time it fires.
    """
    g = rule.generic
    if g is None or not g.is_variadic:
        return [rule]
    f = len(g.fixed_params)
    return [_instance(rule, k) for k in sorted({k for k in arities if k >= f})]


def _instance(rule: Rule, k: int) -> Rule:
    """The arity-``k`` instance of the variadic ``rule``, made from its
    patterns.  Its extra ports are the first ``k - f`` of the rule's
    ``_ports``, one tuple shared by all its instances and grown as needed."""
    g = rule.generic
    m = k - len(g.fixed_params)
    ports = rule._ports
    if len(ports) < m:
        first = _rule_max_name_id(rule) + 1
        ports += tuple(Name(first + i, f"{g.range_name}{i + 1}") for i in range(len(ports), m))
        object.__setattr__(rule, "_ports", ports)
    right = GenericPattern(g.generic_name, g.fixed_params + ports[:m], None)
    return Rule(f"{rule.id}@{k}", rule.left, right, None, f"expanded-from({rule.id}, {k})", rule)


def _expand_at(rule: Rule) -> tuple[RuleEquation, ...]:
    """The right-hand side of the arity instance ``rule``, stamped from its
    written rule's template (:attr:`Rule.template`), the ops
    :class:`RhsProgram` stamps the instance's program from, read as terms.

    Each of the instance's ``m`` extra ports stands in for one port of the
    left-hand range; each right-hand-only range becomes ``m`` fresh names
    (shared across its occurrences), and every equation holding a variadic
    name is replicated once per extra port, with fresh copies of its local
    names.  The fresh names continue the numbering of the ports, so that an
    instance built late equals one built early.  Each copy of a replicated
    equation draws first for the ranges of its variadic names, in reading
    order, then for its locals; every equation draws for a range tail as
    its agent closes.
    """
    src = rule.instance_of
    g = src.generic
    lhs_ports = rule.right.fixed_params[len(g.fixed_params):]
    m = len(lhs_ports)
    # With no extra ports nothing is drawn.
    supply = NameSupply(lhs_ports[-1].id + 1 if m else 0)
    vectors: dict[str, tuple[Name, ...]] = {g.range_name: lhs_ports}
    wild = GenericRef(g.generic_name)

    def vector(rng: str) -> tuple[Name, ...]:
        if rng not in vectors:
            vectors[rng] = tuple(supply.fresh(f"{rng}{i + 1}") for i in range(m))
        return vectors[rng]

    out: list[RuleEquation] = []
    for replicated, ops in src.template:
        # Each variadic name, then each local, once, in reading order: the
        # order a copy draws for them in.
        named = [*dict.fromkeys(op for op in ops if op.__class__ is tuple and op[0] == _VAR),
                 *dict.fromkeys(op for op in ops if op.__class__ is tuple and op[0] == _LOCAL)]
        for i in range(m) if replicated else (None,):
            vals = {op: vector(op[1])[i] if op[0] == _VAR else supply.fresh(op[1].display)
                    for op in named}
            stack: list[RhsTerm] = []
            push = stack.append
            for op in ops:
                if op.__class__ is Name:
                    push(op)
                    continue
                tag, head, n, rng = op
                if tag == _SHUT:
                    args = tuple(stack[len(stack) - n:])
                    del stack[len(stack) - n:]
                    if rng is not None:
                        args += vector(rng)
                    push(RAgent(wild if head is None else head, args, None))
                elif tag != _OPEN:
                    push(vals[op])
            out.append(RuleEquation(*stack))
    return tuple(out)


def _instance_max_name_id(rule: Rule, k: int) -> int:
    """The largest name id of the arity-``k`` instance of the variadic
    ``rule``, read off its summary without making the instance.  The
    instance's extra ports are numbered on from the rule's largest name id,
    and :func:`_expand_at` stamps as many fresh names per port after them:
    one per right-hand-only range and the locals of each replicated
    equation.  So with extra ports the last name drawn is the largest; with
    none, the instance keeps the rule's names outside its replicated
    equations."""
    g = rule.generic
    _, top, eqs, _ = rule.summary
    m = k - len(g.fixed_params)
    if not m:
        kept = [n.id for _, varnames, names in eqs if not varnames for n in names]
        return max([*map(_ID, rule.params), *kept], default=-1)
    params = set(map(_ID, rule.params))
    ranges: set[str] = set()
    per_port = 0
    for rngs, varnames, names in eqs:
        ranges.update(rngs, varnames)
        if varnames:
            per_port += len(set(map(_ID, names)) - params)
    ranges.discard(g.range_name)
    return top + m * (1 + len(ranges) + per_port)


# ---------------------------------------------------------------------------
# Generic rule constraint
# ---------------------------------------------------------------------------

def check_grc(rules: Sequence[Rule], arities: Iterable[int]) -> list[Diagnostic]:
    """Generic-overlap check over written rules, a variadic rule standing
    for its instances at the ``arities`` at or above its fixed-port count.

    Two generic rules ``A >< phi_m`` and ``B >< phi_n`` both match the active
    pair (A, B) exactly when arity(A) = n and arity(B) = m; such a pair must
    then be covered by an ordinary rule, which takes priority at run time.
    So two written rules overlap in at most one pair of instances, and a
    rule matches its own pair only at m = arity(A).  Instances are named
    ``r@k``, not made; the diagnostics come in the expansion's order.
    """
    ks = set(arities)
    covered = {_pair_key(r.left.symbol.name, r.right.symbol.name)
               for r in rules if r.generic is None}
    generics = [(r, r.generic, r.left.symbol) for r in rules if r.generic is not None]

    def instance_id(r: Rule, g: GenericPattern, m: int) -> Optional[str]:
        f = len(g.fixed_params)
        if g.is_variadic:
            return f"{r.id}@{m}" if m >= f and m in ks else None
        return r.id if m == f else None

    diags: list[Diagnostic] = []
    for r, g, a in generics:
        rule_id = instance_id(r, g, a.arity)
        if rule_id is not None:
            message = (f"rule {rule_id} can match its own symbol pair ({a.name}, {a.name}); "
                       f"the two-probe lookup order makes the binding deterministic")
            diags.append(Diagnostic("warning", "W_SELF_GENERIC", message))
    overlaps = []  # (where the pair stands in expanded order, its error)
    for i, (r1, g1, a) in enumerate(generics):
        for j, (r2, g2, b) in enumerate(generics[i + 1:], i + 1):
            m, n = b.arity, a.arity
            id1, id2 = instance_id(r1, g1, m), instance_id(r2, g2, n)
            # An identical slot is reported as E_DUP_GENERIC elsewhere.
            if (id1 is None or id2 is None or (a.name, m) == (b.name, n)
                    or _pair_key(a.name, b.name) in covered):
                continue
            message = (f"generic rules {id1} ({a.name} >< {g1.generic_name}/{m}) and {id2} "
                       f"({b.name} >< {g2.generic_name}/{n}) both match the active pair "
                       f"({a.name}, {b.name}) and no ordinary rule covers it")
            overlaps.append(((i, m, j), Diagnostic("error", "E_GRC_OVERLAP", message)))
    return diags + [d for _, d in sorted(overlaps, key=itemgetter(0))]


# ---------------------------------------------------------------------------
# Rule table and lookup
# ---------------------------------------------------------------------------

class Match(FrozenRecord):
    """The rule for an active pair, oriented against the pair's equation.

    ``swapped`` means the equation's right term binds the rule's left
    pattern and its left term the right pattern or wildcard; otherwise the
    left term binds the left pattern.
    """

    _fields = ("rule", "swapped")

    def __init__(self, rule: Rule, swapped: bool) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "swapped", swapped)


class RuleTable(Record):
    """The written rules of a program, indexed for two-probe lookup: the
    ordinary ones by symbol pair, the generic ones by concrete symbol.

    The indexes never change once built.  ``slots`` and ``matches`` fill as
    the table is used: the rule of each generic slot a lookup has probed
    (:func:`_generic_at`), and the :func:`lookup` result per ordered pair of
    symbols (the name and arity of each).  Each is a pure function of its
    key, so a table may be shared across threads, and neither takes part in
    equality or ``repr``.  ``max_name_id`` is the largest name id in the
    rules, each variadic one counted as its instance at the widest arity.
    """

    _fields = ("ordinary", "generic", "max_name_id")

    def __init__(self, ordinary: dict[tuple[str, str], Rule], generic: dict[str, list[Rule]],
                 max_name_id: int = -1,
                 matches: Optional[dict[tuple[str, int, str, int], Optional[Match]]] = None) -> None:
        self.ordinary = ordinary
        self.generic = generic
        self.max_name_id = max_name_id
        self.matches = {} if matches is None else matches
        self.slots: dict[tuple[int, str], Optional[Rule]] = {}


def build_rule_table(rules: Sequence[Rule], arities: Iterable[int]) -> RuleTable:
    """Index written rules for two-probe lookup, without checking them:
    ordinary rules under an unordered symbol-pair key, the first kept where
    two share one, generic rules under their concrete symbol, in order.
    Only ``max_name_id`` reads ``arities``, the partner arities lookups
    meet (``()`` if no rule is variadic); tests build ill-formed tables."""
    ordinary: dict[tuple[str, str], Rule] = {}
    generic: dict[str, list[Rule]] = {}
    top = max(arities, default=-1)
    max_id = -1
    for r in rules:
        g = r.generic
        if g is None:
            ordinary.setdefault(_pair_key(r.left.symbol.name, r.right.symbol.name), r)
        else:
            generic.setdefault(r.left.symbol.name, []).append(r)
        if g is None or not g.is_variadic:
            max_id = max(max_id, _rule_max_name_id(r))
        elif top >= len(g.fixed_params):  # the widest instance has the largest
            max_id = max(max_id, _instance_max_name_id(r, top))
    return RuleTable(ordinary, generic, max_id)


def lookup(table: RuleTable, a: Symbol, b: Symbol) -> Optional[Match]:
    """Resolve and orient the rule for an active pair with left symbol
    ``a`` and right symbol ``b``; the one place a pair is oriented.

    Ordinary rules take priority, and ``a`` binds the left pattern unless
    the rule's left symbol is ``b``'s.  Otherwise the generic slot with
    ``a`` in the wildcard position (``swapped``) is probed before the one
    with ``b`` there (:func:`_generic_at`).  Returns ``None`` when nothing
    matches.
    """
    rule = table.ordinary.get(_pair_key(a.name, b.name))
    if rule is not None:
        return Match(rule, rule.left.symbol.name != a.name)
    rule = _generic_at(table, a.arity, b.name)
    if rule is not None:
        return Match(rule, True)
    rule = _generic_at(table, b.arity, a.name)
    return None if rule is None else Match(rule, False)


def _generic_at(table: RuleTable, k: int, name: str) -> Optional[Rule]:
    """The rule of the generic slot for wildcard arity ``k`` and concrete
    symbol ``name``, or ``None``: the first generic rule on ``name`` that
    covers ``k``, a variadic one as its arity-``k`` instance, made once per
    table.  A slot is written only once resolved, never half made."""
    rules = table.generic.get(name)
    if rules is None:
        return None
    slot = (k, name)
    if slot in table.slots:
        return table.slots[slot]
    rule = table.slots[slot] = next(
        (_instance(r, k) if r.generic.is_variadic else r for r in rules
         if k == len(r.generic.fixed_params)
         or (r.generic.is_variadic and k > len(r.generic.fixed_params))), None)
    return rule


# ---------------------------------------------------------------------------
# Whole-rule-set analysis pipeline
# ---------------------------------------------------------------------------

class Analysis(Record):
    """What :func:`analyze_rules` found: its diagnostics in order, the
    written rules, the arities the overlap check took (``None`` when a
    check before it failed), and the table when every check passed."""

    _fields = ("diagnostics", "rules", "arities", "table")

    def __init__(self, diagnostics: list[Diagnostic], rules: Sequence[Rule],
                 arities: Optional[Iterable[int]], table: Optional[RuleTable]) -> None:
        self.diagnostics = diagnostics
        self.rules = rules
        self.arities = arities
        self.table = table

    @property
    def ok(self) -> bool:
        return self.table is not None

    @_built_once
    def expanded_rules(self) -> list[Rule]:
        """Each variadic rule's instances at :attr:`arities` in place of it,
        their right-hand sides not yet built; made when first read, which
        only ``inet expand`` does."""
        ks = self.arities
        return [] if ks is None else [x for r in self.rules for x in expand_variadic(r, ks)]


def analyze_rules(
    rules: Sequence[Rule],
    symbols: Iterable[Symbol],
    *,
    arity_cap: int = DEFAULT_ARITY_CAP,
    all_arities: bool = False,
) -> Analysis:
    """Run every static check in order and build the table if all pass.

    The one checker of a rule set.  Order: per-rule linearity, ambiguity,
    the expansion cap, the generic-overlap check; no instance is made here.

    Each variadic rule stands for its instances at exactly the arities of
    the given ``symbols`` (those at or above its fixed-port count), which
    covers every active pair a net over these symbols can form: right-hand
    sides only build agents of these symbols, and a wildcard copy takes its
    partner's symbol.  ``all_arities`` takes every arity from 0 to the
    maximum instead, as ``inet expand`` prints them.  Either way, a maximum
    arity above ``arity_cap`` is an error, which names that arity, if any
    rule is variadic.
    """
    diags: list[Diagnostic] = []
    for r in rules:
        diags.extend(validate_linearity(r))
    diags.extend(check_no_ambiguity(rules))
    if errors_in(diags):
        return Analysis(diags, rules, None, None)

    arities = {s.arity for s in symbols}
    top = max(arities, default=0)
    if top > arity_cap and any(r.kind is RuleKind.VARIADIC for r in rules):
        message = f"maximum arity {top} exceeds the expansion cap {arity_cap}"
        diags.append(Diagnostic("error", "E_EXPAND_OVERFLOW", message))
        return Analysis(diags, rules, None, None)
    ks = range(top + 1) if all_arities else arities
    diags.extend(check_grc(rules, ks))
    table = None if errors_in(diags) else build_rule_table(rules, ks)
    return Analysis(diags, rules, ks, table)
