"""Interaction rules: patterns, validation, variadic expansion, rule table.

A rule rewrites an active pair (an equation between two agent terms) into a
multiset of right-hand-side equations.  Three kinds exist:

* ordinary      - both pattern sides name concrete symbols;
* fixed generic - one side matches any agent of one specific arity;
* variadic      - one side matches any agent with at least ``f`` ports, the
                  remainder of its ports covered by a range ``[x]``.

:func:`analyze_rules` is the one checker of a rule set: it runs every
static check in order and builds the table only if all pass.  The steps it
calls are plain building blocks: :func:`expand_variadic` expands at the
arities it is given and :func:`build_rule_table` indexes whatever it is
given, so tests can build ill-formed tables.

Variadic rules never reach the reduction engine directly: they are expanded
into one fixed generic rule per arity that occurs in the program, which also
makes the static overlap checks finite.  Analysis makes an arity instance
from its patterns only, which is all the checks and the rule table read;
its right-hand side is built the first time it is read, so an instance
that never fires never has one (:attr:`Rule.rhs`).  A non-variadic
right-hand side is compiled once into a flat :class:`RhsProgram`, which
builds its net equations directly and knows where each of their names
lands; it serves the engine's interactions and the self-rule swap check
alike.  Each rule compiles itself the first time its program is read
(:attr:`Rule.program`), and the rule table memoizes lookups per symbol
pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core import (
    Agent,
    CanonicalConfiguration,
    Configuration,
    Equation,
    Name,
    NameSupply,
    NetError,
    Symbol,
    Term,
    canonicalize,
)

DEFAULT_ARITY_CAP = 64


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: Optional[Span] = None

    def __str__(self) -> str:
        where = f" ({self.span})" if self.span else ""
        return f"{self.severity}: {self.code}: {self.message}{where}"


def errors_in(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diags if d.severity == "error"]


# ---------------------------------------------------------------------------
# Rule shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrdinaryPattern:
    """A concrete agent pattern: symbol plus one parameter name per port."""

    symbol: Symbol
    params: tuple[Name, ...]

    def __post_init__(self) -> None:
        if len(self.params) != self.symbol.arity:
            raise NetError(
                f"pattern {self.symbol.name}/{self.symbol.arity} has "
                f"{len(self.params)} parameter(s)"
            )


@dataclass(frozen=True)
class GenericPattern:
    """A wildcard agent pattern.

    Without a range it matches any agent of arity ``len(fixed_params)``.
    With a range it matches any agent of arity >= ``len(fixed_params)``; the
    fixed parameters bind the partner's first ports in order and the range
    stands for all remaining ports.
    """

    generic_name: str
    fixed_params: tuple[Name, ...] = ()
    range_name: Optional[str] = None

    @property
    def is_variadic(self) -> bool:
        return self.range_name is not None


@dataclass(frozen=True)
class GenericRef:
    """Occurrence of the rule's wildcard agent inside a right-hand side."""

    name: str


@dataclass(frozen=True)
class VarName:
    """One arbitrary port of a range: ``x'`` stands for a single port of [x]."""

    range_name: str


@dataclass(frozen=True)
class RAgent:
    """Right-hand-side agent application.

    ``range_tail`` splices a whole range behind the explicit arguments, so
    ``phi(s, [y])`` is ``RAgent(GenericRef(...), (s,), "y")``.
    """

    head: Union[Symbol, GenericRef]
    args: tuple["RhsTerm", ...] = ()
    range_tail: Optional[str] = None


RhsTerm = Union[Name, VarName, RAgent]


@dataclass(frozen=True)
class RuleEquation:
    left: RhsTerm
    right: RhsTerm


class RuleKind(str, Enum):
    ORDINARY = "ordinary"
    FIXED_GENERIC = "fixed-generic"
    VARIADIC = "variadic"


class _built_once:
    """``functools.cached_property`` without the lock that Python 3.11
    takes on every first read: the value goes into the instance's
    attributes, where later reads find it without calling anything.  It is
    stored with ``object.__setattr__``, not through ``__dict__``: touching
    ``__dict__`` costs the instance its inline attribute values, and every
    later attribute read on it gets slower."""

    def __init__(self, build):
        self._build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self._build(obj)
        object.__setattr__(obj, self._name, value)
        return value


@dataclass(frozen=True)
class Rule:
    """One interaction rule.

    A generic side, when present, is always stored on the right; parsers and
    builders normalize the orientation (equations are undirected anyway).

    An arity instance of a variadic rule is made from its patterns alone,
    with the written rule as ``instance_of`` and no ``rhs``: its right-hand
    side is built by :func:`_expand_at` the first time it is read, the way
    :attr:`program` is.  Equality, hashing and ``repr`` read it too.
    """

    id: str
    left: OrdinaryPattern
    right: Union[OrdinaryPattern, GenericPattern]
    rhs: tuple[RuleEquation, ...] = _built_once(lambda rule: _expand_at(rule))
    origin: str = ""
    instance_of: Optional["Rule"] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Made without a right-hand side, the builder stood in as the
        # default: drop it, so that the first read builds one.  Not through
        # ``__dict__``, which would cost the instance its inline attribute
        # storage and make every later attribute read slower.
        if self.rhs is Rule.__dict__["rhs"]:
            assert self.instance_of is not None, "only an arity instance comes without a RHS"
            object.__delattr__(self, "rhs")

    @property
    def generic(self) -> Optional[GenericPattern]:
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

    def lhs_text(self) -> str:
        if isinstance(self.right, GenericPattern):
            g = self.right
            partner = f"{g.generic_name}/{len(g.fixed_params)}"
            if g.is_variadic:
                partner += "+"
            return f"{self.left.symbol.name} >< {partner}"
        return f"{self.left.symbol.name} >< {self.right.symbol.name}"

    @_built_once
    def program(self) -> "RhsProgram":
        """The compiled right-hand side, built the first time it is read.

        Sharing a rule across threads stays safe: compiling is a pure
        function of the rule, so a repeated build stores an equal program.
        """
        return RhsProgram(self)


def _eq_parts(eq: RuleEquation) -> Iterator[RhsTerm]:
    """Both sides of ``eq`` and all their subterms, in preorder, the left
    side first; iterative, so the rule text's depth is unbounded."""
    stack = [eq.right, eq.left]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, RAgent) and u.args:
            stack.extend(u.args[::-1])


def _eq_names(eq: RuleEquation) -> Iterator[Name]:
    for part in _eq_parts(eq):
        if isinstance(part, Name):
            yield part


def _eq_varnames(eq: RuleEquation) -> Iterator[str]:
    for part in _eq_parts(eq):
        if isinstance(part, VarName):
            yield part.range_name


def _eq_ranges(eq: RuleEquation) -> Iterator[str]:
    for part in _eq_parts(eq):
        if isinstance(part, RAgent) and part.range_tail is not None:
            yield part.range_tail


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------

# A fault the rule text may hit when it fires, in the order it is read: a
# range or variadic name, a wildcard agent (it needs a partner), and the
# close of an agent (it must have its symbol's arity).
_RANGE, _WILD, _CLOSE = range(3)


class RhsProgram:
    """The right-hand side of a non-variadic rule, compiled once into a flat
    instantiation program; read it as :attr:`Rule.program`.  It keeps only
    its rule's id, for fault messages, so rule and program form no cycle.

    Values live in numbered slots: first the rule's parameters, in the order
    of ``rule.params``, then its other names, each freshened on first sight
    (the left side of each equation before the right, depth first, with its
    display hint).  ``code`` is one postfix sequence for all the equations,
    each side's ops followed by the next side's.  An op is a slot number
    (push the value), a ``(symbol, arity)`` pair (pop ``arity`` values and
    push the agent; a ``None`` symbol is the wildcard agent, which becomes
    the matched partner), or ``None`` (pop two sides and emit their
    equation).  The ops run on an explicit stack, so a right-hand side may
    be as deep as it likes.

    The program also records where its values land, for the reducer's
    occurrence index.  ``fresh_sites`` gives each fresh name's sites as
    (equation, side, whole side) in reading order.  ``moves`` gives the
    parameters' sites in reading order, as (equation, slot, side, whole
    side).  A ``None`` slot marks where an equation touches itself: where
    the second occurrence of a fresh name that is its whole left side is
    read, and after its last parameter.
    """

    __slots__ = (
        "rule_id", "hints", "code", "fresh_sites", "moves", "overused",
        "_need", "_faults",
    )

    def __init__(self, rule: Rule):
        self.rule_id = rule.id
        params = rule.params
        n_params = len(params)
        slots = {p.id: i for i, p in enumerate(params)}  # name id -> slot
        hints: list[str] = []
        fresh_sites: list[list[tuple[int, int, bool]]] = []
        faults: list[tuple] = []
        # The partner arity the wildcard agents take, checked before the
        # program runs: -1 with no wildcard, None when a fault always occurs
        # (a range, or wildcards of two arities).  A concrete agent at the
        # wrong arity fails as it is built, in reading order.
        need: Optional[int] = -1
        overused = None
        code: list = []
        moves: list[tuple] = []

        for k, eq in enumerate(rule.rhs):
            for side, t in ((0, eq.left), (1, eq.right)):
                todo: list = [t]  # terms to read; a tuple closes an agent
                while todo:
                    u = todo.pop()
                    cls = u.__class__
                    if cls is Name:
                        slot = slots.get(u.id)
                        whole = u is t
                        if slot is None:
                            slot = slots[u.id] = n_params + len(hints)
                            hints.append(u.display)
                            fresh_sites.append([(k, side, whole)])
                        elif slot < n_params:
                            moves.append((k, slot, side, whole))
                        else:
                            sites = fresh_sites[slot - n_params]
                            if len(sites) == 1 and sites[0] == (k, 0, True):
                                moves.append((k, None, side, whole))
                            elif len(sites) == 2 and overused is None:
                                overused = u.display
                            sites.append((k, side, whole))
                        code.append(slot)
                    elif cls is RAgent and u.range_tail is None:
                        if u.head.__class__ is GenericRef:
                            faults.append((_WILD,))
                        todo.append((u,))
                        todo.extend(reversed(u.args))
                    elif cls is tuple:
                        u = u[0]
                        head, n = u.head, len(u.args)
                        if head.__class__ is GenericRef:
                            faults.append((_CLOSE, None, n))
                            need = n if need in (-1, n) else None
                            head = None
                        elif head.arity != n:
                            faults.append((_CLOSE, head, n))
                        code.append((head, n))
                    else:  # a range or a variadic name: the program never runs
                        faults.append((_RANGE,))
                        need = None
            code.append(None)
            moves.append((k, None, 1, False))

        self.hints = tuple(hints)
        self.code = tuple(code)
        self.fresh_sites = tuple(map(tuple, fresh_sites))
        self.moves = tuple(moves)
        self.overused = overused  # the hint of a fresh name used more than twice
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

        Raises :class:`NetError` on a range or variadic name (expand
        variadic rules first), on a wildcard when ``partner`` is ``None``,
        and on an agent applied at the wrong arity, whichever comes first in
        reading order.
        """
        need = self._need
        if need != -1 and (partner is None or partner.arity != need):
            self._fail(partner)
        vals = [*args, *map(supply.fresh, self.hints)]
        out: list[Equation] = []
        stack: list[Term] = []
        push, pop = stack.append, stack.pop
        for op in self.code:
            if op.__class__ is int:
                push(vals[op])
            elif op is None:
                right = pop()
                out.append(Equation(pop(), right))
            else:
                symbol, n = op
                if n:
                    agent_args = tuple(stack[-n:])
                    del stack[-n:]
                else:
                    agent_args = ()
                push(Agent(partner if symbol is None else symbol, agent_args))
        return out

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


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_linearity(rule: Rule) -> list[Diagnostic]:
    """Port-discipline check for a single rule.

    Every left-hand parameter must be used exactly once on the right, every
    other right-hand name exactly twice; ranges and variadic names follow the
    same discipline (a left-hand range is a parameter, a right-hand-only
    range is an internal wire bundle).
    """
    diags: list[Diagnostic] = []

    def err(code: str, message: str) -> None:
        diags.append(Diagnostic("error", code, f"rule {rule.id}: {message}"))

    params = rule.params
    for name, count in Counter(params).items():
        if count > 1:
            err("E_LIN_DUP", f"parameter {name.display} bound more than once in the LHS")

    param_set = set(params)
    name_count: Counter = Counter()
    for eq in rule.rhs:
        name_count.update(_eq_names(eq))

    for p in params:
        c = name_count.get(p, 0)
        if c == 0:
            err("E_LIN_ERASED", f"LHS parameter {p.display} is never used in the RHS")
        elif c > 1:
            err("E_LIN_DUP", f"LHS parameter {p.display} used {c} times in the RHS")
    for n, c in name_count.items():
        if n in param_set:
            continue
        if c == 1:
            err("E_LIN_ERASED", f"name {n.display} occurs only once in the RHS (dangling wire)")
        elif c > 2:
            err("E_LIN_DUP", f"name {n.display} occurs {c} times in the RHS")

    # Generic occurrences must agree with the LHS wildcard shape.
    g = rule.generic
    for eq in rule.rhs:
        for part in _eq_parts(eq):
            if isinstance(part, RAgent) and isinstance(part.head, GenericRef):
                if g is None:
                    err("E_STRAY_GENERIC", "generic agent in the RHS of a non-generic rule")
                elif g.is_variadic:
                    if part.range_tail is None:
                        err("E_GEN_ARITY", "generic occurrence in a variadic rule must carry the range")
                    elif len(part.args) != len(g.fixed_params):
                        err(
                            "E_GEN_ARITY",
                            f"generic occurrence has {len(part.args)} fixed argument(s), "
                            f"LHS declares {len(g.fixed_params)}",
                        )
                else:
                    if part.range_tail is not None:
                        err("E_GEN_ARITY", "range on a generic occurrence of a fixed-generic rule")
                    elif len(part.args) != len(g.fixed_params):
                        err(
                            "E_GEN_ARITY",
                            f"generic occurrence has {len(part.args)} argument(s), "
                            f"expected {len(g.fixed_params)}",
                        )
            elif isinstance(part, RAgent) and isinstance(part.head, Symbol):
                if part.range_tail is not None:
                    # A range stands for the partner's remaining ports, so its
                    # width varies with the match; a concrete agent cannot
                    # absorb that.
                    err(
                        "E_RANGE_CONCRETE",
                        f"range argument on concrete agent {part.head.name}",
                    )
                elif len(part.args) != part.head.arity:
                    err(
                        "E_ARITY_CONFLICT",
                        f"agent {part.head.name}/{part.head.arity} applied to "
                        f"{len(part.args)} argument(s)",
                    )

    # Ranges and variadic names.
    variadic = g is not None and g.is_variadic
    lhs_range = g.range_name if variadic else None
    range_count: Counter = Counter()
    for eq in rule.rhs:
        ranges = list(_eq_ranges(eq))
        varnames = list(_eq_varnames(eq))
        range_count.update(ranges)
        range_count.update(varnames)
        if ranges and varnames:
            err("E_MIXED", "an equation may not contain both a range and a variadic name")
        if not variadic and (ranges or varnames):
            err("E_STRAY_VARIADIC", "range or variadic name in a non-variadic rule")
        if varnames:
            # A replicated equation is instantiated once per covered port, so
            # a plain name may not wire it to the rest of the rule and the
            # LHS parameters may not be captured by every copy.
            local = Counter(_eq_names(eq))
            for n, c in local.items():
                if n in param_set:
                    err("E_VN_SPAN", f"parameter {n.display} inside a replicated equation")
                elif name_count[n] != c or c != 2:
                    err(
                        "E_VN_SPAN",
                        f"name {n.display} is shared between a replicated equation and the rest of the rule",
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
    if variadic and lhs_range is not None and range_count.get(lhs_range, 0) == 0:
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
            diags.append(
                Diagnostic(
                    "error",
                    "E_DUP_PAIR",
                    f"rules {seen_pairs[key].id} and {rule.id} both rewrite the pair "
                    f"({key[0]}, {key[1]})",
                )
            )
        else:
            seen_pairs[key] = rule
        if a == b:
            try:
                symmetric = _self_rule_symmetric(rule)
            except NetError:
                continue  # nonlinear rule; validate_linearity reports it
            if not symmetric:
                diags.append(
                    Diagnostic(
                        "error",
                        "E_SELF_ASYM",
                        f"rule {rule.id}: self rule on {a} is not invariant under "
                        f"swapping its two parameter vectors",
                    )
                )

    generics = [(r, r.generic) for r in rules if r.generic is not None]
    for (r1, g1), (r2, g2) in combinations(generics, 2):
        symbol = r1.left.symbol.name
        if symbol != r2.left.symbol.name:
            continue
        # Both slots cover the larger fixed-port count, and so clash, unless
        # one of them is a fixed slot for a smaller arity.
        top = max(len(g1.fixed_params), len(g2.fixed_params))
        if all(g.is_variadic or len(g.fixed_params) == top for g in (g1, g2)):
            diags.append(
                Diagnostic(
                    "error",
                    "E_DUP_GENERIC",
                    f"rules {r1.id} and {r2.id} occupy the same generic slot for "
                    f"symbol {symbol}",
                )
            )
    return diags


# ---------------------------------------------------------------------------
# Variadic expansion
# ---------------------------------------------------------------------------

def _rule_max_name_id(rule: Rule) -> int:
    best = -1
    for n in rule.params:
        best = max(best, n.id)
    for eq in rule.rhs:
        for n in _eq_names(eq):
            best = max(best, n.id)
    return best


def expand_variadic(rule: Rule, arities: Iterable[int]) -> list[Rule]:
    """Translate a variadic rule into fixed generic rules, one per arity.

    The instances cover the given ``arities`` at or above the rule's
    fixed-port count ``f``, in ascending order.  A non-variadic rule comes
    back unchanged.  Nothing here bounds the arities: the expansion cap is
    :func:`analyze_rules`' to check.

    The arity-``k`` instance is the rule instantiated against an abstract
    partner with ``k`` ports: the left-hand range becomes ``k - f`` explicit
    parameters, fresh names numbered from just above the rule's largest
    name id.  Only the instance's patterns are made here; its right-hand
    side is built by :func:`_expand_at` the first time it is read.
    """
    g = rule.generic
    if g is None or not g.is_variadic:
        return [rule]
    f = len(g.fixed_params)
    ks = sorted({k for k in arities if k >= f})
    first = _rule_max_name_id(rule) + 1
    extra = max(ks, default=f) - f
    ports = tuple(Name(first + i, f"{g.range_name}{i + 1}") for i in range(extra))
    return [
        Rule(
            id=f"{rule.id}@{k}",
            left=rule.left,
            right=GenericPattern(g.generic_name, g.fixed_params + ports[: k - f], None),
            origin=f"expanded-from({rule.id}, {k})",
            instance_of=rule,
        )
        for k in ks
    ]


def _instance_parts(rule: Rule) -> tuple[Rule, GenericPattern, tuple[Name, ...]]:
    """The written rule of the arity instance ``rule``, its wildcard, and
    the instance's ports beyond the written fixed ones."""
    src = rule.instance_of
    assert src is not None and src.generic is not None
    return src, src.generic, rule.right.fixed_params[len(src.generic.fixed_params):]


def _expand_at(rule: Rule) -> tuple[RuleEquation, ...]:
    """The right-hand side of the arity instance ``rule``.

    Each of the instance's ``m`` extra ports stands in for one port of the
    left-hand range; each right-hand-only range becomes ``m`` fresh names
    (shared across its two occurrences), and every equation holding a
    variadic name is replicated once per extra port, with fresh copies of
    its local names.  The fresh names continue the numbering of the ports,
    in reading order, so that an instance built late equals one built
    early.
    """
    src, g, lhs_ports = _instance_parts(rule)
    m = len(lhs_ports)
    # With no extra ports nothing is drawn.
    supply = NameSupply(lhs_ports[-1].id + 1 if m else 0)
    rhs_vectors: dict[str, tuple[Name, ...]] = {}
    params = set(src.params)

    def vector(rng: str) -> tuple[Name, ...]:
        if rng == g.range_name:
            return lhs_ports
        if rng not in rhs_vectors:
            rhs_vectors[rng] = tuple(supply.fresh(f"{rng}{i + 1}") for i in range(m))
        return rhs_vectors[rng]

    def conv(t: RhsTerm, vn_map: dict[str, Name], names: dict[Name, Name]) -> RhsTerm:
        if not isinstance(t, RAgent):
            return names.get(t, t) if isinstance(t, Name) else vn_map[t.range_name]
        # Per open agent: the agent, its arguments left to visit and its
        # converted arguments so far.
        frames = [(t, iter(t.args), [])]
        while True:
            agent, todo, done = frames[-1]
            for a in todo:
                if isinstance(a, RAgent):
                    frames.append((a, iter(a.args), []))
                    break
                done.append(names.get(a, a) if isinstance(a, Name) else vn_map[a.range_name])
            else:
                frames.pop()
                args = tuple(done)
                if agent.range_tail is not None:
                    # Only now, so that a range's fresh names follow those
                    # of the explicit arguments.
                    args += vector(agent.range_tail)
                out = RAgent(agent.head, args, None)
                if not frames:
                    return out
                frames[-1][2].append(out)

    new_rhs: list[RuleEquation] = []
    for eq in src.rhs:
        # In reading order, so that ranges first read here draw their names
        # in an order that does not depend on string hashing.
        vns = dict.fromkeys(_eq_varnames(eq))
        if vns:
            local = [n for n in dict.fromkeys(_eq_names(eq)) if n not in params]
            for i in range(m):
                vn_map = {r: vector(r)[i] for r in vns}
                names = {n: supply.fresh(n.display) for n in local}
                new_rhs.append(
                    RuleEquation(conv(eq.left, vn_map, names), conv(eq.right, vn_map, names))
                )
        else:
            new_rhs.append(RuleEquation(conv(eq.left, {}, {}), conv(eq.right, {}, {})))
    return tuple(new_rhs)


def _instance_max_name_id(rule: Rule) -> int:
    """The largest name id of the arity instance ``rule``, read off its
    written rule without building its right-hand side.

    :func:`_expand_at` draws the same number of fresh names per extra port,
    numbered on from the ports: one per right-hand-only range, and the
    local names of each replicated equation.  So with extra ports the last
    name drawn is the largest; with none, the instance keeps the written
    rule's names outside its replicated equations.
    """
    src, g, lhs_ports = _instance_parts(rule)
    params = set(src.params)
    kept = [n.id for n in params]
    ranges: set[str] = set()
    per_port = 0
    for eq in src.rhs:
        vns = set(_eq_varnames(eq))
        ranges |= vns
        ranges.update(_eq_ranges(eq))
        if vns:
            per_port += len(set(_eq_names(eq)) - params)
        else:
            kept.extend(n.id for n in _eq_names(eq))
    if not lhs_ports:
        return max(kept, default=-1)
    ranges.discard(g.range_name)
    return lhs_ports[-1].id + len(lhs_ports) * (len(ranges) + per_port)


# ---------------------------------------------------------------------------
# Generic rule constraint
# ---------------------------------------------------------------------------

def check_grc(rules: Sequence[Rule]) -> list[Diagnostic]:
    """Generic-overlap check over a fully expanded rule set.

    Two generic rules ``A >< phi_m`` and ``B >< phi_n`` both match the active
    pair (A, B) exactly when arity(A) = n and arity(B) = m; such a pair must
    then be covered by an ordinary rule, which takes priority at run time.
    """
    if any(r.kind is RuleKind.VARIADIC for r in rules):
        raise ValueError("check_grc expects an expanded rule set (no variadic rules)")
    diags: list[Diagnostic] = []
    ordinary_pairs = set()
    for r in rules:
        if isinstance(r.right, OrdinaryPattern):
            ordinary_pairs.add(_pair_key(r.left.symbol.name, r.right.symbol.name))

    generics = [r for r in rules if r.generic is not None]
    for r in generics:
        g = r.generic
        assert g is not None
        if r.left.symbol.arity == len(g.fixed_params):
            diags.append(
                Diagnostic(
                    "warning",
                    "W_SELF_GENERIC",
                    f"rule {r.id} can match its own symbol pair "
                    f"({r.left.symbol.name}, {r.left.symbol.name}); the two-probe "
                    f"lookup order makes the binding deterministic",
                )
            )
    for r1, r2 in combinations(generics, 2):
        a_sym = r1.left.symbol
        b_sym = r2.left.symbol
        g1 = r1.generic
        g2 = r2.generic
        assert g1 is not None and g2 is not None
        m, n = len(g1.fixed_params), len(g2.fixed_params)
        if (a_sym.name, m) == (b_sym.name, n):
            continue  # identical slot: reported as E_DUP_GENERIC elsewhere
        if a_sym.arity == n and b_sym.arity == m:
            if _pair_key(a_sym.name, b_sym.name) not in ordinary_pairs:
                diags.append(
                    Diagnostic(
                        "error",
                        "E_GRC_OVERLAP",
                        f"generic rules {r1.id} ({r1.lhs_text()}) and {r2.id} "
                        f"({r2.lhs_text()}) both match the active pair "
                        f"({a_sym.name}, {b_sym.name}) and no ordinary rule covers it",
                    )
                )
    return diags


# ---------------------------------------------------------------------------
# Rule table and lookup
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Match:
    """The rule for an active pair, oriented against the pair's equation.

    ``swapped`` means the equation's right term binds the rule's left
    pattern and its left term the right pattern or wildcard; otherwise the
    left term binds the left pattern.
    """

    rule: Rule
    swapped: bool


@dataclass
class RuleTable:
    """The rules of a program, indexed for two-probe lookup.

    The indexes hold rules by their patterns and never change once built.
    What fills lazily as the table is used: ``matches`` holds the
    :func:`lookup` result, an oriented :class:`Match` or ``None``, per
    ordered pair of symbols (the name and arity of each), filled by the
    reducer; and each rule builds its own body the first time it fires,
    an arity instance its right-hand side (:attr:`Rule.rhs`) and every
    rule its compiled program (:attr:`Rule.program`).  Sharing a table
    across threads stays safe: each of these is a pure function of its
    key or rule, so a repeated fill writes an equal value.
    ``max_name_id`` is the largest name id in the rules, instances'
    right-hand sides included, found without building them.
    """

    ordinary: dict[tuple[str, str], Rule]
    generic: dict[tuple[int, str], Rule]
    max_name_id: int = -1
    matches: dict[tuple[str, int, str, int], Optional[Match]] = field(
        default_factory=dict, compare=False, repr=False
    )


def build_rule_table(rules: Sequence[Rule]) -> RuleTable:
    """Index an expanded rule set for two-probe lookup, without checking it.

    Ordinary rules are stored under an unordered symbol-pair key, generic
    rules under (wildcard arity, concrete partner symbol); where two rules
    share a key, the first is kept.  :func:`analyze_rules` builds a table
    only from a rule set that passes every check; tests call this directly
    to study ill-formed systems.
    """
    if any(r.kind is RuleKind.VARIADIC for r in rules):
        raise ValueError("build_rule_table expects an expanded rule set")

    ordinary: dict[tuple[str, str], Rule] = {}
    generic: dict[tuple[int, str], Rule] = {}
    max_id = -1
    widest: dict[int, Rule] = {}  # per written variadic rule, its widest instance
    for r in rules:
        src = r.instance_of
        if src is None:
            max_id = max(max_id, _rule_max_name_id(r))
        elif len(r.right.fixed_params) >= len(widest.get(id(src), r).right.fixed_params):
            widest[id(src)] = r
        if isinstance(r.right, OrdinaryPattern):
            ordinary.setdefault(_pair_key(r.left.symbol.name, r.right.symbol.name), r)
        else:
            g = r.generic
            assert g is not None and not g.is_variadic
            generic.setdefault((len(g.fixed_params), r.left.symbol.name), r)
    # An instance's largest name id grows with its arity.
    for r in widest.values():
        max_id = max(max_id, _instance_max_name_id(r))
    return RuleTable(ordinary, generic, max_id)


def lookup(table: RuleTable, a: Symbol, b: Symbol) -> Optional[Match]:
    """Resolve and orient the rule for an active pair with left symbol
    ``a`` and right symbol ``b``; the one place a pair is oriented.

    Ordinary rules take priority, and ``a`` binds the left pattern unless
    the rule's left symbol is ``b``'s.  Otherwise the generic slot with
    ``a`` in the wildcard position (``swapped``) is probed before the one
    with ``b`` there.  Returns ``None`` when nothing matches.
    """
    rule = table.ordinary.get(_pair_key(a.name, b.name))
    if rule is not None:
        return Match(rule, rule.left.symbol.name != a.name)
    rule = table.generic.get((a.arity, b.name))
    if rule is not None:
        return Match(rule, True)
    rule = table.generic.get((b.arity, a.name))
    if rule is not None:
        return Match(rule, False)
    return None


# ---------------------------------------------------------------------------
# Whole-rule-set analysis pipeline
# ---------------------------------------------------------------------------

@dataclass
class Analysis:
    """What :func:`analyze_rules` found: its diagnostics in order, the rule
    set after expansion (each variadic rule's arity instances in place of
    it, with their right-hand sides not yet built), the table when every
    check passed, and the largest arity among the symbols."""

    diagnostics: list[Diagnostic]
    expanded_rules: list[Rule]
    table: Optional[RuleTable]
    max_arity: int

    @property
    def ok(self) -> bool:
        return self.table is not None


def analyze_rules(
    rules: Sequence[Rule],
    symbols: Iterable[Symbol],
    *,
    arity_cap: int = DEFAULT_ARITY_CAP,
    all_arities: bool = False,
) -> Analysis:
    """Run every static check in order and build the table if all pass.

    This is the one checker of a rule set; :func:`expand_variadic` and
    :func:`build_rule_table` check nothing.  Order: per-rule linearity,
    ambiguity over the written rules, the expansion cap, variadic
    expansion, generic-overlap check over the expanded set.  Everything
    after expansion reads patterns only: no instance's right-hand side is
    built here, but by the first read of it, when the instance fires (or is
    printed).

    Each variadic rule is expanded at exactly the arities of the given
    ``symbols`` (those at or above its fixed-port count), so the table
    covers exactly those arities.  That covers every active pair a net over
    these symbols can form, since right-hand sides only build agents of
    these symbols and a wildcard copy takes its partner's symbol.  The
    diagnostics equal those of a full expansion: an overlap between
    ``A >< phi_m`` and ``B >< phi_n`` needs ``n = arity(A)`` and
    ``m = arity(B)``.  ``all_arities`` expands at every arity from 0 to the
    maximum instead, as ``inet expand`` prints it.  Either way, a maximum
    arity above ``arity_cap`` is an error if any rule is variadic.
    """
    diags: list[Diagnostic] = []
    for r in rules:
        diags.extend(validate_linearity(r))
    diags.extend(check_no_ambiguity(rules))
    if errors_in(diags):
        return Analysis(diags, [], None, 0)

    arities = {s.arity for s in symbols}
    top = max(arities, default=0)
    if top > arity_cap and any(r.kind is RuleKind.VARIADIC for r in rules):
        diags.append(
            Diagnostic(
                "error",
                "E_EXPAND_OVERFLOW",
                f"maximum arity {top} exceeds the expansion cap {arity_cap}",
            )
        )
        return Analysis(diags, [], None, top)
    ks = range(top + 1) if all_arities else arities
    expanded = [x for r in rules for x in expand_variadic(r, ks)]

    diags.extend(check_grc(expanded))
    if errors_in(diags):
        return Analysis(diags, expanded, None, top)
    return Analysis(diags, expanded, build_rule_table(expanded), top)
