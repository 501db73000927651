"""Interaction rules: patterns, validation, variadic expansion, rule table.

A rule rewrites an active pair (an equation between two agent terms) into a
multiset of right-hand-side equations.  Three kinds exist:

* ordinary      - both pattern sides name concrete symbols;
* fixed generic - one side matches any agent of one specific arity;
* variadic      - one side matches any agent with at least ``f`` ports, the
                  remainder of its ports covered by a range ``[x]``.

Variadic rules never reach the reduction engine directly: they are expanded
into one fixed generic rule per arity that occurs in the program, which also
makes the static overlap checks finite.  A non-variadic right-hand side
is compiled once into a flat :class:`RhsProgram`, which builds its net
equations directly and knows where each of their names lands; it serves
the engine's interactions and the self-rule swap check alike.  Each rule
compiles itself the first time its program is read (:attr:`Rule.program`),
and the rule table memoizes lookups per symbol pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
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


class RuleSetError(NetError):
    """Raised when a rule set with error diagnostics is forced into a table."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics))


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


@dataclass(frozen=True)
class Rule:
    """One interaction rule.

    A generic side, when present, is always stored on the right; parsers and
    builders normalize the orientation (equations are undirected anyway).
    """

    id: str
    left: OrdinaryPattern
    right: Union[OrdinaryPattern, GenericPattern]
    rhs: tuple[RuleEquation, ...]
    kind: RuleKind
    origin: str = ""

    @property
    def generic(self) -> Optional[GenericPattern]:
        return self.right if isinstance(self.right, GenericPattern) else None

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

    @cached_property
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


def _generic_slot_kind(rule: Rule) -> Optional[tuple[str, str, int]]:
    """(kind, ordinary symbol, arity-or-fixed-ports) of a generic rule."""
    g = rule.generic
    if g is None:
        return None
    if g.is_variadic:
        return ("variadic", rule.left.symbol.name, len(g.fixed_params))
    return ("fixed", rule.left.symbol.name, len(g.fixed_params))


def check_no_ambiguity(rules: Sequence[Rule]) -> list[Diagnostic]:
    """Reject rule sets in which one active pair could match two rules.

    Checks ordinary pair uniqueness, the swap condition on self rules, and
    generic slot uniqueness (a variadic rule occupies every slot from its
    fixed-port count upward).
    """
    diags: list[Diagnostic] = []

    seen_pairs: dict[tuple[str, str], Rule] = {}
    for rule in rules:
        if rule.kind is not RuleKind.ORDINARY:
            continue
        assert isinstance(rule.right, OrdinaryPattern)
        a, b = rule.left.symbol.name, rule.right.symbol.name
        key = (a, b) if a <= b else (b, a)
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

    generics = [r for r in rules if r.generic is not None]
    for r1, r2 in combinations(generics, 2):
        k1 = _generic_slot_kind(r1)
        k2 = _generic_slot_kind(r2)
        assert k1 and k2
        kind1, sym1, n1 = k1
        kind2, sym2, n2 = k2
        if sym1 != sym2:
            continue
        if kind1 == "fixed" and kind2 == "fixed":
            clash = n1 == n2
        elif kind1 == "variadic" and kind2 == "variadic":
            clash = True  # both cover every arity >= max(f1, f2)
        else:
            fixed_arity = n1 if kind1 == "fixed" else n2
            f = n2 if kind1 == "fixed" else n1
            clash = fixed_arity >= f
        if clash:
            diags.append(
                Diagnostic(
                    "error",
                    "E_DUP_GENERIC",
                    f"rules {r1.id} and {r2.id} occupy the same generic slot for "
                    f"symbol {sym1}",
                )
            )
    return diags


def collect_symbols(
    rules: Sequence[Rule] = (),
    configs: Sequence[Configuration] = (),
    extra: Iterable[Symbol] = (),
) -> set[Symbol]:
    """Every concrete symbol appearing in the given rules and nets."""
    out: set[Symbol] = set(extra)
    for rule in rules:
        out.add(rule.left.symbol)
        if isinstance(rule.right, OrdinaryPattern):
            out.add(rule.right.symbol)
        for eq in rule.rhs:
            for part in _eq_parts(eq):
                if isinstance(part, RAgent) and isinstance(part.head, Symbol):
                    out.add(part.head)
    for config in configs:
        stack: list[Term] = list(config.interface)
        for eq in config.equations:
            stack.append(eq.left)
            stack.append(eq.right)
        while stack:
            t = stack.pop()
            if isinstance(t, Agent):
                out.add(t.symbol)
                stack.extend(t.args)
    return out


def max_arity(symbols: Iterable[Symbol]) -> int:
    """Largest arity over all given symbols (0 for an empty program)."""
    return max((s.arity for s in symbols), default=0)


# ---------------------------------------------------------------------------
# Variadic expansion
# ---------------------------------------------------------------------------

class ExpansionLimitError(NetError):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def _rule_max_name_id(rule: Rule) -> int:
    best = -1
    for n in rule.params:
        best = max(best, n.id)
    for eq in rule.rhs:
        for n in _eq_names(eq):
            best = max(best, n.id)
    return best


def expand_variadic(
    rule: Rule,
    max_arity: int,
    *,
    cap: int = DEFAULT_ARITY_CAP,
    arities: Optional[Iterable[int]] = None,
) -> list[Rule]:
    """Translate a variadic rule into fixed generic rules, one per arity.

    The instances cover every arity from the rule's fixed-port count ``f`` up
    to ``max_arity`` or, when ``arities`` is given, only its members in that
    range; either way in ascending order.

    The arity-``k`` instance is the rule instantiated against an abstract
    partner with ``k`` ports: the left-hand range becomes ``k - f`` explicit
    parameters, right-hand-only ranges become that many fresh names (shared
    across a range's two occurrences), and every equation holding a variadic
    name is replicated once per covered port.  Non-variadic rules are
    returned unchanged whatever ``max_arity`` is; the cap bounds expansion
    only.
    """
    g = rule.generic
    if g is None or not g.is_variadic:
        return [rule]
    if max_arity > cap:
        raise ExpansionLimitError(
            Diagnostic(
                "error",
                "E_EXPAND_OVERFLOW",
                f"maximum arity {max_arity} exceeds the expansion cap {cap}",
            )
        )
    f = len(g.fixed_params)
    if arities is None:
        ks: Iterable[int] = range(f, max_arity + 1)
    else:
        ks = sorted(k for k in set(arities) if f <= k <= max_arity)
    return [_expand_at(rule, g, f, k) for k in ks]


def _expand_at(rule: Rule, g: GenericPattern, f: int, k: int) -> Rule:
    m = k - f
    supply = NameSupply(_rule_max_name_id(rule) + 1)
    lhs_ports = tuple(supply.fresh(f"{g.range_name}{i + 1}") for i in range(m))
    rhs_vectors: dict[str, tuple[Name, ...]] = {}
    params = set(rule.params)

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
    for eq in rule.rhs:
        vns = set(_eq_varnames(eq))
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

    return Rule(
        id=f"{rule.id}@{k}",
        left=rule.left,
        right=GenericPattern(g.generic_name, g.fixed_params + lhs_ports, None),
        rhs=tuple(new_rhs),
        kind=RuleKind.FIXED_GENERIC,
        origin=f"expanded-from({rule.id}, {k})",
    )


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
        if r.kind is RuleKind.ORDINARY:
            assert isinstance(r.right, OrdinaryPattern)
            a, b = r.left.symbol.name, r.right.symbol.name
            ordinary_pairs.add((a, b) if a <= b else (b, a))

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
            key = (
                (a_sym.name, b_sym.name)
                if a_sym.name <= b_sym.name
                else (b_sym.name, a_sym.name)
            )
            if key not in ordinary_pairs:
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
class OrdinaryMatch:
    rule: Rule
    swapped: bool  # True: the equation's left term binds the rule's right pattern


@dataclass(frozen=True)
class GenericMatch:
    rule: Rule
    generic_side: str  # "left" | "right": equation side bound by the wildcard


MatchResult = Union[OrdinaryMatch, GenericMatch, None]


@dataclass
class RuleTable:
    """The rules of a program, indexed for two-probe lookup.

    The indexes never change once built.  One cache fills lazily as the
    table is used: ``matches`` holds the :func:`lookup` result per ordered
    pair of symbols (the name and arity of each), filled by the reducer.
    Sharing a table across threads stays safe: each entry is a pure
    function of its key, so a repeated fill writes the same value.  Each
    rule compiles its own right-hand side (:attr:`Rule.program`).
    """

    ordinary: dict[tuple[str, str], Rule]
    generic: dict[tuple[int, str], Rule]
    max_name_id: int = -1
    matches: dict[tuple[str, int, str, int], MatchResult] = field(
        default_factory=dict, compare=False, repr=False
    )


def build_rule_table(rules: Sequence[Rule], *, validate: bool = True) -> RuleTable:
    """Index an expanded rule set for two-probe lookup.

    Ordinary rules are stored under an unordered symbol-pair key, generic
    rules under (wildcard arity, concrete partner symbol).  With ``validate``
    the full static check suite runs first and error diagnostics raise
    :class:`RuleSetError`; tests may bypass it to study ill-formed systems.
    """
    if any(r.kind is RuleKind.VARIADIC for r in rules):
        raise ValueError("build_rule_table expects an expanded rule set")
    if validate:
        diags: list[Diagnostic] = []
        for r in rules:
            diags.extend(validate_linearity(r))
        diags.extend(check_no_ambiguity(rules))
        diags.extend(check_grc(rules))
        bad = errors_in(diags)
        if bad:
            raise RuleSetError(bad)

    ordinary: dict[tuple[str, str], Rule] = {}
    generic: dict[tuple[int, str], Rule] = {}
    max_id = -1
    for r in rules:
        max_id = max(max_id, _rule_max_name_id(r))
        if r.kind is RuleKind.ORDINARY:
            assert isinstance(r.right, OrdinaryPattern)
            a, b = r.left.symbol.name, r.right.symbol.name
            key = (a, b) if a <= b else (b, a)
            ordinary.setdefault(key, r)
        else:
            g = r.generic
            assert g is not None and not g.is_variadic
            generic.setdefault((len(g.fixed_params), r.left.symbol.name), r)
    return RuleTable(ordinary, generic, max_id)


def lookup(table: RuleTable, a: Symbol, b: Symbol) -> MatchResult:
    """Resolve the rule for an active pair with left symbol ``a``, right ``b``.

    Ordinary rules take priority; otherwise the generic slot for ``a`` in the
    wildcard position is probed before the one for ``b``.  Returns ``None``
    when nothing matches.
    """
    key = (a.name, b.name) if a.name <= b.name else (b.name, a.name)
    rule = table.ordinary.get(key)
    if rule is not None:
        assert isinstance(rule.right, OrdinaryPattern)
        swapped = rule.left.symbol.name != a.name
        return OrdinaryMatch(rule, swapped)
    rule = table.generic.get((a.arity, b.name))
    if rule is not None:
        return GenericMatch(rule, "left")
    rule = table.generic.get((b.arity, a.name))
    if rule is not None:
        return GenericMatch(rule, "right")
    return None


# ---------------------------------------------------------------------------
# Whole-rule-set analysis pipeline
# ---------------------------------------------------------------------------

@dataclass
class Analysis:
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

    Order: per-rule linearity, ambiguity over the written rules, variadic
    expansion, generic-overlap check over the expanded set.

    Each variadic rule is expanded at exactly the arities of the given
    ``symbols`` (those at or above its fixed-port count), so the table
    covers exactly those arities.  That covers every active pair a net over
    these symbols can form, since right-hand sides only build agents of
    these symbols and a wildcard copy takes its partner's symbol.  The
    diagnostics equal those of a full expansion: an overlap between
    ``A >< phi_m`` and ``B >< phi_n`` needs ``n = arity(A)`` and
    ``m = arity(B)``.  ``all_arities`` expands at every arity from 0 to the
    maximum instead, as ``inet expand`` prints it.  The expansion cap
    applies to the maximum arity either way.
    """
    diags: list[Diagnostic] = []
    for r in rules:
        diags.extend(validate_linearity(r))
    diags.extend(check_no_ambiguity(rules))
    if errors_in(diags):
        return Analysis(diags, [], None, 0)

    arities = {s.arity for s in symbols}
    top = max(arities, default=0)
    only = None if all_arities else arities
    expanded: list[Rule] = []
    try:
        for r in rules:
            expanded.extend(expand_variadic(r, top, cap=arity_cap, arities=only))
    except ExpansionLimitError as exc:
        diags.append(exc.diagnostic)
        return Analysis(diags, [], None, top)

    diags.extend(check_grc(expanded))
    if errors_in(diags):
        return Analysis(diags, expanded, None, top)
    return Analysis(diags, expanded, build_rule_table(expanded, validate=False), top)
