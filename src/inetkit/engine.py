"""Reduction engine: step rules, deterministic strategies, normalization.

Four step kinds rewrite a configuration: communication merges the two
equations sharing a top-level name, substitution binds a name that occurs
inside another equation's term, collect binds a name that occurs in the
interface, and interaction replaces an agent-agent equation by a rule's
right-hand side.
The four kinds are five module-level functions, which :class:`Reducer`
calls by name for every step it fires: :func:`step_communication`,
:func:`step_substitution`, :func:`step_collect`, and for interaction
:func:`instantiate_ordinary` or :func:`instantiate_fixed_generic`.
Interaction dispatch is two-phase: ordinary rules first, then the two
generic probes, in a fixed order.  The engine deals in rule matches only:
:func:`~inetkit.rules.lookup` resolves and orients the active pair once,
a variadic rule as its arity instance for the pair, made then, and the
engine hands the oriented agents to the rule's compiled right-hand side
(:attr:`~inetkit.rules.Rule.program`), which the rule builds the first
time it is read.

The calculus itself fixes no reduction order; strategies only choose which
reducible equation fires next, and for a validated rule set every strategy
reaches the same normal form in the same number of steps.
:func:`confluence_probe` checks that claim on a net.  Fifo and lifo run
through :func:`normalize`; the seeded strategies run together.  A seeded
reducer's state depends only on the equation ids it has picked, so seeds
that have picked the same ids share one reducer, which is forked
(:meth:`Reducer._fork`) only where their picks part.  For k seeds, at most
floor(log2 k) + 1 reducers are alive at once.

All reduction goes through one :class:`Reducer`, which never scans the net
to choose or fire a step.  It keeps these invariants:

- Every name has at most two sites in its occurrence index.  A site is an
  equation id and side, or an interface slot, plus whether the name is the
  whole side.  The parser rejects nets with a third occurrence, and linear
  rules (every parameter used once on the right) never create one.
- Equation ids grow monotonically and follow storage order.  Interaction
  and communication append equations under new ids; substitution keeps the
  target's id.  Fifo fires the smallest reducible id and lifo the largest,
  that is the first and the last reducible equation in storage order.
- The reducible equations, each with how it reduces, are kept up to date
  incrementally.  A step reclassifies only the equations it created or
  changed, plus those whose whole side is the other occurrence of a name
  the step moved.
- No name step rebuilds the term it binds into.  Collect and substitution
  bind their name to its term, in one map, and leave the name where it
  occurs: in the interface, or inside an equation term, whose equation
  keeps its id and its object.  A bound name is never a whole side.
  Classification and stuck detection read whole sides only.
- A step resolves the equations it consumes, so no step moves a bound
  name.  Otherwise terms are resolved through the bindings only where they
  are read: when the configuration is read, and for the target a recorded
  substitution shows.  Resolving is done in place and consumes the
  bindings it follows; every name occurs once, so the map holds only names
  that still occur.  Only equations that may hold a bound name are
  resolved, so a run with no substitution binding outstanding pays nothing
  for any of this.
- An interaction indexes the equations its rule's program builds as
  every new equation is indexed, one at a time through
  :meth:`Reducer._add`, so the site format and the order in which
  equations are touched are known in this module alone.  Its recorded
  fresh names are the program's hints under the ids it drew.  Classifying
  an agent pair reads the table's memoized lookup for its two symbols.
- Moving a term re-sites only the names it holds: subterms that hold no
  name (``Agent.holds_names``) are skipped.  So no name step depends on
  the depth or width of the term it binds into.  Re-siting the names of a
  moved term is the one cost left that grows with the term.
"""

from __future__ import annotations

import heapq
import random
from typing import Optional, Sequence, Union

from .core import (
    Agent,
    CanonicalConfiguration,
    Configuration,
    Equation,
    FrozenRecord,
    IllFormedError,
    Name,
    NameSupply,
    NetError,
    Record,
    Term,
    canonicalize,
    substitute,  # no longer called here; perfbench/tracing.py wraps this name
    term_names,
)
from .rules import Match, OrdinaryPattern, Rule, RuleTable, lookup

KIND_COMMUNICATION = "communication"
KIND_SUBSTITUTION = "substitution"
KIND_COLLECT = "collect"
KIND_INTERACTION = "interaction"


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class Fifo(FrozenRecord):
    def __str__(self) -> str:
        return "fifo"


class Lifo(FrozenRecord):
    def __str__(self) -> str:
        return "lifo"


class Seeded(FrozenRecord):
    _fields = ("seed",)

    def __init__(self, seed: int) -> None:
        object.__setattr__(self, "seed", seed)

    def __str__(self) -> str:
        return f"seed:{self.seed}"


Strategy = Union[Fifo, Lifo, Seeded]


def strategy_from_spec(spec: str) -> Strategy:
    """Parse ``fifo``, ``lifo`` or ``seed:<u64>``, the seed in at most 20
    ASCII decimal digits and below 2**64; anything else raises
    :class:`ValueError`.  The length is checked first, so that ``int`` never
    meets a literal past the interpreter's digit limit."""
    if spec == "fifo":
        return Fifo()
    if spec == "lifo":
        return Lifo()
    if spec.startswith("seed:"):
        digits = spec[5:]
        if len(digits) <= 20 and digits.isascii() and digits.isdigit() and int(digits) < 2**64:
            return Seeded(int(digits))
        raise ValueError(f"invalid seed {digits!r}: expected a decimal u64")
    raise ValueError(f"unknown strategy {spec!r}")


# ---------------------------------------------------------------------------
# Step results
# ---------------------------------------------------------------------------

class StepResult(FrozenRecord):
    _fields = ("kind", "rule_id", "equation_before", "equations_after", "fresh_names")

    def __init__(self, kind: str, rule_id: Optional[str], equation_before: Equation,
                 equations_after: tuple[Equation, ...], fresh_names: tuple[Name, ...]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rule_id", rule_id)
        object.__setattr__(self, "equation_before", equation_before)
        object.__setattr__(self, "equations_after", equations_after)
        object.__setattr__(self, "fresh_names", fresh_names)


class NormalizeOutcome(Record):
    _fields = ("status", "final", "steps", "trace", "stuck_equations")

    def __init__(self, status: str, final: Configuration, steps: int,
                 trace: Optional[list[StepResult]], stuck_equations: tuple[Equation, ...] = ()) -> None:
        self.status = status  # "normal_form" | "stuck" | "budget_exhausted"
        self.final = final
        self.steps = steps
        self.trace = trace
        self.stuck_equations = stuck_equations


# ---------------------------------------------------------------------------
# The step functions
# ---------------------------------------------------------------------------

def instantiate_ordinary(rule: Rule, a: Agent, b: Agent, supply: NameSupply) -> list[Equation]:
    """Right-hand side of an ordinary rule, with the parameters bound to the
    argument terms of ``a`` (the left pattern's) and ``b`` (the right
    pattern's), oriented as :func:`~inetkit.rules.lookup` orients them, and
    internal names freshened.  Raises :class:`NetError` if the symbols do
    not fit the rule in that orientation."""
    left, right = rule.left.symbol, rule.right.symbol
    if ((a.symbol is not left and a.symbol != left)
            or (b.symbol is not right and b.symbol != right)):
        raise NetError(f"equation does not match rule {rule.id}")
    return rule.program.run(a.args + b.args, None, supply)


def instantiate_fixed_generic(rule: Rule, a: Agent, b: Agent, supply: NameSupply) -> list[Equation]:
    """Like :func:`instantiate_ordinary` with ``b`` bound by the wildcard:
    every occurrence of the wildcard agent in the right-hand side becomes
    ``b``'s symbol.  Raises :class:`NetError` if ``a`` is not the rule's
    concrete symbol or ``b`` not of the wildcard's arity."""
    g = rule.generic
    assert g is not None and not g.is_variadic
    left = rule.left.symbol
    if a.symbol is not left and a.symbol != left:
        raise NetError(f"equation does not match rule {rule.id}")
    if b.symbol.arity != len(g.fixed_params):
        raise NetError(f"rule {rule.id}: arity mismatch against {b.symbol.name}/{b.symbol.arity}")
    return rule.program.run(a.args + b.args, b.symbol, supply)


# The name steps resolve the name ``x`` of the equation ``x=t`` that
# ``reducer`` has just taken out under id ``eid``.  ``other`` is the other
# site of ``x`` (see :class:`Reducer`), which the reducer has already dropped
# from its index; equations whose classification may change go into
# ``touched``.  Each returns the equations it leaves in place of the ones it
# consumed.

def step_communication(reducer: Reducer, eid: int, x: Name, t: Term, other: Site,
                       touched: set[int]) -> tuple[Equation, ...]:
    """``x=t`` and ``x=u`` become ``t=u``, appended; ``x=u`` is resolved
    before ``u`` is taken, as ``x=t`` was."""
    j, j_side, _ = other
    reducer._agenda.drop(j)
    u = _side(reducer._resolved(j), 1 - j_side)
    del reducer._eqs[j]
    new = Equation(t, u)
    reducer._add(new, touched, eid, j)
    return (new,)


def step_substitution(reducer: Reducer, eid: int, x: Name, t: Term, other: Site,
                      touched: set[int]) -> tuple[Equation, ...]:
    """``x`` is bound to ``t`` inside the target, which keeps its id and its
    object; terms are resolved where they are read."""
    j, j_side, _ = other
    reducer._subst[x.id] = t
    reducer._holding.add(j)
    reducer._place(t, j, j_side, eid, touched, inside=True)
    target = reducer._eqs[j]
    # An agent pair keeps its symbols, so its classification and match hold.
    if _side(target, 1 - j_side).__class__ is Name:
        touched.add(j)
    return (target,)


def step_collect(reducer: Reducer, eid: int, x: Name, t: Term, other: Site,
                 touched: set[int]) -> tuple[Equation, ...]:
    """``x`` is bound to ``t``; the interface is resolved when read."""
    reducer._subst[x.id] = t
    reducer._place(t, _IFACE, other[1], eid, touched, inside=True)
    return ()


# ---------------------------------------------------------------------------
# The reducer
# ---------------------------------------------------------------------------

# A site is (equation id, side, whole): side 0 is the left term and 1 the
# right one; an interface site has id _IFACE, its slot as side, and is never
# whole.
Site = tuple[int, int, bool]
_IFACE = -1

_PRIORITY = {KIND_COMMUNICATION: 0, KIND_SUBSTITUTION: 1, KIND_COLLECT: 2}

_UNSEEN = object()  # a symbol pair the table has not been asked about

# How a reducible equation reduces: (interaction, rule match) or, for the
# name steps, (kind, side holding the name).
How = tuple[str, object]


def _side(eq: Equation, side: int) -> Term:
    return eq.left if side == 0 else eq.right


def _draw(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for ``n > 0``, drawn as CPython draws it: the
    same ``getrandbits`` rejection loop, without the calls around it."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class _Agenda:
    """The reducible equation ids, how each reduces, and the strategy's pick."""

    def __init__(self, strategy: Strategy):
        self.how: dict[int, How] = {}
        self._rng = random.Random(strategy.seed) if isinstance(strategy, Seeded) else None
        self._sign = -1 if isinstance(strategy, Lifo) else 1
        self._heap: list[int] = []  # fifo and lifo: signed ids; stale ones pop lazily
        self._ids: list[int] = []  # seeded: the ids, for a uniform choice
        self._slot: dict[int, int] = {}  # seeded: id -> its index in _ids

    def put(self, eid: int, how: How) -> None:
        if eid not in self.how:
            if self._rng is None:
                heapq.heappush(self._heap, self._sign * eid)
            else:
                self._slot[eid] = len(self._ids)
                self._ids.append(eid)
        self.how[eid] = how

    def drop(self, eid: int) -> None:
        if self.how.pop(eid, None) is not None and self._rng is not None:
            slot = self._slot.pop(eid)
            last = self._ids.pop()
            if last != eid:
                self._ids[slot] = last
                self._slot[last] = slot

    def fork(self) -> _Agenda:
        """A copy whose changes this agenda does not see."""
        twin = _Agenda.__new__(_Agenda)  # fields in __init__'s order, see Reducer._fork
        twin.how = self.how.copy()
        twin._rng = self._rng
        twin._sign = self._sign
        twin._heap = self._heap.copy()
        twin._ids = self._ids.copy()
        twin._slot = self._slot.copy()
        return twin

    def pick(self) -> Optional[int]:
        if not self.how:
            return None
        if self._rng is not None:
            return self._ids[_draw(self._rng, len(self._ids))]
        heap, sign = self._heap, self._sign
        while sign * heap[0] not in self.how:
            heapq.heappop(heap)
        return sign * heap[0]


class Reducer:
    """A configuration under reduction, with its occurrence index, its
    reducible equations, its name supply and its strategy's state.

    The input configuration is read, never modified.  :meth:`step` fires the
    step the strategy picks and :meth:`run` fires steps until none applies
    or the budget is spent, so stepping a reducer one step at a time follows
    exactly the schedule of :func:`normalize` with the same arguments.
    Rule tables must be linear, as :func:`~inetkit.rules.validate_linearity`
    ensures.  Without a ``supply``, fresh ids start one above the largest
    name id in the net or the rules.
    """

    def __init__(
        self,
        config: Configuration,
        table: RuleTable,
        strategy: Strategy = Fifo(),
        supply: Optional[NameSupply] = None,
    ):
        self.table = table
        self._matches = table.matches
        self._interface: list[Term] = list(config.interface)
        self._subst: dict[int, Term] = {}  # bound name id -> its term
        # _subst cannot stand in for this set: collect bindings keep it
        # non-empty in most steps, and a build without the set ran the
        # deep_unary benchmark about 3.5% slower.
        self._holding: set[int] = set()  # ids of equations that may hold one
        self._eqs: dict[int, Equation] = {}
        self._occ: dict[int, list[Site]] = {}  # name id -> its one or two sites
        self._next_id = 0
        self._agenda = _Agenda(strategy)
        touched: set[int] = set()  # unread: every equation is classified below
        for slot, t in enumerate(self._interface):
            self._place(t, _IFACE, slot, None, touched, inside=True)
        for eq in config.equations:
            self._add(eq, touched)
        if supply is None:
            supply = NameSupply(max(max(self._occ, default=-1), table.max_name_id) + 1)
        self.supply = supply
        for eid in self._eqs:
            self._classify(eid)

    @property
    def configuration(self) -> Configuration:
        """The current configuration, as a new object, resolved through the
        bindings of collect and substitution steps."""
        subst = self._subst
        if subst:
            # Every bound name occurs once: in an equation that may hold
            # one, or in the interface, a collected term included.  So
            # resolving both consumes every binding.
            for eid in list(self._holding):
                self._resolved(eid)
            if subst:
                self._interface = [_resolve(t, subst) for t in self._interface]
        return Configuration(list(self._interface), list(self._eqs.values()))

    def step(self) -> Optional[StepResult]:
        """Fire the step the strategy picks; ``None`` when none applies."""
        eid = self._agenda.pick()
        return None if eid is None else self._fire(eid, record=True)

    def run(self, budget: int, trace: bool = False) -> NormalizeOutcome:
        """Fire up to ``budget`` steps and report how reduction ended."""
        recorded: Optional[list[StepResult]] = [] if trace else None
        return self._outcome(self._steps(budget, recorded), recorded)

    def _steps(self, budget: int, recorded: Optional[list[StepResult]] = None) -> int:
        """Fire up to ``budget`` steps, appending their records to
        ``recorded`` if given, and return how many were fired."""
        steps = 0
        while steps < budget:
            eid = self._agenda.pick()
            if eid is None:
                break
            result = self._fire(eid, record=recorded is not None)
            if recorded is not None:
                recorded.append(result)
            steps += 1
        return steps

    def _outcome(self, steps: int, recorded: Optional[list[StepResult]] = None) -> NormalizeOutcome:
        """How reduction ended after ``steps`` steps: out of budget while a
        step still applies, else stuck or in normal form."""
        final = self.configuration
        if self._agenda.how:
            return NormalizeOutcome("budget_exhausted", final, steps, recorded)
        stuck = tuple(eq for eid, eq in self._eqs.items() if self._is_stuck(eid, eq))
        return NormalizeOutcome("stuck" if stuck else "normal_form", final, steps, recorded, stuck)

    def _fork(self) -> Reducer:
        """A twin that reduces on independently of this reducer.

        The occurrence index, the equations, the interface, the bindings
        and the agenda are copied, and the supply continues from the same
        id; the terms themselves are immutable and shared.  The twin keeps
        this reducer's random source: a caller that steps both under
        :class:`Seeded` hands each its own.
        """
        # Fields are set in __init__'s order.  copy.copy would give the twin
        # a materialized instance dict, which made every attribute read in
        # the step loop slower (about 10% per step on a 2,000-pair net).
        twin = Reducer.__new__(Reducer)
        twin.table = self.table
        twin._matches = self._matches
        twin._interface = self._interface.copy()
        twin._subst = self._subst.copy()
        twin._holding = self._holding.copy()
        twin._eqs = self._eqs.copy()
        twin._occ = {n: sites.copy() for n, sites in self._occ.items()}
        twin._next_id = self._next_id
        twin._agenda = self._agenda.fork()
        twin.supply = NameSupply(self.supply.next_id)
        return twin

    # -- the occurrence index ---------------------------------------------

    def _add(self, eq: Equation, touched: set[int],
             old_left: Optional[int] = None, old_right: Optional[int] = None) -> None:
        """Store ``eq`` under a new id; its sides' names move from the given
        equations (or are new)."""
        eid = self._next_id
        self._next_id += 1
        self._eqs[eid] = eq
        self._place(eq.left, eid, 0, old_left, touched)
        self._place(eq.right, eid, 1, old_right, touched)
        touched.add(eid)

    def _place(self, t: Term, eid: int, side: int, old: Optional[int],
               touched: set[int], inside: bool = False) -> None:
        """Record that the names of ``t`` now sit at (``eid``, ``side``), having
        moved from equation ``old``.  ``inside``: ``t`` is not the whole side.
        Subterms of ``t`` that hold no name are not entered.  ``t`` holds no
        bound name, since a step resolves the equations it consumes.

        Each name's other site is added to ``touched`` if it is a whole side,
        since that equation's classification may have changed.
        """
        if t.__class__ is Name:
            self._move(t, old, (eid, side, not inside), touched)
        else:
            site = (eid, side, False)
            for n in term_names(t):
                self._move(n, old, site, touched)

    def _move(self, n: Name, old: Optional[int], site: Site, touched: set[int]) -> None:
        sites = self._occ.get(n.id)
        if sites is None:
            self._occ[n.id] = [site]
            return
        if sites[0][0] == old:
            sites[0] = site
            other = sites[1] if len(sites) == 2 else None
        elif len(sites) == 2 and sites[1][0] == old:
            sites[1] = site
            other = sites[0]
        elif len(sites) == 1:
            sites.append(site)
            other = sites[0]
        else:
            raise IllFormedError(f"name {n.display} occurs more than twice")
        if other is not None and other[2]:
            touched.add(other[0])

    # -- classification ---------------------------------------------------

    def _classify(self, eid: int) -> None:
        eq = self._eqs[eid]
        left, right = eq.left, eq.right
        if left.__class__ is Agent and right.__class__ is Agent:
            a, b = left.symbol, right.symbol
            pair = (a.name, a.arity, b.name, b.arity)
            match = self._matches.get(pair, _UNSEEN)
            if match is _UNSEEN:
                match = self._matches[pair] = lookup(self.table, a, b)
            how = None if match is None else (KIND_INTERACTION, match)
        else:
            how = self._name_step(eid, eq)
        if how is None:
            self._agenda.drop(eid)
        else:
            self._agenda.put(eid, how)

    def _name_step(self, eid: int, eq: Equation) -> Optional[How]:
        """The name step for ``eq``: communication over substitution over
        collect, the left side first when both sides qualify."""
        best: Optional[How] = None
        occ = self._occ
        for side, x in ((0, eq.left), (1, eq.right)):
            if x.__class__ is not Name:
                continue
            # x's other site; a free port has none and reads its own.
            sites = occ[x.id]
            other = sites[0] if sites[-1] == (eid, side, True) else sites[-1]
            # A free port has no step; nor has a name wired back into its
            # own equation (x=x, or x inside the other side).
            if other[0] == eid:
                continue
            if other[0] == _IFACE:
                kind = KIND_COLLECT
            else:
                kind = KIND_COMMUNICATION if other[2] else KIND_SUBSTITUTION
            if best is None or _PRIORITY[kind] < _PRIORITY[best[0]]:
                best = (kind, side)
        return best

    def _is_stuck(self, eid: int, eq: Equation) -> bool:
        """An agent pair without a rule, or a name wired into its own equation."""
        if isinstance(eq.left, Agent) and isinstance(eq.right, Agent):
            return eid not in self._agenda.how
        for x in (eq.left, eq.right):
            if isinstance(x, Name):
                sites = self._occ[x.id]
                if len(sites) == 2 and sites[0][0] == sites[1][0]:
                    return True
        return False

    # -- firing -----------------------------------------------------------

    def _fire(self, eid: int, record: bool) -> Optional[StepResult]:
        """Fire the step the agenda holds for ``eid``; its record if asked.

        The step consumes equation ``eid`` resolved, so no step moves a
        bound name.  Each step kind goes through its module-level function,
        looked up by name at the call, so a wrapper set on this module sees
        every step.
        """
        kind, detail = self._agenda.how[eid]
        self._agenda.drop(eid)
        eq = self._eqs.pop(eid)
        if eid in self._holding:  # _resolved, inline: this runs every step
            self._holding.discard(eid)
            eq = _resolve_equation(eq, self._subst)
        touched: set[int] = set()
        if kind == KIND_INTERACTION:
            first = self.supply.next_id  # the first id the interaction draws
            after = self._interact(eid, eq, detail, touched)
        else:
            x, t = (eq.left, eq.right) if detail == 0 else (eq.right, eq.left)
            # x's other site, read as _name_step reads it.
            sites = self._occ.pop(x.id)
            other = sites[0] if sites[-1] == (eid, detail, True) else sites[-1]
            if kind == KIND_COMMUNICATION:
                after = step_communication(self, eid, x, t, other, touched)
            elif kind == KIND_SUBSTITUTION:
                after = step_substitution(self, eid, x, t, other, touched)
            else:
                after = step_collect(self, eid, x, t, other, touched)
        for e in touched:
            if e in self._eqs:
                self._classify(e)
        if not record:
            return None
        if kind == KIND_INTERACTION:
            rule = detail.rule
            fresh = tuple(Name(first + i, hint) for i, hint in enumerate(rule.program.hints))
            return StepResult(kind, rule.id, eq, tuple(after), fresh)
        if kind == KIND_SUBSTITUTION:
            # The target is the one equation a step leaves holding a bound name.
            after = (self._resolved(other[0]),)
        return StepResult(kind, None, eq, tuple(after), ())

    def _resolved(self, eid: int) -> Equation:
        """Equation ``eid``, resolved in place first if it may hold a bound
        name.  The bindings it follows are dropped: their names occur
        nowhere else.  A step resolves each equation it consumes, and a
        recorded substitution the target it shows."""
        eq = self._eqs[eid]
        if eid in self._holding:
            self._holding.discard(eid)
            eq = self._eqs[eid] = _resolve_equation(eq, self._subst)
        return eq

    def _interact(self, eid: int, eq: Equation, match: Match,
                  touched: set[int]) -> list[Equation]:
        """Fire the rule's program and index the equations it builds, each
        under a new id through :meth:`_add`, in order.  The names that the
        parameters' argument terms hold move from ``eid``; a fresh name is
        new where it first occurs and finds its other site where it next
        does."""
        rule = match.rule
        a, b = (eq.right, eq.left) if match.swapped else (eq.left, eq.right)
        if rule.right.__class__ is OrdinaryPattern:
            produced = instantiate_ordinary(rule, a, b, self.supply)
        else:
            produced = instantiate_fixed_generic(rule, a, b, self.supply)
        for new in produced:
            self._add(new, touched, eid, eid)
        return produced


def _resolve_equation(eq: Equation, bound: dict[int, Term]) -> Equation:
    return Equation(_resolve(eq.left, bound), _resolve(eq.right, bound))


def _resolve(t: Term, bound: dict[int, Term]) -> Term:
    """``t`` with every bound name replaced by its term, transitively.

    Each binding followed is removed from ``bound``: a bound name occurs
    once, so the resolved term takes the place of ``t``.  One walk with an
    explicit stack; it enters only agents that hold names and rebuilds only
    those with a bound name below them.
    """
    done: list[Term] = []  # resolved terms, in order
    # An agent to finish lies under the count of bindings followed when it
    # was entered; if none were followed since, it is its own resolution.
    todo: list = [t]
    followed = 0
    while todo:
        u = todo.pop()
        if u.__class__ is Name:
            v = bound.pop(u.id, None)
            if v is None:
                done.append(u)
            else:
                followed += 1
                todo.append(v)
        elif u.__class__ is Agent:
            if u.holds_names:
                todo.append(u)
                todo.append(followed)
                todo.extend(u.args[::-1])
            else:
                done.append(u)
        else:
            agent = todo.pop()
            first = len(done) - agent.symbol.arity
            if u != followed:
                agent = Agent(agent.symbol, tuple(done[first:]))
            del done[first:]
            done.append(agent)
    return done[0]


def _resolves_to(t: Term, bound: dict[int, Term], u: Term) -> bool:
    """Whether ``t`` resolved through ``bound`` equals ``u``, as
    :func:`_resolve` would build it: name ids compared exactly.

    One walk with an explicit stack over both terms; it follows bindings
    without consuming them, builds no agent, and compares a subterm that
    holds no name as a whole.
    """
    todo = [(t, u)]
    while todo:
        t, u = todo.pop()
        while t.__class__ is Name:
            v = bound.get(t.id)
            if v is None:
                break
            t = v
        if t.__class__ is Name:
            if u.__class__ is not Name or t.id != u.id:
                return False
        elif t.holds_names:
            if u.__class__ is not Agent or (t.symbol is not u.symbol and t.symbol != u.symbol):
                return False
            todo.extend(zip(t.args, u.args))
        elif t is not u and t != u:
            return False
    return True


def normalize(
    config: Configuration,
    table: RuleTable,
    strategy: Strategy = Fifo(),
    budget: int = 100_000,
    trace: bool = False,
    supply: Optional[NameSupply] = None,
) -> NormalizeOutcome:
    """Reduce to exhaustion or budget; the input configuration is not touched.

    ``normal_form`` means no step applies and nothing is stuck; residual
    agent pairs without a rule (and closed name loops such as x=x) yield
    ``stuck`` once everything else has been reduced.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    return Reducer(config, table, strategy, supply).run(budget, trace)


# ---------------------------------------------------------------------------
# Confluence probing
# ---------------------------------------------------------------------------

class RunSummary(Record):
    _fields = ("strategy", "status", "steps", "canonical")

    def __init__(self, strategy: Strategy, status: str, steps: int,
                 canonical: Optional[CanonicalConfiguration]) -> None:
        self.strategy = strategy
        self.status = status
        self.steps = steps
        self.canonical = canonical


class ConfluenceReport(Record):
    _fields = ("consistent", "runs", "divergence", "traces")

    def __init__(self, consistent: bool, runs: list[RunSummary],
                 divergence: Optional[tuple[RunSummary, RunSummary]] = None,
                 traces: Optional[tuple[list[StepResult], list[StepResult]]] = None) -> None:
        self.consistent = consistent
        self.runs = runs
        self.divergence = divergence
        self.traces = traces

    @property
    def terminated(self) -> list[RunSummary]:
        return [r for r in self.runs if r.status != "budget_exhausted"]


# How a run ended: its status, steps and canonical final configuration.
_End = tuple[str, int, Optional[CanonicalConfiguration]]


def confluence_probe(
    config: Configuration,
    table: RuleTable,
    strategies: Sequence[Strategy],
    budget: int = 100_000,
) -> ConfluenceReport:
    """Reduce under every strategy and compare outcomes.

    All terminating runs must agree on status, canonical final configuration
    and step count; the first disagreeing pair is re-run with tracing on and
    reported as a counterexample.  If a run raises, the probe raises the
    error of the first strategy in the given order that raises.

    Fifo and lifo each run through :func:`normalize`.  The seeded strategies
    run together, as one walk of their schedule tree (see
    :func:`_walk_schedules`), so a prefix of steps that several seeds share
    is fired once.  Every run reports exactly what :func:`normalize` under
    its strategy would.  A seeded strategy ``seed:K`` fires
    ``ids[Random(K).randrange(len(ids))]`` at each step, ``ids`` being the
    reducible equation ids in agenda order; :func:`_draw` makes that draw.
    A seeded run that ends out of budget resolves nothing.  One that ends
    in a normal form without equations, as the last resolved end did, takes
    that end's canonical form if its interface, read through its bindings,
    is literally that end's.  Any other end is resolved, and reuses the last
    resolved end's canonical form if it equals that end.
    """
    seeded = [(position, random.Random(s.seed)) for position, s in enumerate(strategies)
              if isinstance(s, Seeded)]
    # The walk's root: the seeds pick from its agenda's ids, so it is seeded.
    root = Reducer(config, table, strategies[seeded[0][0]] if seeded else Fifo())
    # Fifo and lifo each get their own supply, starting where the walk's
    # starts, so the names a run draws can be read off its supply (the
    # benchmark's tracer counts them so).
    start = root.supply.next_id
    if strategies and budget <= 0:
        raise ValueError("budget must be positive")
    # Canonical forms by literal final configuration (name ids included):
    # runs that end in the same configuration share one canonicalization.
    # The last resolved end's configuration is kept: an end equal to it, as
    # the seeded ends of a net mostly are, takes its form without a key.
    forms: dict[tuple, CanonicalConfiguration] = {}
    previous: Optional[tuple[Configuration, CanonicalConfiguration]] = None

    def summarize(outcome: NormalizeOutcome) -> _End:
        nonlocal previous
        canonical = None
        if outcome.status != "budget_exhausted":
            final = outcome.final
            if previous is not None and final == previous[0]:
                canonical = previous[1]
            else:
                key = (tuple(final.interface), tuple(final.equations))
                canonical = forms.get(key)
                if canonical is None:
                    canonical = forms[key] = canonicalize(final)
                previous = final, canonical
        return outcome.status, outcome.steps, canonical

    def end_of(reducer: Reducer, steps: int) -> _End:
        """A seeded run's end after ``steps`` steps, by the rule above."""
        if reducer._agenda.how:
            return "budget_exhausted", steps, None
        if (previous is not None and not reducer._eqs and not previous[0].equations
                # Every run of the net keeps its interface's length.
                and all(_resolves_to(t, reducer._subst, u)
                        for t, u in zip(reducer._interface, previous[0].interface))):
            return "normal_form", steps, previous[1]
        return summarize(reducer._outcome(steps))

    ends: dict[int, Union[_End, Exception]] = {}
    if seeded:
        _walk_schedules(root, seeded, 0, budget, end_of, ends)
    runs: list[RunSummary] = []
    for position, strategy in enumerate(strategies):
        if isinstance(strategy, Seeded):
            end = ends[position]
            if isinstance(end, Exception):
                raise end
        else:
            end = summarize(normalize(config, table, strategy, budget, supply=NameSupply(start)))
        runs.append(RunSummary(strategy, *end))

    finished = [r for r in runs if r.status != "budget_exhausted"]
    for other in finished[1:]:
        first = finished[0]
        if (
            other.status != first.status
            or other.steps != first.steps
            or other.canonical != first.canonical
        ):
            trace_a = normalize(
                config, table, first.strategy, budget, trace=True,
                supply=NameSupply(start),
            ).trace
            trace_b = normalize(
                config, table, other.strategy, budget, trace=True,
                supply=NameSupply(start),
            ).trace
            assert trace_a is not None and trace_b is not None
            return ConfluenceReport(False, runs, (first, other), (trace_a, trace_b))
    return ConfluenceReport(True, runs)


def _walk_schedules(
    reducer: Reducer,
    members: list[tuple[int, random.Random]],
    steps: int,
    budget: int,
    end_of,
    ends: dict[int, Union[_End, Exception]],
    pending: Optional[int] = None,
) -> None:
    """Run seeded strategies from ``reducer``'s state after ``steps`` steps,
    firing equation ``pending`` first if given; store each member's end in
    ``ends`` under its position.

    A member is a strategy's position and its own random source, which
    draws as :meth:`_Agenda.pick` does, through :func:`_draw`.  A seeded
    reducer's state depends only on the ids picked so far, so members that
    picked the same ids share one reducer.  At each step the members are
    parted by the id they pick.  When all pick the same id, they go on
    together.  Otherwise the largest party goes on in place; each smaller
    one, smallest first, runs to its ends on a fork of the state before the
    walk goes on.  A smaller party has at most half the members, so at most
    floor(log2 k) + 1 reducers are alive for k members, and there are at
    most k - 1 forks.  A lone member runs on with :meth:`Reducer._steps`,
    which builds no outcome.  Each end is read as soon as it is reached, by
    ``end_of(reducer, steps)``, which may keep a final configuration but not
    the reducer.  An error raised on the way is stored as the end of every
    member that reached it, without its traceback, which would keep the
    reducer alive.
    """
    try:
        while True:
            if pending is not None:
                reducer._fire(pending, record=False)
                steps += 1
            if len(members) == 1:
                reducer._agenda._rng = members[0][1]
                steps += reducer._steps(budget - steps)
                break
            ids = reducer._agenda._ids
            if steps == budget or not ids:
                break
            n = len(ids)
            parties: dict[int, list[tuple[int, random.Random]]] = {}
            for member in members:
                parties.setdefault(ids[_draw(member[1], n)], []).append(member)
            if len(parties) == 1:
                (pending,) = parties
                continue
            *smaller, (pending, largest) = sorted(parties.items(), key=lambda p: len(p[1]))
            for eid, party in smaller:
                _walk_schedules(reducer._fork(), party, steps, budget, end_of, ends, eid)
            members = largest
        end: Union[_End, Exception] = end_of(reducer, steps)
    except Exception as exc:
        end = exc.with_traceback(None)
    for position, _ in members:
        ends[position] = end
