"""Core data model for interaction-net configurations.

A net is written as a configuration ``< interface | equations >``: an ordered
sequence of interface terms plus a multiset of equations between terms.
Terms are either names (wire endpoints) or agents applied to argument terms.
Every name may occur at most twice across a whole configuration; a name
occurring twice is an internal wire, a name occurring once is a free port.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import FrozenInstanceError
from operator import attrgetter, itemgetter
from typing import Iterator, Optional, Union


class NetError(Exception):
    """Base error for the net data model."""


class IllFormedError(NetError):
    """A configuration breaks the at-most-two-occurrences rule."""


class Record:
    """A record whose ``==`` and ``repr`` read the fields its class names in
    ``_fields``, in order, as a dataclass writes them: equal to another
    of the same class with equal field values, shown as
    ``Cls(field=value, ...)``.  Nothing is generated, so a record class
    costs no ``exec`` at import.  Mutable records are unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        names = cls._fields
        # The field values as one tuple; attrgetter gives a single field bare.
        cls._values = staticmethod(
            attrgetter(*names) if len(names) > 1 else lambda r: tuple(getattr(r, f) for f in names)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"


class FrozenRecord(Record):
    """A :class:`Record` that hashes its field values and, as a frozen
    dataclass does, raises ``dataclasses.FrozenInstanceError`` on any
    assignment or deletion of an attribute.  Its ``__init__`` stores the
    fields with ``object.__setattr__`` or, when slotted, through slot
    descriptors bound once at module level (``_NAME_ID = Name.id.__set__``),
    since ``object.__setattr__`` looks the field up by name on every call.
    Copying and unpickling store the state with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # What object.__getstate__ gave: the instance dict or, where slots
        # hold values, a (dict or None, slot values) pair.
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


class _built_once:
    """A method read as an attribute, built on the first read and stored in
    the instance's attributes, where later reads find it without calling
    anything; unlike functools' cached property under Python 3.11, it takes
    no lock.  It is stored with ``object.__setattr__``, not through
    ``__dict__``: touching ``__dict__`` costs the instance its inline
    attribute values, and every later attribute read on it gets slower."""

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


class Symbol(FrozenRecord):
    """An agent label plus its number of auxiliary ports."""

    _fields = ("name", "arity")

    def __init__(self, name: str, arity: int) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)


class Name(FrozenRecord):
    """A wire endpoint.  Identity is the id; the display string is cosmetic."""

    __slots__ = _fields = ("id", "display")

    def __init__(self, id: int, display: str) -> None:
        # Frozen: the fields go in through their slot descriptors, bound below.
        _NAME_ID(self, id)
        _NAME_DISPLAY(self, display)

    def __eq__(self, other: object) -> bool:
        return self.id == other.id if other.__class__ is Name else NotImplemented

    def __hash__(self) -> int:
        return hash((self.id,))

    def __repr__(self) -> str:
        return f"Name({self.id}:{self.display})"


class Agent(FrozenRecord):
    """An agent symbol applied to exactly ``symbol.arity`` argument terms.

    ``holds_names`` says whether a name occurs anywhere below the agent.  It
    is set once, from the arguments' own flags, so walks that look for names
    skip name-free subterms in O(1).  It is a slot but not a field: it takes
    no part in equality, hashing or ``repr``.
    """

    __slots__ = ("symbol", "args", "holds_names")
    _fields = ("symbol", "args")

    def __init__(self, symbol: Symbol, args: tuple["Term", ...] = ()) -> None:
        if len(args) != symbol.arity:
            raise NetError(
                f"agent {symbol.name}/{symbol.arity} applied to {len(args)} argument(s)"
            )
        # Frozen: the fields go in through their slot descriptors, bound below.
        _AGENT_SYMBOL(self, symbol)
        _AGENT_ARGS(self, args)
        for a in args:
            if a.__class__ is Name or a.holds_names:
                _AGENT_HOLDS_NAMES(self, True)
                break
        else:
            _AGENT_HOLDS_NAMES(self, False)

    # Equality walks both terms with one explicit stack and hashing goes
    # through the flat key of _term_key, so term depth is not bounded by the
    # interpreter's recursion limit.  Two agents are equal when their symbols
    # and their arguments are, position by position.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.symbol is not b.symbol and a.symbol != b.symbol:
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if x.__class__ is Agent and y.__class__ is Agent:
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        return hash(_term_key(self))

    def __repr__(self) -> str:
        return nested_repr(self, lambda u: f"Agent(symbol={u.symbol!r}, args=(", lambda u: ")")


def nested_repr(t, opening, closing) -> str:
    """The dataclass's text of ``t``, a record whose ``args`` tuple holds
    records of its own class among other values: ``opening(u)`` is the text
    of ``u`` up to its ``args`` and ``closing(u)`` the text after them.
    Written with one explicit stack (a str on it is literal text), so depth
    is not bounded by the interpreter's recursion limit."""
    cls = t.__class__
    out: list[str] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is str:
            out.append(u)
        elif u.__class__ is cls:
            out.append(opening(u))
            args = u.args
            stack.append((",)" if len(args) == 1 else ")") + closing(u))
            if args:
                stack.append(args[-1])
                for a in args[-2::-1]:
                    stack.append(", ")
                    stack.append(a)
        else:
            out.append(repr(u))
    return "".join(out)


Term = Union[Name, Agent]


class Equation(FrozenRecord):
    """An undirected connection between two terms (t=s means the same as s=t)."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        # Frozen: the fields go in through their slot descriptors, bound below.
        _EQUATION_LEFT(self, left)
        _EQUATION_RIGHT(self, right)


_NAME_ID = Name.id.__set__
_NAME_DISPLAY = Name.display.__set__
_AGENT_SYMBOL = Agent.symbol.__set__
_AGENT_ARGS = Agent.args.__set__
_AGENT_HOLDS_NAMES = Agent.holds_names.__set__
_EQUATION_LEFT = Equation.left.__set__
_EQUATION_RIGHT = Equation.right.__set__


class Configuration(Record):
    """An ordered interface plus an equation multiset."""

    _fields = ("interface", "equations")

    def __init__(self, interface: list[Term], equations: list[Equation]) -> None:
        self.interface = interface
        self.equations = equations

    def copy(self) -> "Configuration":
        return Configuration(list(self.interface), list(self.equations))


class NameSupply:
    """Hands out names with ids never issued before by this supply.

    Two supplies are equal when they would issue the same next id.  A
    supply is mutable, so it is unhashable.
    """

    __hash__ = None

    def __init__(self, start: int = 0):
        self._next = start

    def __eq__(self, other: object) -> bool:
        return self._next == other._next if other.__class__ is NameSupply else NotImplemented

    def fresh(self, hint: str = "x") -> Name:
        name = Name(self._next, hint)
        self._next += 1
        return name

    @property
    def next_id(self) -> int:
        return self._next


def term_names(t: Term) -> Iterator[Name]:
    """Yield every name occurrence in ``t``, depth first, left to right.

    One walk with an explicit stack, so term depth is not bounded by the
    interpreter's recursion limit.  Subterms that hold no name are skipped
    without being entered.
    """
    stack = [t]
    while stack:
        u = stack.pop()
        # Descend into the first argument directly and stack only the rest,
        # so a chain of unary agents costs no stack traffic.
        while isinstance(u, Agent):
            if not u.holds_names:
                break
            args = u.args
            if len(args) > 1:
                stack.extend(args[:0:-1])
            u = args[0]
        else:
            yield u


def config_names(config: Configuration) -> Iterator[Name]:
    for t in config.interface:
        yield from term_names(t)
    for eq in config.equations:
        yield from term_names(eq.left)
        yield from term_names(eq.right)


def occurrences(config: Configuration) -> Counter:
    """Exact occurrence counts of every name over interface and equations."""
    return Counter(config_names(config))


def occurrence_violations(config: Configuration) -> list[tuple[Name, int]]:
    """Names occurring more than twice, with their counts."""
    return [(n, c) for n, c in occurrences(config).items() if c > 2]


def substitute(t: Term, x: Name, s: Term) -> Term:
    """Replace the occurrence of ``x`` in ``t`` by ``s``.

    Callers guarantee ``x`` occurs at most once in ``t`` (configuration
    linearity); if it does not occur, ``t`` is returned unchanged.  One
    depth-first pass finds the occurrence, keeping the agents above it on an
    explicit stack, and rebuilds only those agents.
    """
    if isinstance(t, Name):
        return s if t == x else t
    path: list[list] = [[t, 0]]  # [agent, index of the next argument to visit]
    while path:
        frame = path[-1]
        agent, i = frame
        if i == len(agent.args):
            path.pop()
            continue
        frame[1] = i + 1
        arg = agent.args[i]
        if isinstance(arg, Agent):
            path.append([arg, 0])
        elif arg == x:
            out = s
            for agent, j in reversed(path):
                args = agent.args
                out = Agent(agent.symbol, args[: j - 1] + (out,) + args[j:])
            return out
    return t


# ---------------------------------------------------------------------------
# Canonical forms
#
# Two configurations that differ only by renaming of names, by reordering of
# the equation multiset, or by flipping equations must canonicalize to the
# same value.  Names are partitioned by iterated color refinement (anchored
# at interface positions), symmetric leftovers are resolved by branching on
# every member of the first ambiguous class and keeping the least result.
# ---------------------------------------------------------------------------

_BRANCH_LIMIT = 20_000


class CanonicalConfiguration(FrozenRecord):
    """A configuration renumbered and reordered into a comparable value.

    Equality and hashing go through the flat :attr:`sort_key`, computed
    once, so comparing canonical forms does not recurse into deep terms.
    """

    _fields = ("interface", "equations")

    def __init__(self, interface: tuple[Term, ...], equations: tuple[Equation, ...]) -> None:
        object.__setattr__(self, "interface", interface)
        object.__setattr__(self, "equations", equations)

    @_built_once
    def sort_key(self) -> tuple:
        return (
            tuple(_term_key(t) for t in self.interface),
            tuple((_term_key(e.left), _term_key(e.right)) for e in self.equations),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CanonicalConfiguration):
            return NotImplemented
        return self.sort_key == other.sort_key

    def __hash__(self) -> int:
        return hash(self.sort_key)


def _term_key(t: Term, colors: Optional[dict[int, int]] = None) -> tuple:
    """Flat preorder key of ``t``: ``"A", name, arity`` per agent and
    ``"N", c`` per name, ``c`` being the name's colour or, without
    ``colors``, its id.

    Keys order terms as the nested tuples ``("A", name, (child keys))`` and
    ``("N", c)`` would, given one arity per symbol name, and equal keys mean
    equal terms.  Being flat, they compare and hash without recursion, so
    term depth is not bounded by the interpreter's recursion limit.
    """
    if isinstance(t, Name):
        return ("N", colors[t.id] if colors is not None else t.id)
    out: list = ["A", t.symbol.name, t.symbol.arity]
    frames = [iter(t.args)]  # the arguments still to visit, per open agent
    while frames:
        for u in frames[-1]:
            if isinstance(u, Name):
                out += ("N", colors[u.id] if colors is not None else u.id)
            else:
                out += ("A", u.symbol.name, u.symbol.arity)
                frames.append(iter(u.args))
                break
        else:
            frames.pop()
    return tuple(out)


def canonicalize(config: Configuration) -> CanonicalConfiguration:
    """Deterministic canonical form of a well-formed configuration.

    Invariant under bound-name renaming, equation reordering, and equation
    flipping; idempotent.  Raises :class:`IllFormedError` on an occurrence
    violation.  One count of the occurrences finds the violations and,
    being kept in first-occurrence order, the names to colour.
    """
    counts = occurrences(config)
    bad = [(n, c) for n, c in counts.items() if c > 2]
    if bad:
        detail = ", ".join(f"{n.display} x{c}" for n, c in bad)
        raise IllFormedError(f"name(s) occur more than twice: {detail}")
    return _solve(config, _refine(config, {n.id: 0 for n in counts}), [_BRANCH_LIMIT])


# The steps of ``canonicalize`` are module functions, not closures over the
# configuration: a closure that calls itself is a reference cycle, which
# only the cyclic collector frees.

def _refine(config: Configuration, colors: dict[int, int]) -> dict[int, int]:
    """Refine ``colors`` by each name's occurrences until it is stable.

    An occurrence is placed by its ordinal among the names of its term.
    Ordinals are compared only within one term or between terms with equal
    keys, whose names sit at the same argument paths in the same order, so
    they order occurrences as those paths would, at constant size.
    """
    while True:
        occ = {nid: [] for nid in colors}
        for slot, t in enumerate(config.interface):
            for i, n in enumerate(term_names(t)):
                occ[n.id].append(("I", slot, i))
        for eq in config.equations:
            ka = _term_key(eq.left, colors)
            kb = _term_key(eq.right, colors)
            ek = (ka, kb) if ka <= kb else (kb, ka)
            if ka == kb:
                tags = (2, 2)
            elif ka < kb:
                tags = (0, 1)
            else:
                tags = (1, 0)
            for tag, t in zip(tags, (eq.left, eq.right)):
                for i, n in enumerate(term_names(t)):
                    occ[n.id].append(("E", ek, tag, i))
        sig = {nid: (colors[nid], tuple(sorted(occ[nid]))) for nid in colors}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {nid: rank[sig[nid]] for nid in colors}
        if new == colors:
            return colors
        colors = new


def _rebuild(t: Term, renamed: dict[int, Name]) -> Term:
    """``t`` with every name replaced by ``renamed[id]``.  A subterm that
    holds no name is returned as it is, unvisited."""
    if isinstance(t, Name):
        return renamed[t.id]
    if not t.holds_names:
        return t
    # Per open agent: the agent, its arguments left to visit and its
    # rebuilt arguments so far.
    frames = [(t, iter(t.args), [])]
    while True:
        agent, todo, done = frames[-1]
        for u in todo:
            if isinstance(u, Name):
                done.append(renamed[u.id])
            elif not u.holds_names:
                done.append(u)
            else:
                frames.append((u, iter(u.args), []))
                break
        else:
            frames.pop()
            out = Agent(agent.symbol, tuple(done))
            if not frames:
                return out
            frames[-1][2].append(out)


def _build(config: Configuration, colors: dict[int, int]) -> CanonicalConfiguration:
    """The configuration renumbered and ordered by a discrete colouring."""
    keyed = []
    for eq in config.equations:
        ka = _term_key(eq.left, colors)
        kb = _term_key(eq.right, colors)
        keyed.append(((ka, kb), eq) if ka <= kb else ((kb, ka), Equation(eq.right, eq.left)))
    keyed.sort(key=itemgetter(0))
    oriented = [e for _, e in keyed]
    seen = dict.fromkeys(n.id for n in config_names(Configuration(config.interface, oriented)))
    renamed = {nid: Name(i, f"n{i}") for i, nid in enumerate(seen)}
    return CanonicalConfiguration(
        tuple(_rebuild(t, renamed) for t in config.interface),
        tuple(Equation(_rebuild(e.left, renamed), _rebuild(e.right, renamed)) for e in oriented),
    )


def _solve(
    config: Configuration, colors: dict[int, int], budget: list[int]
) -> CanonicalConfiguration:
    """The least canonical form over every way of individualizing the
    names of the first ambiguous colour class; ``budget[0]`` counts the
    branches left."""
    groups: dict[int, list[int]] = {}
    for nid, c in colors.items():
        groups.setdefault(c, []).append(nid)
    multi = sorted(c for c, members in groups.items() if len(members) > 1)
    if not multi:
        return _build(config, colors)
    best: Optional[CanonicalConfiguration] = None
    for nid in groups[multi[0]]:
        budget[0] -= 1
        if budget[0] < 0:
            raise NetError("canonicalization branch limit exceeded")
        sig = {m: (colors[m], 0 if m == nid else 1) for m in colors}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        cand = _solve(config, _refine(config, {m: rank[sig[m]] for m in colors}), budget)
        if best is None or cand.sort_key < best.sort_key:
            best = cand
    assert best is not None
    return best
