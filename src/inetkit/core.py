"""Core data model for interaction-net configurations.

A net is written as a configuration ``< interface | equations >``: an ordered
sequence of interface terms plus a multiset of equations between terms.
Terms are either names (wire endpoints) or agents applied to argument terms.
Every name may occur at most twice across a whole configuration; a name
occurring twice is an internal wire, a name occurring once is a free port.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union


class NetError(Exception):
    """Base error for the net data model."""


class IllFormedError(NetError):
    """A configuration breaks the at-most-two-occurrences rule."""


@dataclass(frozen=True)
class Symbol:
    """An agent label plus its number of auxiliary ports."""

    name: str
    arity: int


@dataclass(frozen=True)
class Name:
    """A wire endpoint.  Identity is the id; the display string is cosmetic."""

    id: int
    display: str = field(compare=False)

    def __repr__(self) -> str:
        return f"Name({self.id}:{self.display})"


@dataclass(frozen=True)
class Agent:
    """An agent symbol applied to exactly ``symbol.arity`` argument terms."""

    symbol: Symbol
    args: tuple["Term", ...] = ()

    def __post_init__(self) -> None:
        if len(self.args) != self.symbol.arity:
            raise NetError(
                f"agent {self.symbol.name}/{self.symbol.arity} applied to "
                f"{len(self.args)} argument(s)"
            )


Term = Union[Name, Agent]


@dataclass(frozen=True)
class Equation:
    """An undirected connection between two terms (t=s means the same as s=t)."""

    left: Term
    right: Term


@dataclass
class Configuration:
    """An ordered interface plus an equation multiset.

    The equation list doubles as the reduction work queue; its storage order
    carries no meaning beyond the strategy that consumes it.
    """

    interface: list[Term]
    equations: list[Equation]

    def copy(self) -> "Configuration":
        return Configuration(list(self.interface), list(self.equations))


class NameSupply:
    """Hands out names with ids never issued before by this supply."""

    def __init__(self, start: int = 0):
        self._next = start

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
    interpreter's recursion limit.
    """
    stack = [t]
    while stack:
        u = stack.pop()
        # Descend into the first argument directly and stack only the rest,
        # so a chain of unary agents costs no stack traffic.
        while isinstance(u, Agent):
            args = u.args
            if not args:
                break
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


def agent_count(t: Term) -> int:
    if isinstance(t, Name):
        return 0
    return 1 + sum(agent_count(a) for a in t.args)


def max_name_id(items: Iterable[Term]) -> int:
    """Largest name id appearing in ``items``, or -1 if there are none."""
    best = -1
    for t in items:
        for n in term_names(t):
            if n.id > best:
                best = n.id
    return best


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


@dataclass(frozen=True)
class CanonicalConfiguration:
    """A configuration renumbered and reordered into a comparable value."""

    interface: tuple[Term, ...]
    equations: tuple[Equation, ...]

    def sort_key(self):
        return (
            tuple(_ground_key(t) for t in self.interface),
            tuple((_ground_key(e.left), _ground_key(e.right)) for e in self.equations),
        )


def _ground_key(t: Term):
    if isinstance(t, Name):
        return ("N", t.id)
    return ("A", t.symbol.name, tuple(_ground_key(a) for a in t.args))


def _name_paths(t: Term, prefix: tuple = ()) -> Iterator[tuple[Name, tuple]]:
    if isinstance(t, Name):
        yield t, prefix
    else:
        for i, a in enumerate(t.args):
            yield from _name_paths(a, prefix + (i,))


def canonicalize(config: Configuration) -> CanonicalConfiguration:
    """Deterministic canonical form of a well-formed configuration.

    Invariant under bound-name renaming, equation reordering, and equation
    flipping; idempotent.  Raises :class:`IllFormedError` on an occurrence
    violation.
    """
    bad = occurrence_violations(config)
    if bad:
        detail = ", ".join(f"{n.display} x{c}" for n, c in bad)
        raise IllFormedError(f"name(s) occur more than twice: {detail}")

    name_ids = []
    seen = set()
    for n in config_names(config):
        if n.id not in seen:
            seen.add(n.id)
            name_ids.append(n.id)

    def tkey(t: Term, colors):
        if isinstance(t, Name):
            return ("N", colors[t.id])
        return ("A", t.symbol.name, tuple(tkey(a, colors) for a in t.args))

    def refine(colors):
        while True:
            occ = {nid: [] for nid in colors}
            for slot, t in enumerate(config.interface):
                for n, p in _name_paths(t):
                    occ[n.id].append(("I", slot, p))
            for eq in config.equations:
                ka = tkey(eq.left, colors)
                kb = tkey(eq.right, colors)
                ek = (ka, kb) if ka <= kb else (kb, ka)
                if ka == kb:
                    tags = (2, 2)
                elif ka < kb:
                    tags = (0, 1)
                else:
                    tags = (1, 0)
                for tag, t in zip(tags, (eq.left, eq.right)):
                    for n, p in _name_paths(t):
                        occ[n.id].append(("E", ek, tag, p))
            sig = {nid: (colors[nid], tuple(sorted(occ[nid]))) for nid in colors}
            rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
            new = {nid: rank[sig[nid]] for nid in colors}
            if new == colors:
                return colors
            colors = new

    def build(colors) -> CanonicalConfiguration:
        oriented = []
        for eq in config.equations:
            ka = tkey(eq.left, colors)
            kb = tkey(eq.right, colors)
            oriented.append(eq if ka <= kb else Equation(eq.right, eq.left))
        oriented.sort(key=lambda e: (tkey(e.left, colors), tkey(e.right, colors)))
        index: dict[int, int] = {}
        for t in config.interface:
            for n, _ in _name_paths(t):
                index.setdefault(n.id, len(index))
        for e in oriented:
            for side in (e.left, e.right):
                for n, _ in _name_paths(side):
                    index.setdefault(n.id, len(index))

        def rebuild(t: Term) -> Term:
            if isinstance(t, Name):
                i = index[t.id]
                return Name(i, f"n{i}")
            return Agent(t.symbol, tuple(rebuild(a) for a in t.args))

        return CanonicalConfiguration(
            tuple(rebuild(t) for t in config.interface),
            tuple(Equation(rebuild(e.left), rebuild(e.right)) for e in oriented),
        )

    budget = [_BRANCH_LIMIT]

    def solve(colors) -> CanonicalConfiguration:
        groups: dict[int, list[int]] = {}
        for nid, c in colors.items():
            groups.setdefault(c, []).append(nid)
        multi = sorted(c for c, members in groups.items() if len(members) > 1)
        if not multi:
            return build(colors)
        best: Optional[CanonicalConfiguration] = None
        for nid in groups[multi[0]]:
            budget[0] -= 1
            if budget[0] < 0:
                raise NetError("canonicalization branch limit exceeded")
            sig = {m: (colors[m], 0 if m == nid else 1) for m in colors}
            rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
            cand = solve(refine({m: rank[sig[m]] for m in colors}))
            if best is None or cand.sort_key() < best.sort_key():
                best = cand
        assert best is not None
        return best

    return solve(refine({nid: 0 for nid in name_ids}))
