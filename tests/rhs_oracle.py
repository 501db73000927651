"""Right-hand-side instantiation by walking the rule text: the reference
implementation for the library's compiled right-hand sides.

The library compiles each rule's right-hand side once into a flat program
(``inetkit.rules.RhsProgram``) and runs that program at every interaction.
This module keeps the direct walk over the rule text that the program
replaced, so the tests can check that both build the same equations, with
the same fresh-name ids and hints, and fail with the same errors.  It reads
only the library's data types.
"""

from typing import Optional, Sequence

from inetkit.core import Agent, Equation, Name, NameSupply, NetError, Symbol, Term
from inetkit.rules import GenericRef, RhsTerm, Rule, VarName


def instantiate_rhs(
    rule: Rule, args: Sequence[Term], partner: Optional[Symbol], supply: NameSupply
) -> list[Equation]:
    """The right-hand side of a non-variadic ``rule`` as net equations.

    ``args`` are the argument terms of the two matched agents in the order of
    ``rule.params``, the rule's left pattern first; each is inserted where
    its parameter occurs and never walked, so the walk is as deep as the rule
    text, not the net.  Every other name is freshened from ``supply`` on
    first sight, the left side of each equation before the right, depth
    first, with its own display hint.  The wildcard agent becomes
    ``partner``, the matched symbol.

    Raises :class:`NetError` on a range or variadic name (expand variadic
    rules first), on a wildcard when ``partner`` is ``None``, and on an agent
    applied at the wrong arity.
    """
    env: dict[Name, Term] = dict(zip(rule.params, args))
    fresh = supply.fresh

    def head(t: RhsTerm) -> Symbol:
        if t.__class__ is VarName or t.range_tail is not None:
            raise NetError(f"rule {rule.id}: range or variadic name in an unexpanded RHS")
        if t.head.__class__ is GenericRef:
            if partner is None:
                raise NetError(f"rule {rule.id}: wildcard agent without a matched partner")
            return partner
        return t.head

    def conv(t: RhsTerm) -> Term:
        if t.__class__ is Name:
            u = env.get(t)
            if u is None:
                u = env[t] = fresh(t.display)
            return u
        # Per open agent: its symbol, its arguments left to visit and its
        # instantiated arguments so far.
        frames = [(head(t), iter(t.args), [])]
        while True:
            symbol, todo, done = frames[-1]
            for a in todo:
                if a.__class__ is Name:
                    u = env.get(a)
                    if u is None:
                        u = env[a] = fresh(a.display)
                    done.append(u)
                else:
                    frames.append((head(a), iter(a.args), []))
                    break
            else:
                frames.pop()
                out = Agent(symbol, tuple(done))
                if not frames:
                    return out
                frames[-1][2].append(out)

    return [Equation(conv(e.left), conv(e.right)) for e in rule.rhs]
