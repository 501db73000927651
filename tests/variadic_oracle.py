"""Direct variadic instantiation: an independent oracle for the tests.

The library never runs a variadic rule as written; it expands it into fixed
generic rules (``expand_variadic``) and instantiates those.  This module
instantiates a variadic rule directly against a concrete partner instead,
so the tests can check that expansion and direct instantiation agree.  It
reads only the library's data types: it shares no code with the expansion
or with the library's right-hand-side walk.
"""

from typing import Optional

from inetkit.core import Agent, Equation, Name, NameSupply, NetError, Term
from inetkit.rules import GenericRef, RAgent, RhsTerm, Rule, VarName


class ArityUnderflowError(NetError):
    """Variadic rule applied to a partner with fewer ports than fixed ones."""

    code = "E_ARITY_UNDER"


def _resolve_generic_side(rule: Rule, eq: Equation, generic_side: Optional[str]) -> str:
    if generic_side is not None:
        return generic_side
    assert isinstance(eq.left, Agent) and isinstance(eq.right, Agent)
    # Prefer binding the wildcard to the left term, mirroring the first probe.
    if eq.right.symbol == rule.left.symbol:
        return "left"
    if eq.left.symbol == rule.left.symbol:
        return "right"
    raise NetError(f"equation does not match rule {rule.id}")


def instantiate_variadic(
    rule: Rule, eq: Equation, supply: NameSupply, generic_side: Optional[str] = None
) -> list[Equation]:
    """Direct variadic instantiation against a concrete partner.

    The partner's first ``f`` arguments bind the fixed parameters; the range
    covers the rest.  A left-hand range maps to those remaining argument
    terms, right-hand-only ranges map to fresh name vectors of matching
    length, and each equation holding variadic names is emitted once per
    covered port with that port's images substituted.
    """
    g = rule.generic
    assert g is not None and g.is_variadic
    side = _resolve_generic_side(rule, eq, generic_side)
    assert isinstance(eq.left, Agent) and isinstance(eq.right, Agent)
    generic_actual = eq.left if side == "left" else eq.right
    ordinary_actual = eq.right if side == "left" else eq.left
    beta = generic_actual.symbol

    f = len(g.fixed_params)
    if beta.arity < f:
        raise ArityUnderflowError(
            f"rule {rule.id}: partner {beta.name}/{beta.arity} has fewer than "
            f"{f} port(s)"
        )
    ports: tuple[Term, ...] = generic_actual.args[f:]
    m = len(ports)

    env: dict[Name, Term] = {}
    env.update(zip(rule.left.params, ordinary_actual.args))
    env.update(zip(g.fixed_params, generic_actual.args[:f]))

    rhs_vectors: dict[str, tuple[Name, ...]] = {}

    def vector(rng: str) -> tuple[Term, ...]:
        if rng == g.range_name:
            return ports
        if rng not in rhs_vectors:
            rhs_vectors[rng] = tuple(supply.fresh(f"{rng}{i + 1}") for i in range(m))
        return rhs_vectors[rng]

    fresh_map: dict[Name, Name] = {}

    def conv(t: RhsTerm, vn_map: dict[str, Term], fresh: dict[Name, Name]) -> Term:
        if isinstance(t, Name):
            if t in env:
                return env[t]
            if t not in fresh:
                fresh[t] = supply.fresh(t.display)
            return fresh[t]
        if isinstance(t, VarName):
            return vn_map[t.range_name]
        head = beta if isinstance(t.head, GenericRef) else t.head
        args: tuple[Term, ...] = tuple(conv(a, vn_map, fresh) for a in t.args)
        if t.range_tail is not None:
            args = args + tuple(vector(t.range_tail))
        return Agent(head, args)

    out: list[Equation] = []
    for req in rule.rhs:
        vns = set()
        stack: list[RhsTerm] = [req.left, req.right]
        while stack:
            part = stack.pop()
            if isinstance(part, VarName):
                vns.add(part.range_name)
            elif isinstance(part, RAgent):
                stack.extend(part.args)
        if vns:
            for i in range(m):
                vn_map = {r: vector(r)[i] for r in vns}
                copy_fresh: dict[Name, Name] = {}
                out.append(
                    Equation(conv(req.left, vn_map, copy_fresh), conv(req.right, vn_map, copy_fresh))
                )
        else:
            out.append(Equation(conv(req.left, {}, fresh_map), conv(req.right, {}, fresh_map)))
    return out
