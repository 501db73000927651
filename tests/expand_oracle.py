"""Eager variadic expansion: the oracle for the library's lazy instances.

The library makes an arity instance of a variadic rule from its patterns
and builds its right-hand side the first time it is read.  This module
expands the whole rule at once, patterns and right-hand side together, with
one name supply per instance, as the library once did; and it runs the
analysis pipeline on that eager expansion.  The rules it returns carry
their right-hand side from the start, so ``build_rule_table`` walks them to
find the largest name id.
"""

from typing import Iterable, Optional, Sequence

from inetkit.core import Name, NameSupply
from inetkit.rules import (
    DEFAULT_ARITY_CAP,
    Diagnostic,
    GenericPattern,
    RAgent,
    RhsTerm,
    Rule,
    RuleEquation,
    RuleTable,
    VarName,
    build_rule_table,
    check_grc,
    check_no_ambiguity,
    errors_in,
    validate_linearity,
)


def _parts(t: RhsTerm):
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, RAgent):
            stack.extend(reversed(u.args))


def _eq_parts(eq: RuleEquation):
    yield from _parts(eq.left)
    yield from _parts(eq.right)


def _max_name_id(rule: Rule) -> int:
    ids = [n.id for n in rule.params]
    ids += [u.id for eq in rule.rhs for u in _eq_parts(eq) if isinstance(u, Name)]
    return max(ids, default=-1)


def expand_at(rule: Rule, k: int) -> Rule:
    """The arity-``k`` instance of the variadic ``rule``, built whole."""
    g = rule.generic
    assert g is not None and g.is_variadic
    m = k - len(g.fixed_params)
    supply = NameSupply(_max_name_id(rule) + 1)
    lhs_ports = tuple(supply.fresh(f"{g.range_name}{i + 1}") for i in range(m))
    vectors: dict[str, tuple[Name, ...]] = {g.range_name: lhs_ports}
    params = set(rule.params)

    def vector(rng: str) -> tuple[Name, ...]:
        if rng not in vectors:
            vectors[rng] = tuple(supply.fresh(f"{rng}{i + 1}") for i in range(m))
        return vectors[rng]

    def conv(t: RhsTerm, vn_map: dict, names: dict) -> RhsTerm:
        if isinstance(t, Name):
            return names.get(t, t)
        if isinstance(t, VarName):
            return vn_map[t.range_name]
        args = tuple(conv(a, vn_map, names) for a in t.args)
        if t.range_tail is not None:
            args += vector(t.range_tail)
        return RAgent(t.head, args, None)

    rhs: list[RuleEquation] = []
    for eq in rule.rhs:
        parts = list(_eq_parts(eq))
        vns = list(dict.fromkeys(u.range_name for u in parts if isinstance(u, VarName)))
        if not vns:
            rhs.append(RuleEquation(conv(eq.left, {}, {}), conv(eq.right, {}, {})))
            continue
        local = [u for u in dict.fromkeys(parts) if isinstance(u, Name) and u not in params]
        for i in range(m):
            vn_map = {r: vector(r)[i] for r in vns}
            names = {n: supply.fresh(n.display) for n in local}
            rhs.append(RuleEquation(conv(eq.left, vn_map, names), conv(eq.right, vn_map, names)))
    return Rule(
        id=f"{rule.id}@{k}",
        left=rule.left,
        right=GenericPattern(g.generic_name, g.fixed_params + lhs_ports, None),
        rhs=tuple(rhs),
        origin=f"expanded-from({rule.id}, {k})",
    )


def analyze_eagerly(
    rules: Sequence[Rule],
    arities: Iterable[int],
    *,
    all_arities: bool = False,
    cap: int = DEFAULT_ARITY_CAP,
) -> tuple[list[Diagnostic], list[Rule], Optional[RuleTable]]:
    """Diagnostics, expanded rules and table of ``analyze_rules``, from the
    eager expansion."""
    diags: list[Diagnostic] = []
    for r in rules:
        diags.extend(validate_linearity(r))
    diags.extend(check_no_ambiguity(rules))
    if errors_in(diags):
        return diags, [], None
    arities = set(arities)
    top = max(arities, default=0)
    expanded: list[Rule] = []
    for r in rules:
        g = r.generic
        if g is None or not g.is_variadic:
            expanded.append(r)
            continue
        if top > cap:
            diags.append(
                Diagnostic(
                    "error",
                    "E_EXPAND_OVERFLOW",
                    f"maximum arity {top} exceeds the expansion cap {cap}",
                )
            )
            return diags, [], None
        ks = range(top + 1) if all_arities else sorted(arities)
        expanded.extend(expand_at(r, k) for k in ks if k >= len(g.fixed_params))
    diags.extend(check_grc(expanded))
    if errors_in(diags):
        return diags, expanded, None
    return diags, expanded, build_rule_table(expanded, validate=False)
