"""Rule linearity and largest name ids by plain walks: an oracle for the tests.

The library walks each written rule's right-hand side once, into a summary
that its linearity check, its expansion and its rule table all read.  This
module keeps the walks it replaced: each check here walks the rule text
again, keeps its own lists of subterms and counts ``Name`` objects.  The
tests check that both give the same diagnostics, in the same order, and
the same largest name ids.
"""

from collections import Counter

from inetkit.core import Name
from inetkit.rules import Diagnostic, GenericRef, RAgent, RhsTerm, Rule, RuleEquation, VarName


def eq_parts(eq: RuleEquation) -> list[RhsTerm]:
    """Both sides of ``eq`` and all their subterms, in preorder, the left
    side first."""
    parts: list[RhsTerm] = []
    stack = [eq.right, eq.left]
    while stack:
        u = stack.pop()
        parts.append(u)
        if isinstance(u, RAgent) and u.args:
            stack.extend(u.args[::-1])
    return parts


def _names(parts: list[RhsTerm]) -> list[Name]:
    return [u for u in parts if isinstance(u, Name)]


def _ranges(parts: list[RhsTerm]) -> list[str]:
    return [u.range_tail for u in parts if isinstance(u, RAgent) and u.range_tail is not None]


def _varnames(parts: list[RhsTerm]) -> list[str]:
    return [u.range_name for u in parts if isinstance(u, VarName)]


def eq_names(eq: RuleEquation) -> list[Name]:
    return _names(eq_parts(eq))


def validate_linearity(rule: Rule) -> list[Diagnostic]:
    """Port-discipline check for a single rule; see
    :func:`inetkit.rules.validate_linearity`."""
    diags: list[Diagnostic] = []

    def err(code: str, message: str) -> None:
        diags.append(Diagnostic("error", code, f"rule {rule.id}: {message}"))

    params = rule.params
    for name, count in Counter(params).items():
        if count > 1:
            err("E_LIN_DUP", f"parameter {name.display} bound more than once in the LHS")

    param_set = set(params)
    parts = [eq_parts(eq) for eq in rule.rhs]
    name_count = Counter(n for ps in parts for n in _names(ps))

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

    g = rule.generic
    for ps in parts:
        for part in ps:
            if not isinstance(part, RAgent):
                continue
            head, n = part.head, len(part.args)
            if isinstance(head, GenericRef):
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
                err("E_RANGE_CONCRETE", f"range argument on concrete agent {head.name}")
            elif n != head.arity:
                err(
                    "E_ARITY_CONFLICT",
                    f"agent {head.name}/{head.arity} applied to {n} argument(s)",
                )

    variadic = g is not None and g.is_variadic
    lhs_range = g.range_name if variadic else None
    range_count: Counter = Counter()
    for ps in parts:
        ranges = _ranges(ps)
        varnames = _varnames(ps)
        range_count.update(ranges)
        range_count.update(varnames)
        if ranges and varnames:
            err("E_MIXED", "an equation may not contain both a range and a variadic name")
        if not variadic and (ranges or varnames):
            err("E_STRAY_VARIADIC", "range or variadic name in a non-variadic rule")
        if varnames:
            local = Counter(_names(ps))
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


def rule_max_name_id(rule: Rule) -> int:
    """The largest name id of ``rule``'s parameters and right-hand side."""
    names = [*rule.params, *(n for eq in rule.rhs for n in eq_names(eq))]
    return max((n.id for n in names), default=-1)


def instance_max_name_id(rule: Rule) -> int:
    """The largest name id of the arity instance ``rule``, read off its
    written rule; see :func:`inetkit.rules._instance_max_name_id`."""
    src = rule.instance_of
    assert src is not None and src.generic is not None
    g = src.generic
    lhs_ports = rule.right.fixed_params[len(g.fixed_params):]
    params = set(src.params)
    kept = [n.id for n in params]
    ranges: set[str] = set()
    per_port = 0
    for eq in src.rhs:
        parts = eq_parts(eq)
        vns = set(_varnames(parts))
        ranges |= vns
        ranges.update(_ranges(parts))
        if vns:
            per_port += len(set(_names(parts)) - params)
        else:
            kept.extend(n.id for n in _names(parts))
    if not lhs_ports:
        return max(kept, default=-1)
    ranges.discard(g.range_name)
    return lhs_ports[-1].id + len(lhs_ports) * (len(ranges) + per_port)
