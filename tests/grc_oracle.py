"""The generic-overlap check over an expanded rule set: the oracle for
``check_grc``.

The library checks generic overlaps over the written rules, naming the arity
instances it needs without making them.  This module keeps the check as it
once ran, over every pair of generic rules after expansion, each variadic
rule replaced by its instances (``expand_variadic``).  Both must give the
same diagnostics in the same order.
"""

from itertools import combinations
from typing import Sequence

from inetkit.rules import Diagnostic, OrdinaryPattern, Rule, RuleKind, _pair_key


def check_grc(rules: Sequence[Rule]) -> list[Diagnostic]:
    """Generic-overlap check over a fully expanded rule set.

    Two generic rules ``A >< phi_m`` and ``B >< phi_n`` both match the active
    pair (A, B) exactly when arity(A) = n and arity(B) = m; such a pair must
    then be covered by an ordinary rule, which takes priority at run time.
    """
    assert not any(r.kind is RuleKind.VARIADIC for r in rules), "expand the rules first"
    diags: list[Diagnostic] = []
    ordinary_pairs = set()
    for r in rules:
        if isinstance(r.right, OrdinaryPattern):
            ordinary_pairs.add(_pair_key(r.left.symbol.name, r.right.symbol.name))

    generics = [(r, r.generic) for r in rules if r.generic is not None]
    for r, g in generics:
        if r.left.symbol.arity == len(g.fixed_params):
            a = r.left.symbol.name
            message = (f"rule {r.id} can match its own symbol pair ({a}, {a}); "
                       f"the two-probe lookup order makes the binding deterministic")
            diags.append(Diagnostic("warning", "W_SELF_GENERIC", message))
    for (r1, g1), (r2, g2) in combinations(generics, 2):
        a_sym, b_sym = r1.left.symbol, r2.left.symbol
        m, n = len(g1.fixed_params), len(g2.fixed_params)
        if (a_sym.name, m) == (b_sym.name, n):
            continue  # identical slot: reported as E_DUP_GENERIC elsewhere
        if a_sym.arity == n and b_sym.arity == m:
            if _pair_key(a_sym.name, b_sym.name) not in ordinary_pairs:
                message = (
                    f"generic rules {r1.id} ({a_sym.name} >< {g1.generic_name}/{m}) "
                    f"and {r2.id} ({b_sym.name} >< {g2.generic_name}/{n}) both match the "
                    f"active pair ({a_sym.name}, {b_sym.name}) and no ordinary rule covers it"
                )
                diags.append(Diagnostic("error", "E_GRC_OVERLAP", message))
    return diags
