"""Substitution by rebuilding the target term: the reference implementation
for the library's substitution step.

The library's ``inetkit.engine.step_substitution`` binds the substituted
name to its term and leaves the target equation as it is; terms are
resolved through the bindings only where they are read.  This module keeps
the step that binding replaced, which rebuilds the target term down to the
name with ``substitute``, so the tests can put it in the engine's place and
check that both reduce every net through the same steps to the same end.
"""

from inetkit.core import Equation, Name, Term, substitute
from inetkit.engine import Reducer, Site, _side


def step_substitution(reducer: Reducer, eid: int, x: Name, t: Term, other: Site,
                      touched: set[int]) -> tuple[Equation, ...]:
    """``t`` replaces ``x`` inside the target, which keeps its id."""
    j, j_side, _ = other
    target = reducer._eqs[j]
    if j_side == 0:
        new = Equation(substitute(target.left, x, t), target.right)
    else:
        new = Equation(target.left, substitute(target.right, x, t))
    reducer._eqs[j] = new
    reducer._place(t, j, j_side, eid, touched, inside=True)
    # An agent pair keeps its symbols, so its classification and match hold.
    if isinstance(_side(new, 1 - j_side), Name):
        touched.add(j)
    return (new,)
