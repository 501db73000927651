"""A fixed pure-Python reference kernel that gauges how fast the host runs now.

On a shared machine the same op's median moves by 30% or more between runs
because neighbours slow the whole CPU, not this process: steal time stays
near zero and ``process_time`` moves with wall time.  The kernel below does
the same kind of interpreter work as ``inetkit`` (frozen dataclasses,
recursive generator walks, tuple rebuilding, dict and string work) and never
imports it, so a change to ``inetkit`` cannot move it.  Timing it right
before every op gives a host-speed factor that the benchmark divides out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# Kernel time taken as the unit of host speed: times are reported as if the
# kernel had taken this long, i.e. in milliseconds of a host running at that
# speed.  Any fixed value works; this one is about the kernel's time on a
# 2-vCPU x86-64 host at its quietest, so normalised times read close to the
# wall times of a quiet host.
NOMINAL_S = 0.0030


@dataclass(frozen=True)
class _Leaf:
    id: int


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


def _leaves(t):
    if isinstance(t, _Leaf):
        yield t
    else:
        for k in t.kids:
            yield from _leaves(k)


def _replace(t, x, s):
    if isinstance(t, _Leaf):
        return s if t == x else t
    if not any(n == x for n in _leaves(t)):
        return t
    return _Node(t.tag, tuple(_replace(k, x, s) for k in t.kids))


def _render(t) -> str:
    if isinstance(t, _Leaf):
        return f"n{t.id}"
    return f"{t.tag}({', '.join(_render(k) for k in t.kids)})"


def kernel() -> int:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    hole = _Leaf(0)
    t = hole
    for i in range(1, 28):
        t = _Node("S" if i % 3 else "P", (t, _Leaf(i)) if i % 3 == 0 else (t,))
    counts: dict = {}
    for i in range(30):
        t = _replace(t, hole, _Node("Z", ()))
        hole = _Leaf(100 + i)
        t = _Node("S", (t, hole))
        for leaf in _leaves(t):
            key = ("leaf", leaf.id % 13)
            counts[key] = counts.get(key, 0) + 1
    return sum(counts.values()) + len(_render(t))


def measure() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
