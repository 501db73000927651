"""Seeded workload generators with closed-form expected outputs.

Each workload is a list of ``.inet`` programs plus an op mix: the ``inet``
subcommands one round runs, and the exact stdout and exit code each must
produce.  Expected normal forms and step counts are computed here from the
shape of the generated net, never by calling ``inetkit``.

The seed changes names, orientations, orders, mirror images and the Pick
index; sizes are fixed, so that runs with different seeds do the same work
and measure the same thing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("deep_unary", "variadic_fanout", "fuzz_small")


@dataclass(frozen=True)
class Op:
    kind: str  # "check" | "run" | "fuzz"
    program: str  # file name of the program inside the workload directory
    argv: tuple[str, ...]  # arguments after the input path
    stdout: str  # exact expected stdout
    exit_code: int = 0


@dataclass
class Workload:
    files: dict[str, str]  # file name -> program text
    ops: list[Op]  # one round, in order
    mix: str  # one-line description of the round


def unary(n: int, succ: str = "S", zero: str = "Z") -> str:
    return f"{succ}(" * n + zero + ")" * n


def normal_form(*terms: str) -> str:
    """How ``inet run`` prints a configuration with this interface and no equations."""
    return f"< {', '.join(terms)} | >" if terms else "< | >"


def fuzz_line(final: str, steps: int, seeds: int) -> str:
    runs = seeds + 2  # fifo and lifo run besides the seeded strategies
    return (
        f"confluence: {runs} strategies, {runs} terminating, "
        f"all agree on {final} in {steps} step(s)\n"
    )


def _names(rng: random.Random, k: int) -> list[str]:
    """``k`` distinct one-letter names; equal length keeps the parse work fixed."""
    return rng.sample("abcdefghijklmnopqrstuvwxyz", k)


def _agent_names(rng: random.Random, k: int, taken: set[str]) -> list[str]:
    """``k`` distinct three-letter agent symbols outside ``taken``."""
    out: list[str] = []
    while len(out) < k:
        name = rng.choice("QJKXY") + "".join(rng.choice("aeiou") for _ in range(2))
        if name not in taken and name not in out:
            out.append(name)
    return out


def _ops(program: str, final: str, steps: int, *, checks: int, runs: int,
         fuzzes: int, seeds: int) -> list[Op]:
    out = [Op("check", program, (), "")] * checks
    out += [Op("run", program, (), final + "\n")] * runs
    out += [Op("fuzz", program, ("--seeds", str(seeds)), fuzz_line(final, steps, seeds))] * fuzzes
    return out


# ---------------------------------------------------------------------------
# deep_unary: Add n+n on unary numerals
# ---------------------------------------------------------------------------

DEEP_N = 70
DEEP_FUZZ_SEEDS = 1


def _addition_program(rng: random.Random, a: int, b: int,
                      add: str = "Add", succ: str = "S", zero: str = "Z") -> tuple[str, str, int]:
    """``Add`` with addend ``b`` meeting the numeral ``a``.

    Add recurses on the numeral at its principal port: ``a`` interactions
    with the successor rule and one with the zero rule, each followed by one
    name step, so the net normalizes in ``2a + 2`` steps to ``S^(a+b)(Z)``.
    """
    y, r, x, w, y2, r2, out = _names(rng, 7)
    lhs = f"{add}({y}, {r})"
    step = f"{add}({y}, {w})~{x}, {r}~{succ}({w})"
    rule_s = (f"{lhs} >< {succ}({x})" if rng.random() < 0.5 else f"{succ}({x}) >< {lhs}") + f" => {step};"
    lhs0 = f"{add}({y2}, {r2})"
    rule_z = (f"{lhs0} >< {zero}" if rng.random() < 0.5 else f"{zero} >< {lhs0}") + f" => {r2}~{y2};"
    rules = [rule_s, rule_z]
    rng.shuffle(rules)
    active = (f"{add}({unary(b, succ, zero)}, {out})", unary(a, succ, zero))
    if rng.random() < 0.5:
        active = active[::-1]
    text = "\n".join(
        [f"agent {add}/2;", f"agent {succ}/1;", f"agent {zero}/0;", *rules,
         f"net ({out}) | {active[0]}~{active[1]};", ""]
    )
    return text, normal_form(unary(a + b, succ, zero)), 2 * a + 2


def deep_unary(seed: int) -> Workload:
    rng = random.Random(seed)
    # Symbol names are drawn from equal-length pools so the source size is fixed.
    add = rng.choice(["Add", "Sum", "Plu"])
    succ = rng.choice(["S", "T", "U"])
    zero = rng.choice(["Z", "O", "N"])
    text, final, steps = _addition_program(rng, DEEP_N, DEEP_N, add, succ, zero)
    ops = _ops("deep.inet", final, steps, checks=2, runs=2, fuzzes=2, seeds=DEEP_FUZZ_SEEDS)
    mix = f"2 check, 2 run, 2 fuzz --seeds {DEEP_FUZZ_SEEDS} of Add {DEEP_N}+{DEEP_N}"
    return Workload({"deep.inet": text}, ops, mix)


# ---------------------------------------------------------------------------
# variadic_fanout: Dup copies, Eps erases, agents of arity up to 64
# ---------------------------------------------------------------------------

# One agent at the default expansion cap, so that expansion always reaches
# 64, and six small ones.  The seed only names the agents: seeding the
# arities, or just their order, moved fuzz time by up to 12%, because the
# lifo and seeded schedules and the net's size per step follow the order.
FANOUT_ARITIES = (64, 2, 3, 4, 4, 5, 6)
FANOUT_FUZZ_SEEDS = 1

DUP_ERASE_RULES = """\
Eps >< ANY([x]) => Eps~x';
Dup(a, b) >< ANY([x]) => a~ANY([y]), b~ANY([z]), x'~Dup(y', z');
Eps >< Dup(a, b) => Eps~a, Eps~b;
"""


def _dup_steps(term_agents: int) -> int:
    """Dup(r, e)~T, Eps~e takes 4 steps per agent of T.

    Per agent: Dup meets it (1), the first copy is resolved into its place
    (1), the second copy is wired to Eps (1) and Eps erases it (1).
    """
    return 4 * term_agents


def variadic_fanout(seed: int) -> Workload:
    rng = random.Random(seed)
    arities = FANOUT_ARITIES
    symbols = _agent_names(rng, len(arities), {"Eps", "Dup"})
    outs = [f"r{i}" for i in range(len(arities))]
    decls = ["agent Eps/0;", "agent Dup/2;", "agent Z/0;"]
    decls += [f"agent {s}/{k};" for s, k in zip(symbols, arities)]
    terms = [f"{s}({', '.join(['Z'] * k)})" for s, k in zip(symbols, arities)]
    eqs = []
    for i, term in enumerate(terms):
        eqs.append(f"Dup({outs[i]}, e{i})~{term}")
        eqs.append(f"Eps~e{i}")
    text = "\n".join(decls) + "\n" + DUP_ERASE_RULES + f"net ({', '.join(outs)}) | {', '.join(eqs)};\n"
    steps = sum(_dup_steps(1 + k) for k in arities)
    final = normal_form(*terms)
    ops = _ops("fanout.inet", final, steps, checks=2, runs=2, fuzzes=2, seeds=FANOUT_FUZZ_SEEDS)
    mix = (f"2 check, 2 run, 2 fuzz --seeds {FANOUT_FUZZ_SEEDS} of Dup/Eps over agents "
           f"of arity {', '.join(map(str, FANOUT_ARITIES))}")
    return Workload({"fanout.inet": text}, ops, mix)


# ---------------------------------------------------------------------------
# fuzz_small: many small nets over the four corpus rule sets
# ---------------------------------------------------------------------------

FUZZ_SEEDS = 200  # the CLI default

MAP_RULES = """\
agent Map/1;
agent MapN/0;
agent MapC/2;
agent Nil/0;
agent Cons/2;
agent Inc/1;
agent S/1;
agent Z/0;
agent Eps/0;
agent Dup/2;
Map(r) >< Nil => MapN~r;
Map(r) >< Cons(a, as) => MapC(a, as)~r;
MapN >< ANY(r, [x]) => Nil~r, Eps~x';
MapC(a, as) >< ANY(r, [x]) => Cons(s, t)~r, ANY(s, [y])~a, ANY(t, [z])~u, Map(u)~as, Dup(y', z')~x';
Inc(r) >< Z => r~S(Z);
Inc(r) >< S(x) => r~S(S(x));
Eps >< ANY([x]) => Eps~x';
Dup(a, b) >< ANY([x]) => a~ANY([y]), b~ANY([z]), x'~Dup(y', z');
Eps >< Dup(a, b) => Eps~a, Eps~b;
Dup(a, b) >< MapN => a~MapN, b~MapN;
Dup(a, b) >< MapC(x, y) => a~MapC(p, q), b~MapC(v, w), x~Dup(p, v), y~Dup(q, w);
"""

PICK_RULES = """\
agent No/0;
agent Jst/1;
agent Bind/1;
agent Ret/1;
agent Aux/0;
agent Eps/0;
agent Pick/2;
agent PickH/3;
agent Nil/0;
agent Cons/2;
agent S/1;
agent Z/0;
Ret(r) >< ANY([x]) => r~Jst(ANY([x]));
Jst(a) >< Bind(b) => a~b;
No >< Bind(b) => Aux~b;
Aux >< ANY(r, [x]) => Eps~x', No~r;
Aux >< Ret(r) => No~r;
Eps >< Ret(r) => Eps~r;
Eps >< ANY([x]) => Eps~x';
Pick(r, n) >< Nil => r~No, Eps~n;
Pick(r, n) >< Cons(x, xs) => PickH(r, x, xs)~n;
PickH(r, x, xs) >< Z => r~Jst(x), Eps~xs;
PickH(r, x, xs) >< S(n) => Pick(r, n)~xs, Eps~x;
"""


def cons_list(items: list[str]) -> str:
    out = "Nil"
    for item in reversed(items):
        out = f"Cons({item}, {out})"
    return out


def _map_program(rng: random.Random, length: int) -> tuple[str, str, int]:
    """Map Inc over a list of small numerals, in a seeded order.

    Per cell: Map meets Cons, MapC meets Inc, the new Cons is resolved into
    place, Inc meets the element, its result is resolved, and the link to
    the recursive Map is resolved: 6 steps.  The final Nil costs 3 (Map
    meets Nil, MapN meets Inc, Nil is resolved).
    """
    values = [j % 3 for j in range(length)]
    rng.shuffle(values)
    text = MAP_RULES + f"net (res) | Map(Inc(res))~{cons_list([unary(v) for v in values])};\n"
    final = normal_form(cons_list([unary(v + 1) for v in values]))
    return text, final, 6 * length + 3


def _term(rng: random.Random, agents: int) -> str:
    """A fixed balanced term over Z/0, S/1 and P/2 with ``agents`` agents,
    each P's children swapped at random; mirroring leaves the work unchanged."""
    if agents == 1:
        return "Z"
    if agents == 2:
        return "S(Z)"
    left = (agents - 1) // 2
    kids = [_term(rng, left), _term(rng, agents - 1 - left)]
    rng.shuffle(kids)
    return f"P({kids[0]}, {kids[1]})"


def _dup_program(rng: random.Random, agents: int) -> tuple[str, str, int]:
    term = _term(rng, agents)
    text = ("agent Eps/0;\nagent Dup/2;\nagent S/1;\nagent Z/0;\nagent P/2;\n"
            + DUP_ERASE_RULES + f"net (r) | Dup(r, e)~{term}, Eps~e;\n")
    return text, normal_form(term), _dup_steps(agents)


def _pick_program(rng: random.Random, length: int) -> tuple[str, str, int]:
    """Pick the element at a seeded index of the list Z, S(Z), S(S(Z)), ...

    Skipping a cell costs 2 steps (Pick meets Cons, PickH meets S) plus one
    Eps interaction per agent of the skipped element.  The hit costs 3
    (Pick meets Cons, PickH meets Z, the result is resolved) plus one Eps
    interaction per agent of the rest of the list.  Element j has j + 1
    agents, so every index costs the same number of steps.
    """
    values = list(range(length))
    index = rng.randrange(length)
    text = PICK_RULES + f"net (r) | Pick(r, {unary(index)})~{cons_list([unary(v) for v in values])};\n"
    rest = values[index + 1:]
    steps = sum(2 + (v + 1) for v in values[:index])
    steps += 3 + sum(v + 1 for v in rest) + len(rest) + 1  # elements, Cons cells, Nil
    return text, normal_form(f"Jst({unary(values[index])})"), steps


# Sizes per rule set, four nets each.  They are chosen so that every net
# costs about the same under fuzz (60-110 ms on the seed commit): with a
# single slow net the tail percentile would sit on the boundary between the
# two slowest nets and jump with the sample count.
FUZZ_SMALL_NETS = {
    "add": ((4, 5), (5, 4), (4, 3), (5, 2)),  # (a, b): operands at most 5
    "map": (1, 2, 1, 2),  # list length
    "dup": (3, 4, 3, 4),  # agents in the duplicated term
    "pick": (4, 4, 4, 4),  # list length; the index is seeded
}
# check and run cost about 2 ms on the add and dup nets and 3 ms on the map
# and pick nets, whose rule sets are larger.  With one op each the median
# would fall on the gap between the two groups; running the larger ones
# twice puts it inside a group.
FUZZ_SMALL_CHECKS = {"add": 1, "dup": 1, "map": 2, "pick": 2}


def fuzz_small(seed: int) -> Workload:
    rng = random.Random(seed)
    files: dict[str, str] = {}
    ops: list[Op] = []
    make = {
        "add": lambda size: _addition_program(rng, *size),
        "map": lambda size: _map_program(rng, size),
        "dup": lambda size: _dup_program(rng, size),
        "pick": lambda size: _pick_program(rng, size),
    }
    for family, sizes in FUZZ_SMALL_NETS.items():
        for k, size in enumerate(sizes):
            program = f"{family}{k}.inet"
            text, final, steps = make[family](size)
            files[program] = text
            n = FUZZ_SMALL_CHECKS[family]
            ops += _ops(program, final, steps, checks=n, runs=n, fuzzes=1, seeds=FUZZ_SEEDS)
    mix = (f"fuzz --seeds {FUZZ_SEEDS} on each of {len(files)} nets (4 each of addition, "
           "map Inc, Dup/Eps, Pick); check and run once on each addition and Dup/Eps "
           "net, twice on each map and Pick net")
    return Workload(files, ops, mix)


def build(name: str, seed: int) -> Workload:
    return {"deep_unary": deep_unary, "variadic_fanout": variadic_fanout,
            "fuzz_small": fuzz_small}[name](seed)
