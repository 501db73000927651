"""Seeded, deterministic generators of inets source text (standard library only).

``program(rng)`` writes a syntactically well-formed program: agent
declarations, ordinary, fixed-generic and variadic rules and a net, laid out
with comments, odd whitespace and CRLF line ends.  Its rules and net are
mostly linear and well-arity'd, so many programs pass ``check`` and run; now
and then a declaration is left out or gives a wrong arity, and two generic
rules may overlap, so the static checks fire too.

``variadic_program(rng)`` writes variadic rules of a shape ``program`` never
writes: a replicated equation holding local names, and wildcards that take
explicit arguments before their range.  ``program`` stays as it is, since
digests over its seeds are pinned.

``soup(rng)`` writes a token soup over the grammar's alphabet plus a few
non-ASCII letters: either tokens drawn at random or a generated program with
tokens spliced in, dropped and swapped.

``sprinkle(rng, text)`` inserts characters that sit at the edges of the
lexer's classes: digits that are not decimal, numerals that are not letters,
line separators that are not whitespace, a titlecase letter.

``symmetric_net(k)`` and ``wide_net(k)`` are the two fixed shapes that stress
canonical forms and net width.
"""

from __future__ import annotations

import random
import re

AGENTS = ["A", "B", "C", "Add", "S", "Z", "Dup", "Eps", "Nil", "Cons", "Éta", "W_2", "Ret", "Jst"]
NAMES = ["x", "y", "r", "w", "a", "b", "q", "u", "x1", "ßeta", "_t", "n2", "v"]
OPS = ["(", ")", "[", "]", ",", ";", "~", "|", "'", "/", "<", ">", "><", "=>", "="]
SOUP_WORDS = AGENTS + NAMES + ["agent", "net", "ANY", "É", "ß", "0", "1", "2", "17", "٣", "@", "-"]
# Between two tokens; "" only where one of them is punctuation.
SEPS = [" ", " ", " ", "  ", "\t", "\n", "\r\n", " # note É\n", "\n\n# ß; ANY(x)\r\n", "\r\n\t"]


def _join(rng: random.Random, tokens: list[str]) -> str:
    out = [tokens[0]]
    for prev, tok in zip(tokens, tokens[1:]):
        word = (prev[-1].isalnum() or prev[-1] == "_") and (tok[0].isalnum() or tok[0] == "_")
        out.append(rng.choice(SEPS) if word or rng.random() < 0.4 else "")
        out.append(tok)
    return "".join(out)


class _Writer:
    """Tokens of one program over one symbol table."""

    def __init__(self, rng: random.Random, arities: dict[str, int]):
        self.rng = rng
        self.arities = arities
        self.fresh = 0

    def name(self) -> str:
        self.fresh += 1
        return f"{self.rng.choice(NAMES)}{self.fresh}"

    def symbols(self, pred) -> list[str]:
        return [s for s, a in self.arities.items() if pred(a)]

    def term(self, occ: list[str], budget: int, depth: int = 0) -> list[str]:
        """Tokens of a term whose name leaves are the next ``budget`` names of ``occ``."""
        rng = self.rng
        if budget == 1 and (depth > 3 or rng.random() < 0.5):
            return [occ.pop()]
        if depth > 5:
            # Shrink the budget: spread it over the widest agent.
            fits = [max(self.arities, key=self.arities.get)] if budget else self.symbols(lambda a: a == 0)
        else:
            fits = self.symbols(lambda a: (a > 0) == (budget > 0) and a <= max(budget, 1) + 1)
        head = rng.choice(fits)
        arity = self.arities[head]
        if arity == 0:
            return [head]
        shares = [0] * arity
        for _ in range(budget):
            shares[rng.randrange(arity)] += 1
        out = [head, "("]
        for i, share in enumerate(shares):
            if i:
                out.append(",")
            out += self.term(occ, share, depth + 1)
        return out + [")"]

    def equations(self, occ: list[str], extra: int = 1) -> list[str]:
        """Equations using every name in ``occ`` once, plus ``extra`` name-free ones at most."""
        rng = self.rng
        rng.shuffle(occ)
        out: list[str] = []
        eqs = rng.randint(0, extra)
        while occ or eqs:
            size = min(len(occ), rng.randint(1, 4))
            if not size:
                eqs -= 1
            left = rng.randint(0, size)
            if out:
                out.append(",")
            out += self.term(occ, left) + ["~"] + self.term(occ, size - left)
        return out

    def wired(self, free: list[str], inner: int) -> list[str]:
        """``free`` once each and ``inner`` fresh names twice each."""
        occ = list(free)
        for _ in range(inner):
            n = self.name()
            occ += [n, n]
        return occ

    def params(self, sym: str) -> list[str]:
        return [self.name() for _ in range(self.arities[sym])]

    def pattern(self, sym: str, params: list[str]) -> list[str]:
        if not params:
            return [sym]
        out = [sym, "("]
        for i, p in enumerate(params):
            out += [","] * bool(i) + [p]
        return out + [")"]

    def ordinary_rule(self, left: str, right: str) -> list[str]:
        lp, rp = self.params(left), self.params(right)
        occ = self.wired(lp + rp, self.rng.randint(0, 2))
        body = self.equations(occ) or ["(", ")"]
        return self.pattern(left, lp) + ["><"] + self.pattern(right, rp) + ["=>"] + body + [";"]

    def fixed_generic_rule(self, sym: str, k: int) -> list[str]:
        rng = self.rng
        lp, fixed = self.params(sym), [self.name() for _ in range(k)]
        free, body = lp + fixed, []
        if rng.random() < 0.5:
            # ANY on a right-hand side stands for the matched symbol: rebuild the partner.
            end = [lp[0]] if lp else [rng.choice(self.symbols(lambda a: a == 0))]
            free, body = lp[1:], self.pattern("ANY", fixed) + ["~"] + end
        more = self.equations(self.wired(free, rng.randint(0, 1)))
        body += [","] * bool(body and more) + more
        sides = [self.pattern(sym, lp), self.pattern("ANY", fixed)]
        rng.shuffle(sides)
        return sides[0] + ["><"] + sides[1] + ["=>"] + (body or ["(", ")"]) + [";"]

    def variadic_rule(self) -> list[str] | None:
        """One of the three variadic shapes of the corpus, over this program's symbols."""
        rng = self.rng
        zeros, ones, twos = (self.symbols(lambda a, k=k: a == k) for k in (0, 1, 2))
        shapes = []
        if zeros:
            e = rng.choice(zeros)
            shapes.append([e, "><", "ANY", "(", "[", "x", "]", ")", "=>", e, "~", "x", "'", ";"])
            if ones:
                f = rng.choice(ones)
                shapes.append([f, "(", "r", ")", "><", "ANY", "(", "p", ",", "[", "x", "]", ")", "=>",
                               e, "~", "x", "'", ",", "p", "~", "r", ";"])
        if twos:
            d = rng.choice(twos)
            shapes.append([d, "(", "a", ",", "b", ")", "><", "ANY", "(", "[", "x", "]", ")", "=>",
                           "a", "~", "ANY", "(", "[", "y", "]", ")", ",", "b", "~", "ANY", "(", "[", "z", "]", ")",
                           ",", "x", "'", "~", d, "(", "y", "'", ",", "z", "'", ")", ";"])
        if ones:
            r, j = rng.choice(ones), rng.choice(ones)
            shapes.append([r, "(", "r", ")", "><", "ANY", "(", "[", "x", "]", ")", "=>",
                           "r", "~", j, "(", "ANY", "(", "[", "x", "]", ")", ")", ";"])
        return rng.choice(shapes) if shapes else None

    def replicating_rule(self, sym: str) -> list[str]:
        """``sym >< ANY(p.., [x])`` whose right-hand side copies the
        partner's fixed ports through ``sym`` and sends each of ``sym``'s
        ports a wildcard with explicit arguments before its range; the one
        replicated equation holds ``x'``, a variadic name per port and one
        or two local names, twice each."""
        rng = self.rng
        lp = self.params(sym)
        fixed = [self.name() for _ in range(rng.randint(1, 2))]
        x, ys = self.name(), [self.name() for _ in lp]
        qs = [[self.name() for _ in fixed] for _ in lp]
        body: list[str] = []
        for a, y, q in zip(lp, ys, qs):
            wild = ["ANY", "("] + [t for n in q for t in (n, ",")] + ["[", y, "]", ")"]
            if rng.random() < 0.3:
                wild = [rng.choice(self.symbols(lambda k: k == 1)), "("] + wild + [")"]
            body += [a, "~"] + wild + [","]
        for i, p in enumerate(fixed):
            body += [p, "~"] + self.pattern(sym, [q[i] for q in qs]) + [","]
        occ = self.wired([x + "'"] + [y + "'" for y in ys], rng.randint(1, 2))
        rng.shuffle(occ)
        left = rng.randint(1, len(occ) - 1)
        right = len(occ) - left
        body += self.term(occ, left) + ["~"] + self.term(occ, right) + [";"]
        sides = [self.pattern(sym, lp), ["ANY", "("] + [t for p in fixed for t in (p, ",")] + ["[", x, "]", ")"]]
        rng.shuffle(sides)
        return sides[0] + ["><"] + sides[1] + ["=>"] + body

    def net(self) -> list[str]:
        rng = self.rng
        free = [self.name() for _ in range(rng.randint(0, 2))]
        occ = self.wired(free, rng.randint(0, 4))
        rng.shuffle(occ)
        interface: list[str] = []
        for _ in range(rng.randint(0, 2)):
            if occ:
                interface += [","] * bool(interface) + self.term(occ, 1)
        occ += free  # the other occurrence of each free name
        return ["net", "("] + interface + [")", "|"] + self.equations(occ, extra=2) + [";"]


def program(rng: random.Random) -> str:
    """A well-formed program; see the module docstring."""
    arities = {s: rng.randint(0, 3) for s in rng.sample(AGENTS, rng.randint(3, 6))}
    syms = list(arities)
    arities[syms[0]], arities[syms[1]] = 0, 2  # leaves, and a way to split name budgets
    w = _Writer(rng, arities)
    items: list[list[str]] = []
    for sym, arity in arities.items():
        roll = rng.random()
        if roll < 0.8:
            items.append(["agent", sym, "/", str(arity + (roll < 0.04)), ";"])
    pairs = [(a, b) for i, a in enumerate(syms) for b in syms[i + 1 :]] + [(syms[-1],) * 2]
    for left, right in rng.sample(pairs, min(len(pairs), rng.randint(0, 4))):
        items.append(w.ordinary_rule(left, right))
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        rule = w.variadic_rule() if roll < 0.5 else w.fixed_generic_rule(rng.choice(syms), rng.randint(0, 2))
        if rule:
            items.append(rule)
    if rng.random() < 0.9:
        items.append(w.net())
    rng.shuffle(items)
    text = "".join(_join(rng, item) + rng.choice(SEPS) for item in items)
    if rng.random() < 0.3:
        text = "# generated program\r\n" + text
    if rng.random() < 0.2:
        text += "# trailing comment"
    return text


def variadic_program(rng: random.Random) -> str:
    """Declarations, one or two variadic rules (``replicating_rule``) and
    a net: what ``program`` never writes, a local name inside a replicated
    equation and a range behind explicit arguments."""
    arities = {"Z": 0, "S": 1, "P": 2, "T": 3, "W": rng.randint(2, 5)}
    heads = rng.sample(["D", "E", "Q"], rng.randint(1, 2))
    arities.update((h, rng.randint(0, 3)) for h in heads)
    w = _Writer(rng, arities)
    items = [["agent", s, "/", str(a), ";"] for s, a in arities.items()]
    items += [w.replicating_rule(h) for h in heads]
    ports = w.params(heads[0])
    interface = [t for i, p in enumerate(ports) for t in [","] * bool(i) + [p]]
    items.append(["net", "("] + interface + [")", "|"] + w.pattern(heads[0], ports)
                 + ["~"] + w.pattern("W", ["Z"] * arities["W"]) + [";"])
    rng.shuffle(items)
    return "".join(_join(rng, item) + rng.choice(SEPS) for item in items)


_TOKEN = re.compile(r"\s+|#[^\n]*|><|=>|\w+|.", re.S)


def soup(rng: random.Random) -> str:
    """A token soup; see the module docstring."""
    if rng.random() < 0.5:
        vocab = SOUP_WORDS + OPS * 2
        return _join(rng, [rng.choice(vocab) for _ in range(rng.randint(1, 40))])
    tokens = _TOKEN.findall(program(rng))
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(tokens) + 1)
        roll = rng.random()
        if roll < 0.4:
            tokens.insert(i, rng.choice(SOUP_WORDS + OPS))
        elif roll < 0.7 and i < len(tokens):
            del tokens[i]
        elif i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    return "".join(tokens)


EXOTIC = ["²", "½", "Ⅻ", "٣", "\x0b", "\u2028", "ǅ", "e\u0301"]


def sprinkle(rng: random.Random, text: str) -> str:
    """``text`` with up to three characters of ``EXOTIC`` inserted."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        chars.insert(rng.randint(0, len(chars)), rng.choice(EXOTIC))
    return "".join(chars)


def symmetric_net(k: int) -> str:
    """``k`` identical disconnected stuck pairs ``C(x)~D(x)``: a closed net
    whose canonical form has ``k!`` equal-looking labellings."""
    eqs = ", ".join(f"C(x{i})~D(x{i})" for i in range(k))
    return f"agent C/1; agent D/1; net () | {eqs};"


def wide_net(k: int) -> str:
    """``k`` independent ``Add 1+1`` pairs, each with its own interface name."""
    names = ", ".join(f"r{i}" for i in range(k))
    eqs = ", ".join(f"Add(S(Z), r{i})~S(Z)" for i in range(k))
    return (
        "agent Add/2; agent S/1; agent Z/0;\n"
        "Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);\n"
        "Add(y, r) >< Z => r~y;\n"
        f"net ({names}) | {eqs};\n"
    )
