import dataclasses
import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inetkit import (
    Agent,
    Configuration,
    Equation,
    IllFormedError,
    Name,
    NameSupply,
    NetError,
    Symbol,
    canonicalize,
    normalize,
    occurrence_violations,
    occurrences,
    substitute,
)
from inetkit.core import _term_key, term_names

from conftest import compile_corpus

S = Symbol("S", 1)
Z = Symbol("Z", 0)
ADD = Symbol("Add", 2)


def nm(i, d="x"):
    return Name(i, d)


def agent_count(t) -> int:
    if isinstance(t, Name):
        return 0
    return 1 + sum(agent_count(a) for a in t.args)


def test_agent_arity_checked_on_construction():
    with pytest.raises(NetError):
        Agent(S, ())
    with pytest.raises(NetError):
        Agent(Z, (Agent(Z),))


def test_occurrences_addition_config():
    r = nm(0, "r")
    config = Configuration(
        [r],
        [Equation(Agent(ADD, (Agent(S, (Agent(Z),)), r)), Agent(S, (Agent(Z),)))],
    )
    assert occurrences(config) == {r: 2}
    assert occurrence_violations(config) == []


def test_occurrences_single_free_port():
    x = nm(0, "x")
    assert occurrences(Configuration([x], [])) == {x: 1}


def test_occurrences_reports_violation():
    x = nm(0, "x")
    config = Configuration(
        [x], [Equation(x, Agent(Z)), Equation(x, Agent(Z))]
    )
    assert occurrence_violations(config) == [(x, 3)]


def test_substitute_direct_replacement():
    y, w = nm(0, "y"), nm(1, "w")
    t = Agent(ADD, (y, w))
    s = Agent(S, (Agent(Z),))
    assert substitute(t, w, s) == Agent(ADD, (y, s))


def test_substitute_name_itself():
    z = nm(0, "z")
    s = Agent(S, (Agent(Z),))
    assert substitute(z, z, s) == s


def test_substitute_absent_name_is_identity():
    w, x = nm(0, "w"), nm(1, "x")
    t = Agent(S, (w,))
    assert substitute(t, x, Agent(Z)) is t


def test_substitute_preserves_agent_count_and_drops_occurrence():
    x, y = nm(0, "x"), nm(1, "y")
    t = Agent(ADD, (Agent(S, (x,)), y))
    s = Agent(S, (Agent(Z),))
    out = substitute(t, x, s)
    assert agent_count(out) == agent_count(t) + agent_count(s)
    assert sum(1 for n in term_names(out) if n == x) == 0


def deep(n, t):
    for _ in range(n):
        t = Agent(S, (t,))
    return t


def test_deep_agents_compare_and_hash_without_recursion():
    x, y = nm(0, "x"), nm(1, "y")
    a = deep(5000, Agent(ADD, (x, Agent(Z))))
    b = deep(5000, Agent(ADD, (x, Agent(Z))))
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    # Unequal only at the bottom: a name, an agent, the argument order.
    for other in (
        deep(5000, Agent(ADD, (y, Agent(Z)))),
        deep(5000, Agent(ADD, (x, Agent(S, (Agent(Z),))))),
        deep(5000, Agent(ADD, (Agent(Z), x))),
    ):
        assert a != other and not a == other
    assert a != deep(4999, Agent(ADD, (x, Agent(Z))))
    assert Equation(a, x) == Equation(b, x)


def test_agent_equality_semantics():
    x = nm(0, "x")
    assert Agent(S, (x,)) == Agent(S, (nm(0, "other display"),))
    assert Agent(S, (x,)) != Agent(Symbol("T", 1), (x,))
    assert Agent(Z) != x and x != Agent(Z)
    assert Agent(S, (Agent(Z),)) != Agent(S, (x,))
    assert Agent(Z).__eq__("Z") is NotImplemented
    assert hash(Agent(S, (x,))) == hash(Agent(S, (nm(0, "y"),)))


def test_agents_know_whether_they_hold_names():
    x = nm(0, "x")
    assert not Agent(Z).holds_names
    assert not Agent(S, (Agent(Z),)).holds_names
    assert Agent(S, (x,)).holds_names
    assert Agent(ADD, (Agent(Z), Agent(S, (x,)))).holds_names
    assert Agent(ADD, (Agent(S, (x,)), Agent(Z))).holds_names
    # The flag takes no part in equality, hashing or repr.
    assert "holds_names" not in repr(Agent(S, (x,)))
    a, b = Agent(S, (Agent(Z),)), Agent(S, (Agent(Z),))
    Agent.holds_names.__set__(b, True)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_terms_are_slotted_frozen_records():
    # No instance dict: one would slow every field read of the step loop.
    x = nm(0, "x")
    for t in (x, Agent(S, (x,)), Equation(x, Agent(Z))):
        assert not hasattr(t, "__dict__")
        # Each slot, and a name that is not one, refuses alike.
        for name in t.__slots__ + ("other",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, getattr(t, name, None))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, name)
    assert Agent.__slots__ == ("symbol", "args", "holds_names")


# The text the dataclass would write for Agent, from a recursive mirror of it.
_DataclassAgent = dataclasses.make_dataclass(
    "Agent", [("symbol", Symbol), ("args", tuple)], frozen=True
)


def dataclass_repr(t) -> str:
    def mirror(u):
        return u if isinstance(u, Name) else _DataclassAgent(u.symbol, tuple(map(mirror, u.args)))

    return repr(mirror(t))


def test_agent_repr_is_the_dataclass_text():
    x, y = nm(0, "x"), nm(1, "y")
    terms = [Agent(Z), Agent(S, (x,)), Agent(ADD, (Agent(S, (y,)), x)), Agent(ADD, (x, Agent(Z)))]
    for name in ["addition", "dup_erase", "maybe_pick", "map"]:
        program, analysis = compile_corpus(name)
        final = normalize(program.net, analysis.table).final
        for config in (program.net, final):
            terms += config.interface
            terms += [t for eq in config.equations for t in (eq.left, eq.right)]
    for t in terms:
        assert repr(t) == dataclass_repr(t)
    assert repr(Equation(x, Agent(Z))) == f"Equation(left={x!r}, right={dataclass_repr(Agent(Z))})"


def test_agent_repr_does_not_recurse_on_deep_terms():
    n = 100_000
    # Caught here: pytest's report of a RecursionError compares the locals
    # of every frame, deep terms included, which takes minutes.
    try:
        text = repr(deep(n, Agent(Z)))
    except RecursionError:
        text = None
    assert text is not None, "repr recursed"
    head = "Agent(symbol=Symbol(name='S', arity=1), args=("
    assert text == head * n + dataclass_repr(Agent(Z)) + ",))" * n


def test_walks_do_not_recurse_on_deep_terms():
    x, y = nm(0, "x"), nm(1, "y")
    t = Agent(ADD, (y, x))
    for _ in range(5000):
        t = Agent(S, (t,))
    assert list(term_names(t)) == [y, x]
    out = substitute(t, x, Agent(S, (Agent(Z),)))
    assert list(term_names(out)) == [y]
    for _ in range(5000):
        out = out.args[0]
    assert out.args[1] == Agent(S, (Agent(Z),))


def test_fresh_names_distinct():
    supply = NameSupply()
    a = supply.fresh("w")
    b = supply.fresh("w")
    assert a != b
    assert a.display == b.display == "w"


def test_fresh_uniqueness_stress():
    supply = NameSupply()
    prev = -1
    for _ in range(1_000_000):
        n = supply.fresh()
        assert n.id > prev
        prev = n.id


def test_fresh_respects_start():
    supply = NameSupply(100)
    assert supply.fresh().id == 100


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_canonicalize_rename_and_flip():
    r, x = nm(0, "r"), nm(1, "x")
    a = Configuration([r], [Equation(x, Agent(Z)), Equation(r, Agent(S, (x,)))])
    r2, y = nm(5, "r"), nm(9, "y")
    b = Configuration([r2], [Equation(r2, Agent(S, (y,))), Equation(Agent(Z), y)])
    assert canonicalize(a) == canonicalize(b)


def test_canonicalize_ground_interface():
    c = Configuration([Agent(S, (Agent(Z),))], [])
    form = canonicalize(c)
    assert list(form.interface) == list(c.interface)
    assert form.equations == ()


def test_canonicalize_orientation_insensitive():
    a1, b1 = nm(0, "a"), nm(1, "b")
    a2, b2 = nm(0, "a"), nm(1, "b")
    c1 = Configuration([a1, b1], [Equation(a1, b1)])
    c2 = Configuration([a2, b2], [Equation(b2, a2)])
    assert canonicalize(c1) == canonicalize(c2)


def test_canonicalize_rejects_ill_formed():
    x = nm(0, "x")
    config = Configuration([x], [Equation(x, Agent(Z)), Equation(x, Agent(Z))])
    with pytest.raises(IllFormedError):
        canonicalize(config)


def test_canonicalize_distinguishes_interface_positions():
    a, b = nm(0, "a"), nm(1, "b")
    c1 = Configuration([a, b, a], [Equation(b, Agent(Z))])
    c2 = Configuration([a, a, b], [Equation(b, Agent(Z))])
    assert canonicalize(c1) != canonicalize(c2)


def test_canonical_form_equals_only_canonical_forms():
    form = canonicalize(Configuration([Agent(Z)], []))
    assert form.__eq__(form.sort_key) is NotImplemented
    assert form != form.sort_key and form == canonicalize(Configuration([Agent(Z)], []))


def test_canonicalize_name_chains_alpha_equivalent():
    # {a=b, b=c} and {x=y, x=z} describe the same three-wire net.
    a, b, c = nm(0, "a"), nm(1, "b"), nm(2, "c")
    x, y, z = nm(7, "x"), nm(8, "y"), nm(9, "z")
    chain = Configuration([], [Equation(a, b), Equation(b, c)])
    star = Configuration([], [Equation(x, y), Equation(x, z)])
    assert canonicalize(chain) == canonicalize(star)


def test_canonicalize_leaves_no_cyclic_garbage():
    """A symmetric net makes the search branch and recurse; with the
    collector off, all it made is freed by reference counting."""
    names = [nm(i) for i in range(6)]
    config = Configuration(
        [], [Equation(Agent(ADD, (names[i], names[i + 1])), names[i + 2]) for i in (0, 3)]
    )
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        canonicalize(config)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- property tests ---------------------------------------------------------

SYMBOLS = [Symbol("A", 0), Symbol("B", 1), Symbol("C", 2), Symbol("D", 3)]


@st.composite
def well_formed_configurations(draw):
    n_names = draw(st.integers(0, 6))
    budget = {Name(i, f"w{i}"): 2 for i in range(n_names)}

    def term(depth):
        names_left = [n for n, b in budget.items() if b > 0]
        use_name = names_left and draw(st.booleans())
        if depth == 0 or use_name:
            if names_left and (use_name or draw(st.booleans())):
                n = draw(st.sampled_from(sorted(names_left, key=lambda q: q.id)))
                budget[n] -= 1
                return n
            return Agent(SYMBOLS[0])
        sym = draw(st.sampled_from(SYMBOLS))
        return Agent(sym, tuple(term(depth - 1) for _ in range(sym.arity)))

    interface = [term(2) for _ in range(draw(st.integers(0, 3)))]
    equations = [
        Equation(term(2), term(2)) for _ in range(draw(st.integers(0, 4)))
    ]
    return Configuration(interface, equations)


@settings(max_examples=120, deadline=None)
@given(well_formed_configurations())
def test_holds_names_flags_every_agent_with_a_name_below(config):
    terms = list(config.interface) + [t for eq in config.equations for t in (eq.left, eq.right)]
    while terms:
        t = terms.pop()
        if isinstance(t, Agent):
            has_name = False
            below = list(t.args)
            while below:
                u = below.pop()
                if isinstance(u, Name):
                    has_name = True
                else:
                    below.extend(u.args)
            assert t.holds_names == has_name
            terms.extend(t.args)


@settings(max_examples=120, deadline=None)
@given(well_formed_configurations())
def test_canonicalize_idempotent(config):
    form = canonicalize(config)
    again = canonicalize(Configuration(list(form.interface), list(form.equations)))
    assert form == again


@settings(max_examples=120, deadline=None)
@given(well_formed_configurations(), st.randoms(use_true_random=False))
def test_canonicalize_invariant_under_permutation_and_flips(config, rng):
    eqs = list(config.equations)
    rng.shuffle(eqs)
    eqs = [Equation(e.right, e.left) if rng.random() < 0.5 else e for e in eqs]
    shuffled = Configuration(list(config.interface), eqs)
    assert canonicalize(config) == canonicalize(shuffled)


@settings(max_examples=120, deadline=None)
@given(well_formed_configurations(), st.integers(1, 10_000))
def test_canonicalize_invariant_under_renaming(config, offset):
    def remap(t):
        if isinstance(t, Name):
            return Name(t.id * 13 + offset, "q")
        return Agent(t.symbol, tuple(remap(a) for a in t.args))

    renamed = Configuration(
        [remap(t) for t in config.interface],
        [Equation(remap(e.left), remap(e.right)) for e in config.equations],
    )
    assert canonicalize(config) == canonicalize(renamed)


# -- brute-force equivalence oracle ------------------------------------------

def _alpha_equivalent(c1, c2):
    """Decide renaming equivalence by enumerating every name bijection."""
    import itertools

    from inetkit.core import config_names

    names1 = list(dict.fromkeys(config_names(c1)))
    names2 = list(dict.fromkeys(config_names(c2)))
    if len(names1) != len(names2):
        return False

    def apply(t, mapping):
        if isinstance(t, Name):
            return mapping[t]
        return Agent(t.symbol, tuple(apply(a, mapping) for a in t.args))

    def eq_multiset(config, mapping):
        out = []
        for e in config.equations:
            a, b = apply(e.left, mapping), apply(e.right, mapping)
            ka, kb = repr(a), repr(b)
            out.append((ka, kb) if ka <= kb else (kb, ka))
        return sorted(out)

    ident = {n: n for n in names2}
    target_interface = [apply(t, ident) for t in c2.interface]
    target_eqs = eq_multiset(c2, ident)
    for perm in itertools.permutations(names2):
        mapping = dict(zip(names1, perm))
        if [apply(t, mapping) for t in c1.interface] != target_interface:
            continue
        if eq_multiset(c1, mapping) == target_eqs:
            return True
    return False


@settings(max_examples=80, deadline=None)
@given(
    well_formed_configurations(),
    well_formed_configurations(),
    st.randoms(use_true_random=False),
)
def test_canonical_equality_matches_brute_force_oracle(config, other, rng):
    # compare both against an unrelated draw and against a scrambled copy
    eqs = list(config.equations)
    rng.shuffle(eqs)
    scrambled = Configuration(
        list(config.interface),
        [Equation(e.right, e.left) if rng.random() < 0.5 else e for e in eqs],
    )
    for candidate in (other, scrambled):
        claimed = canonicalize(config) == canonicalize(candidate)
        assert claimed == _alpha_equivalent(config, candidate)


# -- deep terms and the canonical order --------------------------------------

def _nested_key(t):
    """The nested sort key canonicalization used before keys were flattened."""
    if isinstance(t, Name):
        return ("N", t.id)
    return ("A", t.symbol.name, tuple(_nested_key(a) for a in t.args))


def _sign(a, b):
    return (a > b) - (a < b)


@settings(max_examples=120, deadline=None)
@given(well_formed_configurations(), well_formed_configurations())
def test_flat_term_keys_order_terms_like_nested_keys(config, other):
    terms = list(config.interface) + list(other.interface)
    for c in (config, other):
        for e in c.equations:
            terms += [e.left, e.right]
    for a in terms:
        for b in terms:
            assert _sign(_term_key(a), _term_key(b)) == _sign(_nested_key(a), _nested_key(b))
            assert (_term_key(a) == _term_key(b)) == (a == b)


def test_canonicalize_does_not_recurse_on_deep_terms():
    x, y, w = nm(0, "x"), nm(1, "y"), nm(2, "w")

    first = Configuration(
        [x],
        [
            Equation(deep(5000, x), Agent(ADD, (deep(3000, Agent(Z)), y))),
            Equation(y, deep(4000, w)),
            Equation(w, Agent(Z)),
        ],
    )
    second = Configuration(
        [x],
        [
            Equation(Agent(Z), w),
            Equation(deep(4000, w), y),
            Equation(Agent(ADD, (deep(3000, Agent(Z)), y)), deep(5000, x)),
        ],
    )
    form = canonicalize(first)
    assert form == canonicalize(second)
    assert hash(form) == hash(canonicalize(second))
    other = Configuration([x], first.equations[:2] + [Equation(w, Agent(S, (Agent(Z),)))])
    assert form != canonicalize(other)


# Digest of the rendered canonical form of every configuration passed through
# while stepping each corpus program under fifo, lifo and seeds 0-4, recorded
# with the recursive canonicalization this one replaced.
CANONICAL_DIGESTS = {
    "addition": (35, "21777e09a262b13aed95921b386682980f87839b09a90f3a8647fb7e037d0e31"),
    "dup_erase": (63, "4057593bff069c7e5260af1ae0660107ea6f4ec7181fbefebc6d5812451cddcf"),
    "map": (112, "c85ef461ec4ea165f67e9add05e8fc7dbf84b4dbc428d5d0f8812a5d2c3de301"),
    "maybe_pick": (42, "7b7962a30b913e63cec4f8c6bfa5d52d672100194cd1673cd6d38d395c281e6b"),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_DIGESTS))
def test_canonical_forms_unchanged_on_corpus(name):
    import hashlib

    from inetkit import Fifo, Lifo, Reducer, Seeded
    from inetkit.surface import render_configuration

    program, analysis = compile_corpus(name)
    digest = hashlib.sha256()
    count = 0
    for strategy in [Fifo(), Lifo()] + [Seeded(s) for s in range(5)]:
        reducer = Reducer(program.net, analysis.table, strategy)
        while True:
            form = canonicalize(reducer.configuration)
            digest.update(render_configuration(form).encode() + b"\n")
            count += 1
            if reducer.step() is None:
                break
    assert (count, digest.hexdigest()) == CANONICAL_DIGESTS[name]


def _canonicalize_peak(depth: int) -> int:
    x = nm(0, "x")
    config = Configuration([deep(depth, x), x], [])
    # A full collection empties the interpreter's free lists, so every
    # allocation is traced: tuples taken from a full free list are not, and
    # what earlier tests left there moved the ratio below from 1.6 to 3.1.
    gc.collect()
    tracemalloc.start()
    try:
        canonicalize(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_canonicalize_memory_grows_linearly_in_term_depth():
    """Doubling the depth of a term at most doubles what canonicalizing it
    holds at once, give or take a constant; keeping a path per nesting
    level made it grow fourfold."""
    small, large = _canonicalize_peak(2_000), _canonicalize_peak(4_000)
    assert large < 3 * small, (small, large)
