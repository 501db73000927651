"""The benchmark counts interactions by wrapping ``instantiate_ordinary`` and
``instantiate_fixed_generic`` in ``inetkit.engine``, and name steps by
wrapping ``step_communication``, ``step_substitution`` and ``step_collect``
there.  The reducer must fire every step through those five names, or the
benchmark's step counters read 0 on a correct run."""

import pytest

import inetkit.engine
from inetkit import Fifo, Lifo, Seeded, confluence_probe, normalize

from conftest import compile_corpus


@pytest.mark.parametrize("name", ["addition", "dup_erase", "maybe_pick", "map"])
@pytest.mark.parametrize("strategy", [Fifo(), Lifo(), Seeded(3)], ids=str)
def test_every_interaction_goes_through_the_traced_names(name, strategy, monkeypatch):
    program, analysis = compile_corpus(name)
    fired = {"ordinary": 0, "generic": 0}

    def counted(kind, original):
        def wrapper(*args, **kwargs):
            fired[kind] += 1
            return original(*args, **kwargs)
        return wrapper

    for kind in fired:
        attr = "instantiate_ordinary" if kind == "ordinary" else "instantiate_fixed_generic"
        monkeypatch.setattr(inetkit.engine, attr, counted(kind, getattr(inetkit.engine, attr)))
    outcome = normalize(program.net, analysis.table, strategy, trace=True)
    assert outcome.status == "normal_form"
    generic = {rule.id for rule in analysis.expanded_rules if rule.generic is not None}
    steps = [step.rule_id for step in outcome.trace if step.kind == "interaction"]
    expected = {
        "ordinary": sum(rule_id not in generic for rule_id in steps),
        "generic": sum(rule_id in generic for rule_id in steps),
    }
    assert fired == expected and fired["ordinary"] + fired["generic"] > 0


def _split(program, analysis, strategy) -> dict[str, int]:
    """Ordinary and generic interactions in ``strategy``'s normalize trace."""
    outcome = normalize(program.net, analysis.table, strategy, trace=True)
    generic = {rule.id for rule in analysis.expanded_rules if rule.generic is not None}
    steps = [step.rule_id for step in outcome.trace if step.kind == "interaction"]
    return {
        "ordinary": sum(rule_id not in generic for rule_id in steps),
        "generic": sum(rule_id in generic for rule_id in steps),
    }


@pytest.mark.parametrize("name", ["addition", "dup_erase", "maybe_pick", "map"])
@pytest.mark.parametrize("strategy", [Seeded(3), Fifo()], ids=str)
def test_every_probe_interaction_goes_through_the_traced_names(name, strategy, monkeypatch):
    """``fuzz`` fires through ``confluence_probe``: a lone seed runs on the
    walk's lone-member path, fifo through ``normalize``."""
    program, analysis = compile_corpus(name)
    expected = _split(program, analysis, strategy)
    fired = {"ordinary": 0, "generic": 0}
    for kind, attr in (("ordinary", "instantiate_ordinary"),
                       ("generic", "instantiate_fixed_generic")):
        def wrapper(*args, _kind=kind, _original=getattr(inetkit.engine, attr), **kwargs):
            fired[_kind] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(inetkit.engine, attr, wrapper)
    report = confluence_probe(program.net, analysis.table, [strategy])
    assert report.consistent and report.runs[0].status == "normal_form"
    assert fired == expected and fired["ordinary"] + fired["generic"] > 0


NAME_STEPS = ("communication", "substitution", "collect")


def _count_steps(monkeypatch) -> dict[str, int]:
    """Wrap the five step names in ``inetkit.engine``; calls per step kind."""
    fired = dict.fromkeys(NAME_STEPS + ("interaction",), 0)
    attrs = [(kind, f"step_{kind}") for kind in NAME_STEPS]
    attrs += [("interaction", "instantiate_ordinary"), ("interaction", "instantiate_fixed_generic")]
    for kind, attr in attrs:
        def wrapper(*args, _kind=kind, _original=getattr(inetkit.engine, attr), **kwargs):
            fired[_kind] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(inetkit.engine, attr, wrapper)
    return fired


def _kinds(trace) -> dict[str, int]:
    """Steps per kind in a recorded trace."""
    kinds = dict.fromkeys(NAME_STEPS + ("interaction",), 0)
    for step in trace:
        kinds[step.kind] += 1
    return kinds


@pytest.mark.parametrize("name", ["addition", "dup_erase", "maybe_pick", "map"])
@pytest.mark.parametrize("strategy", [Fifo(), Lifo(), Seeded(3)], ids=str)
def test_every_name_step_goes_through_the_traced_names(name, strategy, monkeypatch):
    program, analysis = compile_corpus(name)
    fired = _count_steps(monkeypatch)
    outcome = normalize(program.net, analysis.table, strategy, trace=True)
    assert outcome.status == "normal_form"
    assert fired == _kinds(outcome.trace)
    assert sum(fired.values()) == outcome.steps
    assert sum(fired[kind] for kind in NAME_STEPS) > 0


@pytest.mark.parametrize("name", ["addition", "dup_erase", "maybe_pick", "map"])
@pytest.mark.parametrize("strategy", [Seeded(3), Fifo()], ids=str)
def test_every_probe_name_step_goes_through_the_traced_names(name, strategy, monkeypatch):
    """As for interactions: a lone seed runs on the walk's lone-member path,
    fifo through ``normalize``."""
    program, analysis = compile_corpus(name)
    expected = _kinds(normalize(program.net, analysis.table, strategy, trace=True).trace)
    fired = _count_steps(monkeypatch)
    report = confluence_probe(program.net, analysis.table, [strategy])
    assert report.consistent and report.runs[0].status == "normal_form"
    assert fired == expected
    assert sum(fired.values()) == report.runs[0].steps
    assert sum(fired[kind] for kind in NAME_STEPS) > 0
