"""The benchmark counts interactions by wrapping ``instantiate_ordinary`` and
``instantiate_fixed_generic`` in ``inetkit.engine``.  The reducer must fire
every interaction through those two names, or the benchmark's interaction
counters read 0 on a correct run."""

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
