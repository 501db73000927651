"""The benchmark tracer wraps library names it looks up by module and
attribute; a refactor that drops one of them, or stops calling one on a
step, must fail here, not only in ``perfbench/run.py --smoke``."""

import importlib
import pathlib
import types
from collections import Counter

import pytest

import inetkit.cli as cli
from inetkit import Fifo, Reducer, analyze_rules

from conftest import CORPUS, compile_corpus

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    # Compiled from source rather than imported, so nothing is written
    # next to it.
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    traced = [(module, attr) for module, attr, _ in tracing.SPANNED] + list(tracing.COUNTED)
    assert len(traced) > 20
    missing = [
        f"{module}.{attr}"
        for module, attr in traced
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("name", ["addition", "dup_erase", "maybe_pick", "map"])
def test_a_traced_run_counts_every_step_and_the_peak(name):
    path = str(CORPUS / f"{name}.inet")
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["run", path]) == 0
    finally:
        assert tracer.restore()
    counts = tracer.counts
    kinds = ("interaction", "communication", "substitution", "collect")
    assert counts["engine.steps"] > 0
    assert sum(counts[f"engine.steps.{kind}"] for kind in kinds) == counts["engine.steps"]

    program, analysis = compile_corpus(name)
    reducer = Reducer(program.net, analysis.table, Fifo(), program.supply)
    peak = len(reducer._eqs)
    while reducer.step() is not None:
        peak = max(peak, len(reducer._eqs))
    assert counts["engine.peak_equations"] == peak


@pytest.mark.parametrize("name", ["addition", "dup_erase", "maybe_pick", "map"])
def test_traced_check_and_expand_cover_every_analysis_layer(name, capsys):
    path = str(CORPUS / f"{name}.inet")
    tracing = _load_tracing()
    for command, all_arities in (("check", False), ("expand", True)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.main([command, path]) == 0
        finally:
            assert tracer.restore()
        capsys.readouterr()
        assert tracer.missing == []
        spans = Counter(span[0] for span in tracer.spans)
        program, _ = compile_corpus(name)
        analysis = analyze_rules(
            program.rules, program.symbols.values(), all_arities=all_arities
        )
        written = len(program.rules)
        expected = {
            "rules.analyze": 1, "rules.ambiguity": 1, "rules.grc": 1, "rules.table": 1,
            "rules.linearity": written, "rules.expand": written,
        }
        assert {layer: spans[layer] for layer in expected} == expected, command
        # Analysis expands nothing: each written rule is expanded once, when
        # ``expanded_rules`` is first read, by ``expand`` or by the tracer's
        # count after the analysis has returned.
        assert not any(_within(tracer.spans, i, "rules.analyze")
                       for i, span in enumerate(tracer.spans) if span[0] == "rules.expand")
        g = sum(1 for r in program.rules if r.generic is not None)
        assert tracer.counts["rules.expanded_rules"] == len(analysis.expanded_rules)
        assert tracer.counts["rules.generic_pairs"] == g * (g - 1) // 2


def _within(spans, i, name) -> bool:
    """Whether the span at ``i`` runs inside a span called ``name``."""
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
