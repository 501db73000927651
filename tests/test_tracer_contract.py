"""The benchmark tracer wraps library names it looks up by module and
attribute; a refactor that drops one of them must fail here, not only in
``perfbench/run.py --smoke``."""

import importlib
import pathlib
import types

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
