"""A pytest plugin that lists the function-body lines of ``src/inetkit/*.py``
that no test executed.  Standard library only (``sys.settrace``)::

    PYTHONPATH=src:tests python -m pytest -p line_trace

The report comes at the end of the run, one line per module, as line
numbers and ranges.  A range covers consecutive executable lines, so it
may span blank lines and comments.  Tracing starts when pytest imports
the plugin, before the conftest imports ``inetkit``, so functions that run
only while a module is imported (such as a descriptor's ``__set_name__``)
count as run.  Not seen: lines run only in a subprocess (the tests that
start ``python -m inetkit``).  Tracing every line makes the suite about
five times slower, so the plugin is not loaded by default.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "inetkit"


def body_lines(source: str, filename: str) -> set[int]:
    """The lines that hold code of a function, lambda or comprehension in
    ``source``, without the ``def`` lines themselves; module and class
    bodies run at import, which is not what the tests exercise."""
    lines: set[int] = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(n for _, _, n in code.co_lines() if n and n != code.co_firstlineno)
    return lines


def _ranges(numbers: list[int], executable: list[int]) -> str:
    """``numbers`` as ranges of consecutive entries of ``executable``."""
    index = {n: i for i, n in enumerate(executable)}
    runs: list[list[int]] = []
    for n in numbers:
        if runs and index[n] == index[runs[-1][-1]] + 1:
            runs[-1].append(n)
        else:
            runs.append([n])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


class LineTrace:
    """Records the lines run in the modules under :data:`SRC` while it is
    installed, and reports those of their function bodies never run."""

    def __init__(self) -> None:
        self.files = {os.path.realpath(p): p for p in sorted(SRC.glob("*.py"))}
        self.ours: dict[str, bool] = {}  # by code file name: one of self.files?
        self.executed: set[tuple[str, int]] = set()  # (code file name, line)

    def _local(self, frame, event, arg):
        if event == "line":
            self.executed.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        ours = self.ours.get(name)
        if ours is None:
            ours = self.ours[name] = os.path.realpath(name) in self.files
        return self._local if ours else None

    def install(self) -> None:
        threading.settrace(self._global)
        sys.settrace(self._global)

    def pytest_unconfigure(self, config) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def pytest_terminal_summary(self, terminalreporter) -> None:
        terminalreporter.section("function-body lines of src/inetkit no test executed")
        executed = {(os.path.realpath(f), n) for f, n in self.executed}
        for filename, path in self.files.items():
            executable = sorted(body_lines(path.read_text(encoding="utf-8"), filename))
            missed = [n for n in executable if (filename, n) not in executed]
            if missed:
                terminalreporter.write_line(
                    f"{path.name}: {len(missed)} of {len(executable)}: "
                    f"{_ranges(missed, executable)}"
                )


_TRACE = LineTrace()
_TRACE.install()


def pytest_configure(config) -> None:
    config.pluginmanager.register(_TRACE, "line_trace_recorder")
