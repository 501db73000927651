"""Wall time of a fresh ``import inetkit.cli``, and the share of it spent
building dataclasses: none, since every inetkit record is a plain
``core.Record`` class and importing inetkit runs the dataclass builder zero
times.

The probe imports ``inetkit.cli`` from this checkout's ``src`` the way
``perfbench/run.py``'s ``load_inetkit`` does: it drops every ``inetkit``
module from ``sys.modules`` and imports the package again, in this one
process.  A first import, not counted, loads the standard-library modules
inetkit needs.  It then imports ``--repeats`` more times and prints one JSON
line: the repeats, the median wall milliseconds of an import, the median
milliseconds spent inside ``dataclasses``' class builder during it (the
work the ``@dataclass`` decorator does), and whether the import read
compiled bytecode from a cache::

    python tests/import_probe.py [--repeats 9]

A bytecode cache is read only where one was written before: with
``PYTHONDONTWRITEBYTECODE=1`` set since the source last changed, every
import compiles the source again.  Standard library only.  The file is a
script: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_in_dataclass = [0.0]  # seconds spent in the class builder since the last reset
_process_class = dataclasses._process_class


def _timed_process_class(*args, **kwargs):
    start = time.perf_counter()
    try:
        return _process_class(*args, **kwargs)
    finally:
        _in_dataclass[0] += time.perf_counter() - start


def fresh_import() -> tuple[float, float]:
    """Wall seconds of one fresh ``import inetkit.cli``, and the seconds of
    it spent inside the dataclass builder."""
    for name in [m for m in sys.modules if m == "inetkit" or m.startswith("inetkit.")]:
        del sys.modules[name]
    _in_dataclass[0] = 0.0
    start = time.perf_counter()
    cli = importlib.import_module("inetkit.cli")
    wall = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"inetkit imported from {cli.__file__}, not from {SRC}")
    return wall, _in_dataclass[0]


def probe(repeats: int) -> dict:
    sys.path.insert(0, str(SRC))
    dataclasses._process_class = _timed_process_class
    try:
        fresh_import()  # loads the standard-library modules; not counted
        walls, inside = zip(*(fresh_import() for _ in range(repeats)))
    finally:
        dataclasses._process_class = _process_class
    cached = importlib.util.cache_from_source(sys.modules["inetkit.core"].__file__)
    return {
        "repeats": repeats,
        "import_ms": round(statistics.median(walls) * 1e3, 2),
        "dataclass_ms": round(statistics.median(inside) * 1e3, 2),
        "bytecode_cache": os.path.exists(cached),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(json.dumps(probe(args.repeats)))


if __name__ == "__main__":
    main()
