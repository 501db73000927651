"""In-process cost of inetkit's front end on every benchmark workload program.

For each program that ``perfbench/workloads.py`` builds for ``--seed``, the
probe times three things in this one process: ``parse_program`` of the
text, the first read of the parsed program's ``net`` (where the net's terms
are built), and ``cli.main(["check", path])`` on the program written to a
temporary file.  Each is taken ``--repeats`` times, the net's read each time
on a fresh parse, and the probe prints one JSON line: per workload and
program, the median of each in microseconds::

    python tests/front_end_probe.py [--seed 1] [--repeats 9]

inetkit is imported from this checkout's ``src``; the workload generator
is imported from ``perfbench`` and not changed.  Standard library only.
The file is a script: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from inetkit import cli, parse_program  # noqa: E402


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _median_us(samples: list[float]) -> float:
    return round(statistics.median(samples) * 1e6, 1)


def probe_program(text: str, path: Path, repeats: int) -> dict:
    """Median microseconds of parsing ``text``, of the first read of its
    net, and of ``check`` on ``path``, which holds ``text``."""
    parse, net, check = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        program = parse_program(text)
        parse.append(time.perf_counter() - start)
        start = time.perf_counter()
        program.net
        net.append(time.perf_counter() - start)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            cli.main(["check", str(path)])
            check.append(time.perf_counter() - start)
    return {"parse_us": _median_us(parse), "net_us": _median_us(net),
            "check_us": _median_us(check)}


def probe(seed: int, repeats: int) -> dict:
    workloads = _workloads()
    out: dict = {"seed": seed, "repeats": repeats, "programs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for file_name, text in workloads.build(name, seed).files.items():
                path = Path(tmp) / file_name
                path.write_text(text, encoding="utf-8")
                out["programs"][f"{name}/{file_name}"] = probe_program(text, path, repeats)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(json.dumps(probe(args.seed, args.repeats)))


if __name__ == "__main__":
    main()
