"""Wall time and peak memory of ``inet check`` and ``inet run`` on wide nets.

The net is the ``addition`` corpus program widened to many independent
``Add 1+1`` pairs, ``Add(S(Z), r)~S(Z)`` each with its own result port.
The probe runs ``check`` on ``--check-pairs`` pairs, then ``run
--max-steps 1000000`` on ``--run-pairs`` pairs, each in a fresh ``python -m
inetkit`` process of this checkout, and prints one JSON line: per op, the
number of pairs, the exit code, the wall seconds and the peak resident set
size of that process in MB::

    python tests/wide_probe.py [--check-pairs 100000] [--run-pairs 40000]

Standard library only.  The peak is read from the child's own resource
usage through ``os.wait4``, so the probe runs on POSIX systems only.  The
file is a script: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RULES = """agent Add/2;
agent S/1;
agent Z/0;

Add(y, r) >< S(x) => Add(y, w)~x, r~S(w);
Add(y, r) >< Z => r~y;
"""

MAX_STEPS = 1_000_000


def wide_add_text(pairs: int) -> str:
    """The program of ``pairs`` independent ``Add 1+1`` pairs."""
    ports = ", ".join(f"r{i}" for i in range(pairs))
    eqs = ", ".join(f"Add(S(Z), r{i})~S(Z)" for i in range(pairs))
    return f"{RULES}\nnet ({ports}) | {eqs};\n"


def measure(args: list[str]) -> dict:
    """Exit code, wall seconds and peak RSS of ``python -m inetkit args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "inetkit", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # Linux reports KiB
    }


def probe(check_pairs: int, run_pairs: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = {}
        for op, pairs, extra in (
            ("check", check_pairs, []),
            ("run", run_pairs, ["--max-steps", str(MAX_STEPS)]),
        ):
            path = Path(tmp) / f"{op}.inet"
            path.write_text(wide_add_text(pairs), encoding="utf-8")
            out[op] = {"pairs": pairs, **measure([op, str(path), *extra])}
        return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check-pairs", type=int, default=100_000)
    parser.add_argument("--run-pairs", type=int, default=40_000)
    args = parser.parse_args()
    print(json.dumps(probe(args.check_pairs, args.run_pairs)))


if __name__ == "__main__":
    main()
