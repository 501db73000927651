"""``tests/front_end_probe.py`` runs end to end with a few repeats."""

import json
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent / "front_end_probe.py"


def test_front_end_probe_reports_parse_net_and_check_per_program():
    out = subprocess.run(
        [sys.executable, str(PROBE), "--repeats", "3"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(out.stdout)
    assert (report["seed"], report["repeats"]) == (1, 3)
    programs = report["programs"]
    assert {key.partition("/")[0] for key in programs} == {
        "deep_unary", "variadic_fanout", "fuzz_small"}
    assert "deep_unary/deep.inet" in programs
    for timings in programs.values():
        assert list(timings) == ["parse_us", "net_us", "check_us"]
        assert all(value > 0 for value in timings.values())
