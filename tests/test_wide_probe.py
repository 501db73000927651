"""``tests/wide_probe.py`` runs end to end on a small wide net."""

import json
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent / "wide_probe.py"


def test_wide_probe_reports_both_ops():
    out = subprocess.run(
        [sys.executable, str(PROBE), "--check-pairs", "200", "--run-pairs", "200"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    report = json.loads(out.stdout)
    assert list(report) == ["check", "run"]
    for op in report.values():
        assert op["pairs"] == 200
        assert op["exit"] == 0  # checked clean; reduced to normal form
        assert op["wall_s"] > 0 and op["peak_rss_mb"] > 0
