"""``tests/import_probe.py`` runs end to end with a few repeats."""

import json
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent / "import_probe.py"


def test_import_probe_reports_the_import_and_the_dataclass_builder():
    out = subprocess.run(
        [sys.executable, str(PROBE), "--repeats", "3"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    report = json.loads(out.stdout)
    assert list(report) == ["repeats", "import_ms", "dataclass_ms", "bytecode_cache"]
    assert report["repeats"] == 3
    assert report["dataclass_ms"] == 0 < report["import_ms"]
    assert isinstance(report["bytecode_cache"], bool)
