"""The README's ``python`` code blocks run, in order, in one namespace."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert blocks
    monkeypatch.chdir(ROOT)  # the examples open corpus files by relative path
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    out = capsys.readouterr().out
    assert out.startswith("normal_form ")
