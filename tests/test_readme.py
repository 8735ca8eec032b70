"""The README's library quick start runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert abs(scope["w"] - 1j * math.sqrt(3.0)) < 1e-8
    certificate, hayman = capsys.readouterr().out.splitlines()
    verdict, max_abs = certificate.split()
    assert verdict == "pass" and float(max_abs) < 1e-8
    assert hayman == "consistent_with_univalence"
    assert scope["report"].order == 8
