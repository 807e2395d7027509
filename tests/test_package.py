import contextlib
import io
import re
from pathlib import Path

import monocal

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(set(monocal.__all__)) == len(monocal.__all__)
    missing = [name for name in monocal.__all__ if not hasattr(monocal, name)]
    assert missing == []


def test_readme_library_quickstart_runs():
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README}:quickstart", "exec"), {})
    before, after = (float(line.split()[-1]) for line in out.getvalue().splitlines())
    # The comments in the block quote ECE ~0.27 before and ~0.016 after.
    assert round(before, 2) == 0.27 and round(after, 3) == 0.016
