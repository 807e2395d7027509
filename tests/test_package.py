import ast
import contextlib
import io
import re
from pathlib import Path

import monocal

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_every_objective_call_passes_its_order_positionally():
    # The benchmark's tracer reads a sorted_nll_objective call's fifth
    # positional argument; a call that passes fewer would fail there.
    calls = [
        (path.name, node.lineno, node.args)
        for path in sorted((ROOT / "src" / "monocal").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "sorted_nll_objective"
    ]
    assert calls
    short = [(name, line) for name, line, args in calls if sum(not isinstance(a, ast.Starred) for a in args) < 5]
    assert short == []
