"""The documented library API and the standard-library-only rule."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "from nlocus import" in snippet
    scope = {}
    exec(snippet, scope)
    degree_nl, spec, points = scope["degree_nl"], scope["DEFAULT_WEIGHTS"], scope["points"]
    assert degree_nl(4, spec, points).degree == 38475
    assert degree_nl(5, spec, points).degree == scope["closed_form"]()(5)


def test_package_imports_only_the_standard_library():
    foreign = []
    for path in sorted((ROOT / "src" / "nlocus").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "nlocus" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert foreign == []
