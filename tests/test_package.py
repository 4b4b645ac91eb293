"""The documented library API and the standard-library-only rule."""

import ast
import copy
import pickle
import re
import sys
from pathlib import Path

import pytest

from nlocus import fixpoints as fx
from nlocus.cli import main
from nlocus.formula import ComparisonReport, UnivariateRationalPoly
from nlocus.ideals import GroebnerBasis, Ideal
from nlocus.localization import DegreeResult
from nlocus.poly import parse
from nlocus.torus import WeightSpec

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


def test_every_entry_runs_the_same_function():
    """The console script, `python -m nlocus` and `python -m nlocus.cli` all
    start `nlocus.cli.run`; pyproject.toml is read as text (no tomllib on 3.10)."""
    script = re.search(
        r'^\[project\.scripts\]\nnlocus = "nlocus\.cli:(\w+)"$',
        (ROOT / "pyproject.toml").read_text(),
        re.M,
    ).group(1)
    package_main = (ROOT / "src" / "nlocus" / "__main__.py").read_text()
    assert f"from .cli import {script}\n" in package_main
    assert f"sys.exit({script}())" in package_main
    cli = (ROOT / "src" / "nlocus" / "cli.py").read_text()
    assert cli.endswith(f'if __name__ == "__main__":\n    sys.exit({script}())\n')
    assert script == "run"


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as done:
        main([*argv, "--help"])
    assert done.value.code == 0
    return capsys.readouterr().out


def test_readme_flag_table_is_each_subcommands_help(capsys):
    """README's CLI flag table marks exactly the options of each subcommand's --help."""
    readme = (ROOT / "README.md").read_text()
    table_text = re.search(r"^\| flag \|.*?\n(?=\n)", readme, re.S | re.M)[0]
    header, _, *rows = table_text.splitlines()
    commands = [cell.strip() for cell in header.strip("|").split("|")[1:-1]]
    table = {command: set() for command in commands}
    for row in rows:
        cells = re.split(r"(?<!\\)\|", row.strip("|"))
        flag = re.match(r" `(--\w+)", cells[0])[1]
        for command, cell in zip(commands, cells[1:]):
            if cell.strip():
                table[command].add(flag)
    listed = re.search(r"\{([\w,]+)\}", _help(capsys))[1].split(",")
    assert sorted(commands) == sorted(listed)
    options = {
        command: set(re.findall(r"^  (--\w+)", _help(capsys, command), re.M))
        for command in commands
    }
    assert table == options


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


NAMEDTUPLES = (
    fx.PencilPair,
    fx.ZPoint,
    fx.E1Record,
    fx.WPoint,
    fx.FixedPoint,
    DegreeResult,
    GroebnerBasis,
    ComparisonReport,
)
# each value class with the arguments of one instance; the namedtuples get
# small ints, hashable where the package passes Counters
VALUES = [(cls, tuple(range(len(cls._fields)))) for cls in NAMEDTUPLES] + [
    (WeightSpec, ((0, 1, 5, 18),)),
    (UnivariateRationalPoly, ([1, 0, 2],)),
    (Ideal, ([parse("x0^2 - x1*x2"), parse("x3^2")],)),
]


@pytest.mark.parametrize("cls, args", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_value_classes_are_immutable_values(cls, args):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and hash(a) == hash(b)
    fields = getattr(cls, "_fields", None) or cls.__slots__
    assert repr(a) == repr(b) and repr(a).startswith(f"{cls.__name__}({fields[0]}=")
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b
