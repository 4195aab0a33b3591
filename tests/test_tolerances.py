"""The tolerance table: every threshold behind a verdict, a refusal or a stop
reason is defined once, in ``errors``, and documented in the README."""

import ast
import pathlib
import re

import fusionframes
from fusionframes import errors

PACKAGE = pathlib.Path(fusionframes.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def _is_tolerance(name: str) -> bool:
    return "TOL" in name or name.endswith("_MARGIN")


def tolerance_findings(package: pathlib.Path) -> list:
    """'module:line: ...' for each module-level tolerance name assigned
    outside ``errors.py``, and for each comparison holding a float literal
    in (0, 1e-3), a threshold the table does not name."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "errors.py":
            for node in tree.body:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                found += [f"{path.name}:{node.lineno}: defines {t.id}" for t in targets
                          if isinstance(t, ast.Name) and _is_tolerance(t.id)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                found += [f"{path.name}:{c.lineno}: compares with {c.value!r}"
                          for c in ast.walk(node) if isinstance(c, ast.Constant)
                          and type(c.value) is float and 0 < c.value < 1e-3]
    return found


def table_names() -> list:
    """The upper-case names that ``errors.py`` assigns at module level."""
    tree = ast.parse(pathlib.Path(errors.__file__).read_text())
    return [t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()]


def test_every_threshold_is_defined_in_the_table():
    assert tolerance_findings(PACKAGE) == []
    assert [name for name in table_names() if _is_tolerance(name)]


def test_readme_tolerance_table_lists_every_entry():
    section = re.search(r"^## Tolerances\n(.*?)^## ", README.read_text(), re.M | re.S).group(1)
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = {re.match(r"\| `(\w+)`", line).group(1) for line in rows}
    assert documented == set(table_names())
