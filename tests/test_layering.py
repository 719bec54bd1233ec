"""The package imports only downward, and only at module level.

Layers, lowest first: ffield -> groups -> shoda -> idem -> units/code ->
examples -> cli.  A module may import from a strictly lower layer; units
and code share a layer and so may not import each other.
"""

import ast
from pathlib import Path

import metacode

LAYER = {"ffield": 0, "groups": 1, "shoda": 2, "idem": 3, "units": 4, "code": 4,
         "examples": 5, "cli": 6}
SRC = Path(metacode.__file__).resolve().parent


def _intra_package_targets(node):
    """Module names a relative import pulls in ("from .x import y", "from . import x")."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def layering_violations(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    bad.append(f"{path.name}:{node.lineno}: import inside {fn.name}()")
    here = LAYER.get(path.stem)
    for node in ast.walk(tree):
        for target in _intra_package_targets(node):
            if here is None or target not in LAYER or LAYER[target] >= here:
                bad.append(f"{path.name}:{node.lineno}: {path.stem} imports {target}")
    return bad


def test_every_module_has_a_layer():
    names = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert names == set(LAYER)


def test_imports_follow_the_layers():
    bad = [v for p in sorted(SRC.glob("*.py")) for v in layering_violations(p)]
    assert bad == []


def test_checker_flags_lazy_and_upward_imports(tmp_path):
    path = tmp_path / "groups.py"
    path.write_text("from .ffield import is_prime\nfrom . import idem\n"
                    "def f():\n    import numpy\n")
    assert layering_violations(path) == [
        "groups.py:4: import inside f()", "groups.py:2: groups imports idem"]
