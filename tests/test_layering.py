"""The package imports only downward, only at module level, and only what
it uses; every function it defines is read somewhere.

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
ROOT = Path(__file__).resolve().parents[1]


def _intra_package_targets(node):
    """Module names a relative import pulls in ("from .x import y", "from . import x")."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def import_violations(path: Path):
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
    # module-level imports the module never reads; a package __init__ may re-export
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body if path.stem != "__init__" else []:
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    bad.append(f"{path.name}:{node.lineno}: {name} is imported but not used")
    return bad


def dead_defs(defining, reading):
    """Non-dunder defs in the defining files that no reading file reads:
    entry points nothing calls.  A def in a class body is read only as an
    Attribute (x.name); a bare Name of that spelling is another variable.
    Any other def is read as a Name or an Attribute."""
    names, attrs = set(), set()
    for path in reading:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    anywhere, bad = names | attrs, []
    for path in defining:
        tree = ast.parse(path.read_text(), filename=str(path))
        in_class = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in sorted(defs, key=lambda node: node.lineno):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            read = attrs if id(node) in in_class else anywhere
            if not dunder and node.name not in read:
                bad.append(f"{path.name}:{node.lineno}: {node.name} is never read")
    return bad


def test_every_module_has_a_layer():
    names = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert names == set(LAYER)


def test_imports_follow_the_layers():
    bad = [v for p in sorted(SRC.glob("*.py")) for v in import_violations(p)]
    assert bad == []


def test_checker_flags_lazy_and_upward_imports(tmp_path):
    path = tmp_path / "groups.py"
    path.write_text("from __future__ import annotations\nimport os.path\n"
                    "from .ffield import is_prime, ref_mod\nfrom . import idem\n"
                    "def f():\n    import numpy\n    return is_prime(idem)\n")
    assert import_violations(path) == [
        "groups.py:6: import inside f()", "groups.py:4: groups imports idem",
        "groups.py:2: os is imported but not used", "groups.py:3: ref_mod is imported but not used"]


def test_every_def_is_read():
    src = sorted(SRC.glob("*.py"))
    readers = src + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert dead_defs(src, readers) == []


def test_checker_flags_unread_defs(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("class A:\n    def __neg__(self):\n        return self\n"
                   "    def copy(self):\n        return self.copy\n"
                   "    def spare(self):\n        pass\n"
                   "def used():\n    pass\ndef unused():\n    spare = 1\n")
    user.write_text("from lib import used\nused()\nA.spare = None\n")
    assert dead_defs([lib], [lib, user]) == [
        "lib.py:6: spare is never read", "lib.py:10: unused is never read"]


def test_checker_reads_methods_only_as_attributes(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class A:\n    @property\n    def params(self):\n        return 1\n"
                   "def build(params):\n    return params\n"
                   "def helper():\n    pass\nbuild(helper)\n")
    assert dead_defs([lib], [lib]) == ["lib.py:3: params is never read"]
