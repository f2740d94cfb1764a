"""No module imports a name it never uses, and no library module keeps a
private name it never uses; importing the package stays light.

No linter ships with the project, so these are `ast` scans: every name an
import statement binds must appear as a name somewhere else in the module,
or be listed in the module's `__all__`; every module-level `_name` function,
class or assignment in `src/disklab` must be read somewhere in its module,
every `_name` method of a module-level class read as an attribute somewhere in
the library, and every module-level public UPPERCASE constant read somewhere
in the library.  Every `.py` file under `src/` and `tests/` must also parse
with the grammar of the oldest Python that `requires-python` admits.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "disklab").glob("*.py"))
SCANNED = LIBRARY + sorted((ROOT / "tests").glob("*.py"))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*"]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for name in _bound_names(node)
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return [name for name in imported if name not in used]


def test_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import os.path\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "np.zeros(os.sep)\n"
    )
    assert unused_imports(source) == ["dumps"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for path in SCANNED
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def _assigned_names(node: ast.stmt) -> list[str]:
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        names += _assigned_names(node)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def orphaned_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    read = _read_names(tree)
    return [name for name in _private_definitions(tree) if name not in read]


def test_orphan_scan_flags_only_unread_private_names():
    source = (
        "__all__ = ['f']\n"
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "class _Box: pass\n"
        "def _helper(x): return _Box, x\n"
        "def _dead(): return _LIMIT\n"
        "def f(): return _helper(1)\n"
    )
    assert orphaned_private_names(source) == ["_UNUSED", "_dead"]


def test_no_orphaned_private_names():
    found = {
        str(path.relative_to(ROOT)): names
        for path in LIBRARY
        if (names := orphaned_private_names(path.read_text()))
    }
    assert found == {}


def orphaned_private_methods(sources: list[str]) -> list[str]:
    """Class.method for each `_name` method of a module-level class in sources
    whose name no module in sources reads as an attribute: what a deletion
    leaves behind when it removes a method's last caller."""
    trees = [ast.parse(source) for source in sources]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
    }
    return [
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    ]


def test_orphan_scan_flags_only_unread_private_methods():
    defining = (
        "class Box:\n"
        "    def __init__(self): self._size = self._measure()\n"
        "    def _measure(self): return 1\n"
        "    def _dead(self): return self._size\n"
        "    def _elsewhere(self): return 2\n"
        "    def public(self): return 3\n"
        "class _Inner:\n"
        "    def _stored(self): pass\n"
        "def f(box): box._stored = 4\n"
    )
    reading = "def g(box): return box._elsewhere()\n"
    assert orphaned_private_methods([defining, reading]) == ["Box._dead", "_Inner._stored"]


def test_no_orphaned_private_methods():
    assert orphaned_private_methods([path.read_text() for path in LIBRARY]) == []


def _public_constants(tree: ast.Module) -> list[str]:
    names = [name for node in tree.body for name in _assigned_names(node)]
    return [name for name in names if name.isupper() and not name.startswith("_")]


def unread_public_constants(sources: list[str]) -> list[str]:
    """Module-level UPPERCASE constants that no module in sources reads, by
    name (in its own module, or after importing it) or as a module attribute;
    an import alone, such as a package's re-export, is not a read."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for tree in trees:
        read |= _read_names(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [name for tree in trees for name in _public_constants(tree) if name not in read]


def test_constant_scan_flags_only_unread_public_constants():
    defining = (
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "STALE: float = 1e-12\n"
        "_PRIVATE = 5\n"
        "SHARED = ATTR = 6\n"
        "lower = 7\n"
        "def f(): return LIMIT\n"
    )
    importing = (
        "from . import a\n"
        "from .a import SHARED, UNUSED\n"
        "__all__ = ['UNUSED']\n"
        "print(SHARED, a.ATTR)\n"
    )
    assert unread_public_constants([defining, importing]) == ["UNUSED", "STALE"]


def test_no_unread_public_constants():
    assert unread_public_constants([path.read_text() for path in LIBRARY]) == []


def test_importing_the_package_leaves_concurrent_futures_unloaded():
    """Only the sampling oracle uses a thread pool, and it imports one when it
    runs, so `import disklab` does not pay to load concurrent.futures."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import disklab; "
        "print('disklab.hitsolver' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert loaded.split() == ["True", "False"]


def oldest_python() -> tuple[int, int]:
    """The oldest Python that pyproject.toml's requires-python admits."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    return int(major), int(minor)


def newer_syntax(source: str, version: tuple[int, int]) -> str | None:
    """The SyntaxError ast.parse raises for source under version's grammar,
    or None when it parses."""
    try:
        ast.parse(source, feature_version=version)
    except SyntaxError as exc:
        return str(exc)
    return None


def test_syntax_scan_flags_only_syntax_newer_than_the_version():
    assert oldest_python() == (3, 10)
    assert newer_syntax("match x:\n    case 1:\n        pass\n", (3, 10)) is None
    exception_group = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert newer_syntax(exception_group, (3, 11)) is None
    for source in (exception_group, "type X = int\n", "def f[T](x: T): pass\n"):
        assert newer_syntax(source, (3, 10)) is not None


def test_every_source_file_parses_on_the_oldest_python_the_package_admits():
    """No file under src/ or tests/ uses syntax newer than requires-python."""
    version = oldest_python()
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    found = {str(path.relative_to(ROOT)): error for path in paths if (error := newer_syntax(path.read_text(), version))}
    assert len(paths) > 10
    assert found == {}
