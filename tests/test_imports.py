"""No module imports a name it never uses, and no library module keeps a
private name it never uses; importing the package stays light.

No linter ships with the project, so these are `ast` scans: every name an
import statement binds must appear as a name somewhere else in the module,
or be listed in the module's `__all__`; every module-level `_name` function,
class or assignment in `src/disklab` must be read somewhere in its module.
"""

import ast
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


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def orphaned_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
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


def test_importing_the_package_leaves_concurrent_futures_unloaded():
    """Only the sampling oracle uses a thread pool, and it imports one when it
    runs, so `import disklab` does not pay to load concurrent.futures."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import disklab; "
        "print('disklab.hitsolver' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert loaded.split() == ["True", "False"]
