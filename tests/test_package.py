"""Package-level checks."""
from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import frameport

MODULES = [m.name for m in pkgutil.iter_modules(frameport.__path__,
                                                "frameport.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _module_level_names(path: Path) -> list[str]:
    """Functions, classes and constants defined at module level."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def test_every_module_name_is_read():
    # A name is read if it occurs as a code token anywhere in src/, tests/
    # or perfbench/ beyond its own definitions; an __all__ entry is a
    # string, so it does not count as a read.
    root = Path(__file__).resolve().parent.parent
    tokens = Counter()
    for path in sorted(p for d in ("src", "tests", "perfbench")
                       for p in (root / d).rglob("*.py")):
        with tokenize.open(path) as f:
            tokens.update(t.string
                          for t in tokenize.generate_tokens(f.readline)
                          if t.type == tokenize.NAME)
    package = Path(frameport.__file__).resolve().parent
    defined = {path.stem: _module_level_names(path)
               for path in sorted(package.glob("*.py"))}
    definitions = Counter(n for names in defined.values() for n in names)
    unread = [f"{module}.{n}" for module, names in defined.items()
              for n in names if tokens[n] <= definitions[n]]
    assert not unread, f"module-level names never read: {unread}"


def test_readme_layout_lists_every_module():
    # The Layout table of README.md has one `frameport.<name>` row per
    # module of the package, and no other, so adding or deleting a module
    # means changing its row.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(frameport\.\w+)` \|", layout, re.M)
    assert sorted(rows) == sorted(MODULES)
