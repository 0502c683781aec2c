"""Module boundaries inside the package.

A name with a leading underscore is private to the module that defines
it.  When a second module needs it, it belongs in the public interface
of the first, so no pfaffkit module imports an ``_``-prefixed name from
another, not even inside a function.
"""

import ast
from pathlib import Path

import pfaffkit

PACKAGE = Path(pfaffkit.__file__).resolve().parent


def private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "pfaffkit"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
    return found


def test_modules_are_found():
    assert {"exactfield.py", "diffalg.py", "parser.py"} <= {p.name for p in PACKAGE.glob("*.py")}


def test_no_private_name_is_imported_across_modules():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in private_imports(path)]
    assert found == []


def test_the_check_sees_function_local_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f():\n    from .exactfield import _secret\n    return _secret\n")
    assert private_imports(src) == ["m.py:2 imports _secret from exactfield"]
