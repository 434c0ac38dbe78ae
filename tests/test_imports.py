"""The package has no runtime dependencies: every module under src/xnalg
imports only from the standard library or relative to the package.  And no
module imports another one's private (underscore) names.  The test oracles
import only from the standard library too."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xnalg"


def _non_stdlib_imports(paths):
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    offenders.append(f"{path.name}:{node.lineno} imports {name}")
    return offenders


def test_package_imports_only_stdlib_or_relative():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = _non_stdlib_imports(modules)
    assert not offenders, offenders


def test_oracles_import_only_stdlib():
    # perfbench/checks.py loads tests/oracles.py for `brute_normalize` in a
    # process where the package is not importable
    offenders = _non_stdlib_imports([PACKAGE.parent.parent / "tests" / "oracles.py"])
    assert not offenders, offenders


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert not offenders, offenders
