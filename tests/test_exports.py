"""The public surface: every ``__all__`` entry and every package-root
import names something that exists where it claims to."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import qdistill

MODULES = [importlib.import_module(f"qdistill.{info.name}")
           for info in pkgutil.iter_modules(qdistill.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def top_level_names(module):
    """Names bound by the module's own top-level statements."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve_and_are_defined_in_their_module(module):
    assert len(set(module.__all__)) == len(module.__all__)
    defined = top_level_names(module)
    for name in module.__all__:
        assert hasattr(module, name), name
        assert name in defined, f"{name} is not defined in {module.__name__}"


def test_package_root_imports_resolve():
    init = pathlib.Path(qdistill.__file__)
    imports = [node for node in ast.parse(init.read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"qdistill.{node.module}")
        for alias in node.names:
            assert getattr(qdistill, alias.name) is getattr(source, alias.name)
            assert alias.name in source.__all__, (node.module, alias.name)
