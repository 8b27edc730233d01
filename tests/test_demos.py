import ast
import glob
import importlib
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                      "demos", "*.py")))


def gzslgen_imports(path: str) -> list[tuple[str, str | None]]:
    """(module, name) of each ``from gzslgen... import name`` of ``path``, and
    (module, None) of each ``import gzslgen...``, read with ``ast``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gzslgen":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "gzslgen"]
    return found


def resolves(module: str, name: str | None) -> bool:
    """Whether ``from module import name`` (``import module`` without a
    name) would succeed."""
    try:
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_there_are_demos():
    # an empty glob would parametrize the check below away
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_every_gzslgen_name_a_demo_imports_resolves(path):
    # no demo runs: the tier-1 suite never runs them, so this is what keeps
    # a renamed library name from breaking one silently
    imports = gzslgen_imports(path)
    assert imports
    missing = [(module, name) for module, name in imports if not resolves(module, name)]
    assert not missing, f"{os.path.basename(path)} imports names gzslgen lacks: {missing}"
