"""Lower layers never import the layers built on them.

``repro.service`` is built on ``repro.analysis`` (the runner, the dispatch
backends), and ``repro.sim`` on ``repro.coherence`` (the controllers, the
L1 table), so an import the other way is a cycle in the layering.  The
imports are read from the source with :mod:`ast`, so a lazy import inside
a function counts as much as one at the top of the module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.analysis
import repro.coherence

ANALYSIS = Path(repro.analysis.__file__).resolve().parent
COHERENCE = Path(repro.coherence.__file__).resolve().parent
FORBIDDEN = "repro.service"


def module_name(path: Path, root: Path = ANALYSIS) -> str:
    """Dotted module name of a file under the ``repro`` package ``root``."""
    parts = ["repro", root.name, *path.relative_to(root).with_suffix("").parts]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(module: str, source: str, is_package: bool = False):
    """``(line, name)`` for every module ``source`` imports, anywhere in it.

    ``from X import y`` yields both ``X`` and ``X.y``, since ``y`` may be a
    submodule.  Relative imports are resolved against the package of
    ``module`` (``module`` itself when ``is_package``).
    """
    package = module.split(".") if is_package else module.split(".")[:-1]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            origin = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, origin
            for alias in node.names:
                yield node.lineno, f"{origin}.{alias.name}"


def reaches(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


@pytest.mark.parametrize(
    "path", sorted(ANALYSIS.rglob("*.py")), ids=module_name
)
def test_analysis_module_does_not_import_service(path):
    module = module_name(path)
    found = imported_modules(module, path.read_text(), path.name == "__init__.py")
    bad = sorted({f"line {line}: {name}" for line, name in found
                  if reaches(name, FORBIDDEN)})
    assert not bad, f"{module} imports the service layer: {bad}"


@pytest.mark.parametrize(
    "path", sorted(COHERENCE.rglob("*.py")),
    ids=lambda path: module_name(path, COHERENCE),
)
def test_coherence_module_does_not_import_sim(path):
    module = module_name(path, COHERENCE)
    found = imported_modules(module, path.read_text(), path.name == "__init__.py")
    bad = sorted({f"line {line}: {name}" for line, name in found
                  if reaches(name, "repro.sim")})
    assert not bad, f"{module} imports the simulator layer: {bad}"


@pytest.mark.parametrize("module, is_package, source, expected, forbidden", [
    # A lazy relative import inside a function (the shape the runner had).
    ("repro.analysis.runner", False,
     "def f():\n    from ..service.store import X\n", "repro.service.store", True),
    ("repro.analysis.runner", False,
     "from .. import service\n", "repro.service", True),
    ("repro.analysis", True,
     "from ..service import server\n", "repro.service.server", True),
    ("repro.analysis.runner", False,
     "import repro.service.server\n", "repro.service.server", True),
    ("repro.analysis.runner", False,
     "from . import dispatch\n", "repro.analysis.dispatch", False),
])
def test_walker_resolves_import_shapes(module, is_package, source, expected, forbidden):
    names = {name for _, name in imported_modules(module, source, is_package)}
    assert expected in names
    assert any(reaches(name, FORBIDDEN) for name in names) is forbidden
