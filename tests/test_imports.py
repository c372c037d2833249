"""Every repro module imports without numpy."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_every_module_imports_without_numpy():
    """A fresh interpreter with numpy blocked imports the whole package.

    ``repro.__main__`` runs the CLI, so it is left out.
    """
    program = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import repro\n"
        "names = [info.name for info in pkgutil.walk_packages(\n"
        "    repro.__path__, prefix='repro.') if info.name != 'repro.__main__']\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    print('numpy blocked')\n"
        "print(len(names), 'imported')\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    child = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert child.returncode == 0, child.stderr
    blocked, imported = child.stdout.splitlines()
    assert blocked == "numpy blocked"
    assert int(imported.split()[0]) > 40
