"""Source fingerprints: cache keys that change whenever the code does.

A cached simulation result is valid only for the code that produced it.
:func:`source_fingerprint` hashes the package sources that determine it,
so an edit to any of them orphans every old cache entry without a
hand-bumped version number.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

#: Root of the ``repro`` package; fingerprinted names are relative to it.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def source_fingerprint(*names: str) -> str:
    """SHA-256 over the named ``repro`` sources, computed once per process.

    Each name is a module file or a subpackage relative to the package
    root (``"sim/trace.py"``, ``"workloads"``); a subpackage contributes
    every ``.py`` file under it.  Relative paths are hashed with the
    contents, so the digest is the same wherever the package is installed.
    """
    digest = hashlib.sha256()
    for name in names:
        path = _PACKAGE_ROOT / name
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            data = file.read_bytes()
            relative = file.relative_to(_PACKAGE_ROOT).as_posix()
            digest.update(f"{relative}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()
