#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Offline-friendly documentation build (no Sphinx available in this
environment): walks every module under :mod:`repro`, extracts module,
class and function docstring summaries plus public signatures, and writes
one markdown reference.

Usage::

    python tools/gen_api_docs.py [output-path]   # default docs/API.md
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro


def first_paragraph(doc: str) -> str:
    """The docstring's leading paragraph, joined to one line."""
    if not doc:
        return "(undocumented)"
    lines = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def signature_of(obj) -> str:
    """Best-effort signature string."""
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def public_members(module):
    """(classes, functions) defined in this module, public names only."""
    classes, functions = [], []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            classes.append((name, obj))
        elif inspect.isfunction(obj):
            functions.append((name, obj))
    return classes, functions


def document_class(name: str, cls, out: list) -> None:
    out.append(f"### class `{name}{signature_of(cls)}`\n")
    out.append(first_paragraph(cls.__doc__) + "\n")
    methods = [
        (meth_name, meth)
        for meth_name, meth in sorted(vars(cls).items())
        if not meth_name.startswith("_") and inspect.isfunction(meth)
    ]
    for meth_name, meth in methods:
        out.append(
            f"- `{meth_name}{signature_of(meth)}` — {first_paragraph(meth.__doc__)}"
        )
    if methods:
        out.append("")


def generate(output: Path) -> int:
    """Write the reference; returns the number of modules documented."""
    out: list = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` from the package docstrings —",
        "regenerate after API changes; do not edit by hand.",
        "",
        "Guides: `docs/PROTOCOL.md` (coherence protocol),",
        "`docs/WORKLOADS.md` (workload suite), `docs/METRICS.md` (statistics",
        "counters), `docs/PERFORMANCE.md` (parallel sweep engine and the",
        "persistent result cache), `docs/OBSERVABILITY.md` (epoch sampler,",
        "event tracer, sampled invariant checking), `docs/SERVICE.md`",
        "(campaign service: async sweep-job HTTP API, thread and process pools,",
        "Prometheus metrics).",
        "",
    ]
    count = 0
    package_path = Path(repro.__file__).parent
    for info in sorted(
        pkgutil.walk_packages([str(package_path)], prefix="repro."),
        key=lambda i: i.name,
    ):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        count += 1
        out.append(f"## `{info.name}`\n")
        out.append(first_paragraph(module.__doc__) + "\n")
        classes, functions = public_members(module)
        for name, cls in classes:
            document_class(name, cls, out)
        for name, fn in functions:
            out.append(f"### `{name}{signature_of(fn)}`\n")
            out.append(first_paragraph(fn.__doc__) + "\n")
    output.write_text("\n".join(out) + "\n")
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the API reference.")
    parser.add_argument(
        "output", nargs="?", type=Path, default=Path("docs/API.md"),
        help="markdown file to write (default: docs/API.md)",
    )
    output = parser.parse_args(argv).output
    output.parent.mkdir(parents=True, exist_ok=True)
    count = generate(output)
    print(f"documented {count} modules -> {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
