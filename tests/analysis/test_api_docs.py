"""Tests for the API documentation generator (and docstring coverage)."""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parents[2]
TOOLS = ROOT / "tools"
sys.path.insert(0, str(TOOLS))

gen_api_docs = importlib.import_module("gen_api_docs")


class TestGenerator:
    def test_generates_all_modules(self, tmp_path):
        output = tmp_path / "API.md"
        count = gen_api_docs.generate(output)
        assert count >= 40
        text = output.read_text()
        for symbol in (
            "repro.core.stash_directory",
            "StashDirectory",
            "DiscoveryEngine",
            "repro.coherence.protocol",
            "build_system",
        ):
            assert symbol in text

    def test_committed_reference_is_current(self, tmp_path):
        """docs/API.md is exactly what the generator writes today."""
        output = tmp_path / "API.md"
        gen_api_docs.generate(output)
        assert (ROOT / "docs" / "API.md").read_text() == output.read_text(), (
            "docs/API.md is stale: run python tools/gen_api_docs.py"
        )

    def test_help_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            gen_api_docs.main(["--help"])
        assert exit_info.value.code == 0
        assert "output" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_writes_the_named_file(self, tmp_path, capsys):
        output = tmp_path / "docs" / "API.md"
        assert gen_api_docs.main([str(output)]) == 0
        assert output.read_text().startswith("# API reference")
        assert f"-> {output}" in capsys.readouterr().out

    def test_first_paragraph(self):
        assert gen_api_docs.first_paragraph("Line one\nline two.\n\nRest.") == (
            "Line one line two."
        )
        assert gen_api_docs.first_paragraph("") == "(undocumented)"

    def test_signature_fallback(self):
        assert gen_api_docs.signature_of(int) == "(...)" or "(" in gen_api_docs.signature_of(int)


class TestDocstringCoverage:
    """Deliverable (e): doc comments on every public item."""

    @pytest.mark.parametrize(
        "module_name",
        [
            info.name
            for info in pkgutil.walk_packages(
                [str(Path(repro.__file__).parent)], prefix="repro."
            )
            if not info.name.endswith("__main__")
        ],
    )
    def test_every_module_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} has no module docstring"

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for info in pkgutil.walk_packages(
            [str(Path(repro.__file__).parent)], prefix="repro."
        ):
            if info.name.endswith("__main__"):
                continue
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not obj.__doc__:
                        undocumented.append(f"{info.name}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"
