"""The documentation build: coverage gate, link check, rendering.

Runs the real pipeline from ``scripts/build_docs.py`` (fallback renderer,
no MkDocs needed) so a missing docstring on the public API or a broken
internal docs link fails the tier-1 suite, not just the CI docs job.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def build_docs():
    spec = importlib.util.spec_from_file_location(
        "build_docs", REPO_ROOT / "scripts" / "build_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocstringCoverage:
    def test_public_api_fully_documented(self, build_docs):
        collector = build_docs.ApiCollector()
        collector.build()
        assert collector.warnings == []

    def test_gate_detects_missing_docstring(self, build_docs):
        import repro.engines.frontdoor as frontdoor

        original = frontdoor.run.__doc__
        frontdoor.run.__doc__ = None
        try:
            collector = build_docs.ApiCollector()
            collector.build()
            assert any("frontdoor.run" in warning
                       for warning in collector.warnings)
        finally:
            frontdoor.run.__doc__ = original

    def test_api_reference_covers_headline_symbols(self, build_docs):
        text = build_docs.ApiCollector().build()
        for symbol in ("class `Engine`", "class `Capabilities`",
                       "class `RunResult`", "`restrict_many(",
                       "`run(", "`run_sweep(", "`sample_by_descent(",
                       "`snap_probability(", "class `SliceSampler`"):
            assert symbol in text, symbol


class TestSitePages:
    def test_all_nav_pages_exist(self, build_docs):
        pages = build_docs.load_pages()
        expected = {filename for _, filename in build_docs.NAV}
        assert set(pages) | {"api.md"} == expected

    def test_internal_links_resolve(self, build_docs):
        pages = build_docs.load_pages()
        pages["api.md"] = build_docs.ApiCollector().build()
        assert build_docs.check_links(pages) == []

    def test_link_check_detects_breakage(self, build_docs):
        assert build_docs.check_links({"a.md": "see [b](missing.md)"})

    def test_mkdocs_nav_matches_fallback_nav(self, build_docs):
        """mkdocs.yml duplicates the NAV list; a page added to one but not
        the other silently vanishes from whichever renderer CI happens to
        take, so the two lists must stay in lockstep."""
        import re

        text = (REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8")
        nav_block = text.split("nav:", 1)[1]
        entries = re.findall(r"-\s*(.+?):\s*(\S+\.md)", nav_block)
        assert [(title, page) for title, page in entries] == build_docs.NAV


class TestFallbackRenderer:
    def test_markdown_features_render(self, build_docs):
        rendered = build_docs.render_markdown(
            "# Title\n\npara with `code` and **bold** and "
            "[a link](index.md).\n\n"
            "```python\nx = 1 < 2\n```\n\n"
            "* item one\n* item two\n\n"
            "| a | b |\n| --- | --- |\n| 1 | 2 |\n")
        assert '<h1 id="title">Title</h1>' in rendered
        assert "<code>code</code>" in rendered
        assert "<strong>bold</strong>" in rendered
        assert '<a href="index.html">a link</a>' in rendered
        assert "x = 1 &lt; 2" in rendered
        assert rendered.count("<li>") == 2
        assert "<table>" in rendered and "<td>2</td>" in rendered

    def test_site_builds_end_to_end(self, build_docs, tmp_path):
        exit_code = build_docs.main(
            ["--no-mkdocs", "--site-dir", str(tmp_path / "site")])
        assert exit_code == 0
        built = {path.name for path in (tmp_path / "site").glob("*.html")}
        assert built == {filename[:-3] + ".html"
                        for _, filename in build_docs.NAV}
        api = (tmp_path / "site" / "api.html").read_text(encoding="utf-8")
        assert "class <code>RunResult</code>" in api

    def test_check_only_mode(self, build_docs, capsys):
        assert build_docs.main(["--check-only"]) == 0
        assert "docs gates ok" in capsys.readouterr().out


def test_main_fails_on_warning(build_docs, monkeypatch):
    import repro.engines.result as result_module

    original = result_module.RunResult.counts_bitstrings.__doc__
    monkeypatch.setattr(result_module.RunResult.counts_bitstrings,
                        "__doc__", None)
    try:
        assert build_docs.main(["--check-only"]) == 1
    finally:
        result_module.RunResult.counts_bitstrings.__doc__ = original
