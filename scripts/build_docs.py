#!/usr/bin/env python3
"""Build the documentation site, with zero hard dependencies.

The pipeline has four stages, each of which can fail the build:

1. **API reference generation** — introspects the public API
   (``repro.run`` / ``run_sweep``, the ``Engine`` protocol,
   ``Capabilities``, ``RunResult``, the fused BDD kernels, the sampling
   machinery, ...) and renders ``docs/api.md`` style content from the live
   docstrings.
2. **Docstring coverage gate** — every public symbol on the documented
   surface must carry a docstring; a missing one is a build warning, and
   warnings fail the build (``--strict`` is the default in CI).
3. **Rendering** — uses MkDocs when it is importable (``mkdocs build
   --strict`` honours ``mkdocs.yml``); otherwise falls back to the
   built-in minimal Markdown renderer so the site builds on machines with
   nothing but the standard library.
4. **Link check** — every internal link in every rendered page must
   resolve to an existing page.

Usage::

    python scripts/build_docs.py                  # build into site/
    python scripts/build_docs.py --site-dir out   # custom output dir
    python scripts/build_docs.py --no-mkdocs      # force the fallback
    python scripts/build_docs.py --check-only     # gates only, no output
"""

from __future__ import annotations

import argparse
import html
import inspect
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Pages of the site, in navigation order: (title, docs/ file name).
NAV: List[Tuple[str, str]] = [
    ("Home", "index.md"),
    ("Architecture", "architecture.md"),
    ("Paper mapping", "paper-mapping.md"),
    ("Dynamic reordering", "reordering.md"),
    ("Sampling & dynamic circuits", "sampling.md"),
    ("Result & prefix caching", "caching.md"),
    ("Simulation service", "service.md"),
    ("Resilience & fault injection", "resilience.md"),
    ("Checkpointing & snapshots", "checkpointing.md"),
    ("Writing an engine", "engine-authors.md"),
    ("Performance counters", "perf-counters.md"),
    ("API reference", "api.md"),
]

#: Modules whose public surface the API reference documents (and whose
#: docstring coverage the build enforces).
API_MODULES = [
    "repro",
    "repro.engines.base",
    "repro.engines.registry",
    "repro.engines.limits",
    "repro.engines.frontdoor",
    "repro.engines.result",
    "repro.engines.sampling",
    "repro.engines.dynamic",
    "repro.cache.fingerprint",
    "repro.cache.result_cache",
    "repro.cache.sessions",
    "repro.core.simulator",
    "repro.core.bitslice",
    "repro.core.measurement",
    "repro.core.sampling",
    "repro.circuit.circuit",
    "repro.circuit.gates",
    "repro.circuit.qasm",
    "repro.circuit.transforms",
    "repro.service.protocol",
    "repro.service.scheduler",
    "repro.service.sessions",
    "repro.service.server",
    "repro.service.client",
    "repro.service.watch",
    "repro.resilience.faults",
    "repro.resilience.retry",
    "repro.resilience.journal",
    "repro.snapshot",
]

#: Extra individual symbols that must be documented even though their home
#: module is too large to document wholesale (the fused BDD kernels).
API_EXTRA_SYMBOLS = [
    ("repro.bdd.manager", "BddManager", ["apply_full_add", "apply_maj3",
                                         "apply_xor3", "apply_flip",
                                         "apply_swap_vars",
                                         "apply_controlled_flip",
                                         "apply_controlled_swap",
                                         "and_many", "or_many", "xor_many",
                                         "not_many", "ite_many",
                                         "full_add_many", "restrict_many",
                                         "controlled_flip_many",
                                         "controlled_swap_many", "satcount",
                                         "swap_adjacent_levels", "sift",
                                         "maybe_reorder", "set_order"]),
]


# --------------------------------------------------------------------- #
# API reference generation + docstring coverage
# --------------------------------------------------------------------- #
def _public_members(obj) -> List[str]:
    names = getattr(obj, "__all__", None)
    if names is not None:
        return list(names)
    return [name for name in vars(obj) if not name.startswith("_")]


def _signature(value) -> str:
    try:
        return str(inspect.signature(value))
    except (TypeError, ValueError):
        return "(...)"


def _first_paragraph(doc: Optional[str]) -> str:
    if not doc:
        return ""
    return inspect.cleandoc(doc).split("\n\n")[0]


class ApiCollector:
    """Walks the documented surface, emitting markdown and warnings."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.warnings: List[str] = []
        self._seen_classes: set = set()

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def _require_doc(self, qualified: str, value) -> str:
        doc = inspect.getdoc(value)
        if not doc or not doc.strip():
            self.warn(f"undocumented public symbol: {qualified}")
            return "*Undocumented.*"
        return doc

    def emit_class(self, module_name: str, name: str, value,
                   only_methods: Optional[List[str]] = None) -> None:
        qualified = f"{module_name}.{name}"
        if qualified in self._seen_classes:
            return
        self._seen_classes.add(qualified)
        self.lines.append(f"### class `{name}`\n")
        self.lines.append(self._require_doc(qualified, value) + "\n")
        members = []
        for attr_name, attr in inspect.getmembers(value):
            if attr_name.startswith("_"):
                continue
            if only_methods is not None and attr_name not in only_methods:
                continue
            if callable(attr) or isinstance(attr, property):
                members.append((attr_name, attr))
        for attr_name, attr in members:
            if isinstance(attr, property):
                descriptor = f"`{attr_name}` *(property)*"
                target = attr.fget
            else:
                descriptor = f"`{attr_name}{_signature(attr)}`"
                target = attr
            doc = self._require_doc(f"{qualified}.{attr_name}", target)
            self.lines.append(f"* {descriptor} — "
                              f"{_first_paragraph(doc)}")
        self.lines.append("")

    def emit_function(self, module_name: str, name: str, value) -> None:
        qualified = f"{module_name}.{name}"
        self.lines.append(f"### `{name}{_signature(value)}`\n")
        self.lines.append(self._require_doc(qualified, value) + "\n")

    def emit_module(self, module_name: str) -> None:
        import importlib

        module = importlib.import_module(module_name)
        self.lines.append(f"## `{module_name}`\n")
        self.lines.append(_first_paragraph(
            self._require_doc(module_name, module)) + "\n")
        for name in sorted(_public_members(module)):
            value = getattr(module, name, None)
            if value is None and name != "None":
                self.warn(f"{module_name}.__all__ names missing symbol {name}")
                continue
            defined_in = getattr(value, "__module__", module_name)
            if inspect.isclass(value):
                if defined_in == module_name:
                    self.emit_class(module_name, name, value)
            elif inspect.isfunction(value):
                if defined_in == module_name:
                    self.emit_function(module_name, name, value)
            # Re-exports, constants and instances are listed but not
            # documented per-symbol (their home module documents them).

    def build(self) -> str:
        self.lines.append("# API reference\n")
        self.lines.append(
            "Generated from the live docstrings by `scripts/build_docs.py`; "
            "the build fails when any public symbol is undocumented.\n")
        for module_name in API_MODULES:
            self.emit_module(module_name)
        self.lines.append("## Fused BDD kernels (`repro.bdd.manager`)\n")
        self.lines.append(
            "The substrate's multi-operand kernels and batching surface "
            "(see the [architecture notes](architecture.md)):\n")
        import importlib

        for module_name, class_name, methods in API_EXTRA_SYMBOLS:
            module = importlib.import_module(module_name)
            self.emit_class(module_name, class_name,
                            getattr(module, class_name), methods)
        return "\n".join(self.lines) + "\n"


# --------------------------------------------------------------------- #
# Minimal markdown renderer (fallback when MkDocs is unavailable)
# --------------------------------------------------------------------- #
_INLINE_CODE = re.compile(r"`([^`]+)`")
_BOLD = re.compile(r"\*\*([^*]+)\*\*")
_ITALIC = re.compile(r"(?<!\*)\*([^*\s][^*]*)\*(?!\*)")
_LINK = re.compile(r"\[([^\]]+)\]\(([^)\s]+)\)")


def _render_inline(text: str) -> str:
    parts = []
    cursor = 0
    for match in _INLINE_CODE.finditer(text):
        parts.append(("text", text[cursor:match.start()]))
        parts.append(("code", match.group(1)))
        cursor = match.end()
    parts.append(("text", text[cursor:]))
    rendered = []
    for kind, chunk in parts:
        if kind == "code":
            rendered.append(f"<code>{html.escape(chunk)}</code>")
            continue
        chunk = html.escape(chunk, quote=False)
        chunk = _LINK.sub(
            lambda m: f'<a href="{_href(m.group(2))}">{m.group(1)}</a>', chunk)
        chunk = _BOLD.sub(r"<strong>\1</strong>", chunk)
        chunk = _ITALIC.sub(r"<em>\1</em>", chunk)
        rendered.append(chunk)
    return "".join(rendered)


def _href(target: str) -> str:
    if target.startswith(("http://", "https://", "#")):
        return target
    return re.sub(r"\.md(?=(#|$))", ".html", target)


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


def render_markdown(text: str) -> str:
    """Render the markdown subset the docs use into HTML."""
    out: List[str] = []
    lines = text.splitlines()
    index = 0
    paragraph: List[str] = []
    list_items: Optional[List[str]] = None

    def flush_paragraph() -> None:
        if paragraph:
            out.append(f"<p>{_render_inline(' '.join(paragraph))}</p>")
            paragraph.clear()

    def flush_list() -> None:
        nonlocal list_items
        if list_items is not None:
            items = "".join(f"<li>{item}</li>" for item in list_items)
            out.append(f"<ul>{items}</ul>")
            list_items = None

    while index < len(lines):
        line = lines[index]
        stripped = line.strip()
        if stripped.startswith("```"):
            flush_paragraph()
            flush_list()
            code: List[str] = []
            index += 1
            while index < len(lines) and not lines[index].strip().startswith("```"):
                code.append(lines[index])
                index += 1
            out.append("<pre><code>"
                       + html.escape("\n".join(code)) + "</code></pre>")
            index += 1
            continue
        heading = re.match(r"^(#{1,6})\s+(.*)$", stripped)
        if heading:
            flush_paragraph()
            flush_list()
            level = len(heading.group(1))
            title = heading.group(2)
            out.append(f'<h{level} id="{_slug(title)}">'
                       f"{_render_inline(title)}</h{level}>")
            index += 1
            continue
        if stripped.startswith("|") and stripped.endswith("|"):
            flush_paragraph()
            flush_list()
            rows: List[List[str]] = []
            while index < len(lines) and lines[index].strip().startswith("|"):
                cells = [cell.strip() for cell
                         in lines[index].strip().strip("|").split("|")]
                if not all(re.fullmatch(r":?-{2,}:?", cell) for cell in cells):
                    rows.append(cells)
                index += 1
            if rows:
                header, *body = rows
                thead = "".join(f"<th>{_render_inline(cell)}</th>"
                                for cell in header)
                tbody = "".join(
                    "<tr>" + "".join(f"<td>{_render_inline(cell)}</td>"
                                     for cell in row) + "</tr>"
                    for row in body)
                out.append(f"<table><thead><tr>{thead}</tr></thead>"
                           f"<tbody>{tbody}</tbody></table>")
            continue
        bullet = re.match(r"^[*-]\s+(.*)$", stripped)
        if bullet:
            flush_paragraph()
            if list_items is None:
                list_items = []
            item = [bullet.group(1)]
            index += 1
            # hanging indent continuation lines belong to the item
            while index < len(lines) and lines[index].startswith("  ") \
                    and lines[index].strip() \
                    and not re.match(r"^[*-]\s+", lines[index].strip()):
                item.append(lines[index].strip())
                index += 1
            list_items.append(_render_inline(" ".join(item)))
            continue
        if not stripped:
            flush_paragraph()
            flush_list()
            index += 1
            continue
        paragraph.append(stripped)
        index += 1
    flush_paragraph()
    flush_list()
    return "\n".join(out)


_PAGE_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{title} — repro docs</title>
<style>
body {{ font-family: -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 0; color: #1f2430; }}
nav {{ position: fixed; top: 0; bottom: 0; left: 0; width: 15rem;
      background: #f4f5f7; padding: 1.5rem 1rem; overflow-y: auto;
      border-right: 1px solid #d8dbe0; box-sizing: border-box; }}
nav a {{ display: block; padding: .3rem .5rem; color: #1f2430;
        text-decoration: none; border-radius: 4px; }}
nav a.current, nav a:hover {{ background: #e2e6ee; }}
main {{ margin-left: 16.5rem; max-width: 50rem; padding: 2rem; }}
pre {{ background: #f4f5f7; padding: .8rem 1rem; overflow-x: auto;
      border-radius: 6px; }}
code {{ background: #f4f5f7; padding: .1rem .25rem; border-radius: 3px;
       font-size: .92em; }}
pre code {{ padding: 0; background: none; }}
table {{ border-collapse: collapse; margin: 1rem 0; }}
th, td {{ border: 1px solid #d8dbe0; padding: .4rem .7rem;
         text-align: left; vertical-align: top; }}
th {{ background: #f4f5f7; }}
h1, h2, h3 {{ line-height: 1.25; }}
a {{ color: #2258c4; }}
</style>
</head>
<body>
<nav>
<p><strong>repro docs</strong></p>
{nav}
</nav>
<main>
{body}
</main>
</body>
</html>
"""


def build_fallback_site(pages: Dict[str, str], site_dir: Path) -> None:
    """Render every page with the built-in renderer into ``site_dir``."""
    site_dir.mkdir(parents=True, exist_ok=True)
    for filename, markdown in pages.items():
        target = filename[:-3] + ".html"
        nav_html = "\n".join(
            f'<a href="{entry[1][:-3]}.html"'
            + (' class="current"' if entry[1] == filename else "")
            + f">{html.escape(entry[0])}</a>"
            for entry in NAV)
        title = next((entry[0] for entry in NAV if entry[1] == filename),
                     filename)
        (site_dir / target).write_text(
            _PAGE_TEMPLATE.format(title=html.escape(title), nav=nav_html,
                                  body=render_markdown(markdown)),
            encoding="utf-8")


# --------------------------------------------------------------------- #
# Link check
# --------------------------------------------------------------------- #
def check_links(pages: Dict[str, str]) -> List[str]:
    """Every internal markdown link must resolve to a known page."""
    problems = []
    known = set(pages)
    for filename, markdown in pages.items():
        # strip fenced code blocks so example links are not validated
        stripped = re.sub(r"```.*?```", "", markdown, flags=re.S)
        for match in _LINK.finditer(stripped):
            target = match.group(2)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            base = target.split("#", 1)[0]
            if base and base not in known:
                problems.append(f"{filename}: broken internal link -> {target}")
    return problems


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #
def load_pages() -> Dict[str, str]:
    """All site pages: the committed docs plus the generated API page."""
    pages: Dict[str, str] = {}
    for _, filename in NAV:
        if filename == "api.md":
            continue
        path = DOCS_DIR / filename
        if not path.exists():
            raise SystemExit(f"docs page missing: {path}")
        pages[filename] = path.read_text(encoding="utf-8")
    return pages


def try_mkdocs(site_dir: Path) -> bool:
    """Build with MkDocs when available; returns True on success."""
    try:
        import mkdocs  # noqa: F401
    except ImportError:
        return False
    import subprocess

    api_path = DOCS_DIR / "api.md"
    collector = ApiCollector()
    api_path.write_text(collector.build(), encoding="utf-8")
    try:
        subprocess.run(
            [sys.executable, "-m", "mkdocs", "build", "--strict",
             "--site-dir", str(site_dir)],
            check=True, cwd=REPO_ROOT)
    finally:
        api_path.unlink(missing_ok=True)
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--site-dir", default="site",
                        help="output directory (default: site/)")
    parser.add_argument("--no-mkdocs", action="store_true",
                        help="force the built-in renderer even if MkDocs "
                             "is installed (used by CI for reproducibility)")
    parser.add_argument("--check-only", action="store_true",
                        help="run the docstring-coverage and link gates "
                             "without writing the site")
    parser.add_argument("--allow-warnings", action="store_true",
                        help="report warnings without failing (the strict "
                             "gate is the default)")
    args = parser.parse_args(argv)

    collector = ApiCollector()
    api_markdown = collector.build()
    pages = load_pages()
    pages["api.md"] = api_markdown

    problems = check_links(pages)
    warnings = collector.warnings + problems
    for warning in warnings:
        print(f"WARNING: {warning}", file=sys.stderr)

    if warnings and not args.allow_warnings:
        print(f"docs build failed: {len(warnings)} warning(s) "
              f"(docstring coverage / links)", file=sys.stderr)
        return 1

    if args.check_only:
        print(f"docs gates ok: {len(pages)} pages, "
              f"{len(collector.warnings)} docstring warnings, "
              f"{len(problems)} link problems")
        return 0

    site_dir = Path(args.site_dir)
    if not site_dir.is_absolute():
        site_dir = REPO_ROOT / site_dir
    if not args.no_mkdocs and try_mkdocs(site_dir):
        print(f"docs built with MkDocs into {site_dir}")
        return 0
    build_fallback_site(pages, site_dir)
    print(f"docs built with the built-in renderer into {site_dir} "
          f"({len(pages)} pages)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
