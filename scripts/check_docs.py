#!/usr/bin/env python
"""Documentation checker: relative links, imports and runnable snippets.

Run from the repository root (the CI docs job does):

    PYTHONPATH=src python scripts/check_docs.py

Three checks, over ``README.md`` and every ``docs/*.md`` file:

1. **Links** — every relative Markdown link / image target must exist on
   disk (anchors are stripped; ``http(s)``/``mailto`` URLs are ignored, as
   are links that resolve outside the repository, e.g. the CI badge's
   GitHub-relative path).
2. **Doctests** — every fenced ``python`` code block that contains ``>>>``
   prompts is executed with :mod:`doctest`.  Blocks within one file share a
   namespace, in order, so a tutorial can build state step by step.
3. **Imports** — every ``import`` statement in every fenced ``python``
   block without ``>>>`` prompts must resolve: the module imports and each
   name it imports exists (as an attribute or a submodule).  This covers
   the blocks the doctests do not run, such as README's quickstart.

Exits non-zero on the first category of failure, printing every finding.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown link / image targets: [text](target) or ![alt](target).
_LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: Fenced code blocks with an explicit language tag.
_FENCE_PATTERN = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)


def documentation_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def check_links(path: Path) -> list[str]:
    """Broken relative link targets in one Markdown file."""
    problems = []
    for target in _LINK_PATTERN.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (path.parent / file_part).resolve()
        try:
            resolved.relative_to(REPO_ROOT)
        except ValueError:
            # Outside the repository (e.g. GitHub-relative badge URLs):
            # nothing to verify on disk.
            continue
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
    return problems


def _display(path: Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def _unresolved(module: str, name: str | None) -> str | None:
    """Why ``from module import name`` (``import module`` if no name) fails."""
    try:
        imported = importlib.import_module(module)
    except ImportError as exc:
        return f"cannot import {module}: {exc}"
    if name is None or name == "*" or hasattr(imported, name):
        return None
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return f"{module} has no {name!r}"
    return None


def check_imports(path: Path) -> list[str]:
    """Imports that do not resolve in the file's prompt-less ``python`` blocks."""
    problems = []
    text = path.read_text()
    for match in _FENCE_PATTERN.finditer(text):
        language, body = match.groups()
        if language != "python" or ">>>" in body:
            continue
        line = text.count("\n", 0, match.start()) + 1
        where = f"{_display(path)}:{line}"
        try:
            tree = ast.parse(body)
        except SyntaxError as exc:
            problems.append(f"{where}: python block does not parse: {exc}")
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in targets:
                problem = _unresolved(module, name)
                if problem:
                    problems.append(f"{where}: {problem}")
    return problems


def run_doctests(path: Path) -> tuple[int, int]:
    """Run the file's ``>>>`` python blocks; returns (failures, tests)."""
    blocks = [
        body
        for language, body in _FENCE_PATTERN.findall(path.read_text())
        if language == "python" and ">>>" in body
    ]
    if not blocks:
        return 0, 0
    parser = doctest.DocTestParser()
    test = parser.get_doctest(
        "\n".join(blocks),
        globs={},
        name=str(path.relative_to(REPO_ROOT)),
        filename=str(path),
        lineno=0,
    )
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    runner.run(test)
    return runner.failures, runner.tries


def main() -> int:
    files = documentation_files()
    link_problems: list[str] = []
    for path in files:
        link_problems.extend(check_links(path))
    for problem in link_problems:
        print(problem)
    import_problems: list[str] = []
    for path in files:
        import_problems.extend(check_imports(path))
    for problem in import_problems:
        print(problem)

    doctest_failures = 0
    total_examples = 0
    for path in files:
        failures, tries = run_doctests(path)
        doctest_failures += failures
        total_examples += tries
        if tries:
            status = "ok" if failures == 0 else f"{failures} FAILED"
            print(f"{path.relative_to(REPO_ROOT)}: {tries} doctest examples, {status}")

    checked = len(files)
    print(
        f"checked {checked} files: "
        f"{len(link_problems)} broken links, "
        f"{len(import_problems)} unresolved imports, "
        f"{doctest_failures}/{total_examples} doctest failures"
    )
    return 1 if (link_problems or import_problems or doctest_failures) else 0


if __name__ == "__main__":
    sys.exit(main())
