"""Documentation health: intra-repo links resolve, doc examples execute.

Two failure modes rot documentation silently: a renamed file breaks the
links pointing at it, and an API change breaks the fenced examples.  This
module closes both — it is what the CI ``docs`` job runs, and it rides in
tier-1 so breakage is caught before a PR even reaches CI.
"""

from __future__ import annotations

import ast
import doctest
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Markdown files whose links must resolve: everything under docs/ plus the
#: repo-root notes that reference files.
LINKED_DOCS = sorted(REPO_ROOT.glob("docs/*.md")) + [REPO_ROOT / "ROADMAP.md"]

#: Documents whose ``>>>`` examples must execute (the PYTHONPATH=src test
#: environment makes ``repro`` importable, exactly as in CI).
DOCTESTED_DOCS = [
    REPO_ROOT / "docs" / "api.md",
    REPO_ROOT / "docs" / "architecture.md",
    REPO_ROOT / "docs" / "durability.md",
    REPO_ROOT / "docs" / "gateway.md",
    REPO_ROOT / "docs" / "testing.md",
]

#: ``[text](target)`` pairs, ignoring images; fenced code is stripped first.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```.*?```", re.DOTALL)


def intra_repo_links(markdown: str):
    """Every relative (intra-repo) link target in ``markdown``.

    External links (``http(s)://``, ``mailto:``) and pure same-page anchors
    (``#section``) are not intra-repo and are skipped; fenced code blocks
    are stripped so example code cannot register false links.
    """
    prose = _FENCE.sub("", markdown)
    for match in _LINK.finditer(prose):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


@pytest.mark.parametrize("path", LINKED_DOCS, ids=lambda p: p.name)
def test_intra_repo_markdown_links_resolve(path):
    broken = []
    for target in intra_repo_links(path.read_text(encoding="utf-8")):
        relative = target.split("#", 1)[0]  # file.md#anchor -> file.md
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.name} has broken intra-repo links: {broken}"


def test_docs_contain_expected_files():
    """The documentation set this repo promises actually exists."""
    for name in ["api.md", "architecture.md", "durability.md",
                 "gateway.md", "performance.md", "testing.md"]:
        assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} missing"


def _test_targets(text: str):
    """The ``tests/...`` arguments of the first pytest command in ``text``."""
    command = text[text.index("python -m pytest"):]
    return re.findall(r"tests/\S+", command[:command.index(" -q")])


def test_testing_doc_shows_the_ci_chaos_targets():
    """docs/testing.md's chaos command is the CI ``chaos`` job's, target for target."""
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    doc = (REPO_ROOT / "docs" / "testing.md").read_text(encoding="utf-8")
    section = doc[doc.index("## Running the suites"):]
    ci_targets = _test_targets(ci[ci.index("name: Chaos suite"):])
    assert ci_targets, "no chaos targets found in ci.yml"
    assert _test_targets(section) == ci_targets


#: A pytest node cited in prose: ``tests/<file>.py::Class::test`` or ``::function``.
_CITATION = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)+)")


def test_cited_test_nodes_resolve():
    """Every ``tests/…py::Node`` that ``docs/`` or ``ROADMAP.md`` cites names a
    class or function defined there (a method inside the cited class), so
    a renamed test cannot leave its citations pointing at nothing."""
    defined = {}
    broken = []
    cited = 0
    for doc in LINKED_DOCS:
        for path, node in _CITATION.findall(doc.read_text(encoding="utf-8")):
            cited += 1
            if path not in defined:
                source = REPO_ROOT / path
                defined[path] = ast.parse(source.read_text(encoding="utf-8")) \
                    if source.is_file() else None
            scope = defined[path]
            for name in node.split("::")[1:]:
                scope = next((child for child in getattr(scope, "body", ())
                              if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                              and child.name == name), None)
            if scope is None:
                broken.append(f"{doc.name}: {path}{node}")
    assert cited >= 50, f"only {cited} citations found; is the pattern stale?"
    assert not broken, f"citations that resolve to nothing: {broken}"


@pytest.mark.parametrize("path", DOCTESTED_DOCS, ids=lambda p: p.name)
def test_doc_examples_execute(path):
    """Run every ``>>>`` example in the document, as ``python -m doctest`` would."""
    failures, tests = doctest.testfile(
        str(path), module_relative=False, verbose=False,
        optionflags=doctest.ELLIPSIS,
    )
    assert tests > 0, f"{path.name} has no doctest examples; add at least one"
    assert failures == 0, f"{path.name}: {failures} of {tests} doc examples failed"
