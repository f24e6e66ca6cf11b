"""Every module-level function and class in ``src/repro`` has a product caller.

A name counts as called when something other than the test suites names
it, in code or in a string: code under ``src/`` (its own ``def``/``class``
line and package ``__init__`` re-exports do not count), ``bench/``,
``examples/``, the CI workflows or README.md.  A name only ``tests/`` or
``benchmarks/`` reach is either dead or a test oracle, and oracles live
under ``tests/``.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Names kept although only tests call them, each with its reason.
ALLOWED = {
    "clear_cache": "tests reset the dataset cache between cases",
    "clear_hash_cache": "tests reset the embedder's term-hash memo",
    "hash_cache_size": "tests check the embedder's term-hash memo stays bounded",
    "serialize_record": "the §3.3 record serializer the format tests drive",
    "serialize_attribute": "the §3.3 attribute serializer the format tests drive",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_uses(tree: ast.Module, package_init: bool) -> Counter:
    """Identifiers a module names in code or strings, minus re-exports."""
    exported: set[int] = set()
    if package_init:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(id(n) for n in ast.walk(node.value))
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias) and not package_init:
            uses[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in exported:
                uses.update(_WORD.findall(node.value))
    return uses


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.cache
def _scan() -> tuple[list[str], Counter]:
    """Module-level functions and classes under src/repro, and every use."""
    definitions: list[str] = []
    uses: Counter = Counter()
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        definitions += [
            f"{module}.{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        uses.update(_python_uses(tree, path.name == "__init__.py"))
    texts = [ROOT / "README.md", *sorted((ROOT / ".github" / "workflows").glob("*.yml"))]
    for folder in ("bench", "examples"):
        for path in sorted((ROOT / folder).rglob("*")):
            if path.suffix == ".py":
                uses.update(_python_uses(_parse(path), package_init=False))
            elif path.suffix in {".md", ".yaml", ".yml", ".json"}:
                texts.append(path)
    for path in texts:
        uses.update(_WORD.findall(path.read_text(encoding="utf-8")))
    return definitions, uses


def test_every_src_name_has_a_product_caller():
    definitions, uses = _scan()
    uncalled = [
        qualified for qualified in definitions
        if not uses[qualified.rsplit(".", 1)[1]]
        and qualified.rsplit(".", 1)[1] not in ALLOWED
    ]
    assert not uncalled, (
        "only tests call these; delete them or move them under tests/: "
        + ", ".join(uncalled)
    )


def test_allowlist_is_short_and_live():
    definitions, __ = _scan()
    defined = {qualified.rsplit(".", 1)[1] for qualified in definitions}
    assert len(ALLOWED) <= 5
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
