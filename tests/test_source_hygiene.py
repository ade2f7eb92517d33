"""Source hygiene: every name defined in ccalab is reached, and no import idles.

A module-level function or class counts as reached when some other
top-level statement in `src/ccalab` or `bench/` names it: as a name, an
attribute, an import, or a string constant that is wholly an identifier
or a dotted path (the bench tracer names its spans so, as in
"Subspace.insert"); prose strings and docstrings do not count.  A click
command is reached through its decorator.  Neither tests nor the package
exports in `__init__.py` count: a definition only they name is one no
report, CLI command, suite or bench item reaches.  A method of a class in
`src/ccalab` is reached only through attribute access or such a path,
from outside its class or from its other members; a local variable or a
function of the same name does not reach it.  Dunder methods are exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ccalab"
BENCH = ROOT / "bench"

# s2_equals_B_test waits to back the `s2.hull-is-B` entry (ROADMAP item 8).
ALLOWED_UNREACHED = {"s2_equals_B_test"}

_PATH = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_docstring(node):
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _names_in(node, attributes_only=False):
    """Every identifier a statement mentions, docstrings aside.

    Attribute names and the parts of identifier or dotted-path strings
    always count; names and imports only without attributes_only.  A string
    standing alone as a statement is a docstring (of a module, class or
    function) and mentions nothing.
    """
    docstrings = {id(sub.value) for sub in ast.walk(node) if _is_docstring(sub)}
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if id(sub) not in docstrings and _PATH.fullmatch(sub.value):
                out.update(sub.value.split("."))
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
    return out


def _is_click_command(node):
    for dec in getattr(node, "decorator_list", ()):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _mentions(attributes_only=False):
    """The names each top-level statement of src and bench mentions, keyed by (path, index)."""
    mentions = {}
    files = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files:
        if path == SRC / "__init__.py":  # an export alone reaches nothing
            continue
        for i, node in enumerate(_parse(path).body):
            mentions[(path, i)] = _names_in(node, attributes_only)
    return mentions


def test_every_top_level_definition_is_reached():
    mentions = _mentions()
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for i, node in enumerate(_parse(path).body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in ALLOWED_UNREACHED or _is_click_command(node):
                continue
            if not any(
                node.name in names for key, names in mentions.items() if key != (path, i)
            ):
                unreached.append(f"{path.name}:{node.name}")
    assert not unreached, f"reached by nothing outside their own definition: {unreached}"


def test_every_method_is_reached():
    mentions = _mentions(attributes_only=True)
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for i, node in enumerate(_parse(path).body):
            if not isinstance(node, ast.ClassDef):
                continue
            outside = set().union(*(names for key, names in mentions.items() if key != (path, i)))
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name.startswith("__") and member.name.endswith("__"):
                    continue
                siblings = set().union(
                    *(_names_in(m, attributes_only=True) for m in node.body if m is not member)
                )
                if member.name not in outside | siblings:
                    unreached.append(f"{path.name}:{node.name}.{member.name}")
    assert not unreached, f"reached by nothing outside their own definition: {unreached}"


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package exports
            continue
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{bound}")
    assert not unused, f"imported but never used: {unused}"
