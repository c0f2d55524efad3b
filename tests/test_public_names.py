"""Every public top-level function and class of the package has a user.

A name counts as used when it appears outside its own definition in the
package, in the acceptance tests or in the benchmark scripts: as a name, an
attribute, an imported name or a whole string (the benchmark tracer names the
functions it wraps as strings). Unit tests do not count, so code that only
they call shows up here.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cfmimo").glob("*.py"))
USERS = PACKAGE + [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def unused_public_names():
    """(module, name) of each public top-level function or class without a user."""
    uses = collections.Counter()
    own = {}  # (path, name) -> uses inside the definition itself
    for path in USERS:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            counted = collections.Counter(_names(stmt))
            uses.update(counted)
            if path in PACKAGE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own[path, stmt.name] = counted[stmt.name]
    return [(path.stem, name) for (path, name), inside in own.items()
            if not name.startswith("_") and uses[name] == inside]


def test_every_public_name_is_used():
    assert unused_public_names() == []
