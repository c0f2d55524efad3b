"""Every part of the package's interface has a user outside the unit tests.

Uses are counted in the package, in the acceptance tests and in the benchmark
scripts; unit tests do not count, so code that only they need shows up here.
Three rules:

- Every public top-level function, class and constant is named outside its
  own definition: as a name, an attribute, an imported name or a whole string
  (the benchmark tracer names the functions it wraps as strings).
- Every dataclass field is read: as an attribute in a load, or as a whole
  string (`getattr` and the tracer's counters name fields that way).
- Every defaulted parameter of a function or method is passed by some call of
  a function of that name: by keyword, by position, or through `*args` or
  `**kwargs`.

Names are matched by spelling alone, so a field or parameter that shares its
name with something in use (`.max`, `.kind`, `"psi"`) passes unseen.
"""

import ast
import collections
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cfmimo").glob("*.py"))
USERS = PACKAGE + [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}


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
    """(module, name) of each public top-level function, class or constant
    without a user."""
    uses = collections.Counter()
    own = {}  # (path, name) -> uses inside the definition itself
    for path, tree in TREES.items():
        for stmt in tree.body:
            counted = collections.Counter(_names(stmt))
            uses.update(counted)
            if path not in PACKAGE:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own[path, stmt.name] = counted[stmt.name]
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        own[path, target.id] = counted[target.id]
    return [(path.stem, name) for (path, name), inside in own.items()
            if not name.startswith("_") and uses[name] == inside]


def _dataclasses():
    for path in PACKAGE:
        for node in ast.walk(TREES[path]):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in _names(d) for d in node.decorator_list):
                yield node


def unread_fields():
    """(class, field) of each dataclass field that nothing reads."""
    reads = set()
    for tree in TREES.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                reads.add(sub.value)
    return [(cls.name, stmt.target.id) for cls in _dataclasses() for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in reads]


def _functions(tree):
    """Each function under tree, with the number of its leading parameters
    that a call does not spell out: 1 (`self`) for a method, else 0."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            yield fn, int(id(fn) in methods)


def unpassed_parameters():
    """(function, parameter) of each defaulted parameter that no call passes."""
    positional = collections.defaultdict(int)  # callee name -> most positionals passed
    keywords = collections.defaultdict(set)    # callee name -> keywords passed
    for tree in TREES.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            positional[name] = max(positional[name], math.inf if starred else len(call.args))
            keywords[name].update(kw.arg for kw in call.keywords)
    out = []
    for path in PACKAGE:
        for fn, first in _functions(TREES[path]):
            args = fn.args
            params = args.posonlyargs + args.args
            defaulted = [(i, a.arg) for i, a in enumerate(params)][len(params) - len(args.defaults):]
            defaulted += [(math.inf, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for i, arg in defaulted:
                kws = keywords[fn.name]
                if arg not in kws and None not in kws and positional[fn.name] <= i - first:
                    out.append((fn.name, arg))
    return out


def test_every_public_name_is_used():
    assert unused_public_names() == []


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters() == []
