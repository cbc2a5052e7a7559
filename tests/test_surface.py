"""The library holds only what it runs.

Every module-level function and every non-dunder method defined in
``src/loom`` must be named, as a ``Name`` or an ``Attribute``, somewhere
in ``src/loom`` outside its own body and outside ``__init__.py``.  A route
that only the tests reach belongs in a test-side helper such as
``tests/fraction_paths.py``.  The one exemption is a route that
``perfbench/tracer.py`` lists in ``TARGETS``: the tracer wraps it by name,
so cutting it would break ``perfbench/run.py --trace 1``.  ``TARGETS`` is
read with ``ast``, never imported.
"""

import ast
import pathlib
from collections import Counter

import loom.cartan
import loom.paths

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "loom"


def _tracer_targets():
    """``(module, qualified name)`` of every ``TARGETS`` entry of the tracer."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _routes(tree):
    """``(qualified name, node)`` of each module-level function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield "%s.%s" % (node.name, sub.name), sub


def _names(tree):
    """How often each ``Name`` id and ``Attribute`` attr occurs in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def unnamed_routes(src=SRC, targets=None):
    """The routes of src named nowhere else in it, as ``loom.module:qualname``."""
    targets = _tracer_targets() if targets is None else targets
    trees = {"loom." + p.stem: ast.parse(p.read_text())
             for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    total = sum(map(_names, trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualname, node in _routes(tree):
            # the uses of a name inside the route's own body do not count
            if (module, qualname) not in targets and total[node.name] == _names(node)[node.name]:
                out.append("%s:%s" % (module, qualname))
    return out


def test_every_library_route_is_named_in_the_library():
    unnamed = unnamed_routes()
    assert not unnamed, "%d routes named nowhere else in src/loom:\n%s" % (
        len(unnamed), "\n".join(unnamed))


def test_guard_names_unnamed_routes(tmp_path):
    # orphan is named only in __init__.py and K.again only in its own body
    (tmp_path / "__init__.py").write_text("from .a import orphan\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def orphan():\n    return used()\n\n"
        "class K:\n    def __len__(self):\n        return 0\n\n"
        "    def again(self):\n        return self.again\n")
    assert unnamed_routes(tmp_path, set()) == ["loom.a:orphan", "loom.a:K.again"]
    assert unnamed_routes(tmp_path, {("loom.a", "orphan")}) == ["loom.a:K.again"]


def test_weight_keeps_only_its_name():
    # every sum, multiple and reflection runs on the integer Stretch
    tree = ast.parse((SRC / "cartan.py").read_text())
    weight = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Weight")
    defined = {node.name for node in weight.body if isinstance(node, ast.FunctionDef)}
    assert defined == {"__post_init__", "stretch", "__repr__"}
    # paths imports the integer form, so loom.paths.Stretch keeps working
    assert loom.paths.Stretch is loom.cartan.Stretch
