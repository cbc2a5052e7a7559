"""The library holds only what it runs.

Every module-level function and every non-dunder method defined in
``src/loom`` must be used somewhere in ``src/loom`` outside its own body
and outside ``__init__.py``.  A use is a loaded ``Name`` that its
enclosing functions do not bind as a parameter or an assignment target;
for a method also any ``Attribute`` of its name, and for a module-level
function only an ``Attribute`` read off an imported module, so a local
variable or ``ext.phi`` does not keep a function ``phi`` alive.  A method
named like an annotated field of some class in ``src/loom`` is used only
by a call ``x.name(...)``, so a read of ``x.scale`` keeps no method
``scale`` alive; a property, which is read and not called, is exempt.  A route
that only the tests reach belongs in a test-side helper such as
``tests/fraction_paths.py``.  The one exemption is a route that
``perfbench/tracer.py`` lists in ``TARGETS``: the tracer wraps it by name,
so cutting it would break ``perfbench/run.py --trace 1``.  ``TARGETS`` is
read with ``ast``, never imported.
"""

import ast
import builtins
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


def _fields(tree):
    """The names of the annotated fields of the classes in tree."""
    return {sub.target.id for node in tree.body if isinstance(node, ast.ClassDef)
            for sub in node.body
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)}


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _imported_modules(tree):
    """The names ``import m`` and ``from . import m`` bind in tree."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and not node.module
            for alias in node.names}


def _uses(tree, modules):
    """Count the uses in tree: ``("name", id)``, ``("attr", attr)``,
    ``("module", attr)`` and ``("call", attr)``.

    A ``Name`` counts when it is loaded and no enclosing function binds it
    as a parameter or an assignment target; every ``Attribute`` counts
    under ``attr``, one read off a name in ``modules`` also under
    ``module``, and one that is called also under ``call``.
    """
    uses = Counter()

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            bound = bound | {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                             + [args.vararg, args.kwarg] if a} | {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Store)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            uses["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses["attr", node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                uses["module", node.attr] += 1
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            uses["call", node.func.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return uses


def unnamed_routes(src=SRC, targets=None):
    """The routes of src used nowhere else in it, as ``loom.module:qualname``."""
    targets = _tracer_targets() if targets is None else targets
    trees = {"loom." + p.stem: ast.parse(p.read_text())
             for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    modules = {module: _imported_modules(tree) for module, tree in trees.items()}
    fields = set().union(*map(_fields, trees.values()))
    total = sum((_uses(tree, modules[module]) for module, tree in trees.items()), Counter())
    out = []
    for module, tree in trees.items():
        for qualname, node in _routes(tree):
            if "." not in qualname:
                kind = "module"
            elif node.name in fields and not _is_property(node):
                kind = "call"
            else:
                kind = "attr"

            def count(uses):
                return uses["name", node.name] + uses[kind, node.name]

            # the uses of a name inside the route's own body do not count
            if (module, qualname) not in targets and count(total) == count(
                    _uses(node, modules[module])):
                out.append("%s:%s" % (module, qualname))
    return out


def test_every_library_route_is_named_in_the_library():
    unnamed = unnamed_routes()
    assert not unnamed, "%d routes named nowhere else in src/loom:\n%s" % (
        len(unnamed), "\n".join(unnamed))


def test_guard_names_unnamed_routes(tmp_path):
    # orphan is named only in __init__.py and K.again only in its own body;
    # b.phi is only bound as a parameter and a local and read off a call's
    # result, so nothing uses it, while reached is read off the module a.
    # V.scale is named like the field Rec.scale and only ever read, never
    # called, so nothing uses it; the property V.size is kept by its read
    (tmp_path / "__init__.py").write_text("from .a import orphan\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def orphan():\n    return used()\n\n"
        "def reached(rec):\n    return rec.scale + rec.size\n\n"
        "class K:\n    def __len__(self):\n        return 0\n\n"
        "    def again(self):\n        return self.again\n\n"
        "class Rec:\n    scale: int\n    size: int\n\n"
        "class V:\n    def scale(self, c):\n        return c\n\n"
        "    @property\n    def size(self):\n        return 0\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n\n"
        "def phi(path):\n    return path\n\n"
        "def h_extrema(path, phi=None):\n    return phi or path\n\n"
        "def lower(path):\n    phi = a.reached(path)\n    return h_extrema(path).phi + phi\n\n"
        "LOWER = lower\n")
    assert unnamed_routes(tmp_path, set()) == [
        "loom.a:orphan", "loom.a:K.again", "loom.a:V.scale", "loom.b:phi"]
    assert unnamed_routes(tmp_path, {("loom.a", "orphan")}) == [
        "loom.a:K.again", "loom.a:V.scale", "loom.b:phi"]
    # a call of the same name keeps the method alive
    (tmp_path / "c.py").write_text("def grow(v):\n    return v.scale(2)\n\nGROW = grow\n")
    assert "loom.a:V.scale" not in unnamed_routes(tmp_path, set())


def exception_classes(src=SRC):
    """The classes of src that derive from ``BaseException``, directly or through each other."""
    bases = {node.name: [ast.unparse(b) for b in node.bases]
             for p in sorted(src.glob("*.py")) for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.ClassDef)}
    found = set()

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        return name in found or isinstance(builtin, type) and issubclass(builtin, BaseException)

    for _ in bases:  # one round per link of the longest chain of subclasses
        found |= {name for name, names in bases.items() if any(map(is_exception, names))}
    return found


def test_one_error_type_per_exit_code():
    # bad input is a plain ValueError (exit 2), a failed self-check a plain
    # ArithmeticError (exit 1), and the node cap the one class of its own (exit 3)
    assert exception_classes() == {"NodeCapError"}


def test_weight_keeps_only_its_name():
    # every sum, multiple and reflection runs on the integer Stretch
    tree = ast.parse((SRC / "cartan.py").read_text())
    weight = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Weight")
    defined = {node.name for node in weight.body if isinstance(node, ast.FunctionDef)}
    assert defined == {"__post_init__", "stretch", "__repr__"}
    # paths imports the integer form, so loom.paths.Stretch keeps working
    assert loom.paths.Stretch is loom.cartan.Stretch
