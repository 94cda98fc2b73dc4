"""The public surface: every export, method and parameter has a reader,
every import is used, and the README runs.

The package is reached through the command line, the selftest registry,
the benchmark's library calls and the acceptance gate.  Every name a
module lists in ``__all__``, and every public method of a class in the
package, must be read somewhere in the package, in ``benchmarks/`` or in
``tests/test_acceptance.py``, outside its own definition: a name only the
other tests read is a test-only export.  A method whose name sits on
more than one package class is read only where the receiver resolves to
its class.
"""

import ast
import contextlib
import functools
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "artifact"
CALLERS = (
    sorted(PACKAGE.rglob("*.py"))
    + sorted((ROOT / "benchmarks").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)
SOURCES = (
    sorted(PACKAGE.rglob("*.py"))
    + sorted((ROOT / "benchmarks").rglob("*.py"))
    + sorted((ROOT / "tests").rglob("*.py"))
)

# Shared-name methods whose every read has a receiver that no annotation
# or binding resolves: (file, enclosing function, reason)
UNRESOLVED_READERS: dict = {}

# Parameters that no code reads, each kept for its callers
KEPT_PARAMETERS = {
    ("form_decomposition.py", "bidegree_split", "model"):
        "the benchmark's library_batch calls bidegree_split(form, model) "
        "positionally, as it calls project",
    ("weitzenbock_engine.py", "vanishing_report", "model"):
        "the benchmark's library_batch calls "
        "vanishing_report(form, ricci, model) positionally",
}
# registry signatures: every command handler and selftest suite takes
# the same arguments, whether it reads them or not
KEPT_PARAMETER_PREFIXES = ("_cmd_", "_suite_")


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _parameters(node) -> list:
    args = node.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    return [arg.arg for arg in named + [args.vararg, args.kwarg] if arg]


def _annotated_class(annotation, classes):
    """The package class an annotation names: ``C``, ``"C"``,
    ``module.C`` or ``C | None``; ``None`` for anything else."""
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        sides = [annotation.left, annotation.right]
        names = [s for s in sides
                 if not (isinstance(s, ast.Constant) and s.value is None)]
        return _annotated_class(names[0], classes) if len(names) == 1 else None
    if isinstance(annotation, ast.Constant):
        name = annotation.value
    elif isinstance(annotation, ast.Name):
        name = annotation.id
    elif isinstance(annotation, ast.Attribute):
        name = annotation.attr
    else:
        return None
    return name if name in classes else None


class _Types:
    """What the package's annotations say: the class each module-level
    function returns, and per class the class of each field and property
    and the class each method returns."""

    def __init__(self, trees):
        self.classes = {
            node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        self.functions = {}
        self.attributes = {name: {} for name in self.classes}
        self.returns = {name: {} for name in self.classes}
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self._bind(self.functions, node.name, node.returns)
                elif isinstance(node, ast.ClassDef):
                    self._members(node)

    def _bind(self, table, name, annotation):
        cls = _annotated_class(annotation, self.classes)
        # a name two modules define with different classes resolves to none
        table[name] = cls if table.get(name, cls) == cls else None

    def _members(self, node):
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                self._bind(self.attributes[node.name], item.target.id,
                           item.annotation)
            elif isinstance(item, ast.FunctionDef):
                properties = any(
                    isinstance(d, ast.Name) and d.id == "property"
                    for d in item.decorator_list
                )
                table = self.attributes if properties else self.returns
                self._bind(table[node.name], item.name, item.returns)

    def of(self, node, env, owner):
        """The package class of an expression's value, or ``None``."""
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls"):
                return owner
            if node.id in self.classes:
                return node.id
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in self.classes:
                return node.attr
            receiver = self.of(node.value, env, owner)
            return self.attributes.get(receiver, {}).get(node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in self.classes:
                    return func.id
                return self.functions.get(func.id)
            if isinstance(func, ast.Attribute):
                if func.attr in self.classes:
                    return func.attr
                receiver = self.of(func.value, env, owner)
                return self.returns.get(receiver, {}).get(func.attr)
        return None


def _own_nodes(scope):
    """Nodes of a module or function body, not entering nested
    function or class bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop(0)
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _environment(scope, outer, types, owner) -> dict:
    """Class of each name a scope binds, on top of the enclosing scope's:
    annotated parameters, and assignments of a constructor, an annotated
    call or another resolved value.  A name bound any other way, or to
    two classes, resolves to ``None``."""
    env = dict(outer)
    bound = {}

    def bind(name, cls):
        bound[name] = cls if bound.get(name, cls) == cls else None
        env[name] = bound[name]

    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            bind(arg.arg, _annotated_class(arg.annotation, types.classes))
        for arg in (args.vararg, args.kwarg):
            if arg:
                bind(arg.arg, None)
    typed = set()
    for node in _own_nodes(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            typed.add(node.targets[0])
            bind(node.targets[0].id, types.of(node.value, env, owner))
        elif isinstance(node, ast.Name) and not isinstance(
            node.ctx, ast.Load
        ) and node not in typed:
            bind(node.id, None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bind(node.name, None)
    return env


class _Reads(ast.NodeVisitor):
    """Names, attributes and identifier strings (the benchmark looks
    functions up by name) a module reads, each with the names of the
    definitions around it, whether it is a bare name and the package
    class its receiver resolves to; ``__all__`` lists and imports are
    skipped.  Also records each function's parameters that no code in
    the function reads."""

    def __init__(self, types, tree):
        self.types = types
        self.scope = ()
        self.owner = None
        self.env = _environment(tree, {}, types, None)
        self.found = []
        self.unread = []

    def _definition(self, node):
        saved = self.scope, self.owner, self.env
        self.scope = self.scope + (node.name,)
        start = len(self.found)
        if isinstance(node, ast.ClassDef):
            self.owner = node.name
        else:
            self.env = _environment(node, self.env, self.types, self.owner)
        self.generic_visit(node)
        if not isinstance(node, ast.ClassDef):
            read = {name for name, _, bare, _ in self.found[start:] if bare}
            self.unread += [(node.name, name) for name in _parameters(node)
                            if name not in read and name not in
                            ("self", "cls")]
        self.scope, self.owner, self.env = saved

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Assign(self, node):
        if not _is_all(node):
            self.generic_visit(node)

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.found.append((node.id, self.scope, True, None))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            owner = self.types.of(node.value, self.env, self.owner)
            self.found.append((node.attr, self.scope, False, owner))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.found.append((node.value, self.scope, False, None))


def _exports(tree) -> list:
    for node in tree.body:
        if _is_all(node):
            return [element.value for element in node.value.elts]
    return []


def _methods(tree) -> list:
    """``(Class, method)`` of every public method."""
    return [
        (node.name, item.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


@functools.cache
def _surface():
    """What the callers read and what the package defines.

    ``read`` holds the names read outside their own definitions;
    ``attributes`` the subset read as an attribute or a string (a method
    is never a bare name, and a local variable of the same name is no
    call); ``owned`` the ``(Class, name)`` pairs of attribute reads whose
    receiver resolves; ``unowned`` the ``(file, function, name)`` of
    those that do not.  ``exports`` lists the package's ``(module,
    name)`` exports, ``methods`` its ``(module, Class, method)`` public
    methods and ``unread`` its ``(module, function, parameter)``
    parameters that no code reads."""
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    types = _Types([tree for path, tree in trees.items()
                    if PACKAGE in path.parents])
    surface = {key: set() for key in
               ("read", "attributes", "owned", "unowned")}
    surface.update(exports=[], methods=[], unread=[])
    for path, tree in trees.items():
        visitor = _Reads(types, tree)
        visitor.visit(tree)
        for name, scope, bare, owner in visitor.found:
            if name in scope:
                continue
            surface["read"].add(name)
            if bare:
                continue
            surface["attributes"].add(name)
            if owner:
                surface["owned"].add((owner, name))
            else:
                caller = str(path.relative_to(ROOT))
                for function in scope:
                    surface["unowned"].add((caller, function, name))
        if PACKAGE in path.parents:
            module = path.relative_to(PACKAGE)
            surface["exports"] += [(module, name) for name in _exports(tree)]
            surface["methods"] += [(module, cls, name)
                                   for cls, name in _methods(tree)]
            surface["unread"] += [(path.name, function, name)
                                  for function, name in visitor.unread]
    return surface


def test_every_export_is_read_outside_its_definition():
    surface = _surface()
    unread = [
        f"{module}: {name}"
        for module, name in surface["exports"]
        if not name.startswith("__") and name not in surface["read"]
    ]
    assert surface["exports"]
    assert unread == []


def test_every_public_method_is_read_outside_its_definition():
    surface = _surface()
    classes_of = {}
    for _, cls, name in surface["methods"]:
        classes_of.setdefault(name, set()).add(cls)
    unread = []
    for module, cls, name in surface["methods"]:
        label = f"{cls}.{name}"
        if len(classes_of[name]) == 1:
            found = name in surface["attributes"]
        else:
            found = (cls, name) in surface["owned"] or (
                label in UNRESOLVED_READERS
            )
        if not found:
            unread.append(f"{module}: {label}")
    assert surface["methods"]
    assert unread == []
    # each listed method is still read, and only without a resolved owner
    for label, (caller, function, _) in UNRESOLVED_READERS.items():
        cls, name = label.split(".")
        assert (cls, name) not in surface["owned"], label
        assert (caller, function, name) in surface["unowned"], label


def test_every_parameter_is_read():
    found = _surface()["unread"]
    unread = [
        entry for entry in found
        if entry not in KEPT_PARAMETERS
        and not entry[1].startswith(KEPT_PARAMETER_PREFIXES)
    ]
    assert unread == []
    assert set(KEPT_PARAMETERS) <= set(found)


def _imports(tree, lines) -> dict:
    """Line of each name a module imports, except ``__future__``
    features and names marked ``# noqa: F401``."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    found[name] = alias.lineno
    return found


def test_every_import_is_read():
    unused = []
    for path in SOURCES:
        source = path.read_text()
        tree = ast.parse(source)
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        read.update(_exports(tree))
        unused += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in _imports(tree, source.splitlines()).items()
            if name not in read
        ]
    assert unused == []


def test_declared_numpy_floor_covers_the_calls():
    # np.vecdot is new in NumPy 2.0; Python 3.10 has no tomllib, so the
    # declared floor is read from pyproject.toml by pattern
    declared = re.search(
        r'"numpy>=(\d+)\.(\d+)', (ROOT / "pyproject.toml").read_text()
    )
    assert declared
    floor = (int(declared[1]), int(declared[2]))
    calls = [path.name for path in PACKAGE.rglob("*.py")
             if "np.vecdot(" in path.read_text()]
    assert calls
    assert floor >= (2, 0), calls


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Python quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "SD\nTrue\n"
