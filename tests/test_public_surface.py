"""The public surface: every export and method has a caller, and the
README runs.

The package is reached through the command line, the selftest registry,
the benchmark's library calls and the acceptance gate.  Every name a
module lists in ``__all__``, and every public method of a class in the
package, must be read somewhere in the package, in ``benchmarks/`` or in
``tests/test_acceptance.py``, outside its own definition: a name only the
other tests read is a test-only export.
"""

import ast
import contextlib
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


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


class _Reads(ast.NodeVisitor):
    """Names, attributes and identifier strings (the benchmark looks
    functions up by name) a module reads, each with the names of the
    definitions around it and whether it is a bare name; ``__all__``
    lists and imports are skipped."""

    def __init__(self):
        self.scope = ()
        self.found = []

    def _definition(self, node):
        outer, self.scope = self.scope, self.scope + (node.name,)
        self.generic_visit(node)
        self.scope = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Assign(self, node):
        if not _is_all(node):
            self.generic_visit(node)

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.found.append((node.id, self.scope, True))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.found.append((node.attr, self.scope, False))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.found.append((node.value, self.scope, False))


def _exports(tree) -> list:
    for node in tree.body:
        if _is_all(node):
            return [element.value for element in node.value.elts]
    return []


def _methods(tree) -> list:
    """``Class.method`` and method name of every public method."""
    return [
        (f"{node.name}.{item.name}", item.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def _surface():
    """Names read outside their own definitions, the subset read as an
    attribute or a string (a method is never a bare name, and a local
    variable of the same name is no call), the package's ``(module,
    name)`` exports and its ``(module, Class.method, method)`` public
    methods."""
    read = set()
    attributes = set()
    exports = []
    methods = []
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        visitor = _Reads()
        visitor.visit(tree)
        for name, scope, bare in visitor.found:
            if name not in scope:
                read.add(name)
                if not bare:
                    attributes.add(name)
        if PACKAGE in path.parents:
            module = path.relative_to(PACKAGE)
            exports += [(module, name) for name in _exports(tree)]
            methods += [(module, label, name)
                        for label, name in _methods(tree)]
    return read, attributes, exports, methods


def test_every_export_is_read_outside_its_definition():
    read, _, exports, _ = _surface()
    unread = [
        f"{module}: {name}"
        for module, name in exports
        if not name.startswith("__") and name not in read
    ]
    assert exports
    assert unread == []


def test_every_public_method_is_read_outside_its_definition():
    _, attributes, _, methods = _surface()
    unread = [
        f"{module}: {label}"
        for module, label, name in methods
        if name not in attributes
    ]
    assert methods
    assert unread == []


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Python quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "SD\nTrue\n"
