"""Every definition in ``src/ppring`` has a caller in ``src/ppring``.

The test parses each module with ``ast`` and collects its module-level
functions and classes and the methods of those classes, dunder methods
aside.  A definition is called when its name appears somewhere in the
package as a loaded ``Name`` or ``Attribute``, outside the definition's own
body; an ``import`` line, such as a re-export in ``__init__.py``, is not a
load.  A name with no such load is code that only the tests reach.

The scan goes by name, not by object, so it cannot see a method whose name
is also loaded for something else.  A dead ``Permutation.order`` or
``FqField.sub`` would pass, since every group has an ``order`` attribute and
``sub`` is a local name in ``ppelem``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ppring"

# definitions kept without a caller in the package, each with its reason
ALLOWED = {
    "clear_caches": "the library's one call that empties every memo, for its callers",
    "verify_E_decomposition": "covers only H = G; kept until a check of every H replaces it",
}


def definitions(tree):
    """(qualified name, node) of each module-level function and class, and
    of each non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def loads(tree):
    """(name, line) of each loaded Name and Attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def uncalled(src):
    """(``module:qualified name``, name) of each definition in the package
    at ``src`` whose name is loaded nowhere outside its own body."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = {}
    for module, tree in trees.items():
        for name, line in loads(tree):
            used.setdefault(name, []).append((module, line))
    out = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            outside = [(m, line) for m, line in used.get(node.name, ())
                       if not (m == module and node.lineno <= line <= node.end_lineno)]
            if not outside:
                out.append((f"{module}:{qualname}", node.name))
    return out


def test_every_definition_has_a_caller_in_the_package():
    found = uncalled(SRC)
    dead = [entry for entry, name in found if name not in ALLOWED]
    assert not dead, f"defined in src/ppring but called only from outside it: {dead}"
    # an allowed name that gains a caller leaves the list
    assert sorted(name for _, name in found) == sorted(ALLOWED)
