"""Every definition, attribute and parameter default in ``src/ppring`` is
used by ``src/ppring`` itself.

The test parses each module with ``ast`` and checks three things.

- Each module-level function and class, and each method of those classes
  (dunder methods aside), has its name loaded somewhere in the package as a
  ``Name`` or ``Attribute``, outside the definition's own body.  An
  ``import`` line, such as a re-export in ``__init__.py``, is not a load.
- Each attribute that a class names in ``__slots__`` or stores on ``self``
  is loaded as an ``Attribute`` somewhere in the package.
- Each parameter with a default, of a module-level function or a method, is
  set by some call in the package: positionally or by keyword, to a callable
  of that name (a class name for ``__init__``).  A call with ``*args`` or
  ``**kwargs`` counts as setting every parameter it could reach.

A name with no such use is code, state or an option that only the tests
reach.  The scan goes by name, not by object, so it cannot see a method or
attribute whose name is also loaded for something else: a dead
``Permutation.order`` or ``FqField.sub`` would pass, since every group has
an ``order`` attribute and ``sub`` is a local name in ``ppelem``.
``tests/reach_scan.py`` covers that blind spot by running the command line
and recording which functions are entered.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ppring"

# definitions kept without a caller in the package, each with its reason
ALLOWED = {
    "clear_caches": "the library's one call that empties every memo, for its callers",
    "verify_E_decomposition": "covers only H = G; kept until a check of every H replaces it",
}

# parameter defaults that no call in the package overrides, each with its reason
ALLOWED_PARAMETERS = {
    "main.argv": "entry calls main() so that it reads sys.argv; tests pass argv",
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


def parse(src):
    return {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def uncalled(src):
    """(``module:qualified name``, name) of each definition in the package
    at ``src`` whose name is loaded nowhere outside its own body."""
    trees = parse(src)
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


def attributes(cls):
    """Each attribute the class names in ``__slots__`` or stores on ``self``."""
    names = set()
    for item in cls.body:
        if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
            names.update(elt.value for elt in item.value.elts)
        elif isinstance(item, ast.FunctionDef):
            names.update(node.attr for node in ast.walk(item)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name) and node.value.id == "self")
    return names


def unread(src):
    """``module:class.attribute`` of each attribute of a class in the
    package at ``src`` that is never loaded as an ``Attribute``."""
    trees = parse(src)
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}:{node.name}.{name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef)
            for name in sorted(attributes(node)) if name not in read]


def functions(tree):
    """(qualified name, callable names, node, whether the first parameter is
    bound) of each module-level function and method; ``__init__`` is called
    through its class name or through ``cls``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, {node.name}, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                names = {node.name, "cls"} if item.name == "__init__" else {item.name}
                yield f"{node.name}.{item.name}", names, item, not static


def defaulted(fn, bound):
    """(parameter, position in a call or None) of each parameter of the
    function with a default; keyword-only parameters have no position."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def unset(src):
    """(``module:qualified name.parameter``, ``function.parameter``) of each
    parameter default in the package at ``src`` that no call in the package
    overrides."""
    trees = parse(src)
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call, param, position):
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        if position is None:
            return False
        return (len(call.args) > position
                or any(isinstance(arg, ast.Starred) for arg in call.args))

    out = []
    for module, tree in trees.items():
        for qualname, names, fn, bound in functions(tree):
            for param, position in defaulted(fn, bound):
                if not any(sets(call, param, position)
                           for name in names for call in calls.get(name, ())):
                    out.append((f"{module}:{qualname}.{param}", f"{fn.name}.{param}"))
    return out


def test_every_definition_has_a_caller_in_the_package():
    found = uncalled(SRC)
    dead = [entry for entry, name in found if name not in ALLOWED]
    assert not dead, f"defined in src/ppring but called only from outside it: {dead}"
    # an allowed name that gains a caller leaves the list
    assert sorted(name for _, name in found) == sorted(ALLOWED)


def test_every_attribute_is_read_in_the_package():
    found = unread(SRC)
    assert not found, f"stored in src/ppring but read only from outside it: {found}"


def test_every_parameter_default_is_overridden_in_the_package():
    found = unset(SRC)
    dead = [entry for entry, name in found if name not in ALLOWED_PARAMETERS]
    assert not dead, f"a default that only callers outside src/ppring override: {dead}"
    # an allowed parameter that gains a caller leaves the list
    assert sorted(name for _, name in found) == sorted(ALLOWED_PARAMETERS)
