"""Every definition under src/mvspoly is reached from a program path.

An AST walk of the package, `scripts/` and `perfbench/*.py` (the tests are
not roots).  A top-level function or class of module m is reached by a Name
load in m or in a file that imports it from m, or by an Attribute load
`X.name` where X is module m (by alias or as the last link of a chain such
as `mv.poly`).  A non-dunder method is reached by an Attribute load of its
name on anything.  Loads inside a definition count only once that
definition is itself reached, so code that only dead code calls is dead
too; loads at module level, in the scripts and in perfbench are the roots.

A module-level import in a package module other than `__init__.py` must be
loaded somewhere in that module: a name imported and never read is dead
too.

A package module loads a single-underscore attribute only on `self`, on
`cls` or on a class it defines: no module reads another's private names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mvspoly"


def _module_files():
    yield from ((p.stem, p) for p in sorted(PACKAGE.glob("*.py")))
    for p in sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        yield None, p


def _definitions(module, tree):
    """(key, node) per tracked definition: (module, name) for top-level
    functions and classes, (None, name) for non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield (module, node.name), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield (None, item.name), item


def _aliases(tree, modules):
    """Local name -> package module, and imported function name -> module."""
    mods, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            src = node.module or ""
            if not node.level:
                if not src.startswith("mvspoly"):
                    continue
                src = src[len("mvspoly"):].lstrip(".")
            for a in node.names:
                if not src and a.name in modules:
                    mods[a.asname or a.name] = a.name
                elif src in modules:
                    names[a.asname or a.name] = src
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "mvspoly" and len(parts) == 2 and a.asname:
                    mods[a.asname] = parts[1]
    return mods, names


def _loads(module, tree, mods, names, modules):
    """(owner, targets) per load; owner is the tracked definition the load
    sits in, or None at module level."""
    out = []

    def targets(node):
        if isinstance(node, ast.Name):
            if module is not None:
                yield (module, node.id)
            if node.id in names:
                yield (names[node.id], node.id)
        elif isinstance(node, ast.Attribute):
            yield (None, node.attr)
            v = node.value
            last = v.id if isinstance(v, ast.Name) else v.attr if isinstance(v, ast.Attribute) else None
            if last in mods:
                yield (mods[last], node.attr)
            elif last in modules and not isinstance(v, ast.Name):
                yield (last, node.attr)

    def visit(node, owner, depth):
        for child in ast.iter_child_nodes(node):
            own = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if depth == 0:
                    own = (module, child.name) if module is not None else None
                elif depth == 1 and isinstance(node, ast.ClassDef) and module is not None:
                    if not (child.name.startswith("__") and child.name.endswith("__")):
                        own = (None, child.name)
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
                out.append((own, tuple(targets(child))))
            visit(child, own, depth + 1 if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                  else depth)

    visit(tree, None, 0)
    return out


def unreached():
    files = list(_module_files())
    modules = {m for m, _ in files if m is not None}
    defined = {}
    loads = []
    for module, path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        if module is not None:
            for key, node in _definitions(module, tree):
                defined.setdefault(key, f"{module}.{node.name}" if key[0] else
                                   f"{module}: method {node.name}")
        mods, names = _aliases(tree, modules)
        loads += _loads(module, tree, mods, names, modules)
    live = set()
    while True:
        grown = {t for owner, ts in loads if owner is None or owner in live
                 for t in ts if t in defined} - live
        if not grown:
            break
        live |= grown
    return sorted(defined[k] for k in defined.keys() - live)


def test_every_definition_is_reached_from_a_program_path():
    assert unreached() == []


def unloaded_imports():
    """"module: name" per module-level import of a package module, other
    than `__init__.py` and `from __future__`, whose name the module never
    loads."""
    out = []
    for module, path in _module_files():
        if module in (None, "__init__"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                out += [f"{module}: {name}" for a in node.names
                        if (name := a.asname or a.name.split(".")[0]) not in loaded]
    return out


def test_every_module_import_is_loaded():
    assert unloaded_imports() == []


def private_reads():
    """"module.py:line: X.name" per load of a single-underscore attribute in a
    package module whose owner X is not `self`, `cls` or a class defined in
    that module: one module's private names are not read by another."""
    out = []
    for module, path in _module_files():
        if module is None:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {"self", "cls"} | {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                    and n.attr.startswith("_") and not n.attr.startswith("__")
                    and not (isinstance(n.value, ast.Name) and n.value.id in own)):
                out.append(f"{path.name}:{n.lineno}: {ast.unparse(n)}")
    return sorted(out)


def test_no_module_reads_another_modules_private_names():
    assert private_reads() == []
