"""Every top-level def in ``src/hopfact``, and every method of a reached
class, is reached from a command, a load, the fixture tool or a bench job,
and every module-level import is used.

The walk is by name over the AST.  Its roots are every name that ``cli.py``,
``workspace.py`` and ``fixtures.py`` define or reference, every name that
module-level code in ``src/hopfact`` references (it runs on import), and
every word of ``bench/*.py``, since the bench tracer names the functions it
wraps in strings.  Dunder defs are reached, since Python calls them (a
module ``__getattr__``, ``__init__``).  A reached function adds every name
its body references.  A reached class adds the names of its bases,
decorators and class-level statements; each of its methods is reached only
once reached code references the method's name, and then adds the names in
its body.  Tests and the ``__init__`` export table are not roots: code that
only they reach is library-only code.
"""

import ast
import glob
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.join(HERE, os.pardir, "src", "hopfact")
BENCH = os.path.join(HERE, os.pardir, "bench")
ROOT_MODULES = ("cli", "workspace", "fixtures")

# ROADMAP item 7 wires these into verify_strat_bijection next: the coefficient
# Hopf subalgebra of an action, certified by verify_sub_hopf.  The two methods
# are reached only from those three defs.
UNREACHED_ALLOWED = {"matrix_coefficients", "coefficient_subalgebra", "verify_sub_hopf",
                     "HopfAlgebra.s_apply", "Subspace.to_matrix"}
# bench/tests/test_tracer.py pins convolution's unused kernel import.
UNUSED_IMPORT_ALLOWED = {("convolution", "kernel")}


def _modules(pkg=PKG):
    out = {}
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        with open(path) as fh:
            out[os.path.splitext(os.path.basename(path))[0]] = ast.parse(fh.read())
    return out


def _names(node):
    """Every identifier a node references: bare names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_method(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _class_names(node):
    """The names a reached class references outside its methods."""
    parts = node.bases + node.keywords + node.decorator_list
    parts += [stmt for stmt in node.body if not _is_method(stmt)]
    return set().union(*map(_names, parts))


def unreached(pkg=PKG, bench=BENCH):
    """Sorted ``module.name`` of the top-level defs and ``module.Class.name``
    of the methods of reached classes that no root reaches."""
    modules = _modules(pkg)
    defs = {}                      # name -> the top-level def nodes of that name
    methods = {}                   # name -> (class, method) nodes of that name
    seen = set()
    for mod, tree in modules.items():
        for node in tree.body:
            if _is_def(node):
                defs.setdefault(node.name, []).append(node)
                if mod in ROOT_MODULES or node.name.startswith("__"):
                    seen.add(node.name)
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if _is_method(sub):
                            methods.setdefault(sub.name, []).append((node, sub))
            elif mod != "__init__" and not isinstance(node, (ast.Import, ast.ImportFrom)):
                seen |= _names(node)
        if mod in ROOT_MODULES:
            seen |= _names(tree)
    for path in glob.glob(os.path.join(bench, "*.py")):
        with open(path) as fh:
            seen |= set(re.findall(r"\w+", fh.read()))
    reached = set()                # ids of the reached def and method nodes
    todo = list(seen)

    def reach(node, names):
        reached.add(id(node))
        for name in names - seen:
            seen.add(name)
            todo.append(name)

    while todo:
        name = todo.pop()
        for node in defs.get(name, []):
            if id(node) in reached:
                continue
            if not isinstance(node, ast.ClassDef):
                reach(node, _names(node))
                continue
            reach(node, _class_names(node))
            for sub in node.body:
                if _is_method(sub) and (sub.name in seen or sub.name.startswith("__")):
                    reach(sub, _names(sub))
        for cls, sub in methods.get(name, []):
            if id(cls) in reached and id(sub) not in reached:
                reach(sub, _names(sub))
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not _is_def(node):
                continue
            if id(node) not in reached:
                out.append(f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                out += [f"{mod}.{node.name}.{sub.name}" for sub in node.body
                        if _is_method(sub) and id(sub) not in reached]
    return sorted(out)


def unused_imports(pkg=PKG):
    """Sorted ``(module, name)`` of module-level imports the module never uses."""
    out = []
    for mod, tree in _modules(pkg).items():
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        out.append((mod, name))
    return sorted(out)


def test_every_def_is_reached():
    left = [qual for qual in unreached()
            if qual.split(".", 1)[1] not in UNREACHED_ALLOWED]
    assert not left, f"reached by no command, load, fixture tool or bench job: {left}"


def test_allowed_unreached_defs_still_exist():
    # An exception that names nothing would hide a rename.
    defined = set()
    for tree in _modules().values():
        for node in tree.body:
            if _is_def(node):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined |= {f"{node.name}.{sub.name}" for sub in node.body if _is_method(sub)}
    assert UNREACHED_ALLOWED <= defined


def test_no_unused_module_imports():
    left = [pair for pair in unused_imports() if pair not in UNUSED_IMPORT_ALLOWED]
    assert not left, f"unused module-level imports: {left}"
    assert set(UNUSED_IMPORT_ALLOWED) <= set(unused_imports())
