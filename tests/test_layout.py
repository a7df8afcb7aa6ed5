"""The package is an acyclic import stack, and every import of a package
module sits at module level, where the stack can be read off the file. The
independent references the tests check the package against import nothing
from it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "visemekit"
REFERENCES = [ROOT / "tests" / "oracles.py", ROOT / "tools" / "bruteforce_weights.py"]
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _targets(node):
    """Package modules named by one import statement, relative or absolute."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("visemekit.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 1:
        module = node.module
    elif node.level == 0 and (node.module or "").split(".")[0] == "visemekit":
        module = node.module.partition(".")[2]
    else:
        return []
    if module:
        return [module.split(".")[0]]
    return [alias.name for alias in node.names]


def _package_imports(tree):
    """(imported module, enclosing function or None) for every import of a
    package module at any depth of the tree."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        found.extend((target, function) for target in _targets(node) if target in MODULES)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _graph():
    return {
        name: _package_imports(ast.parse((PACKAGE / f"{name}.py").read_text()))
        for name in MODULES
    }


def test_finds_the_modules_and_their_imports():
    graph = _graph()
    assert {"errors", "mesh", "io", "cli"} <= set(graph)
    assert ("errors", None) in graph["mesh"]
    assert ("io", None) in graph["cli"]


def test_no_function_local_package_imports():
    local = [
        f"{name}.{function} imports {target}"
        for name, imports in _graph().items()
        for target, function in imports
        if function is not None
    ]
    assert local == []


def test_import_graph_is_acyclic():
    edges = {name: {target for target, _ in imports} for name, imports in _graph().items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        path.append(name)
        for target in sorted(edges[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in MODULES:
        visit(name)


def _imports_package(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "visemekit" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "visemekit"
    return False


def test_references_import_nothing_from_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in REFERENCES
        for node in ast.walk(ast.parse(path.read_text()))
        if _imports_package(node)
    ]
    assert found == []
