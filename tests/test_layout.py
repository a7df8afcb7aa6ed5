"""The package is an acyclic import stack, and every import of a package
module sits at module level, where the stack can be read off the file. The
independent references the tests check the package against import nothing
from it. Each module's `__all__` is the one list of its public names, and the
package republishes those lists. The README's usage block lists exactly the
options of each subcommand's parser, its train-config sentence exactly the
config parser's keys, and its quick tour runs."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import visemekit
from visemekit import io
from visemekit.cli import build_parser

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


def test_one_block_budget():
    """Every row-blocked loop shares mesh._BLOCK_ELEMENTS; no other module
    defines a top-level *_ELEMENTS budget of its own."""
    found = [
        f"{name}.{target.id}"
        for name in MODULES
        for node in ast.parse((PACKAGE / f"{name}.py").read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_ELEMENTS")
    ]
    assert found == ["mesh._BLOCK_ELEMENTS"]


def test_one_squared_distance_kernel():
    """The per-frame squared distance of two tracks (motion energy, both
    losses, the CLI's jitter score) has one implementation,
    mesh._squared_distances: no other module reduces over the vertex and
    coordinate axes."""
    found = sorted(path.name for path in PACKAGE.glob("*.py") if "axis=(1, 2)" in path.read_text())
    assert found == ["mesh.py"]


def test_package_republishes_each_module_list():
    """Every module but the command and the package itself lists its public
    names; the package's list is theirs in module order, each name once, and
    each listed object is defined in the module that lists it."""
    listed = {
        name: importlib.import_module(f"visemekit.{name}")
        for name in MODULES
        if name not in ("cli", "__init__")
    }
    missing = [name for name, module in listed.items() if not hasattr(module, "__all__")]
    assert missing == []
    expected = [entry for module in listed.values() for entry in module.__all__]
    assert visemekit.__all__ == expected + ["__version__"]
    assert len(set(visemekit.__all__)) == len(visemekit.__all__)
    foreign = [
        f"{name}.{entry} is from {obj.__module__}"
        for name, module in listed.items()
        for entry in module.__all__
        for obj in [getattr(module, entry)]
        if getattr(obj, "__module__", module.__name__) != module.__name__
    ]
    assert foreign == []


def test_readme_usage_lists_each_parser_option():
    """Each `visemekit <command>` line of the README names the options of
    that subcommand's parser, no more and no fewer (help aside), and every
    subcommand has a line."""
    usage = {
        match[1]: set(re.findall(r"--[a-z-]+", match[2]))
        for match in re.finditer(r"^visemekit (\w+)(.*)$", (ROOT / "README.md").read_text(), re.M)
    }
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert usage == parsed


def test_readme_config_keys_are_the_parser_keys():
    """The README's "A train config takes ..." sentence names exactly the
    keys the config parser reads (values in parentheses aside)."""
    (sentence,) = re.findall(r"A train config takes (.*?);", (ROOT / "README.md").read_text(), re.S)
    named = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", sentence))
    assert sorted(named) == sorted(io._CONFIG_SCALARS)


def test_readme_quick_tour_runs(capsys):
    """The README's one Python block runs against the package as it is, so a
    name it imports cannot outlive the package's public list."""
    (tour,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out
