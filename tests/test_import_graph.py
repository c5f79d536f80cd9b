"""The package-internal import graph of crnlump, read from its sources with
`ast`, has no cycle. Imports inside functions and `if TYPE_CHECKING:` blocks
count as edges: a local import only hides a cycle at load time. Every name
the package exports resolves."""

import ast
from pathlib import Path

import crnlump

SRC = Path(__file__).resolve().parent.parent / "src" / "crnlump"


def _import_graph():
    modules = {p.stem for p in SRC.glob("*.py")}
    graph = {}
    for name in modules:
        targets = set()
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                parts = node.module.split(".")
                if parts[0] == "crnlump" and len(parts) > 1:
                    targets.add(parts[1])
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "crnlump" and len(parts) > 1:
                        targets.add(parts[1])
        graph[name] = (targets & modules) - {name}
    return graph


def _find_cycle(graph):
    """One cycle as a list of modules, or None."""
    state = {}  # absent: unvisited, 1: on the current path, 2: done
    path = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return None


def test_no_import_cycle():
    graph = _import_graph()
    assert {"model", "ode", "lumping"} <= graph["reconstruct"]
    cycle = _find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_cycle_finder_reports_a_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}
    assert _find_cycle(graph) == ["a", "b", "c", "a"]


def test_every_exported_name_resolves_once():
    names = crnlump.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(crnlump, name)]
    assert not missing, f"exported but undefined: {missing}"
