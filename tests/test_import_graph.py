"""The package-internal import graph of crnlump, read from its sources with
`ast`, has no cycle. Imports inside functions and `if TYPE_CHECKING:` blocks
count as edges: a local import only hides a cycle at load time. Every name
the package exports resolves. scipy is loaded only when a CTMC is built,
which fresh interpreters check: this test process has scipy loaded already."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import crnlump
from crnlump.ctmc import (build_generator, check_ordinary_lumpability,
                          enumerate_states, transient_solve)

from conftest import TWO_SITE_TEXT

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
    # the oracle projects states with `Partition.sums`, not through `ode`
    assert graph["ctmc"] == {"model"}
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


def test_one_loop_takes_rk4_steps():
    """`simulate` and `reconstruct_trajectory` share one step driver: in the
    whole package a single loop, comprehensions included, calls
    `rk4_step`."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, loops) and any(
                    isinstance(call, ast.Call) and "rk4_step" in (
                        getattr(call.func, "id", None),
                        getattr(call.func, "attr", None))
                    for call in ast.walk(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1, found


# The scripts below call `scipy_loaded()` between their steps.
_SCIPY_PROBE = """
import sys
def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
"""


def _fresh_python(script, cwd=None):
    """Run `script` in a new interpreter that imports this checkout's
    crnlump and these tests' modules; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent), str(Path(__file__).resolve().parent)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE
                           + textwrap.dedent(script)],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_and_non_oracle_commands_never_load_scipy(tmp_path):
    (tmp_path / "two_site.crn").write_text(TWO_SITE_TEXT)
    out = _fresh_python("""
        import crnlump as cl
        print("loaded after crnlump:", scipy_loaded())
        from crnlump.cli import run
        print("loaded after crnlump.cli:", scipy_loaded())
        ok = [
            run(["generate", "multisite", "--n", "2", "-o", "ms2.crn"]),
            run(["reduce", "-i", "two_site.crn", "-o", "red.crn"]),
            run(["check", "two_site.crn"]),
            run(["simulate", "red.crn", "--t-end", "0.05", "--step", "0.01",
                 "--init", "B=0.6,A00=0.5,A01=0.5,A11=0.1", "-o", "traj.csv"]),
        ]
        lumped = cl.parse_model(open("red.crn").read()).network
        with open("sched.csv", "w") as f:
            f.write(cl.schedule_to_csv(cl.ControlSchedule.midpoint(lumped)))
        ok.append(run(["reconstruct", "two_site.crn", "--lumped-traj",
                       "traj.csv", "--lumped-schedule", "sched.csv", "--v0",
                       "B=0.6,A00=0.5,A01=0.2,A10=0.3,A11=0.1"]))
        print("loaded after the commands:", ok, scipy_loaded())
        ok = run(["check", "two_site.crn", "--oracle", "--init", "B=1,A00=1"])
        print("loaded after the oracle:", ok, scipy_loaded())
    """, cwd=tmp_path)
    assert [line for line in out.splitlines()
            if line.startswith("loaded after")] == [
        "loaded after crnlump: False", "loaded after crnlump.cli: False",
        "loaded after the commands: [0, 0, 0, 0, 0] False",
        "loaded after the oracle: 0 True"]


def _oracle_run(text):
    """States, non-zeros per extremal, lumpability and a transient vector
    of the two-site model."""
    doc = crnlump.parse_model(text)
    net = doc.network
    space = enumerate_states(net, net.multiset({"A00": 2, "B": 1}), 3)
    out = {"states": space.n_states}
    for extremal in ("lower", "upper"):
        gen = build_generator(space, net, extremal)
        p0 = np.zeros(space.n_states)
        p0[0] = 1.0
        out[extremal] = {
            "nnz": gen.matrix.nnz,
            "lumpable": check_ordinary_lumpability(
                gen, space, doc.initial_partition).ok,
            "p": transient_solve(gen, p0, 1.5).tolist(),
        }
    return out


def test_oracle_loads_scipy_on_first_use_with_the_same_results():
    out = _fresh_python("""
        import json
        from test_import_graph import TWO_SITE_TEXT, _oracle_run
        before = scipy_loaded()
        result = _oracle_run(TWO_SITE_TEXT)
        print(json.dumps([before, scipy_loaded(), result]))
    """)
    before, after, fresh = json.loads(out)
    assert (before, after) == (False, True)
    assert fresh == _oracle_run(TWO_SITE_TEXT)
    assert fresh["states"] > 1
    assert fresh["lower"]["lumpable"] and fresh["upper"]["lumpable"]
