"""Every library name the benchmark scripts in perfbench/ read still exists.

The scripts import names with `from gesbn... import name`, and they read
`graphs.X`, `search.X` and `harness.X` off the library modules (common.py
takes the modules as arguments). A name that a library change removes or
renames would otherwise show up only when the benchmark is run.
"""

import ast
import glob
import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
MODULE_NAMES = {"graphs": "gesbn.graphs", "search": "gesbn.search", "harness": "gesbn.harness"}


def perfbench_references():
    """(script, module, name) for every library name a perfbench script reads."""
    refs = set()
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        script = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gesbn":
                refs.update((script, node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in MODULE_NAMES):
                refs.add((script, MODULE_NAMES[node.value.id], node.attr))
    return refs


def test_every_perfbench_name_resolves():
    refs = perfbench_references()
    assert refs, "no library names found in perfbench/*.py"
    missing = sorted(
        (script, module, name) for script, module, name in refs
        if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []
