"""Every program name the benchmark workloads reach resolves on the loaded package.

`perfbench/workloads.py` calls the program through module attributes:
`sg.<layer>.<attr>` (or `self.sg.<layer>.<attr>`), and `<alias>.<attr>`
after `<alias> = self.sg.<layer>` in the same function.  Deleting or
renaming such a name fails this test, not only a benchmark run.  The
workloads file is only parsed, never imported.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _layer(node: ast.AST) -> str | None:
    """`<layer>` of an expression `sg.<layer>` or `<anything>.sg.<layer>`, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    named_sg = isinstance(base, ast.Name) and base.id == "sg"
    return node.attr if named_sg or isinstance(base, ast.Attribute) and base.attr == "sg" else None


def workload_references(tree: ast.AST) -> set[tuple[str, str, int]]:
    """(layer, attr, line) of every program attribute the workloads read."""
    refs = {(layer, node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and (layer := _layer(node.value))}
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {target.id: layer for node in ast.walk(func) if isinstance(node, ast.Assign)
                   and (layer := _layer(node.value))
                   for target in node.targets if isinstance(target, ast.Name)}
        refs |= {(aliases[node.value.id], node.attr, node.lineno) for node in ast.walk(func)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in aliases}
    return refs


def test_the_parse_finds_both_reference_forms():
    refs = {(layer, attr) for layer, attr, _ in workload_references(ast.parse(WORKLOADS.read_text()))}
    assert ("spectral", "RootClusterError") in refs      # sg.spectral.RootClusterError
    assert ("graphs", "validate") in refs                # self.sg.graphs.validate
    assert ("census", "iter_word_sets") in refs          # census = self.sg.census
    assert ("spectral", "classify_growth") in refs       # sp = self.sg.spectral
    assert ("graphs", "DirectedGraph") in refs           # g = self.sg.graphs


def test_every_workload_reference_resolves():
    refs = workload_references(ast.parse(WORKLOADS.read_text()))
    missing = [f"line {line}: symgraph.{layer}.{attr}" for layer, attr, line in sorted(refs)
               if not hasattr(importlib.import_module(f"symgraph.{layer}"), attr)]
    assert not missing
