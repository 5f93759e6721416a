"""Every process-wide memo is a functools cache, so clear_memos reaches them all."""
import copy
import sys

from symgraph import (
    classify_growth,
    complete_graph,
    conjecture_scan,
    golden_graph,
    graph_from_edges,
    graph_to_json,
    intmat,
    linear_graph,
    spectral,
)
from symgraph.cli import main

from conftest import clear_memos


def module_containers():
    """Every module-level dict, list and set of the loaded symgraph modules, by (module, name)."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "symgraph" or name.startswith("symgraph.")
        for attr, value in vars(module).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_no_memo_outside_a_functools_cache(tmp_path):
    files = {}
    for g in (golden_graph(), linear_graph(), complete_graph()):
        files[g.name] = tmp_path / f"{g.name}.json"
        files[g.name].write_text(graph_to_json(g))
    before = {key: copy.deepcopy(value) for key, value in module_containers().items()}

    conjecture_scan(3)
    classify_growth(graph_from_edges("ABC", [("A", "A")]))  # B and C are isolated
    runs = [
        ["analyze", "--graph", str(files["golden"]), "--n-max", "12", "--enumerate"],
        ["combine", "--graph", str(files["golden"]), "--graph", str(files["linear"]),
         "--schedule", "paper", "--t-max", "3", "--n-max", "12"],
        ["scan", "--k-max", "2"],
        ["entropy-fit", "--graph", str(files["complete3"]), "--n-max", "20"],
        ["paper-examples", "--t-max", "3"],
    ]
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"out{i}")]) == 0, argv

    after = module_containers()
    assert after.keys() == before.keys()
    for key, value in after.items():
        assert value == before[key], key
    caches = clear_memos()
    assert all(cache.cache_info().currsize == 0 for cache in caches)
    assert spectral._class_of in caches and intmat._square in caches
