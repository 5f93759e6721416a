"""Every process-wide memo is a functools cache, so clear_memos reaches them all,
and counting writes nothing into the values it counts."""
import copy
import dataclasses
import sys

import pytest

from symgraph import (
    classify_growth,
    combined_count_series,
    complete_graph,
    conjecture_scan,
    count_series,
    golden_graph,
    golden_linear_system,
    graph_from_edges,
    graph_to_json,
    intmat,
    linear_graph,
    milestone_counts,
    preset_bounds,
    spectral,
    total_count,
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


def state(value):
    """Every dataclass field of value and every attribute in its __dict__, deep-copied."""
    fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    return copy.deepcopy({**fields, **getattr(value, "__dict__", {})})


def test_counts_leave_the_system_unchanged():
    system = golden_linear_system(3)
    values = [system, system.schedule, *system.graphs]
    before = [state(v) for v in values]
    series = dict(combined_count_series(system, system.schedule.horizon))
    lengths = [1, 2, 4, 5, 16, 17, 81, 100, 255, 256]
    for order in (lengths, lengths[::-1], [n for n in lengths for _ in range(2)]):
        assert [total_count(system, n) for n in order] == [series[n] for n in order]
    milestone_counts(system, 3)
    preset_bounds("golden-linear", 3)
    for graph in system.graphs:
        count_series(graph, 20)
        total_count(graph, 50)
    assert [state(v) for v in values] == before
    # no attribute can be added to a combined system
    assert not hasattr(system, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(system, "_last_count", None)
