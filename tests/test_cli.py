import json

import pytest

from symgraph import graph_to_json, golden_graph, linear_graph, complete_graph, spectral
from symgraph.cli import main


@pytest.fixture()
def graph_files(tmp_path):
    paths = {}
    for g in (golden_graph(), linear_graph(), complete_graph()):
        path = tmp_path / f"{g.name}.json"
        path.write_text(graph_to_json(g))
        paths[g.name] = str(path)
    return paths


def read_tables(out_dir, fmt="csv"):
    tables = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json" or path.suffix == ".txt":
            continue
        tables[path.stem] = path.read_text()
    return tables


class TestAnalyze:
    def test_golden_graph(self, tmp_path, graph_files):
        out = tmp_path / "out"
        code = main([
            "analyze", "--graph", graph_files["golden"], "--n-max", "30",
            "--out", str(out),
        ])
        assert code == 0
        tables = read_tables(out)
        growth = tables["analyze_growth"].strip().split("\n")[1].split(",")
        assert growth[0] == "exponential"
        assert abs(float(growth[1]) - 1.6180339887498949) < 1e-9
        counts = tables["analyze_counts"].strip().split("\n")
        assert counts[-1].split(",")[0] == "30"
        # omega^30 via the recurrence omega^n = 2*omega^(n-1) - omega^(n-3)
        omega = [3, 6, 11]
        for _ in range(27):
            omega.append(2 * omega[-1] - omega[-3])
        assert counts[-1].split(",")[1] == str(omega[29])
        rec = tables["analyze_recurrence"].strip().split("\n")[1].split(",")
        assert rec[1] == "true" and rec[2] == "0"

    def test_two_cycle(self, tmp_path):
        from symgraph import two_cycle_graph
        gpath = tmp_path / "g.json"
        gpath.write_text(graph_to_json(two_cycle_graph()))
        out = tmp_path / "out"
        assert main(["analyze", "--graph", str(gpath), "--out", str(out)]) == 0
        growth = read_tables(out)["analyze_growth"].strip().split("\n")[1].split(",")
        assert growth[0] == "polynomial" and growth[2] == "0"
        counts = read_tables(out)["analyze_counts"].strip().split("\n")[1:]
        assert all(line.split(",")[1] == "2" for line in counts)

    def test_linear_graph_h_top(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "analyze", "--graph", graph_files["linear"], "--n-max", "100",
            "--out", str(out),
        ]) == 0
        growth = read_tables(out)["analyze_growth"].strip().split("\n")[1].split(",")
        assert growth[0] == "polynomial" and growth[2] == "1"
        assert abs(float(growth[3])) < 0.05

    def test_enumerate_words(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "analyze", "--graph", graph_files["linear"], "--n-max", "3",
            "--enumerate", "--out", str(out),
        ]) == 0
        words = read_tables(out)["analyze_words"].strip().split("\n")[1:]
        n3 = [w.split(",")[1] for w in words if w.split(",")[0] == "3"]
        assert n3 == ["XYY", "YYY", "ZXY", "ZYY", "ZZX", "ZZY", "ZZZ"]

    def test_enumeration_cap_only_with_enumerate(self, tmp_path, graph_files):
        out = tmp_path / "out"
        # without --enumerate the cap never fires
        assert main([
            "analyze", "--graph", graph_files["complete3"], "--n-max", "25",
            "--enum-cap", "100", "--out", str(out),
        ]) == 0
        assert main([
            "analyze", "--graph", graph_files["complete3"], "--n-max", "25",
            "--enumerate", "--enum-cap", "100", "--out", str(out / "b"),
        ]) == 1

    def test_missing_file_errors(self, tmp_path):
        assert main(["analyze", "--graph", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 1

    def test_disconnected_graph_rejected(self, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({
            "alphabet": ["A", "B", "C", "D"],
            "edges": [["A", "B"], ["C", "D"]],
        }))
        assert main(["analyze", "--graph", str(gpath), "--out", str(tmp_path / "o")]) == 1

    def test_chain_of_twelve_loops_writes_every_table(self, tmp_path):
        # eigenvalue 1 with multiplicity 12: the closed form comes from the
        # order-12 pole of the generating function, with no linear solve
        syms = [f"v{i}" for i in range(12)]
        edges = [[s, s] for s in syms] + [[a, b] for a, b in zip(syms, syms[1:])]
        gpath = tmp_path / "chain.json"
        gpath.write_text(json.dumps({"alphabet": syms, "edges": edges}))
        out = tmp_path / "out"
        assert main(["analyze", "--graph", str(gpath), "--out", str(out)]) == 0
        tables = read_tables(out)
        assert set(tables) == {
            "analyze_diagnostics", "analyze_charpoly", "analyze_closed_form", "analyze_growth",
            "analyze_counts", "analyze_entropy", "analyze_recurrence",
        }
        form_rows = tables["analyze_closed_form"].strip().split("\n")[1:]
        assert [row.split(",")[2:4] for row in form_rows] == [["12", str(q)] for q in range(12)]
        assert tables["analyze_growth"].split("\n")[1].startswith("polynomial,1.0,")

    def test_json_format_big_ints_as_strings(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "analyze", "--graph", graph_files["complete3"], "--n-max", "120",
            "--format", "json", "--out", str(out),
        ]) == 0
        doc = json.loads((out / "analyze_counts.json").read_text())
        last = doc["rows"][-1]
        assert last[1] == str(3 ** 120)  # decimal string, not a float


class TestCombine:
    def test_paper_preset_bounds(self, tmp_path, graph_files):
        out = tmp_path / "out"
        code = main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--schedule", "paper", "--t-max", "6", "--n-max", "20", "--out", str(out),
        ])
        assert code == 0
        tables = read_tables(out)
        bounds = tables["combine_bounds"].strip().split("\n")
        assert len(bounds) == 7
        first = bounds[1].split(",")
        assert first[0] == "1" and first[1] == "16" and first[6] == "91"
        assert all(line.split(",")[5] == "true" for line in bounds[1:])
        witness = tables["combine_witness"].strip().split("\n")[1].split(",")
        assert witness[0] == "true" and witness[1] == "XXXZZ" and witness[2] == "ZZ"

    def test_complete_preset(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "combine", "--graph", graph_files["complete3"], "--graph", graph_files["linear"],
            "--schedule", "paper", "--t-max", "8", "--n-max", "16", "--out", str(out),
        ]) == 0
        bounds = read_tables(out)["combine_bounds"].strip().split("\n")
        first = bounds[1].split(",")
        assert first[6] == "729"
        assert len(bounds) == 9

    def test_identical_graphs_match_single_counts(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["golden"],
            "--schedule", "paper", "--t-max", "2", "--n-max", "12", "--out", str(out),
        ]) == 0
        counts = read_tables(out)["combine_counts"].strip().split("\n")[1:]
        from symgraph import total_count
        for line in counts:
            n, c = line.split(",")
            assert int(c) == total_count(golden_graph(), int(n))

    def test_alphabet_mismatch(self, tmp_path, graph_files):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"alphabet": ["A", "B"], "edges": [["A", "B"], ["B", "A"]]}))
        assert main([
            "combine", "--graph", graph_files["golden"], "--graph", str(other),
            "--schedule", "paper", "--out", str(tmp_path / "o"),
        ]) == 1

    def test_schedule_file(self, tmp_path, graph_files):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"s": [4, 12, 5, 60]}))
        out = tmp_path / "out"
        assert main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--schedule", str(sched), "--t-max", "2", "--n-max", "16", "--out", str(out),
        ]) == 0
        bounds = read_tables(out)["combine_bounds"].strip().split("\n")
        assert bounds[1].split(",")[6] == "91"

    def test_schedule_exhausted(self, tmp_path, graph_files):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"s": [2, 2]}))
        assert main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--schedule", str(sched), "--n-max", "30", "--out", str(tmp_path / "o"),
        ]) == 1


class TestScan:
    def test_k1(self, tmp_path):
        out = tmp_path / "out"
        assert main(["scan", "--k-max", "1", "--out", str(out)]) == 0
        rows = read_tables(out)["scan_table"].strip().split("\n")[1:]
        assert len(rows) == 1
        assert rows[0].split(",")[3] == "polynomial"

    def test_k2_no_strong_mixed(self, tmp_path):
        out = tmp_path / "out"
        assert main(["scan", "--k-max", "2", "--out", str(out)]) == 0
        summary = read_tables(out)["scan_summary"].strip().split("\n")[1:]
        assert all(line.split(",")[3] == "0" for line in summary)

    def test_k3_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["scan", "--k-max", "3", "--out", str(out1)]) == 0
        # drop the memoized polynomials and root tables, so the second run recomputes
        spectral._berkowitz.cache_clear()
        spectral._root_table.cache_clear()
        assert main(["scan", "--k-max", "3", "--out", str(out2)]) == 0
        t1 = (out1 / "scan_table.csv").read_bytes()
        t2 = (out2 / "scan_table.csv").read_bytes()
        assert t1 == t2
        summary = read_tables(out1)["scan_summary"].strip().split("\n")
        assert summary[3].split(",")[1] == "512"  # 2**9 candidates at k = 3

    def test_k_max_out_of_range(self, tmp_path):
        assert main(["scan", "--k-max", "5", "--out", str(tmp_path / "o")]) == 1


class TestEntropyFit:
    def test_single_graph(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "entropy-fit", "--graph", graph_files["complete3"], "--n-max", "40",
            "--out", str(out),
        ]) == 0
        fit = read_tables(out)["entropy_fit"].strip().split("\n")[1].split(",")
        assert fit[0] == "linear"
        assert (out / "entropy_fit_report.txt").exists()

    def test_combined_milestones(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "entropy-fit", "--graph", graph_files["complete3"], "--graph",
            graph_files["linear"], "--schedule", "paper", "--t-max", "12",
            "--out", str(out),
        ]) == 0
        fit = read_tables(out)["entropy_fit"].strip().split("\n")[1].split(",")
        assert fit[0] == "power"
        assert 0.45 <= float(fit[3]) <= 0.55


class TestPaperExamples:
    def test_runs_without_inputs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["paper-examples", "--out", str(out)]) == 0
        tables = read_tables(out)
        golden = tables["golden_linear_bounds"].strip().split("\n")
        complete = tables["complete_linear_bounds"].strip().split("\n")
        assert len(golden) == 7 and len(complete) == 9
        assert all(line.split(",")[5] == "true" for line in golden[1:] + complete[1:])
        witness = tables["golden_linear_witness"].strip().split("\n")[1].split(",")
        assert witness[1] == "XXXZZ"
        scaling = tables["complete_linear_scaling"].strip().split("\n")[1].split(",")
        assert scaling[0] == "power"

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["paper-examples", "--out", str(out1)]) == 0
        assert main(["paper-examples", "--out", str(out2)]) == 0
        for path in sorted(out1.iterdir()):
            if path.name == "manifest.json":
                continue
            assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


class TestStrict:
    def test_strict_passes_when_bounds_hold(self, tmp_path, graph_files):
        assert main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--schedule", "paper", "--t-max", "3", "--n-max", "10", "--strict",
            "--out", str(tmp_path / "o"),
        ]) == 0

    def test_strict_exit_code_on_bound_failure(self, tmp_path, graph_files, monkeypatch):
        # the real bounds always hold, so force a failing report to check
        # the exit-code wiring
        import symgraph.cli as cli
        from symgraph import BoundReport

        def fake_bounds(name, t_max):
            # lower > actual at every t
            return [BoundReport(t, 16, 100, 50, 200) for t in range(1, t_max + 1)]

        monkeypatch.setattr(cli, "preset_bounds", fake_bounds)
        code = main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--schedule", "paper", "--t-max", "1", "--n-max", "10", "--strict",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        # without --strict the same failure only shows in the table
        code = main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--schedule", "paper", "--t-max", "1", "--n-max", "10",
            "--out", str(tmp_path / "o2"),
        ])
        assert code == 0


class TestManifest:
    def test_manifest_fields(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main(["analyze", "--graph", graph_files["golden"], "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "analyze"
        assert doc["version"]
        assert "timestamp" in doc
        assert doc["config"]["n_max"] == 30

    def test_csv_roundtrip_integer_columns(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "analyze", "--graph", graph_files["golden"], "--n-max", "200", "--out", str(out),
        ]) == 0
        from symgraph import count_series
        lines = (out / "analyze_counts.csv").read_text().strip().split("\n")[1:]
        series = count_series(golden_graph(), 200)
        for line, row in zip(lines, series.rows):
            cells = line.split(",")
            assert int(cells[0]) == row.n and int(cells[1]) == row.total
