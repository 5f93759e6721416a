import argparse
import hashlib
import json
import random
import time

import pytest

from symgraph import (
    Alphabet,
    DirectedGraph,
    complete_graph,
    count_series,
    golden_graph,
    graph_to_json,
    linear_graph,
    total_count,
)
from symgraph import cli
from symgraph.census import ENUM_CAP_ENV
from symgraph.cli import build_parser, main

from conftest import clear_memos


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


def sha256_tables(out_dir, names):
    return {
        name: hashlib.sha256((out_dir / f"{name}.csv").read_bytes()).hexdigest() for name in names
    }


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

    def test_enumeration_cap_checked_before_any_word(self, tmp_path, graph_files, monkeypatch,
                                                     capsys):
        # the counts give every level's size: level 32 holds 14,930,350 words,
        # over the default cap, so no level is built, not even levels 1..31
        def forbidden(*args, **kwargs):
            raise AssertionError("no word may be built when a level is over the cap")

        monkeypatch.delenv(ENUM_CAP_ENV, raising=False)
        monkeypatch.setattr(cli, "iter_word_sets", forbidden)
        assert main([
            "analyze", "--graph", graph_files["golden"], "--n-max", "60",
            "--enumerate", "--out", str(tmp_path / "out"),
        ]) == 1
        assert capsys.readouterr().err == (
            "error: enumeration of 14930350 words at length 32 exceeds cap 10000000\n"
        )

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

    @pytest.mark.parametrize("sym", ["a,b", 'a"b', "a\nb", "a\rb", "a\u2028b"])
    def test_csv_breaking_symbol_rejected(self, tmp_path, capsys, sym):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"alphabet": [sym, "c"], "edges": [[sym, "c"], ["c", sym]]}))
        out = tmp_path / "o"
        assert main(["analyze", "--graph", str(gpath), "--enumerate", "--out", str(out)]) == 1
        assert "comma, quote or line break" in capsys.readouterr().err
        assert not out.exists()

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
        # counts are a degree-11 polynomial in n; the float rule read 10,
        # because the n^11 coefficient 1/11! falls below COEFF_TOL
        assert tables["analyze_growth"].split("\n")[1].startswith("polynomial,1.0,11,")

    def test_sixty_four_letters(self, tmp_path):
        # a seeded 64-letter graph of density 0.3; the digests were measured
        # when Yun's split over fractions made this run take about 50 s, all
        # but analyze_growth's, whose rho is now correctly rounded
        rng = random.Random(64)
        adj = tuple(tuple(int(rng.random() < 0.3) for _ in range(64)) for _ in range(64))
        gpath = tmp_path / "g64.json"
        gpath.write_text(graph_to_json(DirectedGraph(Alphabet(tuple(f"v{i}" for i in range(64))), adj)))
        out = tmp_path / "out"
        start = time.perf_counter()
        code = main(["analyze", "--graph", str(gpath), "--n-max", "200", "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        digests = {
            "analyze_charpoly": "03c2dc57fd40fb60ac2d2bb58bef4503fe0b451bd22517fe466016c53a56f992",
            "analyze_closed_form": "424e95d97c99bc440c49a9a882493ceec571ce66904304392c005fbfb5359d1f",
            "analyze_counts": "8ad4e6135572ac3ad024983f91651cdcbe350227d9c541c3f3ff0dea3d641cef",
            "analyze_diagnostics": "7ff35252dced7ea581cbc9fdad73c84f9c70264f33416358c21dcefca5bf4047",
            "analyze_entropy": "06689eab56b1f90c4849fe42328c6d163163202a99200a9ad73d76b94636b7f9",
            "analyze_growth": "b2d053763ec44831e57f701494c9c6a50773b811840969201d5497aba698391b",
            "analyze_recurrence": "99f14b96cf923f6d1ab2a909e8ca40a9bd16fd2123b62d128cd5b5a1d235e6a6",
        }
        assert set(read_tables(out)) == set(digests)
        assert sha256_tables(out, digests) == digests
        assert elapsed < 10.0

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

    def test_missing_schedule(self, tmp_path, graph_files, capsys):
        out = tmp_path / "o"
        assert main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == "error: combine needs --schedule\n"
        assert not out.exists()

    def test_boolean_schedule_values_rejected(self, tmp_path, graph_files, capsys):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"s": [True, 3]}))
        assert main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--schedule", str(sched), "--out", str(tmp_path / "o"),
        ]) == 1
        assert "list of integers" in capsys.readouterr().err

    def test_schedule_exhausted(self, tmp_path, graph_files):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"s": [2, 2]}))
        assert main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--schedule", str(sched), "--n-max", "30", "--out", str(tmp_path / "o"),
        ]) == 1

    PINNED = {
        "combine_counts": "869e67c07fde2d776fb9cf2f90e7f1b7345cedabba337770fba8e6b481584874",
        "combine_bounds": "5c82193bc468da2bd85b0e30f2cb93224ed7dd75f6bd135e5eb9e05ceb0b9a75",
        "combine_envelopes": "aec7e26f265c49fcc90fdd223ebf02222687d7d04e4196b4522d1e8ac737ed2b",
        "combine_witness": "14cad91dee5c263575a68258fb077107fbfa2f6bdbf2c6896f14afcc6cf1e681",
    }

    def test_exact_tables_pinned(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--schedule", "paper", "--t-max", "6", "--n-max", "200", "--out", str(out),
        ]) == 0
        assert sha256_tables(out, self.PINNED) == self.PINNED

    def test_one_graph(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "combine", "--graph", graph_files["golden"], "--schedule", "paper",
            "--t-max", "2", "--n-max", "12", "--out", str(out),
        ]) == 0
        tables = read_tables(out)
        counts = [line.split(",") for line in tables["combine_counts"].split("\n")[1:-1]]
        assert [(int(n), int(c)) for n, c in counts] == count_series(golden_graph(), 12).totals()
        assert tables["combine_witness"] == "found,word,subword,start\nfalse,,,\n"
        assert "combine_bounds" not in tables

    def test_no_graph(self, tmp_path, capsys):
        assert main(["combine", "--schedule", "paper", "--out", str(tmp_path / "o")]) == 1
        assert "at least one graph" in capsys.readouterr().err

    def test_dense_eight_letter_pair(self, tmp_path):
        # the complete 8-letter graph, then the same without the loop at A: level 8
        # alone holds 15,830,528 words, and the witness search enumerates none
        letters = "ABCDEFGH"
        edges = [[a, b] for a in letters for b in letters]
        argv = ["combine"]
        for name, kept in (("K8", edges), ("K8-minus-AA", edges[1:])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"alphabet": list(letters), "edges": kept, "name": name}))
            argv += ["--graph", str(path)]
        out = tmp_path / "out"
        assert main(argv + ["--schedule", "paper", "--n-max", "100", "--out", str(out)]) == 0
        tables = read_tables(out)
        counts = tables["combine_counts"].split("\n")[1:-1]
        # the complete graph extends to lengths 2..4; then AA is barred, in 8**3 words at 5
        assert len(counts) == 100
        assert counts[3:5] == [f"4,{8 ** 4}", f"5,{8 ** 5 - 8 ** 3}"]
        assert tables["combine_witness"] == "found,word,subword,start\nfalse,,,\n"

    def test_enumeration_cap_does_not_reach_combine(self, tmp_path, graph_files, monkeypatch):
        argv = ["combine", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
                "--schedule", "paper", "--t-max", "2", "--n-max", "12"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("SYMGRAPH_ENUM_CAP", "1")
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        assert read_tables(tmp_path / "a") == read_tables(tmp_path / "b")


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
        clear_memos()  # so the second run recomputes everything
        assert main(["scan", "--k-max", "3", "--out", str(out2)]) == 0
        t1 = (out1 / "scan_table.csv").read_bytes()
        t2 = (out2 / "scan_table.csv").read_bytes()
        assert t1 == t2
        summary = read_tables(out1)["scan_summary"].strip().split("\n")
        assert summary[3].split(",")[1] == "512"  # 2**9 candidates at k = 3

    def test_k_max_out_of_range(self, tmp_path):
        assert main(["scan", "--k-max", "5", "--out", str(tmp_path / "o")]) == 1

    def test_k3_bytes_in_both_formats(self, tmp_path):
        # the CLI's own files; the csv table has the digest pinned in test_spectral
        pinned = {
            "csv": {
                "scan_table": "4692c0d0515d8d0c88dfbae86335c92aeb8e1ef8339d04a03241c24543ba8505",
                "scan_summary": "63f3f988ce79c9a1160fac124dc8e497b41e2d56aa933a73f8d80d2ee70bdd17",
            },
            "json": {
                "scan_table": "cf909420185a0ca5f87e965eb8d2bd7ddf7e235067d755187cef71a15df40e04",
                "scan_summary": "f53026da6ccb399e5a9788e4f88651bd8208cbdbc0f142a0f51fc92bb409b858",
            },
        }
        for fmt, digests in pinned.items():
            out = tmp_path / fmt
            assert main(["scan", "--k-max", "3", "--format", fmt, "--out", str(out)]) == 0
            assert {
                name: hashlib.sha256((out / f"{name}.{fmt}").read_bytes()).hexdigest()
                for name in digests
            } == digests, fmt

    def test_k4_summary_counts_every_labeled_graph(self, tmp_path):
        out = tmp_path / "out"
        assert main(["scan", "--k-max", "4", "--out", str(out)]) == 0
        summary = read_tables(out)["scan_summary"].strip().split("\n")[1:]
        # weakly connected digraphs on 1..4 labeled vertices (OEIS A003027)
        assert [line.split(",")[2] for line in summary] == ["1", "12", "432", "61344"]


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

    def test_one_graph_reads_the_schedule(self, tmp_path, graph_files, capsys):
        out = tmp_path / "o"
        assert main([
            "entropy-fit", "--graph", graph_files["golden"],
            "--schedule", str(tmp_path / "missing.json"), "--t-max", "3", "--out", str(out),
        ]) == 1
        assert "cannot read schedule file" in capsys.readouterr().err
        assert not out.exists()

    def test_one_graph_paper_schedule_milestones(self, tmp_path, graph_files):
        # 8 milestones, the fewest the fit takes; golden's count at t = 12
        # (n = 28,561) is past the 4,300-digit int-to-str guard
        out = tmp_path / "out"
        assert main([
            "entropy-fit", "--graph", graph_files["golden"], "--schedule", "paper",
            "--t-max", "8", "--out", str(out),
        ]) == 0
        rows = [line.split(",") for line in read_tables(out)["entropy_series"].split("\n")[1:-1]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [
            (n, total_count(golden_graph(), n)) for n in ((t + 1) ** 4 for t in range(1, 9))
        ]

    def test_failed_fit_still_writes_the_series(self, tmp_path, graph_files, capsys):
        # three milestones (n = 16, 81, 256) are exact, but too few to fit
        out = tmp_path / "out"
        assert main([
            "entropy-fit", "--graph", graph_files["golden"], "--schedule", "paper",
            "--t-max", "3", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err == "error: need at least 8 entropy points to fit\n"
        assert sorted(p.name for p in out.iterdir()) == ["entropy_series.csv", "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_stage"] == "fit"
        assert manifest["error"] == "need at least 8 entropy points to fit"
        rows = [line.split(",") for line in read_tables(out)["entropy_series"].split("\n")[1:-1]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [
            (n, total_count(golden_graph(), n)) for n in (16, 81, 256)
        ]

    def test_out_of_memory_is_one_line(self, tmp_path, graph_files, monkeypatch, capsys):
        # complete3's series to n = 200000 holds about 4 GB of exact counts
        def exhausted(source, n_max):
            raise MemoryError

        monkeypatch.setattr(cli, "combined_count_series", exhausted)
        out = tmp_path / "o"
        argv = ["entropy-fit", "--graph", graph_files["complete3"], "--n-max", "200000", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: out of memory in entropy-fit; try a smaller --n-max or --t-max\n"
        )
        assert not out.exists()

    def test_several_graphs_need_schedule(self, tmp_path, graph_files, capsys):
        assert main([
            "entropy-fit", "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--out", str(tmp_path / "o"),
        ]) == 1
        assert "needs --schedule" in capsys.readouterr().err

    def test_fit_outputs_have_no_nu(self, tmp_path, graph_files):
        out = tmp_path / "out"
        assert main([
            "entropy-fit", "--graph", graph_files["golden"], "--n-max", "20", "--out", str(out),
        ]) == 0
        header = (out / "entropy_fit.csv").read_text().split("\n")[0].split(",")
        assert header == ["model", "h", "g", "mu", "e", "residual", "rms_linear", "rms_power",
                          "rms_logarithmic", "n_lo", "n_hi"]
        assert "nu =" not in (out / "entropy_fit_report.txt").read_text()

    # the numpy-fitted entropy_fit table is left out
    @pytest.mark.parametrize("names, extra, digest", [
        (["golden"], ["--n-max", "40"],
         "a90e22e3aad62257a261ab4f6a915b889f08464c06c2e8070314bb491222c655"),
        (["complete3", "linear"], ["--schedule", "paper", "--t-max", "12"],
         "f2fbf042cf34ced2a73c105490b6f8028dbbebb3bb8f4f77b1851e40694fab93"),
    ])
    def test_entropy_series_pinned(self, tmp_path, graph_files, names, extra, digest):
        out = tmp_path / "out"
        graphs = [arg for name in names for arg in ("--graph", graph_files[name])]
        assert main(["entropy-fit", *graphs, *extra, "--out", str(out)]) == 0
        assert sha256_tables(out, ["entropy_series"]) == {"entropy_series": digest}


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

    PINNED = {
        "golden_linear_bounds": "5c82193bc468da2bd85b0e30f2cb93224ed7dd75f6bd135e5eb9e05ceb0b9a75",
        "golden_linear_envelopes": "aec7e26f265c49fcc90fdd223ebf02222687d7d04e4196b4522d1e8ac737ed2b",
        "complete_linear_bounds": "b1ac6363249bf2e60a8e98df7f9d7444a2a61d4de35d54ad730a32c0bf260184",
        "complete_linear_envelopes": "8483339dbcc9f7d1015e4cc9bd11860724fe2620a74cb2ad40a9b7303f87e1f4",
        "golden_linear_witness": "14cad91dee5c263575a68258fb077107fbfa2f6bdbf2c6896f14afcc6cf1e681",
    }

    def test_exact_tables_pinned(self, tmp_path):
        # the numpy-fitted complete_linear_scaling table is left out
        out = tmp_path / "out"
        assert main(["paper-examples", "--out", str(out)]) == 0
        assert sha256_tables(out, self.PINNED) == self.PINNED


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

    def test_out_naming_a_file(self, tmp_path, capsys):
        # an --out that cannot be a directory ends in a message, not a traceback
        out = tmp_path / "taken"
        out.write_text("keep")
        assert main(["scan", "--k-max", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: ")
        assert captured.out == ""
        assert out.read_text() == "keep"

    def test_parser_shared_across_runs(self, tmp_path, graph_files):
        # one parser per process; the --graph list of one run must not leak into the next
        assert build_parser() is build_parser()
        argv = ["combine", "--schedule", "paper", "--t-max", "2", "--n-max", "12"]
        assert main(argv + [
            "--graph", graph_files["golden"], "--graph", graph_files["linear"],
            "--out", str(tmp_path / "two"),
        ]) == 0
        assert main(argv + ["--graph", graph_files["golden"], "--out", str(tmp_path / "one")]) == 0
        doc = json.loads((tmp_path / "one" / "manifest.json").read_text())
        assert doc["config"]["graph"] == str([graph_files["golden"]])

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


class TestParser:
    # each subcommand takes the options its handler reads, plus --out and --format
    OPTIONS = {
        "analyze": {"--graph", "--n-max", "--enumerate", "--enum-cap"},
        "combine": {"--graph", "--schedule", "--n-max", "--t-max", "--strict"},
        "scan": {"--k-max"},
        "entropy-fit": {"--graph", "--schedule", "--n-max", "--t-max"},
        "paper-examples": {"--t-max", "--strict"},
    }

    def subparsers(self):
        (action,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def options(self, parser):
        return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}

    def test_option_sets(self):
        subs = self.subparsers()
        assert set(subs) == set(self.OPTIONS)
        for name, parser in subs.items():
            assert self.options(parser) == self.OPTIONS[name] | {"--out", "--format"}, name

    def test_settable_value_count(self):
        assert sum(len(self.options(parser)) for parser in self.subparsers().values()) == 26

    @pytest.mark.parametrize("argv", [
        ["scan", "--n-max", "5"],
        ["scan", "--strict"],
        ["analyze", "--t-max", "3"],
        ["entropy-fit", "--enum-cap", "10"],
        ["paper-examples", "--n-max", "5"],
        ["combine", "--enum-cap", "10"],
    ])
    def test_unread_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_t_max_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["combine"]).t_max == 6
        assert parser.parse_args(["entropy-fit"]).t_max == 12
        assert parser.parse_args(["paper-examples"]).t_max == 0
        assert parser.parse_args(["combine", "--t-max", "9"]).t_max == 9
