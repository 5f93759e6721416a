"""Self-tests of the benchmark: its checks reject wrong answers, and it runs clean.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NUMERIC_ERRORS = {"raised:IllConditionedError", "raised:RootClusterError"}


@pytest.fixture(scope="module")
def sg():
    return run.fresh_import()


def ready(sg, name, tmp_path):
    workload = WORKLOADS[name]()
    workload.setup(sg, 7, tmp_path)
    return workload


def first_ok(workload, start=0):
    """The first op at or after start that passes its check, with its output."""
    for i in range(start, start + 50):
        x = workload.make(i)
        out = workload.op(x)
        if workload.check(x, out) is None:
            return x, out
    raise AssertionError("no op passed its check")


def test_scan_check_rejects_wrong_answers(sg, tmp_path):
    w = ready(sg, "scan", tmp_path)
    x, (adj, strongly, growth) = first_ok(w)
    flipped = "polynomial" if growth.kind != "polynomial" else "exponential"
    assert w.check(x, (adj, strongly, dataclasses.replace(growth, kind=flipped))) == "check:growth_class"
    assert w.check(x, (adj, strongly, dataclasses.replace(growth, poly_degree=growth.poly_degree + 1))) \
        == "check:growth_class"
    assert w.check(x, (adj, strongly, dataclasses.replace(growth, rho=growth.rho + 1e-4))) == "check:rho"
    assert w.check(x, (adj, not strongly, growth)) == "check:strongly_connected"


def test_enumerate_check_rejects_wrong_answers(sg, tmp_path):
    w = ready(sg, "enumerate", tmp_path)
    x, (totals, sizes, codes, answers) = first_ok(w, start=w.cycle // 2)
    assert len(codes) > 2
    assert w.check(x, (totals[:-1] + [totals[-1] + 1], sizes, codes, answers)) == "check:count_series"
    assert w.check(x, (totals, sizes[:-1] + [sizes[-1] - 1], codes, answers)) == "check:level_size"
    assert w.check(x, (totals, sizes, [codes[1], codes[0]] + codes[2:], answers)) == "check:codes_order"
    assert w.check(x, (totals, sizes, codes, [not answers[0]] + answers[1:])) == "check:membership"
    # the n = 24 op of the first cycle runs the Python-set fallback
    x, out = first_ok(w, start=w.cycle - 1)
    assert x[1] == 24 and w.check(x, out) is None


def test_schedule_check_rejects_wrong_answers(sg, tmp_path):
    w = ready(sg, "schedule", tmp_path)
    x = w.op_input("combine", ["golden", "linear"], 3, 300)
    out = w.op(x)
    assert w.check(x, out) is None

    def tampered(table, edit):
        path = w.out_dir / f"{table}.csv"
        text = path.read_text()
        path.write_text(edit(text))
        try:
            return w.check(x, out)
        finally:
            path.write_text(text)

    last = lambda text: text.rstrip("\n").rsplit(",", 1)  # noqa: E731
    assert tampered("combine_counts",
                    lambda t: f"{last(t)[0]},{int(last(t)[1]) + 1}\n") == "check:combine_counts"
    assert tampered("combine_bounds", lambda t: t.replace(",true,", ",false,", 1)) == "check:combine_bounds"
    assert tampered("combine_witness", lambda t: t.replace("true", "false")) == "check:witness_missing"
    assert w.check(x, (1, "")) == "raised:exit_code_1"

    x = w.op_input("entropy-fit", ["complete", "linear"], 9, 300)
    out = w.op(x)
    assert w.check(x, out) is None
    assert tampered("entropy_fit", lambda t: t.replace("\npower,", "\nlinear,")) == "check:entropy_fit_model"


def test_analyze_check_rejects_wrong_answers(sg, tmp_path):
    w = ready(sg, "analyze", tmp_path)
    x = w.make(0)
    diag, totals, recurrence, error = w.op(x)
    assert w.check(x, (diag, totals, recurrence, None)) is None
    assert w.check(x, (diag, totals[:-1] + [totals[-1] - 1], recurrence, None)) == "check:count_series"
    assert w.check(x, (diag, totals, dataclasses.replace(recurrence, ok=False), None)) \
        == "check:verify_recurrence"
    numeric = sg.spectral.IllConditionedError(1e16)
    assert w.check(x, (diag, totals, recurrence, numeric)) == "raised:IllConditionedError"


def test_a_raising_op_makes_the_run_incorrect(sg, tmp_path, monkeypatch):
    w = ready(sg, "scan", tmp_path)

    def broken(graph):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(sg.spectral, "classify_growth", broken)
    tally = run.run_ops(w, lambda i, elapsed: i < 3, run.Clock())
    assert tally.reasons == {"raised:RuntimeError": 3}
    assert not run.correct(w, [tally])


def test_only_the_known_numerical_errors_leave_a_run_correct():
    def tally(reason):
        t = run.Tally()
        t.reasons[reason] = 1
        return t

    numeric = [tally(reason) for reason in sorted(NUMERIC_ERRORS)]
    assert run.correct(WORKLOADS["analyze"](), numeric)
    assert [t.unexpected(WORKLOADS["analyze"].allowed_failures) for t in numeric] == [0, 0]
    for name in ("scan", "enumerate", "schedule"):
        assert not run.correct(WORKLOADS[name](), numeric[:1])
    for reason in ("check:count_series", "raised:ValueError", "raised:exit_code_1"):
        assert not run.correct(WORKLOADS["analyze"](), numeric + [tally(reason)])
        assert not run.correct(WORKLOADS["schedule"](), [tally(reason)])


def test_tracer_restores_bindings_and_splits_self_time(sg):
    originals = (sg.census.count_series, sg.spectral.count_series, sg.cli._BOUND_FNS["golden-linear"],
                 sg.census.WordSet.codes)
    tracer = tracing.Tracer(sg)
    tracer.install()
    try:
        assert sg.spectral.count_series is not originals[1]
        assert sg.cli._BOUND_FNS["golden-linear"] is not originals[2]
        sg.spectral.closed_form(sg.golden_graph())
        list(sg.census.iter_word_sets(sg.golden_graph(), 5))
    finally:
        tracer.uninstall()
    assert (sg.census.count_series, sg.spectral.count_series, sg.cli._BOUND_FNS["golden-linear"],
            sg.census.WordSet.codes) == originals
    assert tracer.calls["spectral.closed_form"] == 1 and tracer.calls["census.count_series"] == 1
    assert tracer.calls["census.iter_word_sets"] == 1 and tracer.words == 3 + 6 + 11 + 19 + 32
    by_id = {span[0]: span for span in tracer.spans}
    closed = next(s for s in tracer.spans if s[1] == "spectral.closed_form")
    children = [s for s in tracer.spans if s[4] == closed[0]]
    assert {s[1] for s in children} >= {"spectral.char_poly", "census.count_series"}
    assert all(by_id[s[4]][2] <= s[2] <= s[3] <= by_id[s[4]][3] for s in tracer.spans if s[4] >= 0)
    child_s = sum(s[3] - s[2] for s in children)
    assert tracer.self_s["spectral.closed_form"] == pytest.approx(closed[3] - closed[2] - child_s)


def test_benchmark_json_matches_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _, _ in tracing.PER_LAYER] + ["cli.bytes_written", "trace.overhead_s"]
    tally = run.Tally()
    tally.latencies = tally.raw_latencies = [0.001] * 20
    tally.ok = 20
    reported = run.end_to_end(WORKLOADS["scan"](), tally, [0.5])
    assert [m["name"] for m in spec["end_to_end"]] == list(reported)


def bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_second_seed_runs_clean(name):
    stdout, result = bench("--workload", name, "--seed", "2", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    reasons = [line.split()[1][:-1] for line in stdout.splitlines() if line.startswith("  failure ")]
    if name == "analyze":
        assert set(reasons) <= NUMERIC_ERRORS
    else:
        assert not reasons
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    _, result = bench("--workload", "schedule", "--seed", "3", "--seconds", "1", "--trace", "1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["combine.combined_count.calls"]["value"] > 0
    assert result["metrics"]["cli.bytes_written"]["value"] > 0


def test_traced_enumerate_charges_no_input_generation():
    _, result = bench("--workload", "enumerate", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert result["correct"] and result["metrics"]["census.words"]["value"] > 0
    assert result["metrics"]["spectral.graph_from_bitmask.self_s"]["value"] == 0


def test_exits_nonzero_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and "{" not in proc.stdout
