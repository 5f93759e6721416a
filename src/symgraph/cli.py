"""Command-line front end.

Subcommands
-----------
analyze        single-graph census: diagnostics, characteristic polynomial,
               closed form, growth class, counts, entropy, recurrence check
combine        scheduled multi-graph system: counts, bound reports and
               envelopes (for the bundled systems), subword witness
scan           exhaustive classification of small weakly connected digraphs
entropy-fit    entropy series and scaling-law fit (single or combined)
paper-examples the two bundled reference experiments, no inputs needed

Every run writes a manifest plus per-command data tables to --out, as CSV
(default) or JSON.  Data tables are byte-deterministic for a fixed
configuration; only the manifest carries a timestamp.  Exact counts are
always emitted as decimal strings, never as floats.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .census import (
    EnumerationCapError,
    count_series,
    enumeration_cap,
    format_word,
    iter_word_sets,
)
from .combine import (
    BoundReport,
    CombinedSystem,
    Schedule,
    ScheduleExhaustedError,
    combined_count,
    combined_count_series,
    find_inadmissible_subword,
    parse_schedule,
)
from .entropy import entropy_series, fit_scaling, topological_entropy_estimate
from .graphs import DirectedGraph, GraphSpecError, parse_graph, validate
from .presets import (
    COMPLETE_LINEAR,
    GOLDEN_LINEAR,
    asymptotic_envelopes,
    complete_linear_bounds,
    complete_linear_system,
    golden_linear_bounds,
    golden_linear_system,
    match_preset,
    preset_bounds,
    quartic_schedule,
)
from .spectral import (
    char_poly,
    classify_growth,
    closed_form,
    conjecture_scan,
    verify_recurrence,
)

# Per-t bound functions by preset name.  The commands count through
# `preset_bounds`; the table stays because the benchmark's tracer
# self-test (perfbench/tests) reads it.
_BOUND_FNS = {GOLDEN_LINEAR: golden_linear_bounds, COMPLETE_LINEAR: complete_linear_bounds}

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_STRICT_BOUND = 3


@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[list[str]]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines += [",".join(row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"columns": self.columns, "rows": self.rows}, indent=2, sort_keys=True
        ) + "\n"


@dataclass
class ExperimentOutput:
    manifest: dict
    tables: list[Table] = field(default_factory=list)
    texts: dict[str, str] = field(default_factory=dict)

    def write(self, out_dir: str | Path, fmt: str) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        manifest_path = out / "manifest.json"
        manifest_path.write_text(json.dumps(self.manifest, indent=2, sort_keys=True) + "\n")
        written.append(manifest_path)
        for table in self.tables:
            suffix = "csv" if fmt == "csv" else "json"
            path = out / f"{table.name}.{suffix}"
            path.write_text(table.to_csv() if fmt == "csv" else table.to_json())
            written.append(path)
        for name, content in self.texts.items():
            path = out / name
            path.write_text(content)
            written.append(path)
        return written


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_bool(x: bool) -> str:
    return "true" if x else "false"


def _manifest(args: argparse.Namespace) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in {"func"} and value is not None
    }
    return {
        "command": args.command,
        "config": {k: (v if isinstance(v, (bool, int)) else str(v)) for k, v in config.items()},
        "version": __version__,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }


def _load_graph(path: str) -> DirectedGraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphSpecError(f"cannot read graph file {path}: {exc}") from None
    return parse_graph(text)


def _load_schedule(selector: str, horizon_hint: int) -> Schedule:
    """--schedule is either the literal "paper" or a JSON schedule file."""
    if selector == "paper":
        t_max = max(1, math.ceil(max(horizon_hint, 16) ** 0.25))
        return quartic_schedule(t_max)
    try:
        text = Path(selector).read_text()
    except OSError as exc:
        raise GraphSpecError(f"cannot read schedule file {selector}: {exc}") from None
    return parse_schedule(text)


def _bound_tables(prefix: str, preset: str, bounds: list[BoundReport]) -> list[Table]:
    """The bound sandwich and the asymptotic envelopes at each milestone."""
    envelopes = [asymptotic_envelopes(preset, b.n) for b in bounds]
    return [
        Table(
            f"{prefix}_bounds",
            ["t", "n", "log_lower", "log_actual", "log_upper", "holds", "actual"],
            [[str(b.t), str(b.n), _fmt_float(math.log(b.lower)),
              _fmt_float(math.log(b.actual)), _fmt_float(math.log(b.upper)),
              _fmt_bool(b.holds), str(b.actual)] for b in bounds],
        ),
        Table(
            f"{prefix}_envelopes",
            ["t", "n", "log_f1", "log_f2"],
            [[str(b.t), str(b.n), _fmt_float(f1), _fmt_float(f2)]
             for b, (f1, f2) in zip(bounds, envelopes)],
        ),
    ]


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args: argparse.Namespace) -> ExperimentOutput:
    if len(args.graph) != 1:
        raise GraphSpecError("analyze takes exactly one --graph")
    graph = _load_graph(args.graph[0])
    diag = validate(graph)
    if not diag.weakly_connected:
        raise GraphSpecError("graph is not weakly connected")
    out = ExperimentOutput(_manifest(args))

    out.tables.append(Table(
        "analyze_diagnostics",
        ["weakly_connected", "strongly_connected", "absorbing_states", "edge_count"],
        [[_fmt_bool(diag.weakly_connected), _fmt_bool(diag.strongly_connected),
          "|".join(diag.absorbing_states), str(diag.edge_count)]],
    ))

    poly = char_poly(graph)
    out.tables.append(Table(
        "analyze_charpoly",
        ["power", "coefficient"],
        [[str(poly.degree - i), str(c)] for i, c in enumerate(poly.coefficients)],
    ))

    form = closed_form(graph)
    rows = []
    for term in form.terms:
        for q, c in enumerate(term.coefficients):
            rows.append([
                _fmt_float(term.root.real), _fmt_float(term.root.imag),
                str(term.multiplicity), str(q),
                _fmt_float(c.real), _fmt_float(c.imag),
            ])
    out.tables.append(Table(
        "analyze_closed_form",
        ["root_real", "root_imag", "multiplicity", "power", "coeff_real", "coeff_imag"],
        rows,
    ))

    series = count_series(graph, args.n_max)
    ent = entropy_series(series)
    growth = classify_growth(form)
    h_top = topological_entropy_estimate(ent) if len(ent) >= 2 else float("nan")
    out.tables.append(Table(
        "analyze_growth",
        ["kind", "rho", "poly_degree", "h_top_estimate"],
        [[growth.kind, _fmt_float(growth.rho), str(growth.poly_degree), _fmt_float(h_top)]],
    ))

    syms = graph.alphabet.symbols
    out.tables.append(Table(
        "analyze_counts",
        ["n", "omega_total"] + [f"omega_row_{s}" for s in syms] + [f"omega_col_{s}" for s in syms],
        [[str(r.n), str(r.total)] + [str(v) for v in r.row_sums] + [str(v) for v in r.col_sums]
         for r in series.rows],
    ))

    out.tables.append(Table(
        "analyze_entropy",
        ["n", "count", "H", "h_top"],
        [[str(p.n), str(p.count), _fmt_float(p.H), _fmt_float(p.h_top)] for p in ent.points],
    ))

    if args.n_max > graph.k:
        rec = verify_recurrence(graph, args.n_max)
        out.tables.append(Table(
            "analyze_recurrence",
            ["n_max", "ok", "failures"],
            [[str(rec.n_max), _fmt_bool(rec.ok), str(len(rec.failures))]],
        ))

    if args.enumerate:
        rows = []
        for ws in iter_word_sets(graph, args.n_max, cap=args.enum_cap):
            rows += [[str(ws.length), w] for w in ws.strings()]
        out.tables.append(Table("analyze_words", ["n", "word"], rows))
    return out


def cmd_combine(args: argparse.Namespace) -> ExperimentOutput:
    if len(args.graph) < 2:
        raise GraphSpecError("combine needs at least two --graph files")
    graphs = tuple(_load_graph(p) for p in args.graph)
    horizon_hint = max(args.n_max, (args.t_max + 1) ** 4)
    schedule = _load_schedule(args.schedule, horizon_hint)
    system = CombinedSystem(graphs, schedule)
    out = ExperimentOutput(_manifest(args))

    counts = combined_count_series(system, args.n_max)
    out.tables.append(Table(
        "combine_counts", ["n", "count"], [[str(n), str(c)] for n, c in counts]
    ))

    preset = match_preset(system)
    bound_failed = False
    if preset is not None:
        bounds = preset_bounds(preset, args.t_max)
        out.tables += _bound_tables("combine", preset, bounds)
        bound_failed = any(not b.holds for b in bounds)

    witness_n = min(args.n_max, 10, schedule.horizon)
    witness = find_inadmissible_subword(system, witness_n, cap=args.enum_cap)
    alphabet = system.alphabet
    if witness is None:
        row = ["false", "", "", ""]
    else:
        row = ["true", format_word(alphabet, witness.word),
               format_word(alphabet, witness.subword), str(witness.start)]
    out.tables.append(Table(
        "combine_witness", ["found", "word", "subword", "start"], [row]
    ))

    if args.strict and bound_failed:
        out.manifest["strict_bound_failure"] = True
    return out


def cmd_scan(args: argparse.Namespace) -> ExperimentOutput:
    if not 1 <= args.k_max <= 4:
        raise GraphSpecError("--k-max must be between 1 and 4")
    report = conjecture_scan(args.k_max)
    out = ExperimentOutput(_manifest(args))
    out.tables.append(Table(
        "scan_table",
        ["bitmask", "k", "strongly_connected", "kind", "rho", "poly_degree"],
        [[str(r.bitmask), str(r.k), _fmt_bool(r.strongly_connected),
          r.kind, _fmt_float(r.rho), str(r.poly_degree)] for r in report.rows],
    ))
    summary_rows = [
        [str(k), str(candidates)]
        + [str(sum(r.k == k for r in rows))
           for rows in (report.rows, report.mixed_strongly_connected, report.mixed_weakly_only)]
        for k, candidates in report.candidates_by_k
    ]
    out.tables.append(Table(
        "scan_summary",
        ["k", "candidates", "weakly_connected_graphs", "mixed_strongly_connected", "mixed_weakly_only"],
        summary_rows,
    ))
    return out


def cmd_entropy_fit(args: argparse.Namespace) -> ExperimentOutput:
    if len(args.graph) == 1:
        graph = _load_graph(args.graph[0])
        series = entropy_series(count_series(graph, args.n_max))
    elif len(args.graph) >= 2:
        if args.schedule is None:
            raise GraphSpecError("entropy-fit over several graphs needs --schedule")
        graphs = tuple(_load_graph(p) for p in args.graph)
        schedule = _load_schedule(args.schedule, (args.t_max + 1) ** 4)
        system = CombinedSystem(graphs, schedule)
        samples = []
        for t in range(1, args.t_max + 1):
            n = (t + 1) ** 4
            if n > schedule.horizon:
                break
            samples.append((n, combined_count(system, n)))
        series = entropy_series(samples)
    else:
        raise GraphSpecError("entropy-fit needs at least one --graph")
    out = ExperimentOutput(_manifest(args))
    out.tables.append(Table(
        "entropy_series",
        ["n", "count", "H", "h_top"],
        [[str(p.n), str(p.count), _fmt_float(p.H), _fmt_float(p.h_top)] for p in series.points],
    ))
    fit = fit_scaling(series)
    res = dict(fit.residuals)
    out.tables.append(Table(
        "entropy_fit",
        ["model", "h", "g", "mu", "nu", "e", "residual",
         "rms_linear", "rms_power", "rms_logarithmic", "n_lo", "n_hi"],
        [[fit.model, _fmt_float(fit.h), _fmt_float(fit.g), _fmt_float(fit.mu),
          _fmt_float(fit.nu), _fmt_float(fit.e), _fmt_float(fit.residual),
          _fmt_float(res["linear"]), _fmt_float(res["power"]), _fmt_float(res["logarithmic"]),
          str(fit.n_range[0]), str(fit.n_range[1])]],
    ))
    out.texts["entropy_fit_report.txt"] = fit.report()
    return out


def cmd_paper_examples(args: argparse.Namespace) -> ExperimentOutput:
    out = ExperimentOutput(_manifest(args))
    t_golden = args.t_max if args.t_max else 6
    t_complete = args.t_max if args.t_max else 8
    bound_failed = False
    for name, t_hi in ((GOLDEN_LINEAR, t_golden), (COMPLETE_LINEAR, t_complete)):
        bounds = preset_bounds(name, t_hi)
        bound_failed = bound_failed or any(not b.holds for b in bounds)
        out.tables += _bound_tables(name.replace("-", "_"), name, bounds)

    witness = find_inadmissible_subword(golden_linear_system(1), 5)
    alphabet = golden_linear_system(1).alphabet
    row = (["true", format_word(alphabet, witness.word),
            format_word(alphabet, witness.subword), str(witness.start)]
           if witness else ["false", "", "", ""])
    out.tables.append(Table(
        "golden_linear_witness", ["found", "word", "subword", "start"], [row]
    ))

    system = complete_linear_system(12)
    samples = [((t + 1) ** 4, combined_count(system, (t + 1) ** 4)) for t in range(1, 13)]
    fit = fit_scaling(entropy_series(samples))
    res = dict(fit.residuals)
    out.tables.append(Table(
        "complete_linear_scaling",
        ["model", "g", "mu", "e", "residual", "rms_linear", "rms_power", "rms_logarithmic"],
        [[fit.model, _fmt_float(fit.g), _fmt_float(fit.mu), _fmt_float(fit.e),
          _fmt_float(fit.residual), _fmt_float(res["linear"]), _fmt_float(res["power"]),
          _fmt_float(res["logarithmic"])]],
    ))
    out.texts["complete_linear_fit_report.txt"] = fit.report()

    if args.strict and bound_failed:
        out.manifest["strict_bound_failure"] = True
    return out


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symgraph",
        description="exact word census and growth analysis for graph symbolic dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, graphs=False, schedule=False) -> None:
        if graphs:
            p.add_argument("--graph", action="append", default=[],
                           help="graph-spec JSON file (repeatable)")
        if schedule:
            p.add_argument("--schedule", default=None,
                           help='schedule: "paper" or a JSON schedule file')
        p.add_argument("--n-max", type=int, default=30)
        p.add_argument("--t-max", type=int, default=0)
        p.add_argument("--out", default="symgraph-out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--strict", action="store_true",
                       help="nonzero exit when a bound report fails")
        p.add_argument("--enum-cap", type=int, default=None,
                       help=f"word-enumeration cap (default {enumeration_cap()})")

    p = sub.add_parser("analyze", help="single-graph analysis")
    common(p, graphs=True)
    p.add_argument("--enumerate", action="store_true", help="also list words up to n-max")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("combine", help="scheduled combination analysis")
    common(p, graphs=True, schedule=True)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("scan", help="exhaustive small-digraph classification")
    common(p)
    p.add_argument("--k-max", type=int, default=3)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("entropy-fit", help="entropy series and scaling fit")
    common(p, graphs=True, schedule=True)
    p.set_defaults(func=cmd_entropy_fit)

    p = sub.add_parser("paper-examples", help="bundled reference experiments")
    common(p)
    p.set_defaults(func=cmd_paper_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "combine" and args.t_max == 0:
        args.t_max = 6
    if args.command == "entropy-fit" and args.t_max == 0:
        args.t_max = 12
    if args.command == "combine" and args.schedule is None:
        print("error: combine needs --schedule", file=sys.stderr)
        return EXIT_ERROR
    try:
        output = args.func(args)
    except (GraphSpecError, EnumerationCapError, ScheduleExhaustedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    paths = output.write(args.out, args.format)
    for path in paths:
        print(f"wrote {path}")
    if output.manifest.get("strict_bound_failure"):
        return EXIT_STRICT_BOUND
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
