"""Command-line front end.

Subcommands
-----------
analyze        single-graph census: diagnostics, characteristic polynomial,
               closed form, growth class, counts, entropy, recurrence check
combine        scheduled system of one or more graphs: counts, bound reports
               and envelopes (for the bundled systems), subword witness
scan           exhaustive classification of small weakly connected digraphs
entropy-fit    entropy series and scaling-law fit: one graph to n-max, or
               with --schedule the milestones of one or more graphs
paper-examples the two bundled reference experiments, no inputs needed

Every run writes a manifest plus per-command data tables to --out, as CSV
(default) or JSON.  Data tables are byte-deterministic for a fixed
configuration; only the manifest carries a timestamp.  Exact counts are
always emitted as decimal strings, never as floats.  A failed fit still
writes entropy-fit's series; the manifest names the failed stage and error.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .census import (
    DEFAULT_ENUM_CAP,
    ENUM_CAP_ENV,
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
    combined_count_series,
    find_inadmissible_subword,
    parse_schedule,
)
from .entropy import EntropySeries, entropy_series, fit_scaling, topological_entropy_estimate
from .graphs import DirectedGraph, GraphSpecError, parse_graph, validate
from .presets import (
    COMPLETE_LINEAR,
    GOLDEN_LINEAR,
    asymptotic_envelopes,
    complete_linear_system,
    golden_linear_system,
    match_preset,
    milestone_counts,
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


def _witness_table(name: str, system: CombinedSystem, n_max: int) -> Table:
    """The first word up to n_max with an inadmissible subword, if any."""
    witness = find_inadmissible_subword(system, n_max)
    row = ["false", "", "", ""]
    if witness is not None:
        row = ["true", format_word(system.alphabet, witness.word),
               format_word(system.alphabet, witness.subword), str(witness.start)]
    return Table(name, ["found", "word", "subword", "start"], [row])


def _entropy_table(name: str, series: EntropySeries) -> Table:
    return Table(
        name,
        ["n", "count", "H", "h_top"],
        [[str(p.n), str(p.count), _fmt_float(p.H), _fmt_float(p.h_top)] for p in series.points],
    )


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
    growth = classify_growth(graph)
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

    out.tables.append(_entropy_table("analyze_entropy", ent))

    if args.n_max > graph.k:
        rec = verify_recurrence(graph, args.n_max)
        out.tables.append(Table(
            "analyze_recurrence",
            ["n_max", "ok", "failures"],
            [[str(rec.n_max), _fmt_bool(rec.ok), str(len(rec.residual))]],
        ))

    if args.enumerate:
        cap = enumeration_cap(args.enum_cap)
        for r in series.rows:  # each level's exact size: fail before building a word
            if r.total > cap:
                raise EnumerationCapError(r.n, r.total, cap)
        rows = []
        for ws in iter_word_sets(graph, args.n_max, cap=cap):
            rows += [[str(ws.length), w] for w in ws.strings()]
        out.tables.append(Table("analyze_words", ["n", "word"], rows))
    return out


def cmd_combine(args: argparse.Namespace) -> ExperimentOutput:
    if args.schedule is None:
        raise GraphSpecError("combine needs --schedule")
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
    out.tables.append(_witness_table("combine_witness", system, witness_n))

    if args.strict and bound_failed:
        out.manifest["strict_bound_failure"] = True
    return out


def cmd_scan(args: argparse.Namespace) -> ExperimentOutput:
    report = conjecture_scan(args.k_max)
    out = ExperimentOutput(_manifest(args))
    out.tables.append(Table("scan_table", *report.table()))
    out.tables.append(Table("scan_summary", *report.summary()))
    return out


def cmd_entropy_fit(args: argparse.Namespace) -> ExperimentOutput:
    graphs = tuple(_load_graph(p) for p in args.graph)
    if args.schedule is not None:
        schedule = _load_schedule(args.schedule, (args.t_max + 1) ** 4)
        series = entropy_series(milestone_counts(CombinedSystem(graphs, schedule), args.t_max))
    elif len(graphs) > 1:
        raise GraphSpecError("entropy-fit over several graphs needs --schedule")
    else:
        series = entropy_series(combined_count_series(graphs[0], args.n_max))
    out = ExperimentOutput(_manifest(args))
    out.tables.append(_entropy_table("entropy_series", series))
    try:
        fit = fit_scaling(series)
    except ValueError as exc:  # too few points: the exact series still stands
        out.manifest.update(failed_stage="fit", error=str(exc))
        return out
    res = dict(fit.residuals)
    out.tables.append(Table(
        "entropy_fit",
        ["model", "h", "g", "mu", "e", "residual",
         "rms_linear", "rms_power", "rms_logarithmic", "n_lo", "n_hi"],
        [[fit.model, _fmt_float(fit.h), _fmt_float(fit.g), _fmt_float(fit.mu),
          _fmt_float(fit.e), _fmt_float(fit.residual),
          _fmt_float(res["linear"]), _fmt_float(res["power"]), _fmt_float(res["logarithmic"]),
          str(fit.n_range[0]), str(fit.n_range[1])]],
    ))
    out.texts["entropy_fit_report.txt"] = fit.report()
    return out


def cmd_paper_examples(args: argparse.Namespace) -> ExperimentOutput:
    out = ExperimentOutput(_manifest(args))
    bound_failed = False
    for name, t_default in ((GOLDEN_LINEAR, 6), (COMPLETE_LINEAR, 8)):
        bounds = preset_bounds(name, args.t_max or t_default)
        bound_failed = bound_failed or any(not b.holds for b in bounds)
        out.tables += _bound_tables(name.replace("-", "_"), name, bounds)

    out.tables.append(_witness_table("golden_linear_witness", golden_linear_system(1), 5))

    fit = fit_scaling(entropy_series(milestone_counts(complete_linear_system(12), 12)))
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


# name, handler, help, the options its handler reads, parser defaults
_COMMANDS = (
    ("analyze", cmd_analyze, "single-graph analysis",
     ("--graph", "--n-max", "--enumerate", "--enum-cap"), {}),
    ("combine", cmd_combine, "scheduled combination analysis",
     ("--graph", "--schedule", "--n-max", "--t-max", "--strict"), {"t_max": 6}),
    ("scan", cmd_scan, "exhaustive small-digraph classification", ("--k-max",), {}),
    ("entropy-fit", cmd_entropy_fit, "entropy series and scaling fit",
     ("--graph", "--schedule", "--n-max", "--t-max"), {"t_max": 12}),
    ("paper-examples", cmd_paper_examples, "bundled reference experiments",
     ("--t-max", "--strict"), {}),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The symgraph parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symgraph",
        description="exact word census and growth analysis for graph symbolic dynamics",
    )
    options = {
        "--graph": dict(action="append", default=[], help="graph-spec JSON file (repeatable)"),
        "--schedule": dict(default=None, help='schedule: "paper" or a JSON schedule file'),
        "--n-max": dict(type=int, default=30, help="longest word length (entropy-fit: only without --schedule)"),
        "--t-max": dict(type=int, default=0, help="last milestone t, length (t+1)**4 (entropy-fit: only with --schedule)"),
        "--k-max": dict(type=int, default=3),
        "--strict": dict(action="store_true", help="nonzero exit when a bound report fails"),
        "--enumerate": dict(action="store_true", help="also list words up to n-max"),
        "--enum-cap": dict(type=int, default=None,
                           help=f"word-enumeration cap (default ${ENUM_CAP_ENV}, else {DEFAULT_ENUM_CAP})"),
        "--out": dict(default="symgraph-out", help="output directory"),
        "--format": dict(choices=("csv", "json"), default="csv"),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, reads, defaults in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in reads + ("--out", "--format"):
            p.add_argument(option, **options[option])
        p.set_defaults(func=func, **defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = args.func(args)
    except (GraphSpecError, EnumerationCapError, ScheduleExhaustedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:  # exact counts have no size budget, so a huge n can exhaust memory
        print(f"error: out of memory in {args.command}; try a smaller --n-max or --t-max",
              file=sys.stderr)
        return EXIT_ERROR
    try:
        paths = output.write(args.out, args.format)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for path in paths:
        print(f"wrote {path}")
    if "error" in output.manifest:
        print(f"error: {output.manifest['error']}", file=sys.stderr)
        return EXIT_ERROR
    if output.manifest.get("strict_bound_failure"):
        return EXIT_STRICT_BOUND
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
