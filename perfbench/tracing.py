"""Per-layer spans around calls into symgraph, from outside the package.

`Tracer.install` wraps every public function of the eight layer modules,
and the read methods of `census.WordSet`, then rebinds each wrapper
wherever the package holds the original: module attributes, the
package namespace, and dicts of functions such as the CLI's table of
bound functions.  Nothing under `src/` changes; `uninstall` puts the
originals back.

A span is (id, name, start, end, parent id, op id).  Spans stay in
memory and are written out when the run ends; past SPAN_LIMIT only the
per-name totals go on.  Self time is a span's duration minus its child
spans' durations, which never overlap in one thread.  A generator
function's span covers each resumption, so consumer code between items
is not charged to it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "intmat", "census", "spectral", "combine", "presets", "entropy", "cli")
WORDSET_READS = ("codes", "__contains__", "contains_code", "__iter__", "strings")
WORD_SET_GENERATORS = ("census.iter_word_sets", "combine.iter_combined_word_sets")
SPAN_LIMIT = 500_000


class Tracer:
    def __init__(self, sg) -> None:
        self.sg = sg
        self.op = -1
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.errors: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.max_count_bits = 0
        self.words = 0
        self.level_cap_ratio_max = 0.0
        self.polys: set[tuple[int, ...]] = set()
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._cap = sg.census.enumeration_cap
        self._hooks = {
            "intmat.mat_total": self._on_total,
            "spectral.char_poly": self._on_char_poly,
        }
        for name in WORD_SET_GENERATORS:
            self._hooks[name] = self._on_level

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, parent, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, parent, start, child_s = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((span_id, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def _note_error(self, exc: Exception) -> None:
        if not getattr(exc, "_perfbench_seen", False):
            exc._perfbench_seen = True
            self.errors[type(exc).__name__] += 1

    def _wrap(self, name: str, fn):
        tracer = self
        hook = self._hooks.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except Exception as exc:
                        tracer._note_error(exc)
                        raise
                    finally:
                        tracer._exit(name, frame)
                    if hook:
                        hook(item, args, kwargs)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._note_error(exc)
                raise
            finally:
                tracer._exit(name, frame)
            if hook:
                hook(result, args, kwargs)
            return result
        return traced

    # -- counters taken at the same boundaries -------------------------------

    def _on_total(self, total, args, kwargs) -> None:
        self.max_count_bits = max(self.max_count_bits, abs(total).bit_length())

    def _on_char_poly(self, poly, args, kwargs) -> None:
        self.polys.add(poly.coefficients)

    def _on_level(self, level, args, kwargs) -> None:
        self.words += len(level)
        cap = self._cap(kwargs.get("cap", args[2] if len(args) > 2 else None))
        self.level_cap_ratio_max = max(self.level_cap_ratio_max, len(level) / cap)

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(self.sg, layer)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        word_set = self.sg.census.WordSet
        for attr in WORDSET_READS:
            self._patch(word_set, attr, self._wrap(f"census.WordSet.{attr}", vars(word_set)[attr]))
        for name, mod in list(sys.modules.items()):
            if name != "symgraph" and not name.startswith("symgraph."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._undo.append((obj, key, val, True))
                            obj[key] = wrappers[val]

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, key, old, is_item in reversed(self._undo):
            if is_item:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for span_id, name, start, end, parent, op in sorted(self.spans):
                fh.write(f"{span_id},{name},{start!r},{end!r},{parent},{op}\n")


# Per-layer metrics: name, unit, and how to read it off a finished tracer.
# Which end-to-end metric each should move, on which workload, is listed
# in perfbench/README.md.

def _self(*names):
    return lambda t: sum(t.self_s.get(n, 0.0) for n in names)


def _calls(name):
    return lambda t: t.calls.get(name, 0)


PER_LAYER = (
    ("spectral.graph_from_bitmask.self_s", "s", _self("spectral.graph_from_bitmask")),
    ("graphs.validate.self_s", "s", _self("graphs.validate")),
    ("graphs.parse_graph.self_s", "s", _self("graphs.parse_graph")),
    ("intmat.mat_mul.calls", "count", _calls("intmat.mat_mul")),
    ("intmat.mat_mul.self_s", "s", _self("intmat.mat_mul")),
    ("intmat.mat_pow.calls", "count", _calls("intmat.mat_pow")),
    ("intmat.mat_pow.self_s", "s", _self("intmat.mat_pow")),
    ("intmat.max_count_bits", "bits", lambda t: t.max_count_bits),
    ("census.count_series.self_s", "s", _self("census.count_series")),
    ("census.iter_word_sets.self_s", "s", _self("census.iter_word_sets")),
    ("census.words", "count", lambda t: t.words),
    ("census.words_per_s", "1/s", lambda t: t.words / max(_self(*WORD_SET_GENERATORS)(t), 1e-12)
     if t.words else 0.0),
    ("census.wordset_reads.self_s", "s", _self(*(f"census.WordSet.{a}" for a in WORDSET_READS))),
    ("census.level_cap_ratio_max", "ratio", lambda t: t.level_cap_ratio_max),
    ("spectral.char_poly.calls", "count", _calls("spectral.char_poly")),
    ("spectral.char_poly.self_s", "s", _self("spectral.char_poly")),
    ("spectral.charpoly_distinct_ratio", "ratio",
     lambda t: len(t.polys) / t.calls["spectral.char_poly"] if t.calls["spectral.char_poly"] else 0.0),
    ("spectral.closed_form.self_s", "s", _self("spectral.closed_form")),
    ("spectral.classify_growth.self_s", "s", _self("spectral.classify_growth")),
    ("spectral.verify_recurrence.self_s", "s", _self("spectral.verify_recurrence")),
    ("spectral.ill_conditioned", "count", lambda t: t.errors.get("IllConditionedError", 0)),
    ("spectral.root_cluster", "count", lambda t: t.errors.get("RootClusterError", 0)),
    ("combine.combined_count.calls", "count", _calls("combine.combined_count")),
    ("combine.combined_count.self_s", "s", _self("combine.combined_count")),
    ("combine.combined_count_series.self_s", "s", _self("combine.combined_count_series")),
    ("combine.iter_combined_word_sets.self_s", "s", _self("combine.iter_combined_word_sets")),
    ("combine.find_inadmissible_subword.self_s", "s", _self("combine.find_inadmissible_subword")),
    ("presets.bounds.self_s", "s", _self("presets.golden_linear_bounds", "presets.complete_linear_bounds")),
    ("presets.asymptotic_envelopes.calls", "count", _calls("presets.asymptotic_envelopes")),
    ("entropy.entropy_series.self_s", "s", _self("entropy.entropy_series")),
    ("entropy.fit_scaling.self_s", "s", _self("entropy.fit_scaling")),
    ("entropy.topological_entropy_estimate.self_s", "s", _self("entropy.topological_entropy_estimate")),
    ("cli.main.self_s", "s", _self("cli.main")),
)
