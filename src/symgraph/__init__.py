"""symgraph: exact analysis of symbolic dynamics generated by directed graphs.

Directed graphs over a finite alphabet generate languages of admissible
words (walks read as letter strings).  This package counts and enumerates
those words exactly, derives the integer linear recurrence and the
eigenvalue closed form behind the counts, classifies the growth rate,
and studies scheduled combinations of graphs, where word counts can grow
like a stretched exponential - something a single graph can never do.
Block-entropy series and scaling-law fits quantify the same phenomena on
the entropy level.

All counting is exact (unbounded integers); floating point only enters
when comparing against eigenvalue closed forms or fitting entropy laws.
All value types are immutable and all operations pure.
"""

__version__ = "0.1.0"

from .graphs import (
    Alphabet,
    DirectedGraph,
    GraphDiagnostics,
    GraphSpecError,
    graph_from_edges,
    graph_to_json,
    higher_order_graph,
    parse_graph,
    validate,
)
from .census import (
    CountMatrix,
    CountSeries,
    EnumerationCapError,
    WordSet,
    count_matrix,
    count_series,
    enumerate_words,
    enumeration_cap,
    format_word,
    is_admissible,
    iter_word_sets,
    total_count,
)
from .spectral import (
    CharPoly,
    ClosedForm,
    ClosedFormTerm,
    GrowthClass,
    IllConditionedError,
    RecurrenceReport,
    RootClusterError,
    ScanReport,
    ScanRow,
    char_poly,
    charpoly_at_matrix,
    classify_growth,
    closed_form,
    conjecture_scan,
    graph_from_bitmask,
    iter_connected_bitmasks,
    verify_recurrence,
    EXPONENTIAL,
    POLYNOMIAL,
    MIXED,
)
from .combine import (
    BoundReport,
    CombinedSystem,
    Schedule,
    ScheduleExhaustedError,
    SubwordWitness,
    active_index,
    combined_count,
    combined_count_matrix,
    combined_count_series,
    combined_enumerate,
    find_inadmissible_subword,
    iter_combined_word_sets,
    parse_schedule,
)
from .presets import (
    COMPLETE_LINEAR,
    GOLDEN_LINEAR,
    asymptotic_envelopes,
    complete_graph,
    complete_linear_bounds,
    complete_linear_system,
    fibonacci,
    golden_graph,
    golden_linear_bounds,
    golden_linear_system,
    linear_graph,
    match_preset,
    preset_bounds,
    quartic_schedule,
    quartic_stint,
    two_cycle_graph,
)
from .entropy import (
    EntropyPoint,
    EntropySeries,
    ScalingFit,
    entropy_series,
    fit_scaling,
    topological_entropy_estimate,
)
